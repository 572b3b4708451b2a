"""Periodic grids and pseudo-spectral evaluation of jet expressions.

Fields live on uniform periodic grids (axis order x, y, z).  Spatial
derivatives are taken spectrally; time derivatives of u must be supplied
as separate field arrays (they are independent data, produced by the
evolution right-hand side).  Every field is real, so spectral arrays are
rfftn half-spectra: the last axis keeps its n//2 + 1 non-negative modes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .jetexpr import AXES, JetExpr, T, mi_order

MAX_STENCIL_ORDER = 6
MIN_RESOLUTION = 16


class GridError(ValueError):
    pass


class UnboundArbFun(GridError):
    pass


class DerivativeOrderTooHigh(GridError):
    pass


class MissingTimeDerivative(GridError):
    pass


@dataclass
class GridField:
    """Sampled u values on a periodic grid; axis order (x, y[, z])."""

    data: np.ndarray
    periods: tuple
    time: float = 0.0

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        self.periods = tuple(float(p) for p in self.periods)
        if self.data.ndim != len(self.periods):
            raise GridError("data dimensionality does not match periods")
        if not 1 <= self.data.ndim <= 3:
            raise GridError("grids support 1 to 3 spatial dimensions")
        if any(n < MIN_RESOLUTION for n in self.data.shape):
            raise GridError(f"resolutions must be >= {MIN_RESOLUTION}")
        if any(p <= 0 for p in self.periods):
            raise GridError("periods must be positive")

    @property
    def dim(self) -> int:
        return self.data.ndim

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def spacing(self, axis: int) -> float:
        return self.periods[axis] / self.shape[axis]

    def coords(self, axis: int) -> np.ndarray:
        """Coordinate array broadcastable against data; axis 0 is x."""
        n = self.shape[axis]
        c = np.arange(n) * (self.periods[axis] / n)
        shape = [1] * self.dim
        shape[axis] = n
        return c.reshape(shape)

    def wavenumbers(self, axis: int) -> np.ndarray:
        return _wavenumbers(self.shape, self.periods, axis)

    def cell_volume(self) -> float:
        return float(np.prod(self.periods))

    def mean(self) -> float:
        return float(self.data.mean())

    def integral(self) -> float:
        return self.mean() * self.cell_volume()

    def with_data(self, data: np.ndarray, time: float | None = None) -> "GridField":
        return GridField(data, self.periods, self.time if time is None else time)


def _wavenumbers(shape: tuple, periods: tuple, axis: int) -> np.ndarray:
    """Angular wavenumbers along one axis, broadcastable against the grid."""
    n = shape[axis]
    k = 2.0 * math.pi * np.fft.fftfreq(n, d=periods[axis] / n)
    out = [1] * len(shape)
    out[axis] = n
    return k.reshape(out)


def to_grid(hat: np.ndarray, shape: tuple) -> np.ndarray:
    """Real grid values of a half-spectrum on a grid of `shape`."""
    return np.fft.irfftn(hat, s=shape, axes=tuple(range(len(shape))))


def dealias_mask(shape: tuple) -> np.ndarray:
    """2/3-rule mask of the full spectrum of `shape`; cut its last axis to
    n//2 + 1 modes to mask a half-spectrum."""
    mask = np.ones(shape, dtype=bool)
    for axis, n in enumerate(shape):
        modes = np.abs(np.fft.fftfreq(n) * n)
        cut = modes > (n // 3)
        sl = [np.newaxis] * len(shape)
        sl[axis] = slice(None)
        mask &= ~cut[tuple(sl)]
    return mask


class TimeFunction:
    """Binding for a single-variable arbitrary function of time."""

    def __init__(self, derivs, name: str = "f"):
        self._derivs = derivs
        self.name = name

    def deriv(self, k: int, t: float) -> float:
        return float(self._derivs(k, t))

    @staticmethod
    def builtin(name: str) -> "TimeFunction":
        if name == "one":
            return TimeFunction(lambda k, t: 1.0 if k == 0 else 0.0, name)
        if name == "t":
            return TimeFunction(lambda k, t: (t, 1.0)[k] if k <= 1 else 0.0, name)
        if name == "sin":
            def d(k, t):
                return math.sin(t + k * math.pi / 2.0)
            return TimeFunction(d, name)
        raise UnboundArbFun(f"no built-in time function {name!r} (use one, t, sin)")


def ik_symbol(grid: GridField, spatial: tuple) -> np.ndarray:
    """Read-only half-spectrum symbol prod_a (i k_a)^spatial[a] of a derivative."""
    return _ik_symbol(grid.shape, grid.periods, tuple(spatial[: grid.dim]))


@functools.lru_cache(maxsize=64)
def _ik_symbol(shape: tuple, periods: tuple, spatial: tuple) -> np.ndarray:
    out = np.ones(shape, dtype=complex)
    for axis, n in enumerate(spatial):
        if n:
            out = out * (1j * _wavenumbers(shape, periods, axis)) ** n
    # keep the Hermitian part (S(k) + conj S(-k)) / 2, the only part that the
    # real part of a full inverse transform applies (it zeroes, e.g., odd
    # derivatives of Nyquist modes); irfftn of a half would apply all of S
    mirror = np.conj(np.roll(np.flip(out), 1, axis=tuple(range(len(shape)))))
    out = (out + mirror)[..., : shape[-1] // 2 + 1] / 2
    out.flags.writeable = False
    return out


class SpectralEvaluator:
    """Pointwise u-jets on a grid, computed from spectral arrays.

    `fields` maps a time-derivative order to grid values; a jet without
    spatial derivatives returns them as given, other jets transform them
    once.  `reset(u_hat)` starts over from the half-spectrum of u alone.
    """

    def __init__(self, grid: GridField, fields: dict[int, np.ndarray] | None = None):
        self.grid = grid
        self.fields = fields or {}
        self._hats: dict[int, np.ndarray] = {}
        self._jets: dict[tuple, np.ndarray] = {}

    def reset(self, u_hat: np.ndarray):
        self.fields = {}
        self._hats = {0: u_hat}
        self._jets = {}

    def jet(self, mi: tuple) -> np.ndarray:
        got = self._jets.get(mi)
        if got is not None:
            return got
        t_order = mi[T]
        spatial = mi[1:]
        if mi_order(spatial) > MAX_STENCIL_ORDER:
            raise DerivativeOrderTooHigh(
                f"spatial derivative order {mi_order(spatial)} exceeds "
                f"{MAX_STENCIL_ORDER}"
            )
        if t_order not in self.fields and t_order not in self._hats:
            raise MissingTimeDerivative(
                f"expression needs d_t^{t_order} u but only orders "
                f"{sorted(self.fields)} are bound"
            )
        if mi_order(spatial) == 0 and t_order in self.fields:
            out = np.asarray(self.fields[t_order], dtype=float)
        else:
            hat = self._hats.get(t_order)
            if hat is None:
                hat = self._hats[t_order] = np.fft.rfftn(self.fields[t_order])
            if mi_order(spatial):
                hat = hat * ik_symbol(self.grid, spatial)
            out = to_grid(hat, self.grid.shape)
        self._jets[mi] = out
        return out

    def terms(self, terms) -> np.ndarray:
        """Sum of factor * prod jet(mi)^p over (factor, ((mi, p), ...)) terms."""
        total = np.zeros(self.grid.shape)
        for factor, jets in terms:
            value = np.full(self.grid.shape, factor)
            for mi, p in jets:
                value = value * self.jet(mi) ** p
            total += value
        return total


def evaluate_on_grid(
    e: JetExpr,
    grid: GridField,
    u_t: np.ndarray | None = None,
    fun_bindings: dict | None = None,
    params: dict | None = None,
    extra_fields: dict | None = None,
) -> np.ndarray:
    """Evaluate a jet expression pointwise on a periodic grid.

    `u_t` supplies the first time derivative where the expression needs
    it; higher time derivatives may be passed in `extra_fields` keyed by
    order.  Single-variable arbitrary functions are bound through
    `fun_bindings` (name -> TimeFunction); multi-variable ones must be
    substituted symbolically beforehand.
    """
    fields = {0: grid.data}
    if u_t is not None:
        fields[1] = np.asarray(u_t)
    for k, v in (extra_fields or {}).items():
        fields[int(k)] = np.asarray(v)
    fun_bindings = fun_bindings or {}
    params = params or {}

    terms = []
    for mono, coeff in e.terms:
        factor = float(coeff)
        for axis, p in mono[0]:
            if axis == T:
                factor = factor * grid.time ** p
            else:
                if axis - 1 >= grid.dim:
                    raise GridError(f"variable {AXES[axis]} outside grid dimension")
                factor = factor * grid.coords(axis - 1) ** p
        for key, p in mono[2]:
            name, sig, orders, _rule = key
            if len(sig) != 1 or sig[0] != T:
                raise UnboundArbFun(
                    f"{name!r} depends on space; substitute it symbolically "
                    f"before grid evaluation"
                )
            if name not in fun_bindings:
                raise UnboundArbFun(f"no binding for arbitrary function {name!r}")
            factor = factor * fun_bindings[name].deriv(orders[0], grid.time) ** p
        for key, p in mono[3]:
            if key[0] not in params:
                raise UnboundArbFun(f"no numeric value for parameter {key[0]!r}")
            factor = factor * float(params[key[0]]) ** p
        jets = []
        for key, p in mono[1]:
            if key[0] != "u":
                raise GridError(f"cannot evaluate dependent variable {key[0]!r} on a u-grid")
            jets.append((key[1], p))
        terms.append((factor, jets))
    return SpectralEvaluator(grid, fields).terms(terms)
