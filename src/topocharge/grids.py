"""Periodic grids and pseudo-spectral evaluation of jet expressions.

Fields live on uniform periodic grids (axis order x, y, z).  Spatial
derivatives are taken spectrally; time derivatives of u must be supplied
as separate field arrays (they are independent data, produced by the
evolution right-hand side).  Every field is real, so spectral arrays are
rfftn half-spectra: the last axis keeps its n//2 + 1 non-negative modes.
Every grid evaluation runs one compiled SpectralEvaluator program, and
the evolver's stage program is that same program filled from its state.

The transform pair is numpy's own rfftn/irfftn, pass by pass and in its
order, so it is bit-identical to them.  It takes a band: the complex
passes over the other axes run on the first `band` last-axis columns
only, and the later columns count as zero.  A 2/3-masked spectrum keeps
n//3 + 1 of the n//2 + 1 columns, so the evolver's band skips a third of
those passes and loses nothing.
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
        if not all(0 < p < math.inf for p in self.periods):
            raise GridError(f"periods must be positive and finite, got {list(self.periods)}")

    @property
    def dim(self) -> int:
        return self.data.ndim

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def coords(self, axis: int) -> np.ndarray:
        """Coordinate array broadcastable against data; axis 0 is x."""
        n = self.shape[axis]
        c = np.arange(n) * (self.periods[axis] / n)
        shape = [1] * self.dim
        shape[axis] = n
        return c.reshape(shape)

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


def to_spectrum(data: np.ndarray, band: int | None = None,
                out: np.ndarray | None = None) -> np.ndarray:
    """Half-spectrum of real grid values: rfft on the last axis, then fft
    on the others from the second-to-last down to axis 0.  The fft passes
    run on the first `band` columns (all by default), which are rfftn's,
    and the later ones are set to zero.  Written into `out` when given."""
    hat = np.fft.rfft(data, out=out)
    kept = hat[..., :band]
    for axis in range(data.ndim - 2, -1, -1):
        np.fft.fft(kept, axis=axis, out=kept)
    if band is not None:
        hat[..., band:] = 0
    return hat


def to_grid(hat: np.ndarray, shape: tuple, band: int | None = None,
            out: np.ndarray | None = None, work: np.ndarray | None = None) -> np.ndarray:
    """Real grid values of a half-spectrum on a grid of `shape`: ifft on
    axes 0 to d - 2, then irfft on the last axis.  Only the first `band`
    columns of hat are read (all by default), as irfftn reads hat with the
    later ones zeroed; the ifft passes write into `work`, an array of those
    columns, when given, and the grid values into `out`."""
    kept = hat[..., :band]
    for axis in range(len(shape) - 1):
        kept = np.fft.ifft(kept, axis=axis, out=work)
    return np.fft.irfft(kept, shape[-1], out=out)


def dealias_mask(shape: tuple) -> np.ndarray:
    """2/3-rule mask of the full spectrum of `shape`, keeping the integer
    modes |k| <= n//3 of each axis; cut its last axis to n//2 + 1 modes to
    mask a half-spectrum."""
    mask = np.ones(shape, dtype=bool)
    for axis, n in enumerate(shape):
        keep = np.zeros(n, dtype=bool)  # modes 0..n//3 and -(n//3)..-1, in fftfreq order
        keep[: n // 3 + 1] = keep[n - n // 3:] = True
        sl = [np.newaxis] * len(shape)
        sl[axis] = slice(None)
        mask &= keep[tuple(sl)]
    return mask


class TimeFunction:
    """Binding for a single-variable arbitrary function of time."""

    def __init__(self, derivs):
        self._derivs = derivs

    def deriv(self, k: int, t: float) -> float:
        return float(self._derivs(k, t))

    @staticmethod
    def builtin(name: str) -> "TimeFunction":
        if name == "one":
            return TimeFunction(lambda k, t: 1.0 if k == 0 else 0.0)
        if name == "t":
            return TimeFunction(lambda k, t: (t, 1.0)[k] if k <= 1 else 0.0)
        if name == "sin":
            def d(k, t):
                return math.sin(t + k * math.pi / 2.0)
            return TimeFunction(d)
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
    """Pointwise u-jets on a grid, computed by one compiled program.

    `program` numbers the distinct u-jets of some term lists by slot and
    resolves each, once, to its time order and derivative symbol.  `fill`
    then computes every slot, from grid values or half-spectra keyed by
    time order: a jet without spatial derivatives passes its order's grid
    values through, and every other order is transformed once.
    `reset(u_hat)` fills from the half-spectrum of u alone, and `products`
    sums numbered terms by slot.  Spectra are read, and transformed, on
    the first `band` last-axis columns (all by default).  The program owns
    a grid buffer for each slot that a fill transforms, which only a fill
    writes, and the spectrum that each inverse transform runs in.
    """

    def __init__(self, grid: GridField, band: int | None = None):
        self.grid = grid
        self.band = grid.shape[-1] // 2 + 1 if band is None else band
        self._program: tuple = ()  # (multi-index, time order, symbol on the band or None) per slot
        self._slots: list = []
        self._buffers: list = []
        self._work = None
        self._held = None

    def program(self, *term_lists) -> list:
        """Each list of (factor, ((u-jet multi-index, power), ...)) terms with
        its jets replaced by their slots: the distinct jets of all the lists,
        checked and resolved here, which every later fill computes."""
        slots: dict[tuple, int] = {}
        out = [[(factor, tuple((slots.setdefault(mi, len(slots)), p) for mi, p in jets))
                for factor, jets in terms] for terms in term_lists]
        self._program = tuple((mi, *self._resolve(mi)) for mi in slots)
        shape = self.grid.shape
        self._buffers = [None] * len(slots)  # each made by the slot's first transform
        self._work = np.empty(shape[:-1] + (self.band,), dtype=complex)
        return out

    def _resolve(self, mi: tuple) -> tuple:
        order = mi_order(mi[1:])
        if order > MAX_STENCIL_ORDER:
            raise DerivativeOrderTooHigh(
                f"spatial derivative order {order} exceeds {MAX_STENCIL_ORDER}")
        return mi[T], ik_symbol(self.grid, mi[1:])[..., :self.band] if order else None

    def fill(self, fields: dict, hats: dict | None = None):
        """Compute the program's jets from the grid values `fields` and the
        half-spectra `hats`, both keyed by time order."""
        self._held = None  # the buffers change from here on
        hats = dict(hats or {})
        held, shape, band, work, slots = hats.get(0), self.grid.shape, self.band, self._work, []
        for i, (_mi, order, symbol) in enumerate(self._program):
            if symbol is None and order in fields:
                slots.append(np.asarray(fields[order], dtype=float))
                continue
            hat = hats.get(order)
            if hat is None:
                if order not in fields:
                    raise MissingTimeDerivative(
                        f"expression needs d_t^{order} u but only orders "
                        f"{sorted(fields)} are bound")
                hat = hats[order] = to_spectrum(fields[order], band)
            if symbol is not None:
                hat = np.multiply(hat[..., :band], symbol, out=work)
            self._buffers[i] = to_grid(hat, shape, band, self._buffers[i], work)
            slots.append(self._buffers[i])
        self._slots, self._held = slots, held

    def reset(self, u_hat: np.ndarray):
        """fill() from the half-spectrum u_hat of u alone."""
        self.fill({}, {0: u_hat})

    def holds(self, u_hat: np.ndarray) -> bool:
        """True iff the last fill was given this very array as u's spectrum."""
        return self._held is u_hat

    def products(self, terms) -> np.ndarray:
        """Sum of factor * prod jet^p over terms numbered by `program`, read
        from the jets of the last fill."""
        total, slots = None, self._slots
        for factor, jets in terms:
            value = factor
            for slot, p in jets:
                value = value * (slots[slot] if p == 1 else slots[slot] ** p)
            total = value if total is None else total + value
        if getattr(total, "shape", None) != self.grid.shape:  # no term has a u-jet
            total = np.full(self.grid.shape, 0.0 if total is None else total)
        return total


def compile_terms(
    e: JetExpr,
    params: dict | None = None,
    grid: GridField | None = None,
    fun_bindings: dict | None = None,
) -> list:
    """The (factor, ((jet multi-index, power), ...)) terms of e that
    SpectralEvaluator.program numbers, with parameters bound from `params`.

    On a grid, t, x, y, z and single-variable arbitrary functions of time
    (bound through `fun_bindings`, name -> TimeFunction) are evaluated at
    the grid's coordinates and time, so a factor may be an array.  Off a
    grid there is only u: coordinates, arbitrary functions and time
    derivatives of u are refused.
    """
    fun_bindings = fun_bindings or {}
    params = params or {}
    terms = []
    for mono, coeff in e.terms:
        factor = float(coeff)
        if grid is None and (mono[0] or mono[2] or any(k[1][T] for k, _p in mono[1])):
            raise GridError("coordinates, arbitrary functions and time derivatives "
                            "of u need a grid to be evaluated on")
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
        terms.append((factor, tuple(jets)))
    return terms


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
    ev = SpectralEvaluator(grid)
    (terms,) = ev.program(compile_terms(e, params, grid, fun_bindings))
    ev.fill(fields)
    return ev.products(terms)
