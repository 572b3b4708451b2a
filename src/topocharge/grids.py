"""Periodic grids and pseudo-spectral evaluation of jet expressions.

Fields live on uniform periodic grids (axis order x, y, z).  Spatial
derivatives are taken spectrally; time derivatives of u must be supplied
as separate field arrays (they are independent data, produced by the
evolution right-hand side).  Every field is real, so spectral arrays are
rfftn half-spectra: the last axis keeps its n//2 + 1 non-negative modes.

The transform pair is numpy's own rfftn/irfftn, pass by pass and in its
order, so it is bit-identical to them.  It takes a band: the complex
passes over the other axes run on the first `band` last-axis columns
only, and the later columns count as zero.  A 2/3-masked spectrum keeps
n//3 + 1 of the n//2 + 1 columns, so the evolver's band skips a third of
those passes and loses nothing.

Every grid evaluation, and every evolver stage, runs one compiled
SpectralEvaluator program: a flat list of numpy calls, each into an array
the program owns.  A transformed slot multiplies by its band symbol into
the work array, then inverse-transforms into its grid buffer; a term list
forms factor * jet^p and sums its terms, left to right (`** 2` is numpy's
square); a part's forward transform writes into its hat.  These are the
calls of the transform pair and of Python's array operators, bit for bit.
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


def _spectrum_calls(data: np.ndarray, hat: np.ndarray, band: int | None) -> list:
    """to_spectrum's numpy calls, as (function, arguments), from data into hat."""
    kept = hat[..., :band]
    calls = [(np.fft.rfft, (data, None, -1, None, hat))]
    calls += [(np.fft.fft, (kept, None, axis, None, kept)) for axis in range(data.ndim - 2, -1, -1)]
    return calls if band is None else calls + [(hat[..., band:].fill, (0,))]


def to_spectrum(data: np.ndarray, band: int | None = None,
                out: np.ndarray | None = None) -> np.ndarray:
    """Half-spectrum of real grid values: rfft on the last axis, then fft
    on the others from the second-to-last down to axis 0.  The fft passes
    run on the first `band` columns (all by default), which are rfftn's,
    and the later ones are set to zero.  Written into `out` when given."""
    hat = np.empty(data.shape[:-1] + (data.shape[-1] // 2 + 1,), complex) if out is None else out
    for f, args in _spectrum_calls(data, hat, band):
        f(*args)
    return hat


def _grid_calls(shape: tuple, work: np.ndarray | None, out: np.ndarray | None) -> list:
    """to_grid's numpy calls, each missing its first argument: the last one's result."""
    return [(np.fft.ifft, (None, axis, None, work)) for axis in range(len(shape) - 1)] + [
        (np.fft.irfft, (shape[-1], -1, None, out))]


def to_grid(hat: np.ndarray, shape: tuple, band: int | None = None,
            out: np.ndarray | None = None, work: np.ndarray | None = None) -> np.ndarray:
    """Real grid values of a half-spectrum on a grid of `shape`: ifft on
    axes 0 to d - 2, then irfft on the last axis.  Only the first `band`
    columns of hat are read (all by default), as irfftn reads hat with the
    later ones zeroed; the ifft passes write into `work`, an array of those
    columns, when given, and the grid values into `out`."""
    kept = hat[..., :band]
    for f, args in _grid_calls(shape, work, out):
        kept = f(kept, *args)
    return kept


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


def _run(steps: list, spectrum: np.ndarray):
    """Call each (function, arguments, reads), with `spectrum` first where it reads."""
    for f, args, reads in steps:
        f(spectrum, *args) if reads else f(*args)


class SpectralEvaluator:
    """Pointwise u-jets on a grid, computed by one compiled program.

    `program` numbers the distinct u-jets of some term lists by slot,
    resolves each, once, to its time order and derivative symbol, and
    compiles the flat list of the module docstring.  `fill` computes every
    slot from grid values keyed by time order: a jet without spatial
    derivatives copies its order's values, and every other order is
    transformed once.  `reset(u_hat)` runs the list from the half-spectrum
    of u alone, through the first `spectra` lists' `hats`; `products` sums
    any list.  Spectra are read on the first `band` last-axis columns.
    """

    def __init__(self, grid: GridField, band: int | None = None):
        self.grid = grid
        self.band = grid.shape[-1] // 2 + 1 if band is None else band
        self.program()

    def program(self, *term_lists, spectra: int = 0) -> list:
        """Handles for `products` of lists of (factor, ((u-jet multi-index,
        power), ...)) terms, whose distinct jets, checked and resolved here,
        are the slots that every later fill computes."""
        slots, self._held = {}, None  # slot per u-jet multi-index; no spectrum is held
        numbered = [[(factor, tuple((slots.setdefault(mi, len(slots)), p) for mi, p in jets))
                     for factor, jets in terms] for terms in term_lists]
        # per slot: (multi-index, time order, band symbol or None), grid buffer, chain
        self._program = tuple((mi, *self._resolve(mi)) for mi in slots)
        shape = self.grid.shape
        self._slots = [np.empty(shape) for _ in slots]
        work = np.empty(shape[:-1] + (self.band,), dtype=complex)
        self._chains = [self._inverse(symbol, work, out)
                        for (_mi, _order, symbol), out in zip(self._program, self._slots)]
        scratch = np.empty(shape), np.empty(shape)  # a later term, a power
        self._lists = [self._sum(terms, *scratch) for terms in numbered]
        self.hats = [np.empty(shape[:-1] + (shape[-1] // 2 + 1,), dtype=complex)
                     for _ in range(spectra)]
        # reset's flat list, when u's spectrum is all that the slots read
        self._reads_u = all(order == 0 for _mi, order, _s in self._program)
        self._steps = [step for chain in self._chains for step in chain] + [
            (f, args, False) for (steps, total), hat in zip(self._lists, self.hats)
            for f, args in steps + _spectrum_calls(total, hat, self.band)]
        return list(range(len(term_lists)))

    def _resolve(self, mi: tuple) -> tuple:
        order = mi_order(mi[1:])
        if order > MAX_STENCIL_ORDER:
            raise DerivativeOrderTooHigh(
                f"spatial derivative order {order} exceeds {MAX_STENCIL_ORDER}")
        return mi[T], ik_symbol(self.grid, mi[1:])[..., :self.band] if order else None

    def _inverse(self, symbol, work: np.ndarray, out: np.ndarray) -> list:
        """(function, arguments, reads): the product with `symbol`, if any, then to_grid's
        calls into `out`, in work; the first reads the band spectrum, its first argument."""
        steps = [(np.multiply, (symbol, work))] if symbol is not None else []
        steps += _grid_calls(self.grid.shape, work, out)
        return [(f, (work, *args) if i else args, not i) for i, (f, args) in enumerate(steps)]

    def _sum(self, terms: list, term: np.ndarray, power: np.ndarray) -> tuple:
        """(steps, total): the sum over terms of factor * prod jet^p, into total."""
        total = np.empty(self.grid.shape)
        steps = [] if terms else [(total.fill, (0.0,))]
        for j, (factor, jets) in enumerate(terms):
            into, value = (term if j else total), factor
            for slot, p in jets:
                jet = self._slots[slot]
                if p != 1:
                    steps.append((np.square, (jet, power)) if p == 2 else
                                 (np.power, (jet, p, power)))
                    jet = power
                steps.append((np.multiply, (value, jet, into)))
                value = into
            if j:
                steps.append((np.add, (total, value, total)))
            elif not jets:
                steps.append((np.copyto, (total, factor)))
        return steps, total

    def fill(self, fields: dict):
        """Compute the program's jets from the grid values `fields` by time order."""
        self._held, hats, band = None, {}, self.band
        for (_mi, order, symbol), out, chain in zip(self._program, self._slots, self._chains):
            if order not in fields:
                raise MissingTimeDerivative(f"expression needs d_t^{order} u but only orders "
                                            f"{sorted(fields)} are bound")
            if symbol is None:
                np.copyto(out, fields[order])
                continue
            if order not in hats:
                hats[order] = to_spectrum(fields[order], band)
            _run(chain, hats[order][..., :band])

    def reset(self, u_hat: np.ndarray):
        """fill() from the half-spectrum u_hat of u alone."""
        if not self._reads_u:
            raise MissingTimeDerivative("a spectrum of u gives no time derivative of u")
        self._held = None
        _run(self._steps, u_hat[..., :self.band])
        self._held = u_hat

    def holds(self, u_hat: np.ndarray) -> bool:
        """True iff the last fill was a reset from this very array."""
        return self._held is u_hat

    def products(self, handle: int) -> np.ndarray:
        """The program's buffer for the list `handle`, summed from the last fill."""
        steps, total = self._lists[handle]
        for f, args in steps:
            f(*args)
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
