"""Loop and surface quadrature for topological charges, plus constraint checks.

A charge is the flux of Gamma through a closed boundary: a closed curve
in 2D, which is an axis-aligned polyline, and the surface of an
axis-aligned box in 3D.  Both are sums of signed faces of axis-aligned
cells, and one face integral serves both.  Its integrand is a Gamma
component evaluated on the grid, integrated by one of two methods.
"cubic" interpolates with periodic cubic (Catmull-Rom) interpolation and
sums with the composite trapezoid rule.  "exact" integrates the
trigonometric interpolant of the grid values (its FFT) in closed form.
The circulation convention follows the outward-flux form: the loop
integral of (Gamma^x, Gamma^y) is closed-integral of Gamma^x dy - Gamma^y dx.

A cubic face's nodes, Catmull-Rom weights, gather indices and trapezoid
weights depend only on the grid's shape and periods and the face's spans,
so they form a stencil that is built once and cached on those; each grid
sample then takes one gather and the same contractions in the same order,
with results bit-identical to building the stencil at every call.
`cubic_values` builds and applies the same stencil at arbitrary points.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .grids import GridField, evaluate_on_grid
from .jetexpr import JetExpr


class CurveNotClosed(ValueError):
    pass


@dataclass(frozen=True)
class CurveSpec:
    """Closed axis-aligned polyline in the periodic cell; orientation as listed."""

    vertices: tuple

    def __post_init__(self):
        v = tuple((float(a), float(b)) for a, b in self.vertices)
        object.__setattr__(self, "vertices", v)
        if len(v) < 4:
            raise CurveNotClosed("a closed polyline needs at least 4 vertices")
        if v[0] != v[-1]:
            raise CurveNotClosed("first vertex must equal the last")
        for (x0, y0), (x1, y1) in zip(v[:-1], v[1:]):
            if x0 != x1 and y0 != y1:
                raise ValueError(f"segment {(x0, y0)} -> {(x1, y1)} is not axis-aligned")

    @staticmethod
    def rectangle(x0: float, x1: float, y0: float, y1: float) -> "CurveSpec":
        return CurveSpec(((x0, y0), (x1, y0), (x1, y1), (x0, y1), (x0, y0)))


def _catmull_rom_weights(t: np.ndarray) -> tuple:
    t2, t3 = t * t, t * t * t
    return (
        -0.5 * t3 + t2 - 0.5 * t,
        1.5 * t3 - 2.5 * t2 + 1.0,
        -1.5 * t3 + 2.0 * t2 + 0.5 * t,
        0.5 * t3 - 0.5 * t2,
    )


def _stencil(shape: tuple, periods, points: np.ndarray) -> tuple:
    """(index, weights) of separable periodic cubic interpolation at points:
    per axis four node indices and their Catmull-Rom weights per point,
    shaped so that one gather index takes the 4^dim neighbours of every
    point and each axis's weights broadcast against the gathered block."""
    dim, npts = len(shape), len(points)
    index, weights = [], []
    for axis in range(dim):
        n = shape[axis]
        s = points[:, axis] / (periods[axis] / n)
        i0 = np.floor(s)
        at = (npts,) + (1,) * axis + (4,) + (1,) * (dim - 1 - axis)
        index.append(((i0.astype(int)[:, None] + np.arange(-1, 3)) % n).reshape(at))
        weights.append(np.stack(_catmull_rom_weights(s - i0), axis=-1)
                       .reshape((npts,) + (1,) * axis + (4,)))
    return tuple(index), tuple(weights)


def _interpolate(data: np.ndarray, index: tuple, weights: tuple) -> np.ndarray:
    """The values of a _stencil on `data`: one gather, then the weights
    contracted axis by axis, the last axis first."""
    vals = data[index]
    for w in reversed(weights):
        vals = (vals * w).sum(axis=-1)
    return vals


def cubic_values(data: np.ndarray, periods, points) -> np.ndarray:
    """Separable periodic cubic interpolation of `data` at many points."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return _interpolate(data, *_stencil(data.shape, periods, pts))


LOOP_METHODS = ("cubic", "exact")  # the `method` values of loop_integral and surface_integral
DENSITY = 2.0  # cubic quadrature nodes per grid spacing along each span of a face


def _mode_factors(n: int, period: float, span) -> np.ndarray:
    """Exact integrals of the Fourier modes over an (lo, hi) span, or their
    values at a point."""
    k = 2.0 * math.pi * np.fft.fftfreq(n, d=period / n)
    if np.isscalar(span):
        return np.exp(1j * k * span)
    lo, hi = span
    out = np.full(n, hi - lo, dtype=complex)
    nz = np.abs(k) > 1e-14
    out[nz] = (np.exp(1j * k[nz] * hi) - np.exp(1j * k[nz] * lo)) / (1j * k[nz])
    return out


def _exact_integral(hat: np.ndarray, periods, spans) -> float:
    """Exact integral of the trig interpolant with coefficients `hat` over
    an axis-aligned cell: per axis a span is a point or an (lo, hi) pair."""
    factors = [_mode_factors(n, period, span) for n, period, span in zip(hat.shape, periods, spans)]
    letters = "abc"[: hat.ndim]
    return float(np.real(np.einsum(",".join([letters, *letters]) + "->", hat, *factors)))


@functools.lru_cache(maxsize=256)
def _face_stencil(shape: tuple, periods: tuple, spans: tuple) -> tuple:
    """(index, weights, w) of the composite trapezoid rule over an
    axis-aligned cell of a grid of `shape` and `periods`: the _stencil of
    its nodes, DENSITY per grid spacing along each (lo, hi) span and one of
    weight 1 at a point span, and w, the nodes' trapezoid weights.  The
    arrays are read-only, since every face with these spans shares them."""
    nodes, weights = [], []
    for n, period, span in zip(shape, periods, spans):
        if np.isscalar(span):
            nodes.append(np.array([span]))
            weights.append(np.ones(1))
            continue
        lo, hi = span
        count = max(2, int(math.ceil(abs(hi - lo) / (period / n) * DENSITY)) + 1)
        w = np.full(count, (hi - lo) / (count - 1))
        w[0] = w[-1] = 0.5 * w[0]
        nodes.append(np.linspace(lo, hi, count))
        weights.append(w)
    points = np.stack([c.ravel() for c in np.meshgrid(*nodes, indexing="ij")], axis=-1)
    index, cubic = _stencil(shape, periods, points)
    w = functools.reduce(np.multiply.outer, weights).ravel()
    for a in (*index, *cubic, w):
        a.flags.writeable = False
    return index, cubic, w


def _cubic_integral(data: np.ndarray, periods, spans) -> float:
    """Composite trapezoid rule over an axis-aligned cell on the cubic
    interpolant of `data`; per axis a span is a point or an (lo, hi) pair."""
    key = tuple(s if np.isscalar(s) else tuple(s) for s in spans)
    index, cubic, w = _face_stencil(data.shape, tuple(periods), key)
    return float(w @ _interpolate(data, index, cubic))


def _face_integral(values: np.ndarray, periods, method: str):
    """The integral of grid values over an axis-aligned face, as a function
    of the face: per axis a point or an (lo, hi) span, where a reversed span
    counts negatively.  "exact" transforms the values once per call of this
    function, however many faces it then integrates."""
    if method == "exact":
        hat = np.fft.fftn(values) / values.size
        return lambda spans: _exact_integral(hat, periods, spans)
    return lambda spans: _cubic_integral(values, periods, spans)


def _component_faces(gamma, grid: GridField, method: str, faces: dict | None,
                     *fields) -> list:
    """The face integral of each Gamma component; a zero component is not
    evaluated on the grid and integrates to 0.0.  faces, when given, keeps
    them by component for later calls on the same grid values."""
    if method not in LOOP_METHODS:
        raise ValueError(f"unknown interpolation method {method!r}")
    faces = {} if faces is None else faces
    for g in gamma:
        if g not in faces:
            faces[g] = ((lambda spans: 0.0) if g.is_zero() else
                        _face_integral(evaluate_on_grid(g, grid, *fields), grid.periods, method))
    return [faces[g] for g in gamma]


def loop_integral(
    gamma,
    grid: GridField,
    u_t: np.ndarray,
    curve: CurveSpec,
    fun_bindings: dict | None = None,
    params: dict | None = None,
    extra_fields: dict | None = None,
    *,
    method: str = "cubic",
    faces: dict | None = None,
) -> float:
    """Circulation of (Gamma^x dy - Gamma^y dx) around a closed polyline.

    A vertical segment is a face of Gamma^x with a y span, a horizontal
    one a face of -Gamma^y with an x span, each oriented as traversed.
    Methods: "cubic" (periodic bicubic interpolation, composite
    trapezoid) and "exact" (closed-form integrals of the trig interpolant).
    faces, a dict shared by the calls on one grid sample with the same
    u_t, bindings and method, evaluates each component once for all of
    their curves.
    """
    if grid.dim != 2:
        raise ValueError("loop integrals are two-dimensional")
    gx, gy = _component_faces(gamma, grid, method, faces, u_t, fun_bindings, params,
                              extra_fields)
    total = 0.0
    for (x0, y0), (x1, y1) in zip(curve.vertices[:-1], curve.vertices[1:]):
        if x0 == x1:
            total += gx((x0, (y0, y1)))
        else:
            total -= gy(((x0, x1), y0))
    return total


@dataclass(frozen=True)
class BoxSpec:
    """Axis-aligned box boundary in the periodic 3D cell, outward-oriented."""

    bounds: tuple  # ((x0, x1), (y0, y1), (z0, z1))

    @staticmethod
    def cube(x0, x1, y0, y1, z0, z1) -> "BoxSpec":
        return BoxSpec(((float(x0), float(x1)), (float(y0), float(y1)), (float(z0), float(z1))))


def surface_integral(
    gamma,
    grid: GridField,
    u_t: np.ndarray,
    box: BoxSpec,
    fun_bindings: dict | None = None,
    params: dict | None = None,
    extra_fields: dict | None = None,
    *,
    method: str = "cubic",
) -> float:
    """Outward flux of Gamma through the boundary of an axis-aligned box:
    the faces of Gamma^a at the upper and lower a-bound, signed + and -."""
    if grid.dim != 3:
        raise ValueError("surface integrals are three-dimensional")
    total = 0.0
    faces = _component_faces(gamma, grid, method, None, u_t, fun_bindings, params,
                             extra_fields)
    for axis, face in enumerate(faces):
        for side, sign in ((box.bounds[axis][1], 1.0), (box.bounds[axis][0], -1.0)):
            spans = list(box.bounds)
            spans[axis] = side
            total += sign * face(spans)
    return total


def check_constraint(
    T_expr: JetExpr,
    u0: GridField,
    fun_bindings: dict | None = None,
    params: dict | None = None,
    tolerance: float = 1e-9,
) -> tuple[float, str, float]:
    """Cell integral of a density at the initial data, with a verdict.

    Returns (value, verdict, threshold) where the verdict is "satisfied"
    iff |value| <= tolerance * cell volume * field scale.
    """
    integrand = evaluate_on_grid(T_expr, u0, None, fun_bindings, params)
    value = float(integrand.mean()) * u0.cell_volume()
    scale = max(float(np.max(np.abs(integrand))), 1e-30)
    threshold = tolerance * u0.cell_volume() * scale
    verdict = "satisfied" if abs(value) <= threshold else "violated"
    return value, verdict, threshold


def extract_source_sink(trajectory, F_expr: JetExpr, params: dict | None = None):
    """Source/sink series w(t) = mean(u_t - F) and its spatial deviation.

    u_t is approximated by centered differences of consecutive trajectory
    samples, so the deviation measures how x-independent u_t - F is at
    the sampling resolution.  Fewer than 3 samples have no interior
    sample, and raise ValueError.
    """
    times, ws, devs = [], [], []
    fields = trajectory.fields
    if len(fields) < 3:
        raise ValueError(f"source/sink extraction needs at least 3 samples, got {len(fields)}")
    for k in range(1, len(fields) - 1):
        dt_c = trajectory.times[k + 1] - trajectory.times[k - 1]
        ut = (fields[k + 1].data - fields[k - 1].data) / dt_c
        F = evaluate_on_grid(F_expr, fields[k], None, None, params)
        resid = ut - F
        w = float(resid.mean())
        times.append(trajectory.times[k])
        ws.append(w)
        devs.append(float(np.max(np.abs(resid - w))))
    return times, ws, devs


@dataclass
class ChargeReport:
    """Time series of a charge or constraint integral with its tolerance."""

    kind: str
    descriptor: str
    times: list
    values: list
    tolerance: float
    verdict: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.times) != len(self.values):
            raise ValueError("times and values must have equal length")

    def to_text(self) -> str:
        lines = [
            f"kind: {self.kind}",
            f"descriptor: {self.descriptor}",
            f"tolerance: {float(self.tolerance)!r}",
            f"verdict: {self.verdict}",
        ]
        for key in sorted(self.meta):
            value = self.meta[key]
            if isinstance(value, (float, np.floating)):
                value = float(value)
            lines.append(f"meta.{key}: {value!r}")
        lines.append("columns: time value")
        for t, v in zip(self.times, self.values):
            lines.append(f"{float(t)!r} {float(v)!r}")
        return "\n".join(lines) + "\n"
