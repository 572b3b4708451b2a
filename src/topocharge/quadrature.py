"""Loop and surface quadrature for topological charges, plus constraint checks.

Charge integrands are evaluated on the grid and integrated along the
curve or over the surface by one of two methods.  "cubic" interpolates
with periodic cubic (Catmull-Rom) interpolation and sums with the
composite trapezoid rule, face by face on a surface.  "exact" integrates
the trigonometric interpolant of the grid values (its FFT) in closed form
over each segment or face, which must be axis-aligned.  The circulation
convention follows the outward-flux form: the loop integral of
(Gamma^x, Gamma^y) is closed-integral of Gamma^x dy - Gamma^y dx.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grids import GridField, evaluate_on_grid
from .jetexpr import JetExpr


class CurveNotClosed(ValueError):
    pass


@dataclass(frozen=True)
class CurveSpec:
    """Closed polyline in the periodic cell; orientation as listed."""

    vertices: tuple

    def __post_init__(self):
        v = tuple((float(a), float(b)) for a, b in self.vertices)
        object.__setattr__(self, "vertices", v)
        if len(v) < 4:
            raise CurveNotClosed("a closed polyline needs at least 4 vertices")
        if v[0] != v[-1]:
            raise CurveNotClosed("first vertex must equal the last")

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


def cubic_values(data: np.ndarray, periods, points) -> np.ndarray:
    """Separable periodic cubic interpolation of `data` at many points.

    Each axis contributes four node indices and Catmull-Rom weights per
    point; one gather takes the 4^dim neighbours of every point, and the
    weights are contracted axis by axis, the last axis first.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    dim = data.ndim
    npts = len(pts)
    index, weights = [], []
    for axis in range(dim):
        n = data.shape[axis]
        s = pts[:, axis] / (periods[axis] / n)
        i0 = np.floor(s)
        shape = (npts,) + (1,) * axis + (4,) + (1,) * (dim - 1 - axis)
        index.append(((i0.astype(int)[:, None] + np.arange(-1, 3)) % n).reshape(shape))
        weights.append(np.stack(_catmull_rom_weights(s - i0), axis=-1))
    vals = data[tuple(index)]
    for axis in reversed(range(dim)):
        vals = (vals * weights[axis].reshape((npts,) + (1,) * axis + (4,))).sum(axis=-1)
    return vals


LOOP_METHODS = ("cubic", "exact")  # the `method` values of loop_integral
DENSITY = 2.0  # cubic quadrature nodes per grid spacing along a segment or face side


def _interval_factors(n: int, period: float, lo: float, hi: float) -> np.ndarray:
    """Exact integrals of the Fourier modes over [lo, hi]."""
    k = 2.0 * math.pi * np.fft.fftfreq(n, d=period / n)
    out = np.empty(n, dtype=complex)
    nz = np.abs(k) > 1e-14
    out[~nz] = hi - lo
    kk = k[nz]
    out[nz] = (np.exp(1j * kk * hi) - np.exp(1j * kk * lo)) / (1j * kk)
    return out


def _point_factors(n: int, period: float, value: float) -> np.ndarray:
    k = 2.0 * math.pi * np.fft.fftfreq(n, d=period / n)
    return np.exp(1j * k * value)


def _exact_integral(hat: np.ndarray, periods, spans) -> float:
    """Exact integral of the trig interpolant with coefficients `hat` over
    an axis-aligned cell: per axis a span is a point or an (lo, hi) pair."""
    factors = [
        _point_factors(n, period, span) if np.isscalar(span)
        else _interval_factors(n, period, *span)
        for n, period, span in zip(hat.shape, periods, spans)
    ]
    letters = "abc"[: hat.ndim]
    return float(np.real(np.einsum(",".join([letters, *letters]) + "->", hat, *factors)))


def _segment_points(p0, p1, spacing: float):
    length = math.hypot(p1[0] - p0[0], p1[1] - p0[1])
    n = max(2, int(math.ceil(length / spacing * DENSITY)) + 1)
    ts = np.linspace(0.0, 1.0, n)
    pts = [(p0[0] + t * (p1[0] - p0[0]), p0[1] + t * (p1[1] - p0[1])) for t in ts]
    return pts, length


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
) -> float:
    """Circulation of (Gamma^x dy - Gamma^y dx) around a closed polyline.

    Methods: "cubic" (periodic bicubic interpolation, composite
    trapezoid) and "exact" (closed-form integrals of the trig
    interpolant; axis-aligned segments only).
    """
    if grid.dim != 2:
        raise ValueError("loop integrals are two-dimensional")
    if method not in LOOP_METHODS:
        raise ValueError(f"unknown interpolation method {method!r}")
    gx = evaluate_on_grid(gamma[0], grid, u_t, fun_bindings, params, extra_fields)
    gy = evaluate_on_grid(gamma[1], grid, u_t, fun_bindings, params, extra_fields)
    if method == "exact":
        hat_x, hat_y = (np.fft.fftn(g) / g.size for g in (gx, gy))
        total = 0.0
        for p0, p1 in zip(curve.vertices[:-1], curve.vertices[1:]):
            if abs(p0[1] - p1[1]) < 1e-14:  # horizontal: -int Gamma^y dx
                total -= _exact_integral(hat_y, grid.periods, ((p0[0], p1[0]), p0[1]))
            elif abs(p0[0] - p1[0]) < 1e-14:  # vertical: +int Gamma^x dy
                total += _exact_integral(hat_x, grid.periods, (p0[0], (p0[1], p1[1])))
            else:
                raise ValueError("method 'exact' needs axis-aligned segments")
        return total
    spacing = min(grid.spacing(0), grid.spacing(1))
    total = 0.0
    for p0, p1 in zip(curve.vertices[:-1], curve.vertices[1:]):
        pts, length = _segment_points(p0, p1, spacing)
        if length == 0.0:
            continue
        dx = (p1[0] - p0[0]) / length
        dy = (p1[1] - p0[1]) / length
        vals = (cubic_values(gx, grid.periods, pts) * dy
                - cubic_values(gy, grid.periods, pts) * dx)
        h = length / (len(pts) - 1)
        total += h * (0.5 * vals[0] + float(vals[1:-1].sum()) + 0.5 * vals[-1])
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
    """Outward flux of Gamma through the boundary of an axis-aligned box."""
    if grid.dim != 3:
        raise ValueError("surface integrals are three-dimensional")
    if method not in LOOP_METHODS:
        raise ValueError(f"unknown interpolation method {method!r}")
    comps = [
        evaluate_on_grid(g, grid, u_t, fun_bindings, params, extra_fields)
        for g in gamma
    ]
    total = 0.0
    if method == "exact":
        for axis in (0, 1, 2):
            hat = np.fft.fftn(comps[axis]) / comps[axis].size
            for side, sign in ((box.bounds[axis][1], 1.0), (box.bounds[axis][0], -1.0)):
                spans = list(box.bounds)
                spans[axis] = side
                total += sign * _exact_integral(hat, grid.periods, spans)
        return total
    for axis in (0, 1, 2):
        others = [a for a in (0, 1, 2) if a != axis]
        (a0, a1), (b0, b1) = box.bounds[others[0]], box.bounds[others[1]]
        na = max(2, int(math.ceil((a1 - a0) / grid.spacing(others[0]) * DENSITY)) + 1)
        nb = max(2, int(math.ceil((b1 - b0) / grid.spacing(others[1]) * DENSITY)) + 1)
        avals = np.linspace(a0, a1, na)
        bvals = np.linspace(b0, b1, nb)
        wa = np.ones(na)
        wa[0] = wa[-1] = 0.5
        wb = np.ones(nb)
        wb[0] = wb[-1] = 0.5
        ha = (a1 - a0) / (na - 1)
        hb = (b1 - b0) / (nb - 1)
        weights = np.outer(wa, wb).ravel()
        aa, bb = np.meshgrid(avals, bvals, indexing="ij")
        for side, sign in ((box.bounds[axis][1], 1.0), (box.bounds[axis][0], -1.0)):
            pts = np.zeros((na * nb, 3))
            pts[:, axis] = side
            pts[:, others[0]] = aa.ravel()
            pts[:, others[1]] = bb.ravel()
            vals = cubic_values(comps[axis], grid.periods, pts)
            total += sign * float((weights * vals).sum()) * ha * hb
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
    the sampling resolution.
    """
    times, ws, devs = [], [], []
    fields = trajectory.fields
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
