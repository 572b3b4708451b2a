"""Loop and surface quadrature for topological charges, plus constraint checks.

A charge is the flux of Gamma through a closed boundary: a closed curve
in 2D, which is an axis-aligned polyline, and the surface of an
axis-aligned box in 3D.  Both are sums of signed faces of axis-aligned
cells, and one face integral serves both.  The circulation convention
follows the outward-flux form: the loop integral of (Gamma^x, Gamma^y) is
closed-integral of Gamma^x dy - Gamma^y dx.

The face integral is exact for the trigonometric polynomial through the
grid values, also when Gamma carries coordinate factors, which are not
periodic.  Each Gamma component is split as sum x^a y^b z^c P_abc, where
no P_abc has a coordinate factor; each P_abc is evaluated on the grid and
transformed once, and its trigonometric polynomial times x^a y^b z^c is
integrated over a face in closed form, from the moments M_j(k), the integral of
s^j e^{iks} ds over each span.  For k != 0 they follow the recurrence
M_j = [s^j e^{iks}] / ik - (j / ik) M_{j-1}, for k = 0
M_j = (hi^{j+1} - lo^{j+1}) / (j + 1), and at a point span the factor is
s^j e^{iks}.  Coordinates are taken as given, not wrapped into the cell.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .grids import GridField, evaluate_on_grid, to_spectrum
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


@functools.lru_cache(maxsize=1024)
def _moments(n: int, period: float, span, power: int) -> np.ndarray:
    """M(k) = the integral of s^power e^{iks} ds over an (lo, hi) span, or
    s^power e^{iks} at a point span, for the angular wavenumbers k of an
    n-point grid of `period` in fftfreq order.  The Nyquist mode of an even
    n reads its real part, the integral of s^power cos(ks), as the real
    trigonometric polynomial through grid values has it.  Read-only, since
    every face with these spans and this power shares it."""
    k = 2.0 * math.pi * np.fft.fftfreq(n, d=period / n)
    if np.isscalar(span):
        out = span ** power * np.exp(1j * k * span)
    else:
        lo, hi = span
        ik = 1j * k[1:]  # k = 0 is the first mode only
        out = np.zeros(n, dtype=complex)
        out[0] = (hi ** (power + 1) - lo ** (power + 1)) / (power + 1)
        for j in range(power + 1):  # M_j = ([s^j e^{iks}] - j M_{j-1}) / ik
            out[1:] = (hi ** j * np.exp(ik * hi) - lo ** j * np.exp(ik * lo) - j * out[1:]) / ik
    if n % 2 == 0:
        out[n // 2] = out[n // 2].real
    out.flags.writeable = False
    return out


def _split(g: JetExpr, dim: int) -> dict:
    """g as {(a, b[, c]): P_abc} with g = sum x^a y^b z^c P_abc, where no
    P_abc has a coordinate factor, so each is periodic on the grid."""
    parts: dict = {}
    for mono, coeff in g.terms:
        powers = dict(mono[0])
        key = tuple(powers.pop(axis, 0) for axis in range(1, dim + 1))
        parts.setdefault(key, []).append((coeff, (tuple(powers.items()), *mono[1:])))
    return {key: JetExpr.from_pairs(pairs) for key, pairs in parts.items()}


def _component_faces(gamma, grid: GridField, faces: dict | None, *fields) -> list:
    """The face integral of each Gamma component, as a function of the face:
    per axis a point or an (lo, hi) span, where a reversed span counts
    negatively.  Each P_abc of a component's _split is evaluated and
    transformed once, and its trigonometric polynomial times x^a y^b z^c
    integrated over a face in closed form, by _moments; a zero component
    has no P_abc.  faces, when given, keeps the integrals by component for
    later calls on the same grid values."""
    faces = {} if faces is None else faces
    n, letters = grid.shape, "abc"[: grid.dim]
    for g in gamma:
        if g in faces:
            continue
        parts = []
        for powers, part in _split(g, grid.dim).items():
            hat = to_spectrum(evaluate_on_grid(part, grid, *fields)) / grid.data.size
            hat[..., 1:(n[-1] + 1) // 2] *= 2  # each column with a mirror stands for both
            parts.append((powers, hat))

        def integral(spans, parts=parts):
            total = 0.0
            for powers, hat in parts:
                factors = [_moments(*key) for key in zip(n, grid.periods, spans, powers)]
                factors[-1] = factors[-1][: hat.shape[-1]]
                total += np.einsum(",".join([letters, *letters]) + "->", hat, *factors).real
            return float(total)

        faces[g] = integral
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
    faces: dict | None = None,
) -> float:
    """Circulation of (Gamma^x dy - Gamma^y dx) around a closed polyline.

    A vertical segment is a face of Gamma^x with a y span, a horizontal
    one a face of -Gamma^y with an x span, each oriented as traversed.
    faces, a dict shared by the calls on one grid sample with the same
    u_t and bindings, evaluates and transforms each component once for all
    of their curves.
    """
    if grid.dim != 2:
        raise ValueError("loop integrals are two-dimensional")
    gx, gy = _component_faces(gamma, grid, faces, u_t, fun_bindings, params, extra_fields)
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
) -> float:
    """Outward flux of Gamma through the boundary of an axis-aligned box:
    the faces of Gamma^a at the upper and lower a-bound, signed + and -."""
    if grid.dim != 3:
        raise ValueError("surface integrals are three-dimensional")
    total = 0.0
    faces = _component_faces(gamma, grid, None, u_t, fun_bindings, params, extra_fields)
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
