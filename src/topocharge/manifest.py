"""Simulation manifests: `plan(doc)` reads one against MANIFEST and runs
every refusal, evolving nothing; `run(plan)` evolves and judges.  numpy and
the numerical modules (grids, evolution, quadrature) are imported by the
functions that use them, each call reading its name off the defining
module, so a binding set there (a test's stand-in, a tracer's wrapper) runs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from . import catalog as cat
from .jetexpr import JetExpr, T

if TYPE_CHECKING:
    from .grids import GridField
    from .quadrature import ChargeReport

EXIT_OK = 0
EXIT_RESIDUAL = 1
EXIT_USAGE = 2
EXIT_CONSTRAINT = 3
VERDICT_EXIT = {"failed": EXIT_RESIDUAL, "violated": EXIT_CONSTRAINT}
MAX_SAMPLE_BYTES = 2 ** 30  # a run holds a field and a u_t per sample, 16 bytes a point


class UsageError(ValueError):
    """Bad command-line or manifest input; exits with EXIT_USAGE."""


@dataclass(frozen=True)
class _Required:
    kind: object  # of a table key that must be given, and not as null


def _read(value, kind, path: str = ""):
    """value read as a MANIFEST kind and named by its key path.

    A table refuses keys it does not name and drops null values, so a null
    key takes its default, and a null or missing _Required key is refused;
    an int refuses a number with a fractional part.
    """
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise UsageError(f"{path} must be a list, got {value!r}")
        # a number in a list is named by the list, a mapping by its index
        return [_read(item, kind[0], path if kind[0] in (int, float) else f"{path}[{i}]")
                for i, item in enumerate(value)]
    if kind in (int, float):
        try:
            if isinstance(value, bool):  # YAML reads true, yes and on as booleans
                raise TypeError
            number = kind(value)
            integral = kind is float or number == float(value)
        except (TypeError, ValueError, OverflowError):
            raise UsageError(f"{path} must be a number, got {value!r}") from None
        if not integral:
            raise UsageError(f"{path} must be an integer, got {value!r}")
        return number
    if not isinstance(kind, (type, dict)):
        return kind(value, path)
    if kind in (str, Path):
        if not isinstance(value, str):
            raise UsageError(f"{path} must be {'a path' if kind is Path else 'text'}, "
                             f"got {value!r}")
        return value
    if not isinstance(value, dict):
        raise UsageError(f"{path or 'a manifest'} must be a mapping, got {value!r}")
    if kind is dict:
        return value
    where = f"{path}." if path else ""
    unknown = [f"{where}{key}" for key in value if key not in kind]
    if unknown:
        raise UsageError(f"unknown manifest key(s) {', '.join(unknown)}")
    for key, sub in kind.items():
        if isinstance(sub, _Required) and value.get(key) is None:
            raise UsageError(f"{where}{key} is required")
    return {key: _read(item, getattr(kind[key], "kind", kind[key]), f"{where}{key}")
            for key, item in value.items() if item is not None}


def _bound(kind, holds, needs: str):
    """The reader of a kind whose value must satisfy holds; a value that
    does not is refused as "<path> must be <needs>"."""

    def read(value, path: str):
        value = _read(value, kind, path)
        if not holds(value):
            raise UsageError(f"{path} must be {needs}, got {value!r}")
        return value

    return read


def _u0(value, path: str) -> dict:
    """u0 is a table; an expression is short for {expr: ...}."""
    return _read({"expr": value} if isinstance(value, str) else value, _U0, path)


def _check(value, path: str) -> dict:
    """A check: its type picks its key table and its default tolerance."""
    kind = _read(value, dict, path).get("type")
    if not isinstance(kind, str) or kind not in CHECKS:
        raise UsageError(f"unknown check type {kind!r} (known: {', '.join(CHECKS)})")
    keys, tolerance = CHECKS[kind]
    return {"tolerance": tolerance} | _read(value, keys, path)


# The manifest format.  A key's kind is str (text), Path (a path), dict (a
# mapping its reader checks), float or int, a nested table, a one-item list
# of a kind, or a function that reads the value, such as a _bound; a kind
# wrapped in _Required must be given.
_POSITIVE = _bound(_bound(float, lambda v: v > 0, "> 0"), math.isfinite, "finite")
_FINITE = _bound(_bound(float, lambda v: v >= 0, ">= 0"), math.isfinite, "finite")
_CURVE = {"rect": _bound(_bound([float], lambda r: len(r) == 4, "[x0, x1, y0, y1]"),
                         lambda r: all(map(math.isfinite, r)) and r[0] != r[1] and r[2] != r[3],
                         "finite with x0 != x1 and y0 != y1")}
_CURVED = (lambda spec: "rect" in spec.get("curve", {}),
           "a table with curve: {rect: [x0, x1, y0, y1]}")
_REAL = _bound(float, math.isfinite, "finite")
_U0 = {"expr": str, "constant": float,
       "modes": [{"a": _Required(_REAL), "k": _Required([int]), "phase": [_REAL]}]}
# check types: their keys and default tolerance (None is resolution doubling)
CHECKS = {"mass": ({"type": str, "tolerance": _FINITE}, 1e-9), "balance": (
    _bound({"type": str, "tolerance": _FINITE, "curve": _CURVE}, *_CURVED), None)}
MANIFEST = {
    "pde": _Required(str), "params": dict, "t_end": _FINITE, "cfl": _POSITIVE, "dt": _POSITIVE,
    "samples": _bound(int, lambda n: n >= 2, ">= 2 (t = 0 and t_end)"),
    "f": str, "interp": str, "seed": int, "out": Path,
    "grid": {"resolutions": _bound([int], lambda ns: all(n > 0 for n in ns), "positive"),
             "periods": [float]},
    "u0": _u0,
    "constraints": [{"density": _Required(str), "tolerance": _FINITE}],
    "charges": [_bound({"id": _Required(str), "tolerance": _FINITE, "curve": _CURVE}, *_CURVED)],
    "checks": [_check],
}


@dataclass(frozen=True)
class Plan:
    """A manifest that passed every refusal: a constraint is (text, density,
    tolerance), a charge (label, Gamma, curve, tolerance) and a check (label,
    curve or None for mass, tolerance); a None tolerance comes from doubling."""

    entry: cat.CatalogEntry
    params: dict
    funs: dict
    u0: GridField
    u0_on: Callable  # (shape, periods) -> the initial data on that grid
    stepping: dict  # evolve's t_end, n_samples, cfl and dt
    interp: str
    seed: int
    out: str | None
    constraints: tuple
    charges: tuple
    checks: tuple


def _time_order(e: JetExpr) -> int:
    """The highest time order of the u-jets in e, 0 when it has none."""
    return max((key[1][T] for key in e.jet_keys()), default=0)


def plan(doc) -> Plan:
    """Read a manifest and run every refusal; evolve nothing.

    _read refuses each value outside its MANIFEST kind, by key path, before
    the entry is loaded; then each density, Gamma and check is resolved on
    the entry, a charge off its case is refused, a run's samples are bounded
    by MAX_SAMPLE_BYTES and u0 is sampled on the grid.  A null tolerance is
    1e-9 for constraints and mass checks, doubling for charges and balance
    checks.  Bad input raises UsageError, KeyError, ParseError or
    ConstraintViolation."""
    import numpy as np

    from . import grids, quadrature

    m = _read(doc, MANIFEST)
    t_end, samples, method = m.get("t_end", 0.0), m.get("samples", 9), m.get("interp", "cubic")
    shape, periods = (tuple(m.get("grid", {}).get(key, [])) for key in ("resolutions", "periods"))
    if (m.get("charges") or m.get("checks")) and not t_end > 0:
        raise UsageError("charges and checks need t_end > 0")
    if method not in quadrature.LOOP_METHODS:
        raise UsageError(f"unknown interp {method!r} (known: {', '.join(quadrature.LOOP_METHODS)})")

    checks = []
    for i, spec in enumerate(m.get("checks", [])):
        if spec["type"] == "mass":
            checks.append(("cell integral of u", None, spec["tolerance"]))
            continue
        if samples < (5 if spec["tolerance"] is None else 3):
            raise UsageError(f"checks[{i}]: a balance check differences in time and needs "
                             f"samples >= 3, and >= 5 for a tolerance by doubling (strides 1 "
                             f"and 2), got {samples}")
        rect = spec["curve"]["rect"]
        checks.append((f"d/dt circulation of u vs flux circulation, rect={rect}",
                       quadrature.CurveSpec.rectangle(*rect), spec["tolerance"]))
    balanced = any(loop for _, loop, _ in checks)

    name = m["pde"]
    entry = cat.get_entry(name)
    overlay = cat.exact_params(name, m.get("params", {}))
    params = cat.numeric_params(overlay)
    if missing := sorted(set(entry.symbols.params) - set(params)):
        raise UsageError(f"manifest binds no value for parameter(s) {', '.join(missing)} of {name}")
    if entry.pde.div_form is None and balanced:
        raise UsageError(f"{name} has no divergence form to balance against")
    if entry.dim != 2 and (m.get("charges") or balanced):
        raise UsageError(f"charges and balance checks integrate around a planar curve; "
                         f"{name} has dimension {entry.dim}")
    try:
        funs = {"f": grids.TimeFunction.builtin(m.get("f", "one"))}
    except grids.GridError as exc:
        raise UsageError(str(exc)) from None
    constraints = []
    for i, spec in enumerate(m.get("constraints", [])):
        density = entry.parse(spec["density"])
        if order := _time_order(density):
            raise UsageError(f"constraints[{i}].density needs d_t^{order} u; "
                             f"a constraint reads the initial u alone")
        constraints.append((spec["density"], density, spec.get("tolerance", 1e-9)))
    charges = []
    for spec in m.get("charges", []):
        charge = entry.charge(spec["id"])
        case = entry.current(charge.current_id).case
        if not cat._case_consistent(entry.cases[case], overlay):
            raise UsageError(f"charge {spec['id']} belongs to case {case}, which does not "
                             f"hold at the manifest's params")
        if (order := max(map(_time_order, charge.flux.Gamma))) >= 2:
            raise UsageError(f"charge {spec['id']} needs d_t^{order} u; a run samples u and u_t")
        rect = spec["curve"]["rect"]
        charges.append((f"{spec['id']} rect={rect}", charge.flux.Gamma,
                        quadrature.CurveSpec.rectangle(*rect), spec.get("tolerance")))

    if len(shape) != entry.dim or len(periods) != entry.dim:
        raise UsageError(f"grid must have {entry.dim} resolutions and periods")
    if (size := samples * math.prod(shape) * 16) > MAX_SAMPLE_BYTES:
        raise UsageError(f"{samples} samples of the grid {list(shape)} take {size} bytes, "
                         f"above 1 GiB")
    initial = m.get("u0", {})
    modes = initial.get("modes", [])
    for i, mode in enumerate(modes):
        for key in ("k", "phase"):
            if len(mode.setdefault(key, [0.0] * entry.dim)) != entry.dim:
                raise UsageError(f"u0.modes[{i}].{key} needs an entry per grid axis, "
                                 f"got {mode[key]!r}")
    expr = entry.parse(initial["expr"]) if "expr" in initial else None

    def u0_on(shape: tuple, periods: tuple) -> GridField:
        """u0 on a grid; a grid GridField refuses and data that are not
        finite on it raise UsageError."""
        try:
            fld = grids.GridField(np.zeros(shape), periods)
        except grids.GridError as exc:
            raise UsageError(f"grid {list(shape)}: {exc}") from None
        data = fld.data + initial.get("constant", 0.0)
        for mode in modes:
            factor = np.ones(shape)
            for axis, k in enumerate(mode["k"]):
                if k != 0:
                    theta = 2.0 * math.pi * k / periods[axis]
                    factor = factor * np.sin(theta * fld.coords(axis) + mode["phase"][axis])
            data = data + mode["a"] * factor
        if expr is not None:
            data = data + grids.evaluate_on_grid(expr, fld)
        if not np.isfinite(data).all():
            raise UsageError(f"u0 is not finite on the grid {list(shape)}")
        return grids.GridField(data, periods)

    u0 = u0_on(shape, periods)
    if min(shape) // 2 < grids.MIN_RESOLUTION and any(tol is None for *_, tol in charges + checks):
        raise UsageError(f"tolerances from resolution doubling need at least "
                         f"{2 * grids.MIN_RESOLUTION} points per axis; give tolerances "
                         f"or refine the grid")
    stepping = {"t_end": t_end, "n_samples": samples, "cfl": m.get("cfl", 0.5), "dt": m.get("dt")}
    return Plan(entry, params, funs, u0, u0_on, stepping, method, m.get("seed", 0), m.get("out"),
                tuple(constraints), tuple(charges), tuple(checks))


def _doubling(pairs) -> float:
    """10x the largest difference between a series and its coarser
    counterpart over the (fine, coarse) pairs."""
    return 10.0 * max([abs(a - b) for fine, coarse in pairs for a, b in zip(fine, coarse)]
                      + [1e-13])


def run(plan: Plan) -> tuple[list[ChargeReport], int]:
    """Evolve a plan and judge it; return its reports and exit code.

    A G the evolver cannot step raises UsageError, but a nonlocal term the
    data cannot satisfy is reported as a violated constraint; a run the time
    stepper cannot finish raises CflViolation.  The half-resolution run is
    evolved only when a tolerance comes from doubling.
    """
    from . import evolution, grids, quadrature

    p = plan
    u_gamma = (JetExpr.jet("u"), JetExpr.zero())
    # every (Gamma, curve) that a verdict reads: each charge's, and u's and
    # F's around each balance curve; a run integrates them all at once
    jobs = [(gamma, loop) for _, gamma, loop, _ in p.charges] + [
        (g, loop) for _, loop, _ in p.checks if loop for g in (u_gamma, p.entry.pde.div_form.F)]

    def evolve(u: GridField) -> tuple:
        """u's trajectory and the series of each job on it: each nonzero Gamma
        component is evaluated once per sample for all the jobs."""
        traj = evolution.evolve(evolution.KhatEvolver(p.entry.pde, u, p.params), u, **p.stepping)
        series = {job: [] for job in jobs}
        for fld, ut in zip(traj.fields, traj.ut):
            faces: dict = {}
            for (gamma, loop), vals in series.items():
                vals.append(quadrature.loop_integral(gamma, fld, ut, loop, p.funs, p.params,
                                                     method=p.interp, faces=faces))
        return traj, series

    @functools.cache
    def halved():
        return evolve(p.u0_on(tuple(n // 2 for n in p.u0.shape), p.u0.periods))

    def balance(run: tuple, loop, stride: int = 1) -> tuple[list, list]:
        """d/dt circulation of u around loop minus the F-flux circulation on
        an evolve() result's samples at a stride; stride 2 differences over a
        coarser spacing, so comparing the two measures the sampling error."""
        traj, series = run
        times = traj.times[::stride]
        circ_u, circ_F = (series[g, loop][::stride] for g in (u_gamma, p.entry.pde.div_form.F))
        return times[1:-1], [(circ_u[k + 1] - circ_u[k - 1]) / (times[k + 1] - times[k - 1])
                             - circ_F[k] for k in range(1, len(times) - 1)]

    reports: list[ChargeReport] = []
    for text, density, tol in p.constraints:
        value, verdict, threshold = quadrature.check_constraint(density, p.u0, p.funs, p.params,
                                                                 tolerance=tol)
        reports.append(quadrature.ChargeReport("constraint", text, [0.0], [value], threshold,
                                               verdict, {"seed": p.seed}))
    try:
        main = evolve(p.u0) if p.stepping["t_end"] > 0 else None
    except evolution.NonIntegrableSymbol as exc:
        main = None
        reports.append(quadrature.ChargeReport("constraint-violation", str(exc), [0.0],
                                               [float("nan")], 0.0, "violated", {"seed": p.seed}))
    except evolution.CflViolation:
        raise
    except (evolution.EvolutionError, grids.GridError) as exc:
        raise UsageError(f"{p.entry.name}: {exc}") from exc

    if main is not None:
        traj, series = main
        meta = {"seed": p.seed, "interp": p.interp} | {
            key: traj.meta.get(key) for key in ("scheme", "dealias", "steps")}
        for label, gamma, loop, tol in p.charges:
            vals = series[gamma, loop]
            tol = _doubling([(vals, halved()[1][gamma, loop])]) if tol is None else tol
            verdict = "conserved" if max(abs(v) for v in vals) <= tol else "failed"
            reports.append(quadrature.ChargeReport("charge", label, list(traj.times), vals, tol,
                                                   verdict, dict(meta)))
        for label, loop, tol in p.checks:
            if loop is None:
                times, vals = list(traj.times), [f.integral() for f in traj.fields]
                verdict = "conserved" if max(abs(v - vals[0]) for v in vals) <= tol else "failed"
            else:
                times, vals = balance(main, loop)
                # doubling differences: half resolution, and the centered time
                # differences at stride 2 against those at stride 1
                if tol is None:
                    tol = _doubling([(vals, balance(halved(), loop)[1]),
                                     (vals[1::2], balance(main, loop, 2)[1])])
                verdict = "satisfied" if max(abs(r) for r in vals) <= tol else "failed"
            reports.append(quadrature.ChargeReport("mass" if loop is None else "balance", label,
                                                   times, vals, tol, verdict, {"seed": p.seed}))

    return reports, max([VERDICT_EXIT.get(rep.verdict, EXIT_OK) for rep in reports],
                        default=EXIT_OK)
