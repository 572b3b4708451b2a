"""Command-line surface: verify, reduce, potential, simulate, catalog.

Exit codes: 0 success/verified, 1 verification residual or failed
numerical verdict, 2 usage/catalog error or a missing or unparsable input
file, 3 numerical constraint violation.  Reports are plain structured
text with full-precision numbers; identical manifest and seed give
byte-identical reports.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING

import yaml

from . import catalog as cat
from .conservation import (
    CurrentVerificationError,
    NotAMultiplier,
    divergence_identity,
    reduce_to_spatial_flux,
    verify_current,
    verify_multiplier,
)
from .jetexpr import JetExpr, T
from .parsing import ParseError
from .potential import UnsupportedDimension, build_potential_system
from .printing import jet_name, to_source, vector_source

if TYPE_CHECKING:
    from .grids import GridField
    from .quadrature import ChargeReport, CurveSpec

EXIT_OK = 0
EXIT_RESIDUAL = 1
EXIT_USAGE = 2
EXIT_CONSTRAINT = 3


class UsageError(ValueError):
    """Bad command-line or manifest input; exits with EXIT_USAGE."""


def _parse_params(pairs) -> dict:
    out = {}
    for item in pairs or []:
        if "=" not in item:
            raise UsageError(f"--params expects name=value, got {item!r}")
        k, _, v = item.partition("=")
        out[k.strip()] = v.strip()
    return out


def _split_top_level(text: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return [p.strip() for p in parts]


def cmd_catalog(args) -> int:
    if args.action == "list":
        for entry in cat.load_catalog():
            print(f"{entry.name:16s} dim={entry.dim}  {entry.title}")
        return EXIT_OK
    entry = cat.instantiate(args.pde, _parse_params(args.params))
    print(f"name: {entry.name}")
    print(f"title: {entry.title}")
    print(f"dim: {entry.dim}")
    print(f"G: {to_source(entry.pde.G)}")
    dep, mi = entry.pde.leading
    print(f"leading: {jet_name((dep, mi))}")
    if entry.pde.div_form:
        print(f"div_form: k={'txyz'[entry.pde.div_form.k_axis]} "
              f"F={vector_source(entry.pde.div_form.F)}")
    for m in entry.multipliers:
        print(f"multiplier {m.id} [{m.case}]: {to_source(m.Q)}")
    for c in entry.currents:
        print(f"current {c.id} [{c.case}]: T = {to_source(c.T)}")
        print(f"    Phi = {vector_source(c.Phi)}")
        if c.repair:
            print(f"    repair: {' '.join(c.repair.split())}")
    for ident in entry.identities:
        print(f"identity {ident.id} (current {ident.current_id}, i={ident.index}): "
              f"R(G) = {to_source(ident.identity.R)}")
    for ch in entry.charges:
        print(f"charge {ch.id}: Gamma = {vector_source(ch.flux.Gamma)}")
        print(f"    non-trivial: {ch.flux.nontrivial_up_to_order!r}")
    return EXIT_OK


def cmd_verify(args) -> int:
    entry = cat.instantiate(args.pde, _parse_params(args.params))
    obj = args.object
    pde = entry.pde
    if obj.startswith("multiplier-"):
        m = entry.multiplier(obj)
        print(f"{entry.name} {obj}: verified multiplier {to_source(m.Q)}")
        return EXIT_OK
    if obj.startswith("current-"):
        c = entry.current(obj)
        print(f"{entry.name} {obj}: verified (N={c.family.N}, "
              f"pairing {'exact' if c.pairing_exact else 'on solutions'})")
        if c.repair:
            print(f"repair note: {' '.join(c.repair.split())}")
        return EXIT_OK
    # ad-hoc object: "(T, Phi^1, ..., Phi^n)" is a current, else a multiplier
    if obj.startswith("@"):
        obj = Path(obj[1:]).read_text(encoding="utf-8").strip()
    try:
        if obj.startswith("(") and obj.endswith(")"):
            parts = _split_top_level(obj[1:-1])
            if len(parts) != entry.dim + 1:
                print(f"expected 1 density and {entry.dim} flux components", file=sys.stderr)
                return EXIT_USAGE
            T_expr = entry.parse(parts[0])
            Phi = tuple(entry.parse(p) for p in parts[1:])
            residual = verify_current(pde, T_expr, Phi)
            if residual.is_zero():
                print(f"{entry.name} ad-hoc current: verified")
                return EXIT_OK
            print(f"{entry.name} ad-hoc current: residual on solutions:")
            print(f"  {to_source(residual)}")
            return EXIT_RESIDUAL
        Q = entry.parse(obj)
        try:
            verify_multiplier(pde, Q)
        except NotAMultiplier as exc:
            print(f"{entry.name} ad-hoc multiplier: Euler residual:")
            print(f"  {to_source(exc.residual)}")
            return EXIT_RESIDUAL
        print(f"{entry.name} ad-hoc multiplier: verified")
        return EXIT_OK
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def cmd_reduce(args) -> int:
    entry = cat.instantiate(args.pde, _parse_params(args.params))
    cur = entry.current(args.object)
    pde = entry.pde_for_case(cur.case)
    flux = reduce_to_spatial_flux(cur.family, pde, order_bound=args.order_bound)
    print(f"{entry.name} {args.object}: spatial-flux vector Gamma")
    for axis, comp in zip("xyz", flux.Gamma):
        print(f"  Gamma^{axis} = {to_source(comp)}")
    print(f"  non-trivial: {flux.nontrivial_up_to_order!r}")
    for i in range(cur.family.N + 1):
        ident = divergence_identity(pde, cur.family, i)
        print(f"identity i={i}:  T_{i} = Div Psi_{i} + R(G)")
        print(f"  T_{i} = {to_source(ident.T)}")
        for axis, comp in zip("xyz", ident.Psi):
            print(f"  Psi_{i}^{axis} = {to_source(comp)}")
        print(f"  R(G) = {to_source(ident.R)}")
    return EXIT_OK


def cmd_potential(args) -> int:
    entry = cat.instantiate(args.pde, _parse_params(args.params))
    charge = entry.charge(args.object)
    try:
        system = build_potential_system(charge.flux)
    except UnsupportedDimension as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.yaml:
        print(yaml.safe_dump(system.as_document(), sort_keys=False), end="")
        return EXIT_OK
    print(f"{entry.name} {args.object}: spatial potential system "
          f"(potentials: {', '.join(system.potentials)})")
    for lhs, rhs in system.equations:
        print(f"  {to_source(lhs)} = {to_source(rhs)}")
    print(f"gauge freedom: {system.gauge}")
    return EXIT_OK


# -- simulate -------------------------------------------------------------------

# The numerical names simulate uses.  numpy, grids, evolution and quadrature
# load only when simulate runs, so the exact subcommands never import numpy.
# __getattr__ (PEP 562) reads each name from its module when it is asked
# for, and the simulate path asks through this module (`_num`) at call time:
# a binding set on this module or on the defining module, such as a test's
# stand-in or a tracer's wrapper, is the one that runs.
_NUMERICAL = {
    "evolution": ("CflViolation", "EvolutionError", "KhatEvolver", "NonIntegrableSymbol",
                  "evolve"),
    "grids": ("MIN_RESOLUTION", "GridError", "GridField", "TimeFunction", "evaluate_on_grid"),
    "quadrature": ("LOOP_METHODS", "ChargeReport", "CurveSpec", "check_constraint",
                   "loop_integral"),
}
_OWNER = {name: module for module, names in _NUMERICAL.items() for name in names}


def __getattr__(name):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__package__}.{_OWNER[name]}"), name)


_num = sys.modules[__name__]


def _read(value, kind, path: str = ""):
    """value read as a MANIFEST kind and named by its key path.

    A table refuses keys it does not name and drops null values, so a null
    key takes its default; an int refuses a number with a fractional part.
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
    return {key: _read(item, kind[key], f"{where}{key}")
            for key, item in value.items() if item is not None}


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
# of a kind, or a function that reads the value.
_CURVE = {"rect": [float]}
_U0 = {"expr": str, "constant": float, "modes": [{"a": float, "k": [int], "phase": [float]}]}
# check types: their keys and default tolerance (None is resolution doubling)
CHECKS = {"mass": ({"type": str, "tolerance": float}, 1e-9),
          "balance": ({"type": str, "tolerance": float, "curve": _CURVE}, None)}
MANIFEST = {
    "pde": str, "params": dict, "t_end": float, "samples": int, "cfl": float, "dt": float,
    "f": str, "interp": str, "seed": int, "out": Path,
    "grid": {"resolutions": [int], "periods": [float]},
    "u0": _u0,
    "constraints": [{"density": str, "tolerance": float}],
    "charges": [{"id": str, "tolerance": float, "curve": _CURVE}],
    "checks": [_check],
}
VERDICT_EXIT = {"failed": EXIT_RESIDUAL, "violated": EXIT_CONSTRAINT}


def _curve(spec: dict, path: str) -> CurveSpec:
    """The rectangle a charge or balance check integrates around."""
    rect = spec.get("curve", {}).get("rect")
    if rect is None or len(rect) != 4:
        raise UsageError(f"{path} needs curve: {{rect: [x0, x1, y0, y1]}}, "
                         f"got {spec.get('curve')!r}")
    return _num.CurveSpec.rectangle(*rect)


def _initial_data(u0: dict, entry):
    """Check the read u0 against the entry and parse it once; return the
    function that samples it on a grid of the given shape and periods,
    which raises UsageError for a grid that GridField refuses or for data
    that is not finite on it."""
    import numpy as np

    dim = entry.dim
    modes = u0.get("modes", [])
    for i, mode in enumerate(modes):
        if "a" not in mode or "k" not in mode:
            raise UsageError(f"u0.modes[{i}] needs a and k, got {mode!r}")
        mode.setdefault("phase", [0.0] * dim)
        for key in ("k", "phase"):
            if len(mode[key]) != dim:
                raise UsageError(f"u0.modes[{i}].{key} needs an entry per grid axis, "
                                 f"got {mode[key]!r}")
    expr = entry.parse(u0["expr"]) if "expr" in u0 else None

    def on_grid(shape: tuple, periods: tuple) -> GridField:
        try:
            fld = _num.GridField(np.zeros(shape), periods)
        except _num.GridError as exc:
            raise UsageError(f"grid {list(shape)}: {exc}") from None
        data = fld.data + u0.get("constant", 0.0)
        for mode in modes:
            factor = np.ones(shape)
            for axis, k in enumerate(mode["k"]):
                if k != 0:
                    theta = 2.0 * math.pi * k / periods[axis]
                    factor = factor * np.sin(theta * fld.coords(axis) + mode["phase"][axis])
            data = data + mode["a"] * factor
        if expr is not None:
            data = data + _num.evaluate_on_grid(expr, fld)
        if not np.isfinite(data).all():
            raise UsageError(f"u0 is not finite on the grid {list(shape)}")
        return _num.GridField(data, periods)

    return on_grid


def curve_series(traj, jobs: list, params: dict, funs: dict | None = None,
                 method: str = "cubic") -> list[list[float]]:
    """The series of each (gamma, curve) in jobs, taken sample by sample:
    each nonzero Gamma component is evaluated once per sample for all the
    jobs (see loop_integral), and one sample's values are held at a time."""
    out = [[] for _ in jobs]
    for fld, ut in zip(traj.fields, traj.ut):
        faces: dict = {}
        for vals, (gamma, curve) in zip(out, jobs):
            vals.append(_num.loop_integral(gamma, fld, ut, curve, funs, params, method=method,
                                           faces=faces))
    return out


def balance_residuals(times, circ_u, circ_F):
    """d/dt circulation of u around the curve minus the F-flux circulation.

    Passing every second sample differences the time derivative over a
    coarser spacing; comparing the two measures the sampling error.
    """
    resid = [(circ_u[k + 1] - circ_u[k - 1]) / (times[k + 1] - times[k - 1]) - circ_F[k]
             for k in range(1, len(times) - 1)]
    return times[1:-1], resid


def _tolerance(tolerance: float | None, doubled) -> float:
    """The given tolerance, else 10x the largest difference between a series
    and its coarser counterpart over the (fine, coarse) pairs of doubled()."""
    if tolerance is not None:
        return tolerance
    return 10.0 * max([abs(a - b) for fine, coarse in doubled() for a, b in zip(fine, coarse)]
                      + [1e-13])


def simulate(manifest) -> tuple[list[ChargeReport], int]:
    """Run a simulation manifest; return its reports and exit code.

    The manifest is read by _read against MANIFEST before the catalog entry
    is loaded, and the run uses the converted values.  A null tolerance is
    1e-9 for constraints and mass checks and resolution doubling for charges
    and balance checks; t_end and a given tolerance must be >= 0.  The
    checks that need the entry or the run settings follow, and every
    constraint density, charge Gamma, curve and check is resolved before
    anything is evolved: bad input raises UsageError,
    KeyError, ParseError or ConstraintViolation (params that instantiate
    refuses) and evolves nothing.  A run the time stepper cannot finish
    raises CflViolation.
    """
    m = _read(manifest, MANIFEST)
    t_end, samples, seed = m.get("t_end", 0.0), m.get("samples", 9), m.get("seed", 0)
    cfl, dt, method = m.get("cfl", 0.5), m.get("dt"), m.get("interp", "cubic")
    shape, periods = (tuple(m.get("grid", {}).get(key, [])) for key in ("resolutions", "periods"))
    constraints = [(spec, spec.get("tolerance", 1e-9)) for spec in m.get("constraints", [])]
    charges = [(spec, spec.get("tolerance"), _curve(spec, f"charges[{i}]"))
               for i, spec in enumerate(m.get("charges", []))]
    checks = [(spec, spec["tolerance"],
               _curve(spec, f"checks[{i}]") if spec["type"] == "balance" else None)
              for i, spec in enumerate(m.get("checks", []))]
    if not t_end >= 0:
        raise UsageError(f"t_end must be >= 0, got {t_end!r}")
    for group, specs in (("constraints", constraints), ("charges", charges), ("checks", checks)):
        for i, (_, tol, *_) in enumerate(specs):
            if tol is not None and not tol >= 0:
                raise UsageError(f"{group}[{i}].tolerance must be >= 0, got {tol!r}")
    if (charges or checks) and not t_end > 0:
        raise UsageError("charges and checks need t_end > 0")
    for key, value in (("cfl", cfl), ("dt", dt)):
        if value is not None and not value > 0:
            raise UsageError(f"{key} must be > 0, got {value!r}")
    if samples < 2:
        raise UsageError(f"samples must be >= 2 (t = 0 and t_end), got {samples}")
    if any(curve for *_, curve in checks) and samples < 3:
        raise UsageError("a balance check differences in time and needs samples >= 3")
    if method not in _num.LOOP_METHODS:
        raise UsageError(f"unknown interp {method!r} (known: {', '.join(_num.LOOP_METHODS)})")

    name = m["pde"]
    entry = cat.get_entry(name)
    params = cat.numeric_params(name, m.get("params", {}))
    missing = sorted(set(entry.symbols.params) - set(params))
    if missing:
        raise UsageError(f"manifest binds no value for parameter(s) "
                         f"{', '.join(missing)} of {name}")
    if entry.pde.div_form is None and any(curve for *_, curve in checks):
        raise UsageError(f"{name} has no divergence form to balance against")
    if entry.dim != 2 and (charges or any(curve for *_, curve in checks)):
        raise UsageError(f"charges and balance checks integrate around a planar curve; "
                         f"{name} has dimension {entry.dim}")
    try:
        funs = {"f": _num.TimeFunction.builtin(m.get("f", "one"))}
    except _num.GridError as exc:
        raise UsageError(str(exc)) from None
    densities = [entry.parse(spec["density"]) for spec, _ in constraints]
    gammas = [entry.charge(spec.get("id")).flux.Gamma for spec, *_ in charges]
    for (spec, *_), gamma in zip(charges, gammas):
        order = max((key[1][T] for c in gamma for key in c.jet_keys()), default=0)
        if order >= 2:
            raise UsageError(f"charge {spec['id']} needs d_t^{order} u; a run samples u and u_t")

    if len(shape) != entry.dim or len(periods) != entry.dim:
        raise UsageError(f"grid must have {entry.dim} resolutions and periods")
    u0_on = _initial_data(m.get("u0", {}), entry)
    u0 = u0_on(shape, periods)
    doubled = any(tol is None for _, tol, _ in charges + checks)
    if min(shape) // 2 < _num.MIN_RESOLUTION and doubled:
        raise UsageError(f"tolerances from resolution doubling need at least "
                         f"{2 * _num.MIN_RESOLUTION} points per axis; give tolerances "
                         f"or refine the grid")
    u_gamma = (JetExpr.jet("u"), JetExpr.zero())

    def run(u: GridField):
        return _num.evolve(_num.KhatEvolver(entry.pde, u, params), u, t_end, n_samples=samples,
                      cfl=cfl, dt=dt)

    @functools.cache
    def halved():
        return run(u0_on(tuple(n // 2 for n in shape), periods))

    # every (Gamma, curve) that a verdict reads: each charge's, and u's and
    # F's around each balance curve; a run integrates them all at once
    jobs = list(dict.fromkeys(
        [(gamma, curve) for (_, _, curve), gamma in zip(charges, gammas)]
        + [(g, curve) for *_, curve in checks if curve for g in (u_gamma, entry.pde.div_form.F)]))
    tables: dict = {}  # id of a trajectory -> {job: its series}

    def circulation(gamma, traj, curve):
        if id(traj) not in tables:
            tables[id(traj)] = dict(zip(jobs, curve_series(traj, jobs, params, funs, method)))
        return tables[id(traj)][gamma, curve]

    def circulations(traj, curve):
        return (circulation(u_gamma, traj, curve),
                circulation(entry.pde.div_form.F, traj, curve))

    # initial-data constraint checks never need evolution
    reports: list[ChargeReport] = []
    for (spec, tol), density in zip(constraints, densities):
        value, verdict, threshold = _num.check_constraint(density, u0, funs, params, tolerance=tol)
        reports.append(_num.ChargeReport("constraint", spec["density"], [0.0], [value],
                                         threshold, verdict, {"seed": seed}))

    traj = None
    if t_end > 0:
        try:
            traj = run(u0)
        except _num.NonIntegrableSymbol as exc:
            reports.append(_num.ChargeReport("constraint-violation", str(exc), [0.0],
                                             [float("nan")], 0.0, "violated", {"seed": seed}))
        except _num.CflViolation:
            raise
        except (_num.EvolutionError, _num.GridError) as exc:
            raise UsageError(f"{name}: {exc}") from exc

    if traj is not None:
        meta = {"seed": seed, "interp": method, "scheme": traj.meta.get("scheme"),
                "dealias": traj.meta.get("dealias"), "steps": traj.meta.get("steps")}
        for (spec, tol, curve), gamma in zip(charges, gammas):
            vals = circulation(gamma, traj, curve)
            tol = _tolerance(tol, lambda: [(vals, circulation(gamma, halved(), curve))])
            verdict = "conserved" if max(abs(v) for v in vals) <= tol else "failed"
            reports.append(_num.ChargeReport(
                "charge", f"{spec['id']} rect={spec['curve']['rect']}", list(traj.times),
                vals, tol, verdict, dict(meta)))
        for spec, tol, curve in checks:
            if curve is None:
                vals = [f.integral() for f in traj.fields]
                verdict = "conserved" if max(abs(v - vals[0]) for v in vals) <= tol else "failed"
                reports.append(_num.ChargeReport("mass", "cell integral of u", list(traj.times),
                                                 vals, tol, verdict, {"seed": seed}))
                continue
            circ_u, circ_F = circulations(traj, curve)
            times, resid = balance_residuals(traj.times, circ_u, circ_F)
            # doubling differences: half resolution, and the centered time
            # differences at stride 2 against those at stride 1
            tol = _tolerance(tol, lambda: [
                (resid, balance_residuals(halved().times, *circulations(halved(), curve))[1]),
                (resid[1::2], balance_residuals(traj.times[::2], circ_u[::2], circ_F[::2])[1])])
            verdict = "satisfied" if max(abs(r) for r in resid) <= tol else "failed"
            reports.append(_num.ChargeReport(
                "balance", f"d/dt circulation of u vs flux circulation, "
                f"rect={spec['curve']['rect']}", times, resid, tol, verdict, {"seed": seed}))

    code = max([VERDICT_EXIT.get(rep.verdict, EXIT_OK) for rep in reports], default=EXIT_OK)
    return reports, code


def cmd_simulate(args) -> int:
    manifest = cat.load_yaml(Path(args.manifest).read_text(encoding="utf-8"))
    try:
        reports, code = simulate(manifest)
    except _num.CflViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESIDUAL
    out_dir = Path(args.out or manifest.get("out") or "reports")
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, rep in enumerate(reports):
        path = out_dir / f"report_{i:02d}_{rep.kind}.txt"
        path.write_text(rep.to_text(), encoding="utf-8")
        print(f"{rep.kind}: {rep.verdict} (report: {path})")
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="topocharge",
        description="Conservation laws with an arbitrary function of time: "
        "verification, spatial-flux reduction, potential systems, and "
        "periodic-grid checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_object=True):
        p.add_argument("pde", nargs="?", help="catalog entry name")
        if with_object:
            p.add_argument("object", nargs="?", help="object id or ad-hoc expression")
        p.add_argument("--pde", dest="pde_flag", help=argparse.SUPPRESS)
        p.add_argument("--object", dest="object_flag", help=argparse.SUPPRESS)
        p.add_argument("--params", nargs="*", metavar="NAME=VALUE")

    p = sub.add_parser("verify", help="verify a multiplier or current")
    add_common(p)
    p = sub.add_parser("reduce", help="reduce a current to spatial-flux form")
    add_common(p)
    p.add_argument("--order-bound", type=int, default=None)
    p = sub.add_parser("potential", help="print the spatial potential system of a charge")
    add_common(p)
    p.add_argument("--yaml", action="store_true", help="emit catalog-format text")
    p = sub.add_parser("catalog", help="list or show catalog entries")
    p.add_argument("action", choices=["list", "show"])
    p.add_argument("pde", nargs="?")
    p.add_argument("--pde", dest="pde_flag", help=argparse.SUPPRESS)
    p.add_argument("--params", nargs="*", metavar="NAME=VALUE")
    p = sub.add_parser("simulate", help="run a manifest-driven numerical check")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out")

    args = parser.parse_args(argv)
    if hasattr(args, "pde_flag") and args.pde_flag:
        args.pde = args.pde_flag
    if hasattr(args, "object_flag") and args.object_flag:
        args.object = args.object_flag

    try:
        if args.command == "catalog":
            if args.action == "show" and not args.pde:
                parser.error("catalog show needs an entry name")
            return cmd_catalog(args)
        if args.command == "simulate":
            return cmd_simulate(args)
        if not args.pde or not args.object:
            parser.error(f"{args.command} needs a PDE name and an object")
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "reduce":
            return cmd_reduce(args)
        if args.command == "potential":
            return cmd_potential(args)
    except (KeyError, cat.ConstraintViolation, UsageError, ParseError, OSError,
            yaml.YAMLError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except cat.CatalogCorrupt as exc:
        print(f"catalog corrupt: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CurrentVerificationError as exc:
        print(f"verification residual: {exc}", file=sys.stderr)
        for k, v in exc.residuals.items():
            print(f"  f^({k}): {to_source(v)}", file=sys.stderr)
        return EXIT_RESIDUAL
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
