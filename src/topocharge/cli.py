"""Command-line surface: verify, reduce, potential, simulate, catalog.

Exit codes: 0 success/verified, 1 verification residual or failed
numerical verdict, 2 usage/catalog error, 3 numerical constraint
violation.  Reports are plain structured text with full-precision
numbers; identical manifest and seed give byte-identical reports.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
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
from .evolution import CflViolation, EvolutionError, KhatEvolver, NonIntegrableSymbol, evolve
from .grids import MIN_RESOLUTION, GridError, GridField, TimeFunction, evaluate_on_grid
from .jetexpr import JetExpr
from .parsing import ParseError, parse_expr
from .potential import UnsupportedDimension, build_potential_system
from .printing import to_source, vector_source
from .quadrature import LOOP_METHODS, ChargeReport, CurveSpec, check_constraint, loop_integral

EXIT_OK = 0
EXIT_RESIDUAL = 1
EXIT_USAGE = 2
EXIT_CONSTRAINT = 3


class UsageError(ValueError):
    """Bad command-line or manifest input; exits with EXIT_USAGE."""


def _load_entry(name: str, params: dict | None):
    if name.endswith(".yaml") or name.endswith(".yml"):
        entry = cat.load_entry_file(name)
        if params:
            raise UsageError("--params is not supported with entry files; "
                             "bind values inside the document")
        return entry
    if params:
        return cat.instantiate(name, params)
    return cat.get_entry(name)


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
    entry = _load_entry(args.pde, _parse_params(args.params))
    print(f"name: {entry.name}")
    print(f"title: {entry.title}")
    print(f"dim: {entry.dim}")
    print(f"G: {to_source(entry.pde.G)}")
    dep, mi = entry.pde.leading
    from .printing import jet_name

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
    params = _parse_params(args.params)
    entry = _load_entry(args.pde, params)
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
            T_expr = parse_expr(parts[0], entry.dim, entry.symbols)
            Phi = tuple(parse_expr(p, entry.dim, entry.symbols) for p in parts[1:])
            residual = verify_current(pde, T_expr, Phi)
            if residual.is_zero():
                print(f"{entry.name} ad-hoc current: verified")
                return EXIT_OK
            print(f"{entry.name} ad-hoc current: residual on solutions:")
            print(f"  {to_source(residual)}")
            return EXIT_RESIDUAL
        Q = parse_expr(obj, entry.dim, entry.symbols)
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
    entry = _load_entry(args.pde, _parse_params(args.params))
    cur = entry.current(args.object)
    pde = entry.pde_for_case(cur.case)
    flux = reduce_to_spatial_flux(cur.family, pde, certify=not args.no_certify,
                                  order_bound=args.order_bound)
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
    entry = _load_entry(args.pde, _parse_params(args.params))
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


MANIFEST_KEYS = {"pde", "params", "grid", "u0", "t_end", "samples", "cfl", "dt", "f",
                 "interp", "seed", "out", "constraints", "charges", "checks"}
CHECK_TYPES = ("mass", "balance")


def _read_manifest(path) -> dict:
    """The manifest document, refusing keys and check types it does not know."""
    manifest = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
    if not isinstance(manifest, dict):
        raise UsageError(f"{path}: a manifest is a mapping")
    unknown = sorted(set(manifest) - MANIFEST_KEYS)
    if unknown:
        raise UsageError(f"{path}: unknown manifest key(s) {', '.join(unknown)}")
    for spec in manifest.get("checks") or []:
        if spec.get("type") not in CHECK_TYPES:
            raise UsageError(f"{path}: unknown check type {spec.get('type')!r} "
                             f"(known: {', '.join(CHECK_TYPES)})")
    _check_numbers(manifest, path)
    if (manifest.get("charges") or manifest.get("checks")) and not \
            float(manifest.get("t_end", 0.0)) > 0:
        raise UsageError(f"{path}: charges and checks need t_end > 0")
    if manifest.get("interp", "cubic") not in LOOP_METHODS:
        raise UsageError(f"{path}: unknown interp {manifest['interp']!r} "
                         f"(known: {', '.join(LOOP_METHODS)})")
    return manifest


def _check_numbers(manifest, path) -> None:
    """Refuse a non-numeric value in any field the run converts to a number."""

    def need(value, kind, where):
        try:
            kind(value)
        except (TypeError, ValueError):
            raise UsageError(f"{path}: {where} must be a number, got {value!r}") from None

    def need_list(doc, key, kind, where):
        values = doc.get(key)
        if values is None:
            return
        if not isinstance(values, list):
            raise UsageError(f"{path}: {where}.{key} must be a list, got {values!r}")
        for value in values:
            need(value, kind, f"{where}.{key}")

    for key, kind in (("t_end", float), ("samples", int), ("cfl", float), ("dt", float),
                      ("seed", int)):
        if manifest.get(key) is not None:
            need(manifest[key], kind, key)
    grid = manifest.get("grid") or {}
    need_list(grid, "resolutions", int, "grid")
    need_list(grid, "periods", float, "grid")
    u0 = manifest.get("u0")
    if isinstance(u0, dict):
        if "constant" in u0:
            need(u0["constant"], float, "u0.constant")
        for mode in u0.get("modes") or []:
            if "a" in mode:
                need(mode["a"], float, "u0.modes[].a")
            need_list(mode, "k", int, "u0.modes[]")
            need_list(mode, "phase", float, "u0.modes[]")
    for group in ("charges", "checks", "constraints"):
        for spec in manifest.get(group) or []:
            if spec.get("tolerance") is not None:
                need(spec["tolerance"], float, f"{group}[].tolerance")
            need_list(spec.get("curve") or {}, "rect", float, f"{group}[].curve")


def _numeric_params(manifest) -> dict:
    out = {}
    for name, value in (manifest.get("params") or {}).items():
        text = str(value).strip()
        try:
            if text.startswith("sqrt(") and text.endswith(")"):
                out[name] = math.sqrt(float(Fraction(text[5:-1])))
            else:
                out[name] = float(Fraction(text))
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"params.{name} must be a rational or sqrt(rational), "
                             f"got {value!r}") from None
    return out


def _initial_data(manifest, dim: int, symbols) -> GridField:
    grid_spec = manifest["grid"]
    shape = tuple(int(n) for n in grid_spec["resolutions"])
    periods = tuple(float(p) for p in grid_spec["periods"])
    if len(shape) != dim or len(periods) != dim:
        raise UsageError(f"grid must have {dim} resolutions and periods")
    data = np.zeros(shape)
    coords = []
    try:
        fld = GridField(data, periods)
    except GridError as exc:
        raise UsageError(f"grid {list(shape)}: {exc}") from None
    for axis in range(dim):
        coords.append(fld.coords(axis))
    u0 = manifest.get("u0") or {}
    if isinstance(u0, str):
        u0 = {"expr": u0}
    if "constant" in u0:
        data = data + float(u0["constant"])
    for mode in u0.get("modes") or []:
        amp = float(mode["a"])
        ks = [int(k) for k in mode["k"]]
        phases = [float(p) for p in mode.get("phase", [0.0] * dim)]
        factor = np.ones(shape)
        for axis in range(dim):
            if ks[axis] != 0:
                theta = 2.0 * math.pi * ks[axis] / periods[axis]
                factor = factor * np.sin(theta * coords[axis] + phases[axis])
        data = data + amp * factor
    if "expr" in u0:
        e = parse_expr(u0["expr"], dim, symbols)
        data = data + evaluate_on_grid(e, fld)
    return GridField(data, periods)


def _halved_manifest(manifest) -> dict:
    out = dict(manifest)
    grid = dict(manifest["grid"])
    grid["resolutions"] = [int(n) // 2 for n in grid["resolutions"]]
    out["grid"] = grid
    return out


def _charge_series(entry, traj, charge_id, curve, params, fun, method):
    flux = entry.charge(charge_id).flux
    vals = []
    for fld, ut in zip(traj.fields, traj.ut):
        vals.append(
            loop_integral(flux.Gamma, fld, ut, curve, {"f": fun}, params, method=method)
        )
    return vals


def _circulations(entry, traj, curve, params, method) -> tuple[list, list]:
    """Circulations of u and of the F-flux around the curve at every sample."""
    u_gamma = (JetExpr.jet("u"), JetExpr.zero())
    F_gamma = entry.pde.div_form.F
    circ_u = [loop_integral(u_gamma, fld, ut, curve, None, params, method=method)
              for fld, ut in zip(traj.fields, traj.ut)]
    circ_F = [loop_integral(F_gamma, fld, ut, curve, None, params, method=method)
              for fld, ut in zip(traj.fields, traj.ut)]
    return circ_u, circ_F


def _balance_residuals(times, circ_u, circ_F):
    """d/dt circulation of u around the curve minus the F-flux circulation.

    Passing every second sample differences the time derivative over a
    coarser spacing; comparing the two measures the sampling error.
    """
    resid = [(circ_u[k + 1] - circ_u[k - 1]) / (times[k + 1] - times[k - 1]) - circ_F[k]
             for k in range(1, len(times) - 1)]
    return times[1:-1], resid


def cmd_simulate(args) -> int:
    manifest = _read_manifest(args.manifest)
    out_dir = Path(args.out or manifest.get("out") or "reports")
    out_dir.mkdir(parents=True, exist_ok=True)
    name = manifest["pde"]
    entry = _load_entry(name, None)
    params = _numeric_params(manifest)
    missing = sorted(set(entry.symbols.params) - set(params))
    if missing:
        raise UsageError(f"manifest binds no value for parameter(s) "
                         f"{', '.join(missing)} of {name}")
    if entry.pde.div_form is None and any(
            spec["type"] == "balance" for spec in manifest.get("checks") or []):
        raise UsageError(f"{name} has no divergence form to balance against")
    fun = TimeFunction.builtin(manifest.get("f", "one"))
    seed = int(manifest.get("seed", 0))

    u0 = _initial_data(manifest, entry.dim, entry.symbols)
    if min(u0.data.shape) // 2 < MIN_RESOLUTION and any(
            spec.get("tolerance") is None for spec in (manifest.get("charges") or [])
            + [c for c in manifest.get("checks") or [] if c["type"] == "balance"]):
        raise UsageError(f"tolerances from resolution doubling need at least "
                         f"{2 * MIN_RESOLUTION} points per axis; give tolerances "
                         f"or refine the grid")
    t_end = float(manifest.get("t_end", 0.0))
    samples = int(manifest.get("samples", 9))
    cfl = float(manifest.get("cfl", 0.5))
    dt = manifest.get("dt")
    dt = float(dt) if dt is not None else None

    def run(u: GridField):
        return evolve(KhatEvolver(entry.pde, u, params), u, t_end, n_samples=samples,
                      cfl=cfl, dt=dt)

    @functools.cache
    def halved():
        return run(_initial_data(_halved_manifest(manifest), entry.dim, entry.symbols))

    reports: list[ChargeReport] = []
    worst = EXIT_OK

    # initial-data constraint checks never need evolution
    for spec in manifest.get("constraints") or []:
        expr = parse_expr(spec["density"], entry.dim, entry.symbols)
        value, verdict, threshold = check_constraint(
            expr, u0, {"f": fun}, params, tolerance=float(spec.get("tolerance", 1e-9))
        )
        reports.append(
            ChargeReport(
                "constraint", spec["density"], [0.0], [value], threshold, verdict,
                {"seed": seed},
            )
        )
        if verdict == "violated":
            worst = max(worst, EXIT_CONSTRAINT)

    traj = None
    if t_end > 0:
        try:
            traj = run(u0)
        except NonIntegrableSymbol as exc:
            reports.append(
                ChargeReport(
                    "constraint-violation", str(exc), [0.0], [float("nan")], 0.0,
                    "violated", {"seed": seed},
                )
            )
            worst = EXIT_CONSTRAINT
        except CflViolation as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_RESIDUAL
        except EvolutionError as exc:
            raise UsageError(f"{name}: {exc}") from exc

    if traj is not None:
        method = manifest.get("interp", "cubic")
        for spec in manifest.get("charges") or []:
            curve = CurveSpec.rectangle(*spec["curve"]["rect"])
            vals = _charge_series(entry, traj, spec["id"], curve, params, fun, method)
            if spec.get("tolerance") is not None:
                tol = float(spec["tolerance"])
            else:
                vals_half = _charge_series(entry, halved(), spec["id"], curve, params,
                                           fun, method)
                diff = max(abs(a - b) for a, b in zip(vals, vals_half))
                tol = 10.0 * max(diff, 1e-13)
            verdict = "conserved" if max(abs(v) for v in vals) <= tol else "failed"
            reports.append(
                ChargeReport(
                    "charge", f"{spec['id']} rect={spec['curve']['rect']}",
                    list(traj.times), vals, tol, verdict,
                    {"seed": seed, "interp": method, "scheme": traj.meta.get("scheme"),
                     "dealias": traj.meta.get("dealias"), "steps": traj.meta.get("steps")},
                )
            )
            if verdict == "failed":
                worst = max(worst, EXIT_RESIDUAL)
        for spec in manifest.get("checks") or []:
            if spec["type"] == "mass":
                vals = [f.integral() for f in traj.fields]
                tol = float(spec.get("tolerance", 1e-9))
                verdict = "conserved" if max(abs(v - vals[0]) for v in vals) <= tol else "failed"
                reports.append(
                    ChargeReport("mass", "cell integral of u", list(traj.times), vals,
                                 tol, verdict, {"seed": seed})
                )
                if verdict == "failed":
                    worst = max(worst, EXIT_RESIDUAL)
            else:
                curve = CurveSpec.rectangle(*spec["curve"]["rect"])
                circ_u, circ_F = _circulations(entry, traj, curve, params, method)
                times, resid = _balance_residuals(traj.times, circ_u, circ_F)
                if spec.get("tolerance") is not None:
                    tol = float(spec["tolerance"])
                else:
                    half = halved()
                    _, resid_half = _balance_residuals(
                        half.times, *_circulations(entry, half, curve, params, method))
                    diff_grid = max(abs(a - b) for a, b in zip(resid, resid_half))
                    # time-sampling part of the doubling difference: compare the
                    # centered differences at stride 1 vs stride 2
                    t2, r2 = _balance_residuals(traj.times[::2], circ_u[::2], circ_F[::2])
                    fine = dict(zip(times, resid))
                    diff_time = max(
                        (abs(fine[t] - r) for t, r in zip(t2, r2) if t in fine),
                        default=0.0,
                    )
                    tol = 10.0 * max(diff_grid, diff_time, 1e-13)
                verdict = "satisfied" if max(abs(r) for r in resid) <= tol else "failed"
                reports.append(
                    ChargeReport(
                        "balance", f"d/dt circulation of u vs flux circulation, "
                        f"rect={spec['curve']['rect']}", times, resid, tol, verdict,
                        {"seed": seed},
                    )
                )
                if verdict == "failed":
                    worst = max(worst, EXIT_RESIDUAL)

    for i, rep in enumerate(reports):
        path = out_dir / f"report_{i:02d}_{rep.kind}.txt"
        path.write_text(rep.to_text(), encoding="utf-8")
        print(f"{rep.kind}: {rep.verdict} (report: {path})")
    return worst


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
    p.add_argument("--no-certify", action="store_true")
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
    except (KeyError, cat.ConstraintViolation, UsageError) as exc:
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
