"""Command-line surface: verify, reduce, potential, simulate, catalog.

Exit codes: 0 success/verified, 1 verification residual or failed
numerical verdict, 2 usage/catalog error or a missing or unparsable input
file, 3 numerical constraint violation.  Reports are plain structured
text with full-precision numbers.  A manifest's seed is a label written
to each report's meta; it changes nothing in the run.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import yaml

from . import catalog as cat
from . import manifest
from .conservation import (
    CurrentVerificationError,
    NotAMultiplier,
    divergence_identity,
    reduce_to_spatial_flux,
    verify_current,
    verify_multiplier,
)
from .manifest import EXIT_OK, EXIT_RESIDUAL, EXIT_USAGE, UsageError
from .parsing import ParseError
from .pde import PdeError
from .potential import UnsupportedDimension, build_potential_system
from .printing import jet_name, to_source, vector_source

USAGE_ERRORS = (KeyError, cat.ConstraintViolation, UsageError, ParseError, PdeError, OSError,
                yaml.YAMLError)


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
        print(f"    non-trivial: {ch.flux.certificate!r}")
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
    flux = reduce_to_spatial_flux(cur.family, pde)
    print(f"{entry.name} {args.object}: spatial-flux vector Gamma")
    for axis, comp in zip("xyz", flux.Gamma):
        print(f"  Gamma^{axis} = {to_source(comp)}")
    print(f"  non-trivial: {flux.certificate!r}")
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


def cmd_simulate(args) -> int:
    from .evolution import CflViolation

    plan = manifest.plan(cat.load_yaml(Path(args.manifest).read_text(encoding="utf-8")))
    try:
        reports, code = manifest.run(plan)
    except CflViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESIDUAL
    out_dir = Path(args.out or plan.out or "reports")
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
    except USAGE_ERRORS as exc:
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
