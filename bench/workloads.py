"""The three benchmark workloads: seeded inputs, one operation, its checks.

Every workload is a closed loop with one caller: the next operation is
sent only after the previous one has returned and been checked.  Inputs
come from the workload seed alone; the program receives generated
manifests, grid data and parameter values, never a verdict.  Each check's
expected answer is a reference recorded from the program as it stands
(``catalog show`` text), a fact of the paper's acceptance data (repair
sites, admitted umKP multipliers, shipped simulate verdicts) or a
property the numerics must have (observed order).
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
import time
from pathlib import Path

import numpy as np
import yaml

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"

ALL_ENTRIES = ("kdv_lagrangian", "kp", "umkp", "shear", "nv", "vorticity")

# Acceptance criterion 1: the nine sites carrying a recorded repair note.
REPAIR_SITES = {
    ("nv", "current-2"), ("nv", "current-3"), ("kp", "charge-3"),
    ("kp", "charge-4"), ("kp", "id-1"), ("kp", "id-2"),
    ("umkp", "multiplier-q4"), ("umkp", "id-3"), ("shear", "id-phi"),
}

# umKP multipliers admitted per binding class, read off the case tags of
# the entry document: every case keeps f and q1; the special cases add
# their own.  One fixed binding per irrational case keeps seeds comparable
# (instantiate cost depends strongly on the binding).
UMKP_EXPECTED = {
    "integrable": {"multiplier-f", "multiplier-q1", "multiplier-q3", "multiplier-q4"},
    "gardner": {"multiplier-f", "multiplier-q1", "multiplier-q2"},
    "equal-transverse": {"multiplier-f", "multiplier-q1", "multiplier-yf"},
    "generic": {"multiplier-f", "multiplier-q1"},
}
RATIONALS = ("1/2", "2/3", "3/2", "2", "3", "5/4", "-1", "-2/3", "-3/2", "4/3")


class CheckFailed(AssertionError):
    """An output of the program differs from its expected value."""


def check(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def umkp_bindings(rng: random.Random) -> dict:
    alpha, beta = rng.sample(RATIONALS, 2)
    return {
        "integrable": {"alpha": "sqrt(2)", "beta": "0", "sigma": "1"},
        "gardner": {"alpha": "sqrt(2/3)", "beta": "2*alpha", "sigma": "1"},
        "equal-transverse": {"alpha": alpha, "beta": "alpha",
                             "sigma": rng.choice(("1", "-1"))},
        "generic": {"alpha": alpha, "beta": beta, "sigma": rng.choice(("1", "-1"))},
    }


def render_show(cli, name: str) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["catalog", "show", name])
    check(code == 0, f"catalog show {name} exited {code}")
    return buf.getvalue()


# -- catalog_cold: one fresh-interpreter command ---------------------------------


def cold_sample(seed: int, tracer=None) -> dict:
    """Verified build of all six entries, their `catalog show` text and one
    umKP instantiate per case; runs in a fresh interpreter per sample."""
    from topocharge import catalog as cat
    from topocharge import cli

    t0 = time.perf_counter()
    rng = random.Random(seed)
    order = list(ALL_ENTRIES)
    rng.shuffle(order)
    bindings = umkp_bindings(rng)
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    failures = []
    build = {}
    for name in order:
        a = time.perf_counter()
        with span(f"catalog.build.{name}"):
            cat.get_entry(name)
        build[name] = time.perf_counter() - a
    t_loaded = time.perf_counter()
    for name in ALL_ENTRIES:
        with span("catalog.show"):
            text = render_show(cli, name)
        want = (REFERENCE_DIR / f"show_{name}.txt").read_text(encoding="utf-8")
        if text != want:
            failures.append(f"catalog show {name} differs from the reference")
    repairs = {(e.name, oid) for e in cat.load_catalog() for oid, _ in e.repairs()}
    if repairs != REPAIR_SITES:
        failures.append(f"repair sites {sorted(repairs ^ REPAIR_SITES)} differ")
    t_shown = time.perf_counter()
    inst = {}
    for case, params in bindings.items():
        a = time.perf_counter()
        with span("catalog.instantiate"):
            entry = cat.instantiate("umkp", params)
        inst[case] = time.perf_counter() - a
        got = {m.id for m in entry.multipliers}
        if got != UMKP_EXPECTED[case]:
            failures.append(f"instantiate umkp {case}: multipliers {sorted(got)}")
    t_end = time.perf_counter()
    return {
        "catalog_load_s": t_loaded - t0,
        "show_s": t_shown - t_loaded,
        "instantiate_s": t_end - t_shown,
        "time_to_verdict_s": t_end - t0,
        "build_s": build,
        "instantiate_case_s": inst,
        "checks": 1 + len(ALL_ENTRIES) + len(bindings),
        "failures": failures,
    }


# -- kp_simulate: the simulate pipeline on the shipped KP geometry ---------------


def kp_manifest(root: Path, seed: int) -> dict:
    """The shipped kp_charge.yaml with seeded mean-zero initial data: both
    modes keep k_x != 0, so the x-mean the inverse gradient needs is zero."""
    doc = yaml.safe_load((root / "manifests" / "kp_charge.yaml").read_text(encoding="utf-8"))
    rng = random.Random(seed)
    doc["u0"] = {"modes": [
        {"a": round(rng.uniform(0.04, 0.06), 6), "k": [1, 1],
         "phase": [round(rng.uniform(0, 2 * math.pi), 6) for _ in range(2)]},
        {"a": round(rng.uniform(0.015, 0.025), 6), "k": [2, 1],
         "phase": [round(rng.uniform(0, 2 * math.pi), 6) for _ in range(2)]},
    ]}
    return doc


KP_VERDICTS = ["constraint: satisfied", "charge: conserved", "charge: conserved",
               "mass: conserved", "balance: satisfied"]


def run_simulate(cli, manifest: Path, out_dir: Path) -> tuple[int, list[str]]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["simulate", "--manifest", str(manifest), "--out", str(out_dir)])
    lines = [ln.split(" (report:")[0] for ln in buf.getvalue().splitlines()]
    return code, lines


def reports_digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.glob("report_*.txt")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


# -- kdv_source_sink: acceptance criterion 6 at N = 128 and 256 ------------------


KDV_RESOLUTIONS = (128, 256)


def kdv_sample(kdv, F, phase: float) -> dict:
    """Criterion 6's data, shifted by a seeded phase, t_end and sampling."""
    from topocharge.evolution import KhatEvolver, evolve
    from topocharge.grids import GridField
    from topocharge.quadrature import extract_source_sink

    two_pi = 2.0 * math.pi
    t_end = 8.0 * 2.0 * (two_pi / 128) ** 2
    devs = {}
    for n in KDV_RESOLUTIONS:
        x = np.arange(n) * two_pi / n + phase
        u0 = GridField(0.15 * np.sin(x) + 0.1 * np.sin(2 * x), (two_pi,))
        delta = 2.0 * (two_pi / n) ** 2
        ev = KhatEvolver(kdv.pde, u0, {})
        traj = evolve(ev, u0, t_end, n_samples=int(round(t_end / delta)) + 1, cfl=0.7)
        _, _, dev = extract_source_sink(traj, F)
        devs[n] = max(dev)
    return {"order": math.log2(devs[128] / devs[256]), "devs": devs}
