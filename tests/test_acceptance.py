"""Acceptance suite: one criterion per test, one pass/fail line each.

Run with  pytest -v -s tests/test_acceptance.py  to see the lines live.
All symbolic criteria are exact (canonical zero); numeric tolerances are
operational (10x the resolution-doubling difference), never magic
epsilons.
"""

import math
import random
import time
from pathlib import Path

import numpy as np
import pytest
import yaml

import topocharge.catalog as cat
from topocharge.catalog import get_entry, load_catalog
from topocharge.cli import main as cli_main
from topocharge.evolution import KhatEvolver, evolve
from topocharge.grids import GridField
from topocharge.jetexpr import JetExpr, T, X, Y, divergence, total_derivative
from topocharge.parsing import parse_expr
from topocharge.pde import substitute_on_solutions
from topocharge.potential import (build_potential_system, check_gauge_invariance,
                                  eliminate_potentials)
from topocharge.quadrature import extract_source_sink
from topocharge.variational import euler_u, invert_divergence_auto

TWO_PI = 2.0 * math.pi


def report(criterion: int, detail: str):
    print(f"\n[criterion {criterion}] PASS: {detail}")


# -- 1. catalog symbolic suite -------------------------------------------------


def test_criterion_1_catalog_symbolic_suite():
    cat._CACHE.clear()
    t0 = time.time()
    entries = load_catalog()
    elapsed = time.time() - t0
    n_mult = sum(len(e.multipliers) for e in entries)
    n_cur = sum(len(e.currents) for e in entries)
    repairs = [(e.name, oid) for e in entries for oid, _ in e.repairs()]
    # every multiplier and current verified with zero residual at load;
    # transcription repairs are recorded with provenance notes
    expected_repair_sites = {
        ("nv", "current-2"),
        ("nv", "current-3"),
        ("kp", "charge-3"),
        ("kp", "charge-4"),
        ("kp", "id-1"),
        ("kp", "id-2"),
        ("umkp", "multiplier-q4"),
        ("umkp", "id-3"),
        ("shear", "id-phi"),
    }
    assert set(repairs) == expected_repair_sites, repairs
    assert elapsed < 60.0, f"catalog verification took {elapsed:.1f}s"
    report(1, f"{n_mult} multipliers and {n_cur} currents verified with zero "
              f"residual in {elapsed:.1f}s; {len(repairs)} recorded repairs")


# -- 2. reduction mechanics ------------------------------------------------------


def test_criterion_2_reduction_mechanics():
    from topocharge.conservation import reduce_to_spatial_flux, trivializing_potentials

    checked = 0
    for entry in load_catalog():
        for cur in entry.currents:
            pde = entry.pde_for_case(cur.case)
            fam = cur.family
            psis = trivializing_potentials(fam)
            N = fam.N
            # T_i = Div Psi_i on solutions
            for i in range(N + 1):
                lhs = fam.T_coeffs[i] - divergence(list(psis[i]), fam.dim)
                assert substitute_on_solutions(lhs, pde).is_zero(), (entry.name, cur.id, i)
            # telescoping D_t Psi_i + Psi_{i-1} + Phi_i = 0 (exact)
            for i in range(1, N + 1):
                for a in range(fam.dim):
                    e = (total_derivative(psis[i][a], T) + psis[i - 1][a]
                         + fam.Flux_coeffs[i][a])
                    assert e.is_zero(), (entry.name, cur.id, i, a)
            # flux decomposition Phi + D_t Psi - f Gamma = 0 on solutions
            flux = reduce_to_spatial_flux(fam, pde)
            T_full, Phi_full = fam.assemble()
            if fam.fun is None:
                f_expr = JetExpr.number(1)
                psi_full = psis[0]
            else:
                from topocharge.jetexpr import arbfun_key

                name, sig, rule = fam.fun
                f_expr = JetExpr.arbfun(arbfun_key(name, sig, (0,), rule))
                psi_full = tuple(
                    sum(
                        (JetExpr.arbfun(arbfun_key(name, sig, (i,), rule)) * psis[i][a]
                         for i in range(N + 1)),
                        JetExpr.zero(),
                    )
                    for a in range(fam.dim)
                )
            for a in range(fam.dim):
                e = Phi_full[a] + total_derivative(psi_full[a], T) - f_expr * flux.Gamma[a]
                assert substitute_on_solutions(e, pde).is_zero(), (entry.name, cur.id, a)
            # Div Gamma = 0 on solutions
            dg = divergence(list(flux.Gamma), fam.dim)
            assert substitute_on_solutions(dg, pde).is_zero(), (entry.name, cur.id)
            checked += 1
    report(2, f"dens.triv / telescoping / flux.triv / Div Gamma checks exact "
              f"for all {checked} catalog families")


# -- 3. identity reproduction --------------------------------------------------


def test_criterion_3_identity_reproduction():
    from topocharge.pde import expand_r_operator

    expected = {
        ("kp", "id-1"): "1/2*sigma*y^2*G",
        ("kp", "id-2"): "1/6*sigma*y^3*G",
        ("umkp", "id-1"): "y*G",
        ("umkp", "id-3"): "1/2*y^2*G",
        ("shear", "id-phi"): "phi*G",
        ("nv", "id-2"): "-x/alpha*G",
        ("nv", "id-3"): "-y/beta*G",
    }
    for (entry_name, ident_id), r_src in expected.items():
        entry = get_entry(entry_name)
        ident = entry.identity(ident_id)
        cur = entry.current(ident.current_id)
        pde = entry.pde_for_case(cur.case)
        want = cat._bind(parse_expr(r_src, entry.dim, entry.symbols),
                         entry.cases[cur.case])
        assert ident.identity.R == want, (entry_name, ident_id)
        # exact off-solution identity: T - Div Psi - R(G) == 0 with no substitution
        lhs = (ident.identity.T
               - divergence(list(ident.identity.Psi), entry.dim)
               - expand_r_operator(ident.identity.R, pde))
        assert lhs.is_zero(), (entry_name, ident_id)
    # structural content of the energy-family identities
    umkp = get_entry("umkp")
    for ident_id, orders in (("id-2", {0, 1}), ("id-4", {0, 1, 2})):
        R = umkp.identity(ident_id).identity.R
        have = {k[1][T] for k in R.jet_keys() if k[0] == "G"}
        assert orders <= have, (ident_id, have)
    report(3, "KP.id1/id2, mKP.id1/id3, ZZK.id, NV identities exact with the "
              "printed R(G) factors; mKP.id2/id4 carry G, G_t(, G_tt) terms")


# -- 4. potential-system round trip ---------------------------------------------


def test_criterion_4_potential_round_trip():
    n_systems = 0
    # every charge in dimension >= 2 has its potential system derived on demand
    for entry in load_catalog():
        for charge in entry.charges if entry.dim >= 2 else ():
            system = build_potential_system(charge.flux)
            # Div of the curl side vanishes identically
            assert divergence([rhs for _, rhs in system.equations], entry.dim).is_zero()
            # eliminating potentials recovers Div Gamma = 0 on solutions
            pde = entry.pde_for_case(entry.current(charge.current_id).case)
            recovered = eliminate_potentials(system)
            assert substitute_on_solutions(recovered, pde).is_zero(), (entry.name, charge.id)
            # gauge shifts: the admissible shift passes, a non-gauge shift fails
            if entry.dim == 2:
                chi = parse_expr("chi", 2, entry.symbols.with_arbfun("chi", (T,)))
                bad = parse_expr("chi", 2, entry.symbols.with_arbfun("chi", (T, X)))
                assert check_gauge_invariance(system, chi)
                assert not check_gauge_invariance(system, bad)
            else:
                chi = parse_expr("chi", 3,
                                 entry.symbols.with_arbfun("chi", (T, X, Y, 3)))
                assert check_gauge_invariance(system, chi)
                assert not check_gauge_invariance(
                    system, (chi, JetExpr.zero(), JetExpr.zero())
                )
            n_systems += 1
    assert n_systems == 17
    report(4, f"{n_systems} potential systems: Div(curl) == 0, elimination "
              f"recovers Div Gamma = 0, gauge shifts behave")


# -- 5/7. KP numerics ------------------------------------------------------------

MANIFESTS = Path(__file__).resolve().parents[1] / "manifests"


@pytest.fixture(scope="module")
def kp_reports(simulated):
    """The reports of manifests/kp_acceptance.yaml by kind: the criterion 5
    and 7 data at 128^2, whose tolerances come from the halved 64^2 run."""
    # criterion 5's bounds are simulate's 10x doubling rule only while the
    # manifest states no tolerance for the charges and the balance check
    doc = yaml.safe_load((MANIFESTS / "kp_acceptance.yaml").read_text(encoding="utf-8"))
    assert all("tolerance" not in c for c in doc["charges"])
    assert all("tolerance" not in c for c in doc["checks"] if c["type"] == "balance")
    reports, code = simulated("kp_acceptance")
    assert code == 0, [(rep.kind, rep.verdict) for rep in reports]
    by_kind = {}
    for rep in reports:
        by_kind.setdefault(rep.kind, []).append(rep)
    return by_kind


def test_criterion_5_kp_charge_conservation(kp_reports):
    outer, inner = kp_reports["charge"]
    assert outer.descriptor.endswith("rect=[0.7, 3.9, 1.1, 5.2]")
    assert inner.descriptor.endswith("rect=[1.5, 3.1, 2.0, 4.2]")
    # each charge's tolerance is 10x the largest difference of its series
    # from the 64^2 one (at least 1e-13), so the larger of the two is 10x
    # the largest difference over both rectangles
    tol = max(outer.tolerance, inner.tolerance)
    q_outer, q_inner = outer.values, inner.values
    assert max(abs(v) for v in q_outer) <= tol, (max(map(abs, q_outer)), tol)
    assert max(abs(v) for v in q_inner) <= tol
    assert max(abs(a - b) for a, b in zip(q_outer, q_inner)) <= tol

    # balance equation: d/dt circulation of u = circulation of (F^x, F^y).
    # Its tolerance is 10x the larger of the differences from the 64^2
    # residuals and from the residuals at every second sample
    (bal,) = kp_reports["balance"]
    bal_tol = bal.tolerance
    assert max(abs(r) for r in bal.values) <= bal_tol
    report(5, f"charge bounded by {tol:.2e} on both rectangles at all "
              f"{len(q_outer)} sample times; balance within {bal_tol:.2e}")


def test_criterion_7_constraint_mechanism(kp_reports, tmp_path, capsys):
    manifest = {
        "pde": "kp",
        "params": {"sigma": "1"},
        "grid": {"resolutions": [32, 32], "periods": [TWO_PI, TWO_PI]},
        "u0": {"constant": 0.05, "modes": [{"a": 0.05, "k": [0, 1]}]},
        "t_end": 0.02,
        "samples": 3,
        "constraints": [{"density": "u"}],
    }
    path = tmp_path / "violating.yaml"
    path.write_text(yaml.safe_dump(manifest))
    code = cli_main(["simulate", "--manifest", str(path), "--out", str(tmp_path / "rep")])
    capsys.readouterr()
    assert code == 3
    # mean-zero data: the cell integral of u stays at zero for the whole run
    (mass,) = kp_reports["mass"]
    masses = [abs(v) for v in mass.values]
    assert max(masses) <= 1e-10
    report(7, f"violating datum exits 3; mean-zero run keeps |int u| <= "
              f"{max(masses):.2e} over {len(masses)} samples")


# -- 6. KdV source/sink convergence ----------------------------------------------


def test_criterion_6_kdv_source_sink_order():
    kdv = get_entry("kdv_lagrangian")
    F = parse_expr("-1/2*u_x^2 - u_xxx", 1)
    resolutions = (128, 256, 512)
    base_delta = 2.0 * (TWO_PI / 128) ** 2
    t_end = 8.0 * base_delta
    devs = {}
    for n in resolutions:
        x = np.arange(n) * TWO_PI / n
        u0 = GridField(0.15 * np.sin(x) + 0.1 * np.sin(2 * x), (TWO_PI,))
        delta = 2.0 * (TWO_PI / n) ** 2
        samples = int(round(t_end / delta)) + 1
        ev = KhatEvolver(kdv.pde, u0, {})
        traj = evolve(ev, u0, t_end, n_samples=samples, cfl=0.7)
        _, _, dev = extract_source_sink(traj, F)
        devs[n] = max(dev)
    slopes = [
        math.log2(devs[a] / devs[b])
        for a, b in zip(resolutions[:-1], resolutions[1:])
    ]
    fit = sum(slopes) / len(slopes)
    assert fit >= 3.0, (devs, slopes)
    report(6, f"max deviation of u_t - F from its mean: "
              + ", ".join(f"N={n}: {devs[n]:.3e}" for n in resolutions)
              + f"; observed order {fit:.2f} >= 3")


# -- 8. property sweeps -----------------------------------------------------------


def _random_expr(rng: random.Random) -> JetExpr:
    jets = ["u", "u_t", "u_x", "u_y", "u_xx", "u_xy", "u_yy", "u_tx",
            "u_xxx", "u_xxy", "u_xyy", "u_txx", "u_xxxx", "u_xxxy"]
    parts = []
    for _ in range(rng.randint(1, 4)):
        num = rng.choice([n for n in range(-6, 7) if n])
        den = rng.randint(1, 4)
        factors = [rng.choice(jets) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.4:
            factors.append(rng.choice(["x", "y"]))
        parts.append(f"{num}/{den}*" + "*".join(factors))
    return parse_expr(" + ".join(parts), 2)


def test_criterion_8_property_sweeps():
    t0 = time.time()
    rng = random.Random(20260809)
    exprs = [_random_expr(rng) for _ in range(200)]
    for e in exprs:
        assert total_derivative(total_derivative(e, X), Y) == total_derivative(
            total_derivative(e, Y), X
        )
        assert total_derivative(total_derivative(e, T), X) == total_derivative(
            total_derivative(e, X), T
        )
        div = total_derivative(e, X) + total_derivative(e, Y)
        assert euler_u(div).is_zero()
    n_inv = 0
    for wx, wy in zip(exprs[0::2], exprs[1::2]):
        e = total_derivative(wx, X) + total_derivative(wy, Y)
        witness = invert_divergence_auto(e, 2)
        assert divergence(list(witness.components), 2) == e
        n_inv += 1
    elapsed = time.time() - t0
    assert elapsed < 120.0, f"property sweep took {elapsed:.1f}s"
    report(8, f"200 expressions: D-commutativity and euler(Div) == 0 exact; "
              f"{n_inv} divergence inversions round-tripped ({elapsed:.1f}s)")
