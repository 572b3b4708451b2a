"""Spatial potential systems and gauge freedom."""

import pytest

from topocharge.catalog import get_entry
from topocharge.jetexpr import JetExpr, divergence
from topocharge.parsing import parse_expr
from topocharge.pde import substitute_on_solutions
from topocharge.potential import (
    SignatureMismatch,
    UnsupportedDimension,
    build_potential_system,
    check_gauge_invariance,
    curl_side,
    eliminate_potentials,
)


def chi_expr(dim, sig):
    sym = get_entry("kp").symbols.with_arbfun("chi", sig)
    return parse_expr("chi", dim, sym)


class TestBuild:
    def test_kp_potsys1(self):
        kp = get_entry("kp")
        system = build_potential_system(kp.charge("charge-1").flux)
        lhs, rhs = system.equations[0]
        assert lhs == parse_expr("u_t + u*u_x + u_xxx", 2, kp.symbols)
        assert rhs == parse_expr("w_y", 2, kp.symbols.with_deps("w"))
        lhs2, rhs2 = system.equations[1]
        assert rhs2 == parse_expr("-w_x", 2, kp.symbols.with_deps("w"))

    def test_zero_flux_system(self):
        system = build_potential_system((JetExpr.zero(), JetExpr.zero()))
        assert [lhs for lhs, _ in system.equations] == [JetExpr.zero()] * 2

    def test_dim1_unsupported(self):
        with pytest.raises(UnsupportedDimension):
            build_potential_system((JetExpr.jet("u"),))

    def test_div_curl_identity(self):
        for dim in (2, 3):
            assert divergence(list(curl_side(dim)), dim).is_zero()


class TestGauge:
    def test_2d_time_shift(self):
        kp = get_entry("kp")
        system = build_potential_system(kp.charge("charge-1").flux)
        assert check_gauge_invariance(system, chi_expr(2, (0,)))

    def test_2d_x_dependent_shift_fails(self):
        kp = get_entry("kp")
        system = build_potential_system(kp.charge("charge-1").flux)
        assert not check_gauge_invariance(system, chi_expr(2, (0, 1)))

    def test_2d_vector_shift_rejected(self):
        kp = get_entry("kp")
        system = build_potential_system(kp.charge("charge-1").flux)
        with pytest.raises(SignatureMismatch):
            check_gauge_invariance(system, (JetExpr.zero(), JetExpr.zero()))

    def test_3d_gradient_shift(self):
        shear = get_entry("shear")
        system = build_potential_system(shear.charge("charge-f").flux)
        assert check_gauge_invariance(system, chi_expr(3, (0, 1, 2, 3)))
        # polynomial chi as well: gradient of a degree-3 polynomial
        poly = parse_expr("x^2*y + t*z^3 - x*y*z", 3, shear.symbols)
        assert check_gauge_invariance(system, poly)

    def test_3d_non_gauge_shift_fails(self):
        shear = get_entry("shear")
        system = build_potential_system(shear.charge("charge-f").flux)
        shift = (chi_expr(3, (0, 1, 2, 3)), JetExpr.zero(), JetExpr.zero())
        assert not check_gauge_invariance(system, shift)


class TestElimination:
    def test_recovers_div_gamma_and_pde(self):
        # for the u_t k - F charges, eliminating potentials recovers G = 0
        for name in ("kp", "umkp", "shear"):
            entry = get_entry(name)
            charge_id = "charge-1" if name == "kp" else "charge-f"
            system = build_potential_system(entry.charge(charge_id).flux)
            recovered = eliminate_potentials(system)
            factor = entry.pde.div_form.factor
            assert (factor * recovered - entry.pde.G).is_zero()

    def test_all_catalog_systems_consistent(self):
        from topocharge.catalog import load_catalog

        n_systems = 0
        for entry in load_catalog():
            for charge in entry.charges if entry.dim >= 2 else ():
                recovered = eliminate_potentials(build_potential_system(charge.flux))
                pde = entry.pde_for_case(entry.current(charge.current_id).case)
                assert substitute_on_solutions(recovered, pde).is_zero(), (entry.name, charge.id)
                n_systems += 1
        assert n_systems == 17
