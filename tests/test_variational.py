"""Euler operators, divergence tests, and ansatz inversion."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topocharge.jetexpr import (
    JET_SLOT, JetExpr, T, X, Y, divergence, mi_order, partial, total_derivative,
    total_derivative_mi,
)
from topocharge.parsing import default_symbols, parse_expr
from topocharge.variational import (
    AnsatzExhausted,
    _euler_sum,
    euler_u,
    invert_divergence,
    invert_divergence_auto,
    is_total_spatial_divergence,
    spatial_euler,
)

from test_jetexpr import small_exprs


def P(src, dim=1, sym=None):
    return parse_expr(src, dim, sym)


class TestEuler:
    def test_variational_derivative_of_ux_squared(self):
        assert euler_u(P("u_x^2")) == P("-2*u_xx")

    def test_annihilates_total_divergence(self):
        assert euler_u(total_derivative(P("u*u_xx"), X)).is_zero()

    def test_kdv_multiplier_identity(self):
        # f(t) times the Lagrangian KdV expression is a total divergence
        e = P("f*(u_tx + u_x*u_xx + u_xxxx)")
        assert euler_u(e).is_zero()

    def test_linear(self):
        e1, e2 = P("u_x^2*u"), P("u*u_xx + u_t*u_x")
        a, b = Fraction(2, 3), Fraction(-7)
        assert euler_u(a * e1 + b * e2) == a * euler_u(e1) + b * euler_u(e2)


class TestSpatialEuler:
    def test_annihilates_spatial_divergence(self):
        assert spatial_euler(total_derivative(P("u_x^2"), X)).is_zero()

    def test_ut_is_separate_field(self):
        assert spatial_euler(P("u_t")).is_zero()
        assert not spatial_euler(P("u_t*u"), t_order=1).is_zero()

    def test_divergence_part_annihilated(self):
        e = P("u_x^2", 2) + total_derivative(P("u*u_y", 2), Y)
        assert spatial_euler(e) == P("-2*u_xx", 2)


class TestDivergenceTest:
    def test_1d_true(self):
        assert is_total_spatial_divergence(P("u_x*u_xx"), 1)

    def test_1d_false(self):
        assert not is_total_spatial_divergence(P("u_x^2"), 1)

    def test_umkp_equal_transverse_fy(self):
        # with alpha = beta, F^y = -sigma*u_y is a pure y-derivative
        sym = default_symbols().with_param("sigma", Fraction(1))
        e = parse_expr("-sigma*u_y", 2, sym)
        assert is_total_spatial_divergence(e, 2)

    def test_time_only_arbfun_rides_along(self):
        assert is_total_spatial_divergence(P("f"), 1)
        assert not is_total_spatial_divergence(P("f*u_x^2"), 1)

    def test_spatial_arbfun_is_a_field(self):
        sym = default_symbols().with_arbfun("phi", (Y,))
        assert is_total_spatial_divergence(parse_expr("phi_y*u + phi*u_y", 2, sym), 2)
        assert not is_total_spatial_divergence(parse_expr("phi_y^2", 2, sym), 2)


class TestInversion:
    def test_simple_witness(self):
        w = invert_divergence(P("u_x*u_xx"), 1)
        assert w.components == (P("1/2*u_x^2"),)
        assert divergence(list(w), 1) == P("u_x*u_xx")

    def test_kp_fx(self):
        w = invert_divergence(P("u*u_x + u_xxx"), 1)
        assert w.components == (P("1/2*u^2 + u_xx"),)

    def test_kp_fy_as_y_divergence(self):
        sym = default_symbols().with_param("sigma", Fraction(1))
        w = invert_divergence(parse_expr("sigma*u_y", 2, sym), 2)
        assert w.components == (JetExpr.zero(), parse_expr("sigma*u", 2, sym))

    def test_explicit_variable_target(self):
        w = invert_divergence(P("f"), 1)
        assert divergence(list(w.components), 1) == P("f")

    def test_not_a_divergence_raises(self):
        with pytest.raises(AnsatzExhausted):
            invert_divergence(P("u_x^2"), 1)

    def test_catalog_div_form_components(self):
        # every F component declared "itself a divergence" inverts
        from topocharge.catalog import get_entry

        for name in ("kp", "shear"):
            entry = get_entry(name)
            for comp in entry.pde.div_form.F:
                w = invert_divergence_auto(comp, entry.dim)
                assert divergence(list(w.components), entry.dim) == comp


@given(small_exprs(), st.sampled_from([X, Y]))
@settings(max_examples=40, deadline=None)
def test_euler_annihilates_divergences(e, v):
    assert euler_u(total_derivative(e, v)).is_zero()
    assert euler_u(total_derivative(e, T)).is_zero()


def termwise_euler_sum(e, slot, field):
    """Reference for _euler_sum: (-D)^K de/dk, key by key."""
    out = JetExpr.zero()
    for key in {k for m, _ in e.terms for k, _ in m[slot]}:
        mi = field(key)
        if mi is not None:
            out = out + (-1) ** mi_order(mi) * total_derivative_mi(partial(e, slot, key), mi)
    return out


@given(small_exprs(), st.integers(0, 1))
@settings(max_examples=40, deadline=None)
def test_horner_euler_sum_matches_termwise(e, t_order):
    # the full field of u, and a spatial field of one t-order
    for field in (lambda k: k[1], lambda k: (0, *k[1][1:]) if k[1][T] == t_order else None):
        assert _euler_sum(e, JET_SLOT, field) == termwise_euler_sum(e, JET_SLOT, field)


@given(small_exprs(), small_exprs())
@settings(max_examples=25, deadline=None)
def test_inversion_round_trip_on_divergences(wx, wy):
    e = total_derivative(wx, X) + total_derivative(wy, Y)
    witness = invert_divergence_auto(e, 2)
    assert divergence(list(witness.components), 2) == e
