"""Grid fields, spectral evaluation, and bindings."""

import math

import numpy as np
import pytest

from topocharge.grids import (
    DerivativeOrderTooHigh,
    GridError,
    GridField,
    MissingTimeDerivative,
    TimeFunction,
    UnboundArbFun,
    dealias_mask,
    evaluate_on_grid,
    to_grid,
    to_spectrum,
)
from topocharge.jetexpr import Y, Z, biharmonic_rule, substitute_arbfun
from topocharge.parsing import default_symbols, parse_expr

TWO_PI = 2.0 * math.pi


def sine_grid(n=256):
    x = np.arange(n) * TWO_PI / n
    return GridField(np.sin(x), (TWO_PI,)), x


class TestGridField:
    def test_resolution_floor(self):
        with pytest.raises(GridError):
            GridField(np.zeros(8), (1.0,))

    def test_period_positive(self):
        with pytest.raises(GridError):
            GridField(np.zeros(32), (0.0,))

    def test_dim_mismatch(self):
        with pytest.raises(GridError):
            GridField(np.zeros((32, 32)), (1.0,))

    def test_integral(self):
        g, _ = sine_grid()
        assert abs(g.integral()) < 1e-12


class TestEvaluate:
    def test_first_derivative_oracle(self):
        g, x = sine_grid()
        ux = evaluate_on_grid(parse_expr("u_x", 1), g)
        assert np.max(np.abs(ux - np.cos(x))) <= 1e-10

    def test_identity_copy(self):
        g, _ = sine_grid()
        u = evaluate_on_grid(parse_expr("u", 1), g)
        assert np.array_equal(u, g.data)

    def test_nonlinear_oracle(self):
        g, x = sine_grid()
        v = evaluate_on_grid(parse_expr("u*u_x + u_xxx", 1), g)
        exact = np.sin(x) * np.cos(x) - np.cos(x)
        assert np.max(np.abs(v - exact)) <= 1e-9

    def test_order_cap(self):
        g, _ = sine_grid()
        with pytest.raises(DerivativeOrderTooHigh):
            evaluate_on_grid(parse_expr("u_xxxxxxx", 1), g)

    def test_missing_time_derivative(self):
        g, _ = sine_grid()
        with pytest.raises(MissingTimeDerivative):
            evaluate_on_grid(parse_expr("u_t", 1), g)

    def test_unbound_arbfun(self):
        g, _ = sine_grid()
        with pytest.raises(UnboundArbFun):
            evaluate_on_grid(parse_expr("f*u", 1), g)

    def test_time_function_bindings(self):
        g, x = sine_grid()
        g.time = 0.7
        f = TimeFunction.builtin("sin")
        v = evaluate_on_grid(parse_expr("f'*u", 1), g, fun_bindings={"f": f})
        assert np.allclose(v, math.cos(0.7) * np.sin(x))

    def test_spatial_arbfun_must_be_substituted(self):
        sym = default_symbols().with_arbfun("phi", (Y, Z), biharmonic_rule(0))
        e = parse_expr("phi*u", 3, sym)
        n = 16
        g = GridField(np.zeros((n, n, n)), (TWO_PI,) * 3)
        with pytest.raises(UnboundArbFun):
            evaluate_on_grid(e, g)
        bound = substitute_arbfun(e, "phi", parse_expr("y^2", 3, sym))
        assert np.array_equal(evaluate_on_grid(bound, g), np.zeros((n, n, n)))


def test_dealias_mask_fraction():
    m = dealias_mask((96,))
    # the 2/3 rule keeps |k| <= N/3
    assert m.sum() == 2 * 32 + 1


def test_dealias_mask_keeps_integer_modes_up_to_a_third():
    for n in range(16, 101):
        mask = dealias_mask((n,))
        assert mask.sum() == 2 * (n // 3) + 1, n
        assert mask[n // 3] and mask[-(n // 3)], n


@pytest.mark.parametrize("n", [24, 32, 48, 64, 96, 128, 256])
def test_dealias_mask_unchanged_where_the_float_test_was_exact(n):
    by_float = ~(np.abs(np.fft.fftfreq(n) * n) > n // 3)
    assert np.array_equal(dealias_mask((n,)), by_float)
    assert np.array_equal(dealias_mask((n, 32)), np.logical_and.outer(by_float, dealias_mask((32,))))


@pytest.mark.parametrize("shape", [(64,), (65,), (32, 24), (16, 17, 18)])
def test_transforms_match_the_n_dimensional_ones(shape):
    data = np.random.default_rng(3).standard_normal(shape)
    hat = np.fft.rfftn(data)
    assert np.array_equal(to_spectrum(data), hat)
    assert np.array_equal(to_grid(hat, shape), np.fft.irfftn(hat, s=shape, axes=range(len(shape))))


@pytest.mark.parametrize("text", ["2", "x", "2 + x"])
def test_terms_without_u_jets_fill_the_grid(text):
    g = GridField(np.zeros((16, 20)), (TWO_PI, 3.0))
    x = np.arange(16)[:, None] * (TWO_PI / 16)
    want = {"2": 2.0, "x": x, "2 + x": 2.0 + x}[text] + np.zeros((16, 20))
    got = evaluate_on_grid(parse_expr(text, 2), g)
    assert got.shape == (16, 20) and np.allclose(got, want, rtol=0, atol=1e-15)
