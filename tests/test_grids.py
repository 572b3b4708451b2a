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


def mask_band(shape):
    """One past the last last-axis column of the half-spectrum that the 2/3 mask keeps."""
    mask = dealias_mask(shape)[..., : shape[-1] // 2 + 1]
    return int(np.flatnonzero(mask.reshape(-1, mask.shape[-1]).any(0))[-1]) + 1


@pytest.mark.parametrize("shape", [
    (64,), (65,), (128,), (32, 32), (32, 24), (33, 35), (48, 48), (16, 18, 17), (16, 20, 16)],
    ids=lambda shape: "x".join(map(str, shape)))
def test_banded_pair_is_bit_identical(shape):
    rng = np.random.default_rng(sum(shape))
    axes = tuple(range(len(shape)))
    hat = np.fft.rfftn(rng.standard_normal(shape)) * dealias_mask(shape)[..., : shape[-1] // 2 + 1]
    data = np.fft.irfftn(hat, s=shape, axes=axes)
    noise = rng.standard_normal(shape)
    band = mask_band(shape)
    assert band == shape[-1] // 3 + 1 < hat.shape[-1]
    for b in (None, band):
        kept = slice(None, b)
        assert np.array_equal(to_grid(hat, shape, b), data)
        for field in (data, noise):
            got = to_spectrum(field, b)
            assert np.array_equal(got[..., kept], np.fft.rfftn(field)[..., kept])
        assert b is None or not np.any(got[..., b:])
    # into the caller's arrays, and past the band hat is not read
    out, work = np.empty(shape), np.empty(hat.shape[:-1] + (band,), dtype=complex)
    past = hat.copy()
    past[..., band:] = 1e3 + 1e3j
    assert to_grid(past, shape, band, out, work) is out and np.array_equal(out, data)
    into = np.full(hat.shape, np.nan, dtype=complex)
    assert to_spectrum(noise, band, into) is into and np.array_equal(into, got)


@pytest.mark.parametrize("text", ["2", "x", "2 + x"])
def test_terms_without_u_jets_fill_the_grid(text):
    g = GridField(np.zeros((16, 20)), (TWO_PI, 3.0))
    x = np.arange(16)[:, None] * (TWO_PI / 16)
    want = {"2": 2.0, "x": x, "2 + x": 2.0 + x}[text] + np.zeros((16, 20))
    got = evaluate_on_grid(parse_expr(text, 2), g)
    assert got.shape == (16, 20) and np.allclose(got, want, rtol=0, atol=1e-15)
