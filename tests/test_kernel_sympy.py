"""The exact kernel against sympy: products, sums, total derivatives, roots.

Every JetExpr maps to a sympy expression: t, x, y are symbols, a jet
u_K is the derivative D^K u(t, x, y), an arbitrary function is an
undefined sympy function of its signature variables, a free parameter is
a symbol and a root parameter with a^2 = s is sqrt(s).  The kernel's
results must agree with sympy after expansion, and stay canonical.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topocharge.jetexpr import (
    JetExpr,
    T,
    X,
    Y,
    arbfun_key,
    div_unit,
    param_key,
    total_derivative,
)

sp = pytest.importorskip("sympy")

VARS = sp.symbols("t x y z")
U = sp.Function("u")(*VARS)

ATOMS = (
    JetExpr.variable(T),
    JetExpr.variable(X),
    JetExpr.variable(Y),
    JetExpr.jet("u"),
    JetExpr.jet("u", "x"),
    JetExpr.jet("u", "tx"),
    JetExpr.jet("u", "xxy"),
    JetExpr.arbfun(arbfun_key("f", (T,))),
    JetExpr.arbfun(arbfun_key("f", (T,), (2,))),
    JetExpr.arbfun(arbfun_key("phi", (X, Y), (1, 0))),
    JetExpr.param(param_key("alpha")),
    JetExpr.param(param_key("alpha"), -1),
    JetExpr.param(param_key("a", 2)),
    JetExpr.param(param_key("a", 2), -1),
    JetExpr.param(param_key("b", Fraction(3, 5))),
    JetExpr.param(param_key("c", -3)),
)

# units for div_unit: a number times a Laurent monomial in the parameters
UNITS = (
    JetExpr.number(Fraction(-2, 3)),
    JetExpr.param(param_key("a", 2), 3) * 5,
    JetExpr.param(param_key("alpha"), 2) * JetExpr.param(param_key("b", Fraction(3, 5))),
    JetExpr.param(param_key("c", -3), -1) * Fraction(1, 7),
)


def to_sympy(e: JetExpr):
    total = sp.Integer(0)
    for (varpows, jetpows, funpows, parampows), coeff in e.terms:
        term = sp.Rational(coeff.numerator, coeff.denominator)
        for axis, p in varpows:
            term *= VARS[axis] ** p
        for (dep, mi), p in jetpows:
            assert dep == "u"
            jet = U
            for axis, n in enumerate(mi):
                if n:
                    jet = sp.diff(jet, VARS[axis], n)
            term *= jet ** p
        for (name, sig, orders, rule), p in funpows:
            assert not rule
            fun = sp.Function(name)(*(VARS[axis] for axis in sig))
            for axis, n in zip(sig, orders):
                if n:
                    fun = sp.diff(fun, VARS[axis], n)
            term *= fun ** p
        for (name, square), p in parampows:
            base = sp.Symbol(name) if not square else sp.sqrt(sp.Rational(*square))
            term *= base ** p
        total += term
    return total


def same(a, b) -> bool:
    return sp.expand(a - b) == 0


def assert_canonical(e: JetExpr) -> None:
    """Sorted distinct terms; every slot sorted by distinct keys; exponents reduced."""
    monos = [m for m, _ in e.terms]
    assert monos == sorted(monos) and len(set(monos)) == len(monos)
    for mono, coeff in e.terms:
        assert isinstance(coeff, Fraction) and coeff != 0
        for slot in mono:
            keys = [k for k, _ in slot]
            assert list(slot) == sorted(slot) and len(set(keys)) == len(keys)
            assert all(p != 0 for _, p in slot)
        assert all(p > 0 for _, p in mono[0] + mono[1] + mono[2])
        for (_, square), p in mono[3]:
            assert not square or p == 1


@st.composite
def exprs(draw):
    out = JetExpr.zero()
    for _ in range(draw(st.integers(1, 4))):
        term = JetExpr.number(Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 4))))
        for _ in range(draw(st.integers(0, 4))):
            term = term * draw(st.sampled_from(ATOMS))
        out = out + term
    return out


@given(exprs(), exprs())
@settings(max_examples=60, deadline=None)
def test_product_and_sum(a, b):
    for got, want in ((a * b, to_sympy(a) * to_sympy(b)),
                      (a + b, to_sympy(a) + to_sympy(b)),
                      (a - b, to_sympy(a) - to_sympy(b))):
        assert_canonical(got)
        assert same(to_sympy(got), want)


@given(exprs(), st.sampled_from((T, X, Y)))
@settings(max_examples=60, deadline=None)
def test_total_derivative(a, axis):
    got = total_derivative(a, axis)
    assert_canonical(got)
    assert same(to_sympy(got), sp.diff(to_sympy(a), VARS[axis]))


@given(exprs(), st.sampled_from(UNITS))
@settings(max_examples=40, deadline=None)
def test_division_by_units(a, unit):
    got = div_unit(a, unit)
    assert_canonical(got)
    assert same(to_sympy(got), to_sympy(a) / to_sympy(unit))


@pytest.mark.parametrize("exp", [-5, -4, -3, -2, -1, 1, 2, 3, 4, 5])
@pytest.mark.parametrize("square", [Fraction(2), Fraction(3, 5), Fraction(-3)])
def test_root_powers_reduce(square, exp):
    key = param_key("a", square)
    e = JetExpr.param(key, exp)
    assert_canonical(e)
    assert same(to_sympy(e), sp.sqrt(sp.Rational(square.numerator, square.denominator)) ** exp)
    assert e.terms[0][0][3] == (() if exp % 2 == 0 else ((key, 1),))


def test_param_key_stores_the_square_as_a_reduced_pair():
    assert param_key("a", Fraction(4, 6)) == param_key("a", "2/3") == ("a", (2, 3))
    assert param_key("a") == ("a", ())
