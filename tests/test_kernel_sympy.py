"""The exact kernel against sympy: products, sums, total derivatives, roots,
substitutions, the Euler operator and the curl.

Every JetExpr maps to a sympy expression: t, x, y, z are symbols, a jet
u_K is the derivative D^K u(t, x, y, z) (likewise for any other dependent
variable), an arbitrary function is an undefined sympy function of its
signature variables, a free parameter is a symbol and a root parameter
with a^2 = s is sqrt(s).  The kernel's results must agree with sympy
after expansion, and stay canonical.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topocharge.jetexpr import (
    ExprError,
    JetExpr,
    T,
    X,
    Y,
    Z,
    arbfun_key,
    curl,
    div_unit,
    divergence,
    param_key,
    substitute_arbfun,
    substitute_depvar,
    substitute_params,
    total_derivative,
)
from topocharge.potential import POTENTIALS_2D, POTENTIALS_3D, curl_side
from topocharge.variational import euler_u

sp = pytest.importorskip("sympy")
from sympy.calculus.euler import euler_equations  # noqa: E402

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


def to_sympy(e: JetExpr, params=None):
    """The sympy image of e; `params` maps parameter names to sympy values."""
    params = params or {}
    total = sp.Integer(0)
    for (varpows, jetpows, funpows, parampows), coeff in e.terms:
        term = sp.Rational(coeff.numerator, coeff.denominator)
        for axis, p in varpows:
            term *= VARS[axis] ** p
        for (dep, mi), p in jetpows:
            jet = sp.Function(dep)(*VARS)
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
            if name in params:
                base = params[name]
            else:
                base = sp.Symbol(name) if not square else sp.sqrt(sp.Rational(*square))
            term *= base ** p
        total += term
    return total


def same(a, b) -> bool:
    return sp.expand(a - b) == 0


def assert_canonical(e: JetExpr) -> None:
    """Sorted distinct terms; every slot sorted by distinct keys; exponents
    reduced; each coefficient an int when integral, else a Fraction."""
    monos = [m for m, _ in e.terms]
    assert monos == sorted(monos) and len(set(monos)) == len(monos)
    for mono, coeff in e.terms:
        assert type(coeff) in (int, Fraction) and coeff != 0
        assert type(coeff) is (int if coeff.denominator == 1 else Fraction)
        for slot in mono:
            keys = [k for k, _ in slot]
            assert list(slot) == sorted(slot) and len(set(keys)) == len(keys)
            assert all(p != 0 for _, p in slot)
        assert all(p > 0 for _, p in mono[0] + mono[1] + mono[2])
        for (_, square), p in mono[3]:
            assert not square or p == 1


@st.composite
def exprs(draw, max_terms=4, max_factors=4):
    out = JetExpr.zero()
    for _ in range(draw(st.integers(1, max_terms))):
        term = JetExpr.number(Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 4))))
        for _ in range(draw(st.integers(0, max_factors))):
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


# -- substitution, Euler operator, curl --------------------------------------

ALPHA, BETA = JetExpr.param(param_key("alpha")), JetExpr.param(param_key("beta"))
ROOTS = {"a": 2, "b": Fraction(3, 5), "c": -3}  # the root symbols of ATOMS, by square
# bindings for the free parameter alpha; each is a unit, so alpha^-1 is defined
ALPHA_VALUES = (Fraction(-2, 3), 5, BETA * 3, JetExpr.param(param_key("beta"), -1) * 2,
                JetExpr.param(param_key("a", 2)) * 2)


def small_exprs():
    return exprs(max_terms=2, max_factors=2)


@given(exprs(), st.sampled_from(ALPHA_VALUES), st.booleans())
@settings(max_examples=60, deadline=None)
def test_substitute_params(a, alpha, only_free):
    """Binding is evaluation at the bound values; with only_free the root
    symbols stay, else each root is bound by name to its negative, which
    keeps a^2 = s."""
    values = {"alpha": alpha}
    values.update({name: (7 if only_free else -JetExpr.param(param_key(name, sq)))
                   for name, sq in ROOTS.items()})
    got = substitute_params(a, values, only_free=only_free)
    assert_canonical(got)
    at = {"alpha": to_sympy(alpha) if isinstance(alpha, JetExpr) else sp.Rational(str(alpha))}
    if not only_free:
        at.update({name: -sp.sqrt(sp.Rational(str(sq))) for name, sq in ROOTS.items()})
    assert same(to_sympy(got), to_sympy(a, at))


def test_substitute_params_negative_power_needs_a_unit():
    with pytest.raises(ExprError):
        substitute_params(JetExpr.param(param_key("alpha"), -1), {"alpha": BETA + 1})
    assert substitute_params(ALPHA * ALPHA * ALPHA, {"alpha": BETA + 1}) == (BETA + 1) ** 3


@given(exprs(), small_exprs())
@settings(max_examples=40, deadline=None)
def test_substitute_depvar(a, repl):
    a = a + a * JetExpr.jet("w", "xy")  # jets of another variable pass through
    got = substitute_depvar(a, "u", repl)
    assert_canonical(got)
    assert same(to_sympy(got), to_sympy(a).subs(U, to_sympy(repl)).doit())


@given(exprs(), small_exprs(), st.sampled_from((("f", (T,)), ("phi", (X, Y)))))
@settings(max_examples=40, deadline=None)
def test_substitute_arbfun(a, repl, fun):
    name, sig = fun
    got = substitute_arbfun(a, name, repl)
    assert_canonical(got)
    symbol = sp.Function(name)(*(VARS[axis] for axis in sig))
    assert same(to_sympy(got), to_sympy(a).subs(symbol, to_sympy(repl)).doit())


@given(exprs())
@settings(max_examples=30, deadline=None)
def test_euler_u(a):
    got = euler_u(a)
    assert_canonical(got)
    # s*u adds s to the Euler image, so sympy cannot settle (and drop) the
    # equation E = 0 when E is a constant
    s = sp.Symbol("s")
    (eq,) = euler_equations(to_sympy(a) + s * U, U, VARS)
    assert same(to_sympy(got), eq.lhs - eq.rhs - s)


@given(st.lists(small_exprs(), min_size=3, max_size=3), st.sampled_from((2, 3)))
@settings(max_examples=40, deadline=None)
def test_curl(theta, dim):
    theta = theta[:1] if dim == 2 else theta
    got = curl(theta, dim)
    assert divergence(got, dim).is_zero()
    w = [to_sympy(c) for c in theta]
    d = lambda i, axis: sp.diff(w[i], VARS[axis])  # noqa: E731
    want = ((d(0, Y), -d(0, X)) if dim == 2 else
            (d(2, Y) - d(1, Z), d(0, Z) - d(2, X), d(1, X) - d(0, Y)))
    assert all(same(to_sympy(g), v) for g, v in zip(got, want))


@pytest.mark.parametrize("dim, pots", [(2, POTENTIALS_2D), (3, POTENTIALS_3D)])
def test_curl_side_is_the_curl_of_the_potential_jets(dim, pots):
    assert curl_side(dim) == curl([JetExpr.jet(p) for p in pots], dim)


# -- coefficient types --------------------------------------------------------

ROOT_BINDINGS = (  # a free parameter bound to a root symbol, so its powers reduce
    {"alpha": JetExpr.param(param_key("a", 2))},
    {"alpha": JetExpr.param(param_key("b", Fraction(3, 5))) * Fraction(5, 3)},
    {"alpha": JetExpr.param(param_key("c", -3), -1) * 3},
)

STEPS = {
    "add": lambda a, b, unit, binding: a + b,
    "mul": lambda a, b, unit, binding: a * b,
    "scale": lambda a, b, unit, binding: a * Fraction(3, 2) * Fraction(2, 3),
    "total_derivative": lambda a, b, unit, binding: total_derivative(a, X),
    "substitute_params": lambda a, b, unit, binding: substitute_params(a, binding),
    "div_unit": lambda a, b, unit, binding: div_unit(a, unit),
}


@given(exprs(), st.lists(st.tuples(st.sampled_from(sorted(STEPS)), small_exprs(),
                                   st.sampled_from(UNITS), st.sampled_from(ROOT_BINDINGS)),
                         min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_coefficients_stay_int_or_fraction(a, steps):
    """No operation leaves a float or an integral Fraction behind."""
    for name, b, unit, binding in steps:
        a = STEPS[name](a, b, unit, binding)
        assert_canonical(a)
