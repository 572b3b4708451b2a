"""Exact polynomial expressions on jet space.

An expression is a canonical sum of terms.  Each term is an exact
coefficient times a monomial in

* independent variables ``t, x, y, z`` (axis indices 0..3),
* jet coordinates ``(depvar, multi-index)`` such as ``u_txx``,
* arbitrary-function symbols such as ``f''`` or ``phi_yz``,
* named constant parameters such as ``alpha`` or an adjoined root ``a``
  with a rewrite rule ``a^2 -> 2``.

A canonical coefficient is an ``int`` when it is integral and a
``Fraction`` otherwise (see :func:`_canon`), so that the common integral
case runs on native integer arithmetic.  A division of coefficients goes
through ``Fraction``, since ``int / int`` is a float.

Jet coordinates always carry a length-4 multi-index ``(t, x, y, z)``;
the spatial dimension of a problem only restricts which axes may occur.
All values are immutable; every operation is pure.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

AXES = ("t", "x", "y", "z")
T = 0
X, Y, Z = 1, 2, 3
NAXES = 4
ZERO_MI = (0, 0, 0, 0)

Rat = Fraction

# -- symbol keys (plain tuples so that monomials sort and hash natively) --
#
# jet key     : (dep, multi_index)                    e.g. ("u", (1, 2, 0, 0))
# arbfun key  : (name, signature, orders, rule)       e.g. ("f", (0,), (2,), ())
#   rule may be () or (slot, threshold, ((coef, delta_orders), ...)) and
#   rewrites any derivative with orders[slot] >= threshold, e.g. the
#   biharmonic reduction phi_yyyy -> -2*phi_yyzz - phi_zzzz.
# param key   : (name, square)                        square is () or (num, den)
#
# A monomial is (varpows, jetpows, funpows, parampows); each slot is a
# sorted tuple of (key, exponent) pairs.  Jet and arbfun exponents are
# positive; parameter exponents may be negative (Laurent monomials).

EMPTY_MONO = ((), (), (), ())
VAR_SLOT, JET_SLOT, FUN_SLOT, PARAM_SLOT = 0, 1, 2, 3


def multi_index(spec: str) -> tuple[int, int, int, int]:
    """Multi-index from subscript letters, e.g. ``"txx"`` -> (1, 2, 0, 0)."""
    mi = [0, 0, 0, 0]
    for ch in spec:
        mi[AXES.index(ch)] += 1
    return tuple(mi)


def mi_bump(a: Sequence[int], axis: int, by: int = 1) -> tuple[int, ...]:
    out = list(a)
    out[axis] += by
    return tuple(out)


def mi_order(a: Sequence[int]) -> int:
    return sum(a)


def mi_str(a: Sequence[int]) -> str:
    return "".join(AXES[i] * a[i] for i in range(NAXES))


def arbfun_key(name: str, sig: Sequence[int], orders: Sequence[int] | None = None,
               rule=()) -> tuple:
    sig = tuple(sig)
    if orders is None:
        orders = (0,) * len(sig)
    return (name, sig, tuple(orders), rule)


def arbfun_mi(key: tuple) -> tuple[int, int, int, int]:
    """Multi-index of the total derivatives an arbitrary-function key carries."""
    mi = [0, 0, 0, 0]
    for axis, n in zip(key[1], key[2]):
        mi[axis] += n
    return tuple(mi)


def biharmonic_rule(slot: int = 0) -> tuple:
    """Rewrite rule for a biharmonic phi(y, z): phi_yyyy -> -2 phi_yyzz - phi_zzzz."""
    other = 1 - slot
    d1 = [0, 0]
    d1[slot] = -2
    d1[other] = 2
    d2 = [0, 0]
    d2[slot] = -4
    d2[other] = 4
    return (slot, 4, ((-2, tuple(d1)), (-1, tuple(d2))))


def param_key(name: str, square=None) -> tuple:
    """Parameter key; a root symbol's square is stored as a reduced int pair."""
    if square is None:
        return (name, ())
    q = Rat(square)
    return (name, (q.numerator, q.denominator))


class ExprError(ValueError):
    pass


class MissingBinding(ExprError):
    pass


def _merge_pow(pows: Iterable[tuple], key, by: int) -> tuple:
    """Return pows with `key`'s exponent changed by `by` (dropping zeros)."""
    out = []
    placed = False
    for k, e in pows:
        if k == key:
            e += by
            placed = True
            if e == 0:
                continue
        out.append((k, e))
    if not placed and by != 0:
        out.append((key, by))
        out.sort()
    return tuple(out)


def _mono_mul(a: tuple, b: tuple) -> tuple:
    out = []
    for pa, pb in zip(a, b):
        if not pa:
            out.append(pb)
            continue
        if not pb:
            out.append(pa)
            continue
        d = dict(pa)
        for k, e in pb:
            e0 = d.get(k, 0)
            e0 += e
            if e0:
                d[k] = e0
            else:
                del d[k]
        out.append(tuple(sorted(d.items())))
    return tuple(out)


def _canon(c):
    """The canonical type of a coefficient: an int when integral, else the Fraction."""
    return c if type(c) is int or c.denominator != 1 else c.numerator


def _normalize_params(coeff: Rat, parampows: tuple) -> tuple[Rat, tuple]:
    """Reduce root-symbol powers: a^2 -> square.  Exponents end in {0, 1}."""
    if not parampows:
        return coeff, parampows
    out = []
    reduced = False
    for key, e in parampows:
        square = key[1]
        if not square or e == 1:
            out.append((key, e))
            continue
        reduced = True
        q, r = divmod(e, 2)
        num, den = square if q > 0 else (square[1], square[0])
        coeff = _canon(coeff * Rat(num ** abs(q), den ** abs(q)))
        if r:
            out.append((key, r))
    return (coeff, tuple(sorted(out))) if reduced else (coeff, parampows)


def _rewrite_funs(coeff: Rat, mono: tuple) -> list[tuple[Rat, tuple]]:
    """Apply arbfun rewrite rules until no factor triggers.  May branch."""
    funpows = mono[2]
    for key, e in funpows:
        rule = key[3]
        if not rule:
            continue
        slot, threshold, repl = rule
        if key[2][slot] >= threshold:
            rest = _merge_pow(funpows, key, -1)
            results = []
            for rc, delta in repl:
                orders = tuple(o + d for o, d in zip(key[2], delta))
                nk = (key[0], key[1], orders, rule)
                nfun = _merge_pow(rest, nk, 1)
                nm = (mono[0], mono[1], nfun, mono[3])
                results.extend(_rewrite_funs(coeff * rc, nm))
            return results
    return [(coeff, mono)]


def _collect(pairs: Iterable[tuple[Rat, tuple]]) -> dict:
    """Merge (coeff, monomial) pairs into {canonical monomial: canonical coeff}.

    The pairs may repeat monomials and need not be normal: root-symbol
    powers and arbitrary-function rewrite rules are applied here.  Zero
    coefficients are dropped.  The result is unsorted.
    """
    acc: dict[tuple, Rat] = {}
    for coeff, mono in pairs:
        if not coeff:
            continue
        if mono[3]:
            coeff, pars = _normalize_params(coeff, mono[3])
            mono = (mono[0], mono[1], mono[2], pars)
        for c2, m2 in _rewrite_funs(coeff, mono) if mono[2] else ((coeff, mono),):
            c0 = acc.get(m2)
            c0 = c2 if c0 is None else c0 + c2
            if c0:
                acc[m2] = c0
            else:
                del acc[m2]
    for m, c in acc.items():
        if type(c) is not int:
            acc[m] = _canon(c)
    return acc


class JetExpr:
    """Canonical polynomial on jet space; equality is syntactic equality."""

    __slots__ = ("terms",)

    def __init__(self, terms: tuple = ()):
        self.terms = terms

    # -- constructors ----------------------------------------------------

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[Rat, tuple]]) -> "JetExpr":
        return JetExpr(tuple(sorted(_collect(pairs).items())))

    @staticmethod
    def zero() -> "JetExpr":
        return _ZERO

    @staticmethod
    def number(value) -> "JetExpr":
        c = _canon(Rat(value))
        if not c:
            return _ZERO
        return JetExpr(((EMPTY_MONO, c),))

    @staticmethod
    def variable(axis: int) -> "JetExpr":
        mono = (((axis, 1),), (), (), ())
        return JetExpr(((mono, 1),))

    @staticmethod
    def jet(dep: str, mi: Sequence[int] | str = ZERO_MI) -> "JetExpr":
        if isinstance(mi, str):
            mi = multi_index(mi)
        mono = ((), (((dep, tuple(mi)), 1),), (), ())
        return JetExpr(((mono, 1),))

    @staticmethod
    def arbfun(key: tuple) -> "JetExpr":
        mono = ((), (), ((key, 1),), ())
        return JetExpr(((mono, 1),))

    @staticmethod
    def param(key: tuple, exp: int = 1) -> "JetExpr":
        c, pars = _normalize_params(1, ((key, exp),))
        mono = ((), (), (), pars)
        return JetExpr(((mono, c),))

    # -- basic protocol ---------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, JetExpr) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __iter__(self) -> Iterator[tuple[tuple, Rat]]:
        return iter(self.terms)

    def __repr__(self) -> str:
        from .printing import to_source

        return f"JetExpr({to_source(self)!r})"

    def __str__(self) -> str:
        from .printing import to_source

        return to_source(self)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other) -> "JetExpr":
        other = as_expr(other)
        return JetExpr.from_pairs(
            [(c, m) for m, c in self.terms] + [(c, m) for m, c in other.terms]
        )

    __radd__ = __add__

    def __neg__(self) -> "JetExpr":
        return JetExpr(tuple((m, -c) for m, c in self.terms))

    def __sub__(self, other) -> "JetExpr":
        return self + (-as_expr(other))

    def __rsub__(self, other) -> "JetExpr":
        return as_expr(other) + (-self)

    def __mul__(self, other) -> "JetExpr":
        if isinstance(other, (int, Fraction)):
            c = _canon(other)
            if not c:
                return _ZERO
            return JetExpr(tuple((m, _canon(c * c0)) for m, c0 in self.terms))
        other = as_expr(other)
        pairs = []
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                pairs.append((c1 * c2, _mono_mul(m1, m2)))
        return JetExpr.from_pairs(pairs)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "JetExpr":
        if n < 0:
            raise ExprError("negative powers of expressions are not defined")
        out = JetExpr.number(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n >>= 1
        return out

    def __truediv__(self, other) -> "JetExpr":
        return div_unit(self, other)

    # -- inspection --------------------------------------------------------

    def jet_keys(self) -> set:
        return {k for m, _ in self.terms for k, _ in m[1]}

    def fun_keys(self) -> set:
        return {k for m, _ in self.terms for k, _ in m[2]}

    def param_keys(self) -> set:
        return {k for m, _ in self.terms for k, _ in m[3]}

    def max_order(self, dep: str | None = None) -> int:
        orders = [
            mi_order(k[1])
            for m, _ in self.terms
            for k, _ in m[1]
            if dep is None or k[0] == dep
        ]
        return max(orders, default=0)

    def jet_degree(self) -> int:
        """Maximum total degree in jet and arbfun factors."""
        degs = [
            sum(e for _, e in m[1]) + sum(e for _, e in m[2]) for m, _ in self.terms
        ]
        return max(degs, default=0)

    def var_degree(self, axis: int | None = None) -> int:
        degs = []
        for m, _ in self.terms:
            if axis is None:
                degs.append(sum(e for _, e in m[0]))
            else:
                degs.append(sum(e for k, e in m[0] if k == axis))
        return max(degs, default=0)

    def coefficient_of_fun_order(self, name: str, order: int) -> "JetExpr":
        """Coefficient of the `order`-th derivative of single-variable arbfun `name`.

        Requires every occurrence of `name` to be linear; terms free of
        `name` count toward order 0 only when no occurrence exists at all
        (handled by the caller).
        """
        pairs = []
        for m, c in self.terms:
            for k, e in m[2]:
                if k[0] != name:
                    continue
                if e != 1:
                    raise ExprError(f"nonlinear in arbitrary function {name!r}")
                if k[2][0] == order:
                    rest = (m[0], m[1], _merge_pow(m[2], k, -1), m[3])
                    pairs.append((c, rest))
        return JetExpr.from_pairs(pairs)


_ZERO = JetExpr(())


def as_expr(value) -> JetExpr:
    if isinstance(value, JetExpr):
        return value
    if isinstance(value, (int, Fraction)):
        return JetExpr.number(value)
    raise TypeError(f"cannot interpret {value!r} as JetExpr")


def div_unit(e: JetExpr, unit) -> JetExpr:
    """Divide by an invertible element: a number or number*parameter monomial."""
    unit = as_expr(unit)
    if len(unit.terms) != 1:
        raise ExprError(f"division by non-unit expression {unit}")
    mono, coeff = unit.terms[0]
    if mono[0] or mono[1] or mono[2]:
        raise ExprError("division by jet variables or functions is not allowed")
    inv_pars = tuple((k, -x) for k, x in mono[3])
    inv = JetExpr.from_pairs([(Rat(1, coeff), ((), (), (), inv_pars))])
    return e * inv


# -- calculus ---------------------------------------------------------------


# Interned keys of differentiated jets: equal monomials share one key tuple,
# which keeps large expressions small.  Bounded by the distinct (jet, axis)
# pairs; no value depends on it.
_BUMPED: dict[tuple, tuple] = {}


def _leibniz(terms: Iterable[tuple], axis: int, jet_image=None) -> list:
    """Unmerged (coeff, monomial) pairs of D_axis over (monomial, coeff) terms.

    Leibniz over every factor.  jet_image(key), when given, may return an
    expression that stands for the differentiated jet `key` (its image
    multiplies the rest of the monomial), or None to keep the jet.  The
    pairs go through :func:`_collect` or ``JetExpr.from_pairs``.
    """
    pairs = []
    for m, c in terms:
        varpows, jetpows, funpows, parampows = m
        for k, p in varpows:
            if k == axis:
                nm = (_merge_pow(varpows, k, -1), jetpows, funpows, parampows)
                pairs.append((c * p, nm))
        for k, p in jetpows:
            bumped = _BUMPED.get((k, axis))
            if bumped is None:
                bumped = _BUMPED[k, axis] = (k[0], mi_bump(k[1], axis))
            image = None if jet_image is None else jet_image(bumped)
            if image is None:
                nj = _merge_pow(_merge_pow(jetpows, k, -1), bumped, 1)
                pairs.append((c * p, (varpows, nj, funpows, parampows)))
            else:
                rest = (varpows, _merge_pow(jetpows, k, -1), funpows, parampows)
                cp = c * p
                pairs.extend((cp * ci, _mono_mul(rest, mi)) for mi, ci in image.terms)
        for k, p in funpows:
            if axis not in k[1]:
                continue
            slot = k[1].index(axis)
            bumped = (k[0], k[1], mi_bump(k[2], slot), k[3])
            nf = _merge_pow(_merge_pow(funpows, k, -1), bumped, 1)
            pairs.append((c * p, (varpows, jetpows, nf, parampows)))
    return pairs


def total_derivative(e: JetExpr, axis: int) -> JetExpr:
    """Total derivative D_axis on jet space (Leibniz over every factor)."""
    return JetExpr.from_pairs(_leibniz(e.terms, axis))


def total_derivative_mi(e: JetExpr, mi: Sequence[int]) -> JetExpr:
    for axis in range(NAXES):
        for _ in range(mi[axis]):
            e = total_derivative(e, axis)
    return e


def divergence(components: Sequence[JetExpr], dim: int) -> JetExpr:
    """Spatial divergence sum(D_i F^i) of a dim-component vector."""
    if len(components) != dim:
        raise ExprError(f"expected {dim} components, got {len(components)}")
    out = _ZERO
    for i, comp in enumerate(components):
        out = out + total_derivative(comp, i + 1)
    return out


def curl(theta: Sequence[JetExpr], dim: int) -> tuple:
    """Spatial curl of a skew potential, so that divergence(curl(theta)) == 0.

    In 2D theta is the one scalar w and the curl is (w_y, -w_x); in 3D
    theta is (w^x, w^y, w^z) and the curl is the usual one.
    """
    if dim == 2:
        (w,) = theta
        return (total_derivative(w, Y), -total_derivative(w, X))
    if dim == 3:
        wx, wy, wz = theta
        return (
            total_derivative(wz, Y) - total_derivative(wy, Z),
            total_derivative(wx, Z) - total_derivative(wz, X),
            total_derivative(wy, X) - total_derivative(wx, Y),
        )
    raise ExprError(f"curls exist in dim 2 and 3, not {dim}")


def partial(e: JetExpr, slot: int, key: tuple) -> JetExpr:
    """Partial derivative with respect to one symbol of a monomial slot."""
    pairs = []
    for m, c in e.terms:
        for k, p in m[slot]:
            if k == key:
                nm = list(m)
                nm[slot] = _merge_pow(m[slot], k, -1)
                pairs.append((c * p, tuple(nm)))
    return JetExpr.from_pairs(pairs)


def _substitute(e: JetExpr, slot: int, image) -> JetExpr:
    """The ring map that sends each factor k^p of `slot` to image(k)^p.

    image(k) is a JetExpr, or None to keep the factor; it is called once
    per distinct key.  A negative power divides by the image, which must
    then be a unit (see div_unit).
    """
    images: dict = {}
    pairs = []
    for m, c in e.terms:
        for k, _ in m[slot]:
            if k not in images:
                images[k] = image(k)
        rest = list(m)
        rest[slot] = tuple((k, p) for k, p in m[slot] if images[k] is None)
        factor = JetExpr(((tuple(rest), c),))
        for k, p in m[slot]:
            got = images[k]
            if got is not None:
                factor = factor * got ** p if p >= 0 else div_unit(factor, got ** -p)
        pairs.extend((cc, mm) for mm, cc in factor.terms)
    return JetExpr.from_pairs(pairs)


def substitute_depvar(e: JetExpr, dep: str, repl: JetExpr) -> JetExpr:
    """Replace every jet of `dep` by the matching total derivative of `repl`."""
    return _substitute(e, JET_SLOT,
                       lambda k: total_derivative_mi(repl, k[1]) if k[0] == dep else None)


def substitute_arbfun(e: JetExpr, name: str, repl: JetExpr) -> JetExpr:
    """Replace an arbitrary function symbol by a concrete jet expression.

    Derivative orders are mapped to total derivatives of `repl` with
    respect to the symbol's signature variables.
    """
    return _substitute(e, FUN_SLOT,
                       lambda k: total_derivative_mi(repl, arbfun_mi(k)) if k[0] == name else None)


def substitute_params(
    e: JetExpr, values: Mapping[str, object], only_free: bool = False
) -> JetExpr:
    """Bind named parameters to exact rationals or parameter exprs.

    With only_free=True, symbols carrying a square rewrite are treated as
    adjoined constants and left alone; otherwise matching is by name.
    """
    exprs = {
        name: (v if isinstance(v, JetExpr) else JetExpr.number(Rat(v)))
        for name, v in values.items()
    }
    return _substitute(e, PARAM_SLOT, lambda k: None if only_free and k[1] else exprs.get(k[0]))


def eval_at(
    e: JetExpr,
    point: Mapping | None = None,
    vars: Mapping | None = None,
    funs: Mapping | None = None,
    params: Mapping | None = None,
) -> float:
    """Evaluate in floating point.  Every occurring symbol needs a binding.

    Keys may be the internal tuples or plain grammar names such as
    ``"u_xx"``, ``"x"``, ``"f'"``, ``"alpha"``.
    """
    point, vars_, funs_, params_ = (m or {} for m in (point, vars, funs, params))

    total = 0.0
    for m, c in e.terms:
        val = float(c)
        for k, p in m[0]:
            val *= _lookup(vars_, AXES[k], k, "variable") ** p
        for k, p in m[1]:
            name = k[0] if k[1] == ZERO_MI else f"{k[0]}_{mi_str(k[1])}"
            val *= _lookup(point, name, k, "jet coordinate") ** p
        for k, p in m[2]:
            if len(k[1]) == 1:
                name = k[0] + "'" * k[2][0]
            else:
                sub = "".join(AXES[ax] * n for ax, n in zip(k[1], k[2]))
                name = k[0] + (f"_{sub}" if sub else "")
            val *= _lookup(funs_, name, k, "arbitrary function") ** p
        for k, p in m[3]:
            val *= _lookup(params_, k[0], k, "parameter") ** p
        total += val
    return total


def _lookup(table: Mapping, name: str, key, what: str) -> float:
    if name in table:
        return float(table[name])
    if key in table:
        return float(table[key])
    raise MissingBinding(f"missing binding for {what} {name!r}")
