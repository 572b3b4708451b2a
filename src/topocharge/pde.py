"""PDE records and restriction of expressions to the solution surface.

A PDE ``G = 0`` carries a solved form ``leading = rhs`` used to evaluate
expressions on solutions: every occurrence of the leading derivative and
its differential consequences is replaced by the corresponding total
derivative of ``rhs``, restricted in turn, until none is left.  The total
derivative on solutions, D_a|_E, differentiates an expression free of
those jets and replaces each new one by its cached restriction.

The ledger variant records every replacement as ``coefficient * D^K G``,
yielding the operator ``R(G)`` of a divergence-type identity
constructively: the invariant

    e  ==  substitute(e) + expand(R)

holds exactly off solutions, where ``expand`` maps the formal jet ``G_K``
back to ``D^K`` of the defining expression.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

from .jetexpr import (
    JetExpr,
    ZERO_MI,
    _leibniz,
    _merge_pow,
    _mono_mul,
    divergence,
    mi_bump,
    substitute_depvar,
    total_derivative,
    total_derivative_mi,
)
from .parsing import SymbolTable, default_symbols

G_DEP = "G"


class SubstitutionDepthExceeded(RuntimeError):
    """Fixed point not reached; the leading derivative is mis-declared."""


class PdeError(ValueError):
    pass


@dataclass(frozen=True)
class DivForm:
    """First-order divergence presentation: factor * (D_k u_t - Div F) == G."""

    k_axis: int
    F: tuple
    factor: JetExpr


@dataclass(frozen=True)
class PdeSpec:
    name: str
    dim: int
    G: JetExpr
    leading: tuple  # jet key, e.g. ("u", (1, 1, 0, 0))
    rhs: JetExpr
    factor: JetExpr  # unit with G == factor * (leading - rhs)
    div_form: DivForm | None = None
    symbols: SymbolTable = field(default_factory=default_symbols)
    # restriction images, keyed by a tuple of hit (jet, power) factors
    _restrictions: dict = field(default_factory=dict, init=False, compare=False,
                                repr=False)
    # results of the checks that passed on this spec (see verified)
    _verified: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        dep, mi = self.leading
        lead_expr = JetExpr.jet(dep, mi)
        if not (self.G - self.factor * (lead_expr - self.rhs)).is_zero():
            raise PdeError(
                f"{self.name}: G does not equal factor*(leading - rhs) canonically"
            )
        bad = [key for mono, _ in self.rhs.terms for key, _p in _hits(mono[1], dep, mi)]
        if bad:
            raise PdeError(
                f"{self.name}: rhs contains the leading derivative or a "
                f"differential consequence ({bad[0]})"
            )
        if self.div_form is not None:
            ut = JetExpr.jet(dep, (1, 0, 0, 0))
            lhs = total_derivative(ut, self.div_form.k_axis)
            div = divergence(list(self.div_form.F), self.dim)
            if not (self.G - self.div_form.factor * (lhs - div)).is_zero():
                raise PdeError(f"{self.name}: declared divergence form does not match G")


def verified(pde: PdeSpec, key: tuple, check):
    """check()'s result, computed once per key for the spec.

    The key names the check and holds every input it reads besides the
    spec, so a case equation equal to a cached one (which shares its
    PdeSpec) reuses the results verified there.  A check that raises
    stores nothing and runs again on the next call.
    """
    memo = pde._verified
    if key not in memo:
        memo[key] = check()
    return memo[key]


def _hits(jetpows: tuple, dep: str, lead_mi: tuple) -> tuple:
    """The factors of a monomial's jets that are consequences of the leading jet."""
    return tuple(
        (key, p) for key, p in jetpows
        if key[0] == dep and all(map(operator.ge, key[1], lead_mi))
    )


def substitute_on_solutions(
    e: JetExpr, pde: PdeSpec, max_steps: int = 200_000
) -> JetExpr:
    """Restrict to solutions: the ring map u_K -> R(u_K) on leading consequences.

    Every jet u_K with K >= leading maps to R(u_K), the fully restricted
    D^(K - leading) rhs; every other factor passes through.  The normal
    form is unique, so this equals the fixed point of
    :func:`substitute_with_ledger`.  R per jet and the product per tuple
    of hit jets are cached on the PdeSpec.  More than `max_steps`
    leading-jet occurrences in `e`, or a cycle while building R, raise
    SubstitutionDepthExceeded.
    """
    return _restrict(e, pde, max_steps, set())


def _restrict(e: JetExpr, pde: PdeSpec, max_steps: int | None, active: set) -> JetExpr:
    dep, lead_mi = pde.leading
    cache = pde._restrictions
    pairs = []
    steps = 0
    changed = False
    for mono, coeff in e.terms:
        hits = _hits(mono[1], dep, lead_mi)
        if not hits:
            pairs.append((coeff, mono))
            continue
        changed = True
        if max_steps is not None:
            steps += sum(p for _, p in hits)
            if steps > max_steps:
                raise SubstitutionDepthExceeded(
                    f"{pde.name}: more than {max_steps} leading-jet occurrences "
                    f"to replace"
                )
        image = cache.get(hits)
        if image is None:
            image = JetExpr.number(1)
            for key, p in hits:
                image = image * _jet_image(key, pde, active) ** p
            cache[hits] = image
        rest = (mono[0], tuple(kp for kp in mono[1] if kp not in hits), mono[2], mono[3])
        pairs.extend((coeff * c, _mono_mul(rest, m)) for m, c in image.terms)
    return JetExpr.from_pairs(pairs) if changed else e


def derivative_on_solutions(e: JetExpr, axis: int, pde: PdeSpec, active=None) -> list:
    """D_axis|_E of an R-normal e (one free of the leading jet and its
    consequences), as unmerged (coeff, monomial) pairs for
    ``JetExpr.from_pairs``.

    Leibniz over the factors of e; a differentiated jet that is a
    consequence of the leading jet is replaced by its cached image R(u_K).
    Every other factor is R-normal, so the pairs are.  An e that holds such
    jets is restricted first, since R(D_a e) == R(D_a R(e)).
    """
    dep, lead_mi = pde.leading
    active = set() if active is None else active

    def image(key):
        if key[0] == dep and all(map(operator.ge, key[1], lead_mi)):
            return _jet_image(key, pde, active)
        return None

    return _leibniz(e.terms, axis, image)


def _jet_image(key: tuple, pde: PdeSpec, active: set) -> JetExpr:
    """R(u_K) = D_a|_E R(u_(K - e_a)), or rhs at K = leading.

    Equal to R(D^(K - leading) rhs) because D_a maps the ideal of the
    equation and its consequences into itself; the spatial axes go first
    so that D_a of an already restricted expression meets few hits.  The
    rhs holds no consequence of the leading jet (PdeSpec checks it).
    """
    hits = ((key, 1),)
    got = pde._restrictions.get(hits)
    if got is not None:
        return got
    if key in active:
        raise SubstitutionDepthExceeded(
            f"{pde.name}: restricting {key} needs itself; the leading derivative "
            f"is mis-declared"
        )
    active.add(key)
    dep, lead_mi = pde.leading
    K = [a - b for a, b in zip(key[1], lead_mi)]
    axis = max((i for i, k in enumerate(K) if k), default=None)
    if axis is None:
        got = pde.rhs
    else:
        lower = (dep, mi_bump(key[1], axis, -1))
        got = JetExpr.from_pairs(
            derivative_on_solutions(_jet_image(lower, pde, active), axis, pde, active))
    active.discard(key)
    pde._restrictions[hits] = got
    return got


def substitute_with_ledger(
    e: JetExpr, pde: PdeSpec, max_steps: int = 200_000
) -> tuple[JetExpr, JetExpr]:
    """Restrict to solutions and return R with e == e|_E + expand(R).

    R is a JetExpr linear in jets of the formal dependent variable ``G``;
    ``G_K`` stands for ``D^K G``.  The text of R depends on the order of
    replacement, so this keeps the one-occurrence-at-a-time fixed point.
    The hit jets go through the ring map first, whose cycle guard raises
    SubstitutionDepthExceeded where the fixed point would never end.
    """
    dep, lead_mi = pde.leading
    for mono, _c in e.terms:  # a restriction cycle fails here, not after max_steps
        for key, _p in _hits(mono[1], dep, lead_mi):
            _jet_image(key, pde, set())
    inv_factor = JetExpr.number(1) / pde.factor
    dcache: dict[tuple, JetExpr] = {ZERO_MI: pde.rhs}
    ledger_pairs: list[tuple] = []
    done: dict[tuple, object] = {}
    pending = list(e.terms)
    steps = 0
    while pending:
        mono, coeff = pending.pop()
        hits = _hits(mono[1], dep, lead_mi)
        if not hits:
            c0 = done.get(mono, 0) + coeff
            if c0:
                done[mono] = c0
            else:
                done.pop(mono, None)
            continue
        steps += 1
        if steps > max_steps:
            raise SubstitutionDepthExceeded(
                f"{pde.name}: substitution did not reach a fixed point in "
                f"{max_steps} steps"
            )
        hit = hits[0][0]
        K = tuple(a - b for a, b in zip(hit[1], lead_mi))
        repl = dcache.get(K)
        if repl is None:
            repl = total_derivative_mi(pde.rhs, K)
            dcache[K] = repl
        rest = (mono[0], _merge_pow(mono[1], hit, -1), mono[2], mono[3])
        rest_expr = JetExpr(((rest, coeff),))
        pending.extend((rest_expr * repl).terms)
        g_term = rest_expr * inv_factor * JetExpr.jet(G_DEP, K)
        ledger_pairs.extend((c, m) for m, c in g_term.terms)
    result = JetExpr.from_pairs((c, m) for m, c in done.items())
    return result, JetExpr.from_pairs(ledger_pairs)


def expand_r_operator(r: JetExpr, pde: PdeSpec) -> JetExpr:
    """Replace formal jets G_K by D^K of the PDE's defining expression."""
    return substitute_depvar(r, G_DEP, pde.G)
