"""PDE records and restriction of expressions to the solution surface.

A PDE ``G = 0`` carries a solved form ``leading = rhs`` used to evaluate
expressions on solutions: every occurrence of the leading derivative and
its differential consequences is replaced by the corresponding total
derivative of ``rhs``, restricted in turn, until none is left.

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
    Rat,
    ZERO_MI,
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

    def ut_flux(self) -> tuple:
        """The spatial-flux vector u_t k_hat - F of the divergence form."""
        if self.div_form is None:
            raise PdeError(f"{self.name} has no first-order divergence form")
        ut = JetExpr.jet("u", (1, 0, 0, 0))
        comps = []
        for i in range(1, self.dim + 1):
            comp = ut if i == self.div_form.k_axis else JetExpr.zero()
            comps.append(comp - self.div_form.F[i - 1])
        return tuple(comps)


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


def _jet_image(key: tuple, pde: PdeSpec, active: set) -> JetExpr:
    """R(u_K) = R(D_a R(u_(K - e_a))), or R(rhs) at K = leading.

    Equal to R(D^(K - leading) rhs) because D_a maps the ideal of the
    equation and its consequences into itself; the spatial axes go first
    so that D_a of an already restricted expression meets few hits.
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
        got = _restrict(pde.rhs, pde, None, active)
    else:
        lower = (dep, mi_bump(key[1], axis, -1))
        got = _restrict(total_derivative(_jet_image(lower, pde, active), axis), pde,
                        None, active)
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
    ledger_pairs: list[tuple[Rat, tuple]] = []
    done: dict[tuple, Rat] = {}
    pending = list(e.terms)
    steps = 0
    while pending:
        mono, coeff = pending.pop()
        hits = _hits(mono[1], dep, lead_mi)
        if not hits:
            c0 = done.get(mono, Rat(0)) + coeff
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
    result = JetExpr(tuple(sorted(done.items(), key=lambda it: it[0])))
    return result, JetExpr.from_pairs(ledger_pairs)


def expand_r_operator(r: JetExpr, pde: PdeSpec) -> JetExpr:
    """Replace formal jets G_K by D^K of the PDE's defining expression."""
    return substitute_depvar(r, G_DEP, pde.G)
