"""Euler operators, total-divergence tests, and divergence inversion.

The inversion works by exact linear algebra over a bounded polynomial
ansatz.  Candidate monomials are generated from the target by repeatedly
lowering spatial derivative indices and raising explicit-variable powers
(one-step antiderivatives), closed under the new monomials produced by
differentiating the candidates.  Ties between witnesses are broken by
solving in a fixed monomial order with free coefficients pinned to zero,
which makes the output deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .jetexpr import (
    FUN_SLOT,
    JET_SLOT,
    ZERO_MI,
    JetExpr,
    Rat,
    T,
    _canon,
    _collect,
    _leibniz,
    _merge_pow,
    arbfun_mi,
    mi_bump,
    mi_order,
    divergence,
    partial,
    total_derivative,
)


class AnsatzExhausted(RuntimeError):
    """No witness exists within the current degree/order/round bounds."""


@dataclass(frozen=True)
class DivergenceWitness:
    components: tuple

    def __iter__(self):
        return iter(self.components)


# -- Euler operators ---------------------------------------------------------


def _euler_sum(e: JetExpr, slot: int, field) -> JetExpr:
    """Sum over the keys k of `slot` of (-D)^K de/dk, with K = field(k).

    field(k) is the multi-index of total derivatives that k carries as a
    jet of the field, or None when k does not belong to the field.  The
    sum is taken in Horner form: the partials are summed per K, and from
    the highest order down each sum takes one -D along its last axis and
    joins the sum at K minus that axis, so each K costs one derivative.
    """
    acc: dict = {}
    for key in {k for m, _ in e.terms for k, _ in m[slot]}:
        mi = field(key)
        if mi is not None:
            acc[mi] = acc.get(mi, JetExpr.zero()) + partial(e, slot, key)
    for order in range(max(map(mi_order, acc), default=0), 0, -1):
        for mi in [mi for mi in acc if mi_order(mi) == order]:
            axis = max(a for a, n in enumerate(mi) if n)
            lower = mi_bump(mi, axis, -1)
            acc[lower] = acc.get(lower, JetExpr.zero()) - total_derivative(acc.pop(mi), axis)
    return acc.get(ZERO_MI, JetExpr.zero())


def euler_u(e: JetExpr) -> JetExpr:
    """Full variational derivative: sum over J of (-D)^J d e/d u_J."""
    return _euler_sum(e, JET_SLOT, lambda k: k[1] if k[0] == "u" else None)


def spatial_euler(e: JetExpr, dep: str = "u", t_order: int = 0) -> JetExpr:
    """Spatial Euler operator for the field ``d_t^t_order dep``.

    Pure time derivatives of the dependent variable count as independent
    fields, so only jets with exactly `t_order` time derivatives
    contribute, and only spatial total derivatives are applied.
    """
    return _euler_sum(e, JET_SLOT, lambda k: (0,) + k[1][1:]
                      if k[0] == dep and k[1][T] == t_order else None)


def _fun_spatial_euler(e: JetExpr, name: str, sig: tuple, t_orders: tuple) -> JetExpr:
    """Spatial Euler operator for an arbitrary-function field."""

    def field(key):
        if key[0] == name and tuple(o for ax, o in zip(sig, key[2]) if ax == T) == t_orders:
            return (0,) + arbfun_mi(key)[1:]
        return None

    return _euler_sum(e, FUN_SLOT, field)


def spatial_euler_residuals(e: JetExpr) -> dict:
    """All field-wise spatial Euler images; a divergence iff all vanish."""
    residuals = {}
    dep_fields = {(k[0], k[1][T]) for k in e.jet_keys()}
    for dep, t_ord in sorted(dep_fields):
        r = spatial_euler(e, dep, t_ord)
        if not r.is_zero():
            residuals[(dep, t_ord)] = r
    fun_fields = set()
    for key in e.fun_keys():
        name, sig, orders, _rule = key
        spatial_sig = [ax for ax in sig if ax != T]
        if not spatial_sig:
            continue  # time-only functions ride along as coefficients
        t_orders = tuple(o for ax, o in zip(sig, orders) if ax == T)
        fun_fields.add((name, sig, t_orders))
    for name, sig, t_orders in sorted(fun_fields):
        r = _fun_spatial_euler(e, name, sig, t_orders)
        if not r.is_zero():
            residuals[(name, t_orders)] = r
    return residuals


def is_total_spatial_divergence(e: JetExpr, dim: int) -> bool:
    """True iff every field-wise spatial Euler operator annihilates `e`."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    return not spatial_euler_residuals(e)


# -- exact sparse linear solve ----------------------------------------------


def solve_linear(rows: Iterable[tuple[dict, Rat]], ncols: int) -> list[Rat] | None:
    """Solve a sparse exact linear system; free unknowns are set to zero.

    `rows` yields (coefficients-by-column, rhs) pairs of ints and
    Fractions.  Returns the solution vector, or None when the system is
    inconsistent.
    """
    pivots: dict[int, tuple[dict, Rat]] = {}
    for row, rhs in rows:
        row = {c: v for c, v in row.items() if v}
        consumed = False
        while row:
            c = min(row)
            if c in pivots:
                prow, prhs = pivots[c]
                factor = row.pop(c)
                for pc, pv in prow.items():
                    if pc == c:
                        continue
                    nv = row.get(pc, 0) - factor * pv
                    if nv:
                        row[pc] = nv
                    else:
                        row.pop(pc, None)
                rhs = rhs - factor * prhs
            else:
                lead = row[c]
                # through Fraction: int / int would be a float
                prow = {k: _canon(Rat(v, lead)) for k, v in row.items()}
                pivots[c] = (prow, _canon(Rat(rhs, lead)))
                consumed = True
                break
        if not consumed and rhs:
            return None
    solution = [0] * ncols
    for c in sorted(pivots, reverse=True):
        prow, prhs = pivots[c]
        val = prhs
        for pc, pv in prow.items():
            if pc != c:
                val -= pv * solution[pc]
        solution[c] = _canon(val)
    return solution


def solve_ansatz(
    columns: Sequence[tuple], images: Iterable[tuple], targets: tuple
) -> dict | None:
    """Exact coefficients c with sum_col c_col * images[col] == targets.

    `columns` are (label, monomial) pairs, `images` yields each column's
    image per target component, in column order, as (coeff, monomial)
    pairs that need not be merged (Leibniz pairs, say); a generator keeps
    only one image alive at a time.  There is one row per (component,
    monomial) and free coefficients are pinned to zero, so the solution
    does not depend on the row order.  Returns {label: sum of c*monomial
    over the label's columns}, or None when the targets are out of reach.
    """
    rows: dict[tuple, tuple] = {}  # (component, monomial) -> (coefficients, rhs)
    for comp, target in enumerate(targets):
        for mm, c in target.terms:
            rows[comp, mm] = ({}, c)
    for col, image in enumerate(images):
        for comp, part in enumerate(image):
            for mm, c in _collect(part).items():
                rows.setdefault((comp, mm), ({}, 0))[0][col] = c
    sol = solve_linear([rows[key] for key in sorted(rows)], len(columns))
    if sol is None:
        return None
    pairs: dict = {label: [] for label, _ in columns}
    for (label, m), c in zip(columns, sol):
        if c:
            pairs[label].append((c, m))
    return {label: JetExpr.from_pairs(p) for label, p in pairs.items()}


# -- ansatz pools ------------------------------------------------------------


def _mono_max_order(mono: tuple) -> int:
    return max((mi_order(k[1]) for k, _ in mono[1]), default=0)


def one_step_antiderivatives(mono: tuple, axis: int, var_bounds: Mapping[int, int]) -> list[tuple]:
    """Monomials m with D_axis(m) containing `mono` (up to coefficient)."""
    out = []
    varpows, jetpows, funpows, parampows = mono
    for k, _e in jetpows:
        if k[1][axis] >= 1:
            lowered = (k[0], mi_bump(k[1], axis, -1))
            nj = _merge_pow(_merge_pow(jetpows, k, -1), lowered, 1)
            out.append((varpows, nj, funpows, parampows))
    for k, _e in funpows:
        if axis in k[1]:
            slot = k[1].index(axis)
            if k[2][slot] >= 1:
                lk = (k[0], k[1], mi_bump(k[2], slot, -1), k[3])
                nf = _merge_pow(_merge_pow(funpows, k, -1), lk, 1)
                out.append((varpows, jetpows, nf, parampows))
    cur = dict(varpows).get(axis, 0)
    if cur < var_bounds.get(axis, 0):
        nv = _merge_pow(varpows, axis, 1)
        out.append((nv, jetpows, funpows, parampows))
    return out


def build_pools(
    target: JetExpr,
    axes: Sequence[int],
    order_bound: int,
    var_bounds: Mapping[int, int] | int,
    rounds: int = 3,
    cap: int = 6000,
) -> dict[int, list]:
    """Candidate witness monomials per direction, closed under differentiation.

    The monomials of D_d(candidate) are read straight off the Leibniz
    pairs: bumping distinct factors of one monomial gives distinct
    monomials, so nothing cancels.  Only a candidate holding a rewrite-rule
    function goes through _collect.  An antiderivative never raises jet
    order, so those of a frontier monomial within the bound skip the check.
    """
    if isinstance(var_bounds, int):
        var_bounds = {d: var_bounds for d in axes}
    pools: dict[int, set] = {d: set() for d in axes}
    frontier = {m for m, _ in target.terms}
    for _ in range(rounds):
        new_by_dir = {d: set() for d in axes}
        for m in frontier:
            check = _mono_max_order(m) > order_bound
            for d in axes:
                pool, new = pools[d], new_by_dir[d]
                for cand in one_step_antiderivatives(m, d, var_bounds):
                    if cand in pool or cand in new:
                        continue
                    if check and _mono_max_order(cand) > order_bound:
                        continue
                    new.add(cand)
        if not any(new_by_dir.values()):
            break
        seen = set(frontier)
        next_frontier = set()
        for d in axes:
            pools[d] |= new_by_dir[d]
            for cand in new_by_dir[d]:
                pairs = _leibniz(((cand, 1),), d)
                ruled = any(k[3] for k, _ in cand[2])
                for mm in _collect(pairs) if ruled else (mm for _, mm in pairs):
                    if mm not in seen:
                        seen.add(mm)
                        next_frontier.add(mm)
        frontier = next_frontier
        if sum(len(p) for p in pools.values()) > cap:
            raise AnsatzExhausted(
                f"ansatz pool exceeded {cap} monomials; raise bounds explicitly"
            )
    return {d: sorted(pools[d]) for d in axes}


def invert_divergence(
    e: JetExpr,
    dim: int,
    order_bound: int | None = None,
    var_bounds: Mapping[int, int] | int | None = None,
    rounds: int = 3,
) -> DivergenceWitness:
    """Write `e` as an exact spatial divergence Div(X, Y, ...).

    The ansatz has the jet degree of `e`.  Raises AnsatzExhausted when no
    witness exists within the bounds; that signals the ansatz was too
    small, not that `e` is not a divergence.
    """
    if e.is_zero():
        return DivergenceWitness((JetExpr.zero(),) * dim)
    axes = list(range(1, dim + 1))
    if order_bound is None:
        order_bound = max(e.max_order() - 1, 0)
    degree_bound = e.jet_degree()
    if var_bounds is None:
        var_bounds = {d: e.var_degree(d) + 1 for d in axes}

    pools = build_pools(e, axes, order_bound, var_bounds, rounds)
    columns = [(d, m) for d in axes for m in pools[d]
               if sum(x for _, x in m[1]) <= degree_bound]
    images = ((_leibniz(((m, 1),), d),) for d, m in columns)
    sol = solve_ansatz(columns, images, (e,))
    if sol is None:
        raise AnsatzExhausted(
            "no witness within bounds "
            f"(order<={order_bound}, degree<={degree_bound}, vars<={var_bounds}, "
            f"rounds={rounds})"
        )
    comps = [sol.get(d, JetExpr.zero()) for d in axes]
    if divergence(comps, dim) != e:
        raise AssertionError("divergence inversion produced a nonzero residual")
    return DivergenceWitness(tuple(comps))


def invert_divergence_auto(e: JetExpr, dim: int) -> DivergenceWitness:
    """invert_divergence with automatic bound escalation, tightest first."""
    last: Exception | None = None
    axes = list(range(1, dim + 1))
    order0 = max(e.max_order() - 1, 0)
    base_vars = {d: e.var_degree(d) for d in axes}
    schedule = [
        (order0, 0, 2),
        (order0, 0, 3),
        (order0, 1, 3),
        (order0 + 1, 1, 3),
        (order0 + 1, 2, 4),
    ]
    for order_bound, var_extra, rounds in schedule:
        try:
            return invert_divergence(
                e,
                dim,
                order_bound=order_bound,
                var_bounds={d: base_vars[d] + var_extra for d in axes},
                rounds=rounds,
            )
        except AnsatzExhausted as exc:
            last = exc
    raise AnsatzExhausted(f"divergence inversion failed after escalation: {last}")
