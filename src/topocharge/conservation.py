"""Conservation-law verification and reduction to spatial-flux form.

Implements the splitting of a conserved current in an arbitrary function
f(t), the trivializing potentials Psi_i, the spatial-flux vector Gamma,
and the extraction of exact off-solution divergence-type identities
T_i = Div Psi_i + R(G) with R assembled constructively from the
substitution ledger.

The potentials come from the telescoping relation

    D_t Psi_i + Psi_{i-1} + Phi_i = 0,    Psi_N = -Phi_{N+1},

run downward, so Psi_{i-1} = -Phi_i - D_t Psi_i, and the flux is

    Gamma = Phi_0 + D_t Psi_0 = sum_j (-D_t)^j Phi_j.

Div Gamma|_E = 0 needs no check of its own.  With the split relations
r_j = D_t T_j + T_{j-1} + Div Phi_j, the T terms of sum_j (-D_t)^j r_j
telescope, so Div Gamma = sum_j (-D_t)^j r_j exactly in jet space; the
solution set E is closed under D_t, so r_j|_E = 0 for every j (checked
once per spec and family by `check_family`) gives Div Gamma|_E = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .jetexpr import JET_SLOT, JetExpr, T, arbfun_key, curl, divergence, total_derivative
from .pde import (
    PdeSpec,
    derivative_on_solutions,
    expand_r_operator,
    substitute_on_solutions,
    substitute_with_ledger,
    verified,
)
from .variational import (
    AnsatzExhausted,
    _euler_sum,
    _mono_expr,
    build_pools,
    euler_u,
    solve_ansatz,
)

# Pool-growth rounds and pool-size cap of each curl-witness ansatz.
CURL_ROUNDS = 2
CURL_POOL_CAP = 4000


class NotAMultiplier(ValueError):
    def __init__(self, message: str, residual: JetExpr):
        super().__init__(message)
        self.residual = residual


class NonlinearInArbFun(ValueError):
    pass


class MixedArbFuns(ValueError):
    pass


class CurrentVerificationError(ValueError):
    def __init__(self, message: str, residuals):
        super().__init__(message)
        self.residuals = residuals


@dataclass(frozen=True)
class CurrentFamily:
    """Conserved current expanded in f(t): T = sum T_i f^(i), Phi likewise."""

    dim: int
    fun: tuple | None  # (name, sig, rule) of the time function, None if constant
    T_coeffs: tuple  # T_0 .. T_N
    Flux_coeffs: tuple  # Phi_0 .. Phi_{N+1}, each a dim-vector of JetExpr

    @property
    def N(self) -> int:
        return len(self.T_coeffs) - 1

    def assemble(self) -> tuple[JetExpr, tuple]:
        """Recombine into full (T, Phi) with formal f^(i) factors."""
        if self.fun is None:
            return self.T_coeffs[0], self.Flux_coeffs[0]
        name, sig, rule = self.fun
        T_full = JetExpr.zero()
        Phi_full = [JetExpr.zero()] * self.dim
        for i, Ti in enumerate(self.T_coeffs):
            fi = JetExpr.arbfun(arbfun_key(name, sig, (i,), rule))
            T_full = T_full + Ti * fi
        for i, Phi_i in enumerate(self.Flux_coeffs):
            fi = JetExpr.arbfun(arbfun_key(name, sig, (i,), rule))
            Phi_full = [a + b * fi for a, b in zip(Phi_full, Phi_i)]
        return T_full, tuple(Phi_full)


@dataclass(frozen=True)
class FluxVector:
    Gamma: tuple
    dim: int
    # nontriviality_certificate's value: an int order bound, "u_t-certificate",
    # "nonzero-flux" or "trivial"; None if not certified or every bound exhausted the cap
    nontrivial_up_to_order: object = None


@dataclass(frozen=True)
class DivergenceIdentity:
    """Exact off-solution identity  T = Div(Psi) + R(G)."""

    T: JetExpr
    Psi: tuple
    R: JetExpr  # linear in jets of the formal variable "G"


# -- multipliers --------------------------------------------------------------


def verify_multiplier(pde: PdeSpec, Q: JetExpr) -> None:
    """Check that Q*G is a total spacetime divergence; raise NotAMultiplier if not."""
    residual = euler_u(Q * pde.G)
    if not residual.is_zero():
        raise NotAMultiplier(
            f"euler_u(Q*G) != 0 for {pde.name}; residual has "
            f"{len(residual.terms)} terms",
            residual,
        )


# -- currents ------------------------------------------------------------------


def current_divergence(pde: PdeSpec, T_expr: JetExpr, Phi: tuple) -> JetExpr:
    return total_derivative(T_expr, T) + divergence(list(Phi), pde.dim)


def verify_current(pde: PdeSpec, T_expr: JetExpr, Phi: tuple) -> JetExpr:
    """Residual of D_t T + Div Phi on solutions (zero expression == verified)."""
    return substitute_on_solutions(current_divergence(pde, T_expr, Phi), pde)


def time_part(T_coeffs: tuple, i: int) -> JetExpr:
    """D_t T_i + T_{i-1}, the coefficient of f^(i) in D_t sum_i T_i f^(i),
    with T_{-1} = T_{N+1} = 0 for the N + 1 coefficients T_0 .. T_N."""
    e = total_derivative(T_coeffs[i], T) if i < len(T_coeffs) else JetExpr.zero()
    return e + T_coeffs[i - 1] if i >= 1 else e


def split_relations(cur: CurrentFamily) -> list[JetExpr]:
    """r_i = D_t T_i + T_{i-1} + Div Phi_i for i = 0..N+1, unrestricted:
    the coefficient of f^(i) in D_t T + Div Phi."""
    return [time_part(cur.T_coeffs, i) + divergence(list(phi), cur.dim)
            for i, phi in enumerate(cur.Flux_coeffs)]


def verify_family(pde: PdeSpec, cur: CurrentFamily) -> dict[int, JetExpr]:
    """Residuals r_i|_E of the split relations, keyed by the f^(i) they
    multiply; all must vanish for a conservation law."""
    residuals = {}
    for i, e in enumerate(split_relations(cur)):
        r = substitute_on_solutions(e, pde)
        if not r.is_zero():
            residuals[i] = r
    return residuals


def check_family(pde: PdeSpec, cur: CurrentFamily) -> None:
    """Raise CurrentVerificationError unless every split relation vanishes
    on solutions.

    A family that passed is recorded in the PdeSpec's memo under
    ("family", cur), so the check runs once per (spec, family) in a
    process; a failure is not recorded.
    """
    def holds():
        residuals = verify_family(pde, cur)
        if residuals:
            raise CurrentVerificationError(
                f"current fails the split relations for f^(i), i in "
                f"{sorted(residuals)}",
                residuals,
            )

    verified(pde, ("family", cur), holds)


def split_by_arbitrary_function(
    pde: PdeSpec, T_expr: JetExpr, Phi: tuple, check: bool = True
) -> CurrentFamily:
    """Extract the coefficient lists (T_i), (Phi_i) of a current linear in f(t)."""
    names = {}
    for e in (T_expr, *Phi):
        for key in e.fun_keys():
            if key[1] == (T,):
                names[key[0]] = (key[0], key[1], key[3])
    if len(names) > 1:
        raise MixedArbFuns(f"more than one time-dependent arbitrary function: {sorted(names)}")

    if not names:
        family = CurrentFamily(
            pde.dim,
            None,
            (T_expr,),
            (tuple(Phi), (JetExpr.zero(),) * pde.dim),
        )
    else:
        (fun_name, sig, rule) = next(iter(names.values()))
        for e in (T_expr, *Phi):
            for mono, _c in e.terms:
                deg = sum(p for k, p in mono[2] if k[0] == fun_name)
                if deg != 1:
                    raise NonlinearInArbFun(
                        f"current is not linear-homogeneous in {fun_name}(t)"
                    )
        N = max(
            (k[2][0] for k in T_expr.fun_keys() if k[0] == fun_name),
            default=0,
        )
        max_phi = max(
            (k[2][0] for comp in Phi for k in comp.fun_keys() if k[0] == fun_name),
            default=0,
        )
        N = max(N, max_phi - 1)
        T_coeffs = tuple(T_expr.coefficient_of_fun_order(fun_name, i) for i in range(N + 1))
        Flux_coeffs = tuple(
            tuple(comp.coefficient_of_fun_order(fun_name, i) for comp in Phi)
            for i in range(N + 2)
        )
        family = CurrentFamily(pde.dim, (fun_name, sig, rule), T_coeffs, Flux_coeffs)

    if check:
        check_family(pde, family)
    return family


# -- reduction mechanics ---------------------------------------------------------


def trivializing_potentials(cur: CurrentFamily) -> list[tuple]:
    """Psi_0 .. Psi_N from Psi_N = -Phi_{N+1} and Psi_{i-1} = -Phi_i - D_t Psi_i,
    that is Psi_i = -sum_{j=0}^{N-i} (-D_t)^j Phi_{i+j+1}."""
    psi = tuple(-c for c in cur.Flux_coeffs[cur.N + 1])
    out = [psi]
    for i in range(cur.N, 0, -1):
        psi = tuple(-p - total_derivative(q, T) for p, q in zip(cur.Flux_coeffs[i], psi))
        out.append(psi)
    return out[::-1]


def reduce_to_spatial_flux(
    cur: CurrentFamily, pde: PdeSpec, order_bound: int | None = None
) -> FluxVector:
    """Gamma = Phi_0 + D_t Psi_0, which is divergence-free on solutions.

    Div Gamma = sum_j (-D_t)^j r_j exactly, the r_j being the split
    relations (see the module docstring), so the family's split relations
    are checked on solutions (`check_family`, memoised per spec and family,
    and so already done for a catalog charge) in place of Div Gamma|_E.  A
    family that fails them raises CurrentVerificationError.
    """
    check_family(pde, cur)
    psi0 = trivializing_potentials(cur)[0]
    gamma = tuple(p + total_derivative(q, T) for p, q in zip(cur.Flux_coeffs[0], psi0))
    return FluxVector(gamma, cur.dim, nontriviality_certificate(gamma, pde, order_bound))


def divergence_identity(pde: PdeSpec, cur: CurrentFamily, i: int) -> DivergenceIdentity:
    """Exact off-solution identity T_i = Div Psi_i + R(G)."""
    if not 0 <= i <= cur.N:
        raise ValueError(f"index {i} outside 0..{cur.N}")
    psi = trivializing_potentials(cur)[i]
    bare = cur.T_coeffs[i] - divergence(list(psi), cur.dim)
    residual, r_expr = substitute_with_ledger(bare, pde)
    if not residual.is_zero():
        raise CurrentVerificationError(
            f"T_{i} - Div Psi_{i} does not vanish on solutions", {i: residual}
        )
    if not (bare - expand_r_operator(r_expr, pde)).is_zero():
        raise AssertionError("divergence identity failed the exact off-solution check")
    return DivergenceIdentity(cur.T_coeffs[i], psi, r_expr)


# -- non-triviality ------------------------------------------------------------


def nontriviality_certificate(
    gamma: tuple, pde: PdeSpec, order_bound: int | None = None
) -> object:
    """Certify that Gamma is not a curl on solutions.

    Returns "u_t-certificate" for fluxes of the form u_t k_hat - F with F
    free of time derivatives (the jet-counting argument), and in one
    dimension "nonzero-flux" or "trivial".

    Where `not_a_curl_on_solutions` proves that no witness exists at any
    order (every searched catalog charge but NV's), Gamma is not a curl
    within any bound either, and `order_bound` (default: the highest jet
    order in Gamma) is returned without building a pool.  Otherwise a
    curl-witness search runs at the order bounds from `order_bound` down to
    min(2, order_bound); the first bound whose ansatz pools fit the cap
    decides: "trivial" if a witness exists, else that bound.  None means
    every bound exhausted the cap.

    A searched bound N certifies only the ansatz: a potential holding u_tx,
    u_txx or u_txy, whose restriction has a jet order above N, lies outside
    it, so such a curl can read N.  NV's three searched charges rest on the
    search alone.

    The searched value is that of the ascending search that stops at the
    first exhausted bound: pools only filter by order, so pool(b) is a
    subset of pool(b+1) and a bound that exhausts the cap makes every
    higher one exhaust it too; and a witness over pool(b) is one over
    pool(b+1) with the new columns set to zero, since the rows those
    columns add have target zero.

    The ladder's result is memoised in the PdeSpec's memo under (Gamma,
    top bound, CURL_ROUNDS, CURL_POOL_CAP), the last two read at call time,
    so it runs once per key for the spec and every catalog spec shared with
    it.
    """
    dim = pde.dim
    u_t = JetExpr.jet("u", (1, 0, 0, 0))
    for k_axis in range(1, dim + 1):
        f_parts = [comp - u_t if idx == k_axis else comp
                   for idx, comp in enumerate(gamma, start=1)]
        if not any(k[1][T] > 0 for f in f_parts for k in f.jet_keys()):
            return "u_t-certificate"
    if dim == 1:
        # No curls in one dimension; non-triviality just means Gamma|_E != 0.
        g = substitute_on_solutions(gamma[0], pde)
        return "nonzero-flux" if not g.is_zero() else "trivial"
    if order_bound is None:
        order_bound = max(c.max_order() for c in gamma)
    key = ("certificate", tuple(gamma), order_bound, CURL_ROUNDS, CURL_POOL_CAP)
    return verified(pde, key, lambda: _curl_ladder(gamma, pde, order_bound))


def _curl_ladder(gamma: tuple, pde: PdeSpec, order_bound: int) -> object:
    # Restricted once here: restricting an R-normal expression again only
    # scans its terms and returns it, so the searches below reuse this work.
    g_sub = tuple(substitute_on_solutions(c, pde) for c in gamma)
    if not_a_curl_on_solutions(g_sub, pde):
        return order_bound
    for bound in range(order_bound, min(2, order_bound) - 1, -1):
        try:
            witness = curl_witness_on_solutions(g_sub, pde, bound)
        except AnsatzExhausted:
            continue
        return "trivial" if witness is not None else bound
    return None


def not_a_curl_on_solutions(gamma: tuple, pde: PdeSpec) -> bool:
    """True when Gamma|_E is proven not to be a curl on solutions at any order.

    Take a spatial axis a such that the leading jet has no derivative along
    any other spatial axis b.  Then D_b maps jets free of the leading jet's
    consequences to such jets, so D_b acts freely on solutions, and
    Gamma = curl(theta) on solutions puts Gamma_a|_E in the sum of the
    images of the D_b.  Every Euler operator over the axes b annihilates
    that sum (Olver, Applications of Lie Groups to Differential Equations,
    Thm 4.7), each family of u-jets of one t-order and one a-order counting
    as a field; coordinates and arbitrary functions are explicit functions
    of the independent variables (under a rule such as shear's biharmonic
    one, the canonical derivatives of phi can still take any values at a
    point).  So one nonzero image is a proof.  False decides nothing: no
    axis qualifies (NV's u_txy) or every image vanishes.
    """
    lead = pde.leading[1]
    spatial = range(1, pde.dim + 1)
    for a in spatial:
        if any(lead[b] for b in spatial if b != a):
            continue
        g_a = substitute_on_solutions(gamma[a - 1], pde)

        def family(key):
            return key[0], key[1][T], key[1][a]

        # the highest families occur in the fewest terms: cheapest first
        for fam in sorted({family(k) for k in g_a.jet_keys()}, reverse=True):
            def field(key, fam=fam):
                if family(key) != fam:
                    return None
                return tuple(0 if axis in (T, a) else n for axis, n in enumerate(key[1]))

            if not _euler_sum(g_a, JET_SLOT, field).is_zero():
                return True
    return False


def curl_witness_on_solutions(gamma: tuple, pde: PdeSpec, order_bound: int):
    """Search for a skew potential with Gamma|_E = curl(theta)|_E.

    The ansatz for each potential component is drawn from antiderivative
    closures of the flux components it feeds.  Returns the potential
    (scalar in 2D, 3-vector in 3D) or None, which certifies
    non-triviality up to `order_bound`.
    """
    dim = pde.dim
    if dim not in (2, 3):
        raise ValueError("curl witness search needs dim 2 or 3")
    npots = 1 if dim == 2 else 3

    def theta(pot: int, e: JetExpr) -> list:
        return [e if i == pot else JetExpr.zero() for i in range(npots)]

    g_sub = tuple(substitute_on_solutions(c, pde) for c in gamma)
    feeds = []  # per slot, (component, axis, sign) of each Gamma component its curl feeds
    columns: list[tuple[int, tuple]] = []
    for pot in range(npots):
        fed, pool = [], set()
        for comp, d in enumerate(curl(theta(pot, JetExpr.jet("w")), dim)):
            if d.is_zero():
                continue
            ((_, mi),), ((_, sign),) = d.jet_keys(), d.terms
            axis = mi.index(1)
            fed.append((comp, axis, sign))
            target = g_sub[comp]
            if not target.is_zero():
                pool |= set(build_pools(target, [axis], order_bound,
                                        {axis: target.var_degree(axis) + 1},
                                        CURL_ROUNDS, CURL_POOL_CAP)[axis])
        feeds.append(fed)
        columns.extend((pot, m) for m in sorted(pool))

    def image(pot: int, m: tuple) -> list:
        """curl(theta)|_E as (coeff, monomial) pairs per component; a
        monomial holding leading-jet consequences restricts first."""
        w = substitute_on_solutions(_mono_expr(m), pde)
        parts = [()] * dim
        for comp, axis, sign in feeds[pot]:
            parts[comp] = [(sign * c, mm) for c, mm in derivative_on_solutions(w, axis, pde)]
        return parts

    sol = solve_ansatz(columns, (image(pot, m) for pot, m in columns), g_sub)
    if sol is None:
        return None
    comps = tuple(sol.get(pot, JetExpr.zero()) for pot in range(npots))
    return comps[0] if dim == 2 else comps
