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
from typing import Iterator

from .jetexpr import (
    JET_SLOT, VAR_SLOT, JetExpr, T, X, Y, _substitute, arbfun_key, divergence, total_derivative,
)
from .pde import (
    PdeError,
    PdeSpec,
    expand_r_operator,
    substitute_on_solutions,
    substitute_with_ledger,
    verified,
)
from .variational import _euler_sum, euler_u


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
    # nontriviality_certificate's value: Gamma's highest jet order (a proof at
    # every order), "u_t-certificate", "nonzero-flux", "trivial", or None if undecided
    certificate: object = None


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


def reduce_to_spatial_flux(cur: CurrentFamily, pde: PdeSpec) -> FluxVector:
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
    return FluxVector(gamma, cur.dim, nontriviality_certificate(gamma, pde))


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


def nontriviality_certificate(gamma: tuple, pde: PdeSpec) -> object:
    """Certify that Gamma is not a curl on solutions.

    Returns "u_t-certificate" for fluxes of the form u_t k_hat - F with F
    free of time derivatives (the jet-counting argument), and in one
    dimension "nonzero-flux" or "trivial".

    Otherwise the Euler images of `curl_witness_on_solutions` decide, given
    Div Gamma|_E = 0: Gamma's highest jet order when some image is nonzero,
    which proves that no curl potential exists at any order; "trivial"
    when all vanish; None when no frame qualifies.  The decision is
    memoised in the PdeSpec's memo under ("certificate", Gamma), so it runs
    once per Gamma for the spec and every catalog spec shared with it.
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

    def decide():
        images = curl_witness_on_solutions(gamma, pde)
        if images is None:
            return None
        if any(not r.is_zero() for r in images):
            return max(c.max_order() for c in gamma)
        return "trivial"

    return verified(pde, ("certificate", tuple(gamma)), decide)


def not_a_curl_on_solutions(gamma: tuple, pde: PdeSpec) -> bool:
    """True when some Euler image of `curl_witness_on_solutions` is
    nonzero: Gamma|_E is then no curl on solutions at any order."""
    images = curl_witness_on_solutions(gamma, pde)
    return images is not None and any(not r.is_zero() for r in images)


def curl_witness_on_solutions(gamma: tuple, pde: PdeSpec) -> Iterator | None:
    """The family-wise Euler images that decide whether Gamma is a curl on
    solutions, as an iterator, or None when no frame qualifies.

    Take the first spatial axis a that is the only one the leading jet
    differentiates along.  Then D_b, for every other spatial axis b, maps
    jets free of the leading jet's consequences to such jets, so D_b acts
    freely on solutions, and Gamma = curl(theta) on solutions exactly when
    Gamma_a|_E lies in the sum of the images of the D_b (given
    Div Gamma|_E = 0, the other components follow).  By the exactness of
    the variational complex (Olver, Applications of Lie Groups to
    Differential Equations, Thm 4.7; Poole & Hereman, Applicable Analysis
    89 (2010)) it lies there exactly when every Euler operator over the
    axes b annihilates it, each family of u-jets of one t-order and one
    a-order counting as a field; coordinates and arbitrary functions are
    explicit functions of the independent variables (under a rule such as
    shear's biharmonic one, the canonical derivatives of phi can still take
    any values at a point).  So one nonzero image proves that Gamma is no
    curl at any order, and images that all vanish make it one.

    When no coordinate axis qualifies (NV's u_txy), the 2D frame xi = x,
    eta = x + y makes the leading jet a pure eta-derivative (u_teta,eta for
    NV), and Gamma maps to (Gamma_x, Gamma_x + Gamma_y) there; the frame is
    built once per spec, and only then.  A 3D leading jet with mixed
    spatial derivatives, or a flux or equation holding a function of x or
    y, gets no frame.
    """
    lead = pde.leading[1]
    spatial = range(1, pde.dim + 1)
    a = next((a for a in spatial if not any(lead[b] for b in spatial if b != a)), None)
    if a is not None:
        g_a = gamma[a - 1]
    else:
        framed = verified(pde, ("frame",), lambda: framed_spec(pde))
        g_a = gamma[0] + gamma[1]
        if framed is None or spatial_functions(g_a):
            return None
        # restricted in x, y first, where the equation's own images are at
        # hand: to_frame maps the ideal of the equation onto the frame's, so
        # the frame's restriction of the image is the same either way
        g_a, pde, a = to_frame(substitute_on_solutions(g_a, pde)), framed, Y
    g_a = substitute_on_solutions(g_a, pde)

    def family(key):
        return key[0], key[1][T], key[1][a]

    def field(fam):
        return lambda key: (tuple(0 if axis in (T, a) else n for axis, n in enumerate(key[1]))
                            if family(key) == fam else None)

    # lazily, the highest families first: they occur in the fewest terms,
    # and a caller that meets a nonzero image computes no further one
    return (_euler_sum(g_a, JET_SLOT, field(fam))
            for fam in sorted({family(k) for k in g_a.jet_keys()}, reverse=True))


def spatial_functions(e: JetExpr) -> bool:
    """True when e holds an arbitrary function of a spatial variable."""
    return any(axis != T for key in e.fun_keys() for axis in key[1])


def to_frame(e: JetExpr) -> JetExpr:
    """e in the 2D frame xi = x, eta = x + y: D_x = D_xi + D_eta,
    D_y = D_eta, x = xi and y = eta - xi, with xi and eta on the x and y
    slots.  Functions of t alone pass through."""
    def jet(key):
        dep, mi = key
        out = JetExpr.jet(dep, (mi[T], 0, mi[Y], 0))
        for _ in range(mi[X]):
            out = total_derivative(out, X) + total_derivative(out, Y)
        return out

    y = JetExpr.variable(Y) - JetExpr.variable(X)
    return _substitute(_substitute(e, JET_SLOT, jet), VAR_SLOT,
                       lambda axis: y if axis == Y else None)


def framed_spec(pde: PdeSpec) -> PdeSpec | None:
    """The 2D equation in the frame of `to_frame`, solved for the pure
    eta-derivative of its leading jet, or None where that fails."""
    dep, mi = pde.leading
    if pde.dim != 2 or spatial_functions(pde.G):
        return None
    lead = (dep, (mi[T], 0, mi[X] + mi[Y], 0))
    rhs = to_frame(pde.rhs) - to_frame(JetExpr.jet(dep, mi)) + JetExpr.jet(*lead)
    try:
        return PdeSpec(f"{pde.name} (xi = x, eta = x + y)", 2, to_frame(pde.G), lead, rhs,
                       pde.factor, symbols=pde.symbols)
    except PdeError:
        return None
