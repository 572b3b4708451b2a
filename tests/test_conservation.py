"""Conservation-law mechanics: verification, splitting, reduction, identities."""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topocharge import conservation
from topocharge.catalog import get_entry, load_catalog
from topocharge.conservation import (
    CurrentVerificationError,
    MixedArbFuns,
    NonlinearInArbFun,
    NotAMultiplier,
    current_divergence,
    curl_witness_on_solutions,
    divergence_identity,
    nontriviality_certificate,
    reduce_to_spatial_flux,
    split_by_arbitrary_function,
    trivializing_potentials,
    verify_current,
    verify_multiplier,
)
from topocharge.jetexpr import JetExpr, T, X, divergence, total_derivative
from topocharge.parsing import parse_expr
from topocharge.pde import (
    PdeSpec,
    SubstitutionDepthExceeded,
    expand_r_operator,
    substitute_on_solutions,
    substitute_with_ledger,
)
from topocharge.variational import AnsatzExhausted, build_pools


@pytest.fixture(scope="module")
def kdv():
    return get_entry("kdv_lagrangian")


@pytest.fixture(scope="module")
def kp():
    return get_entry("kp")


def expr(entry, src):
    return parse_expr(src, entry.dim, entry.symbols)


class TestSubstitution:
    def test_leading_replacement(self, kdv):
        e = expr(kdv, "u_tx")
        assert substitute_on_solutions(e, kdv.pde) == expr(kdv, "-u_x*u_xx - u_xxxx")

    def test_no_occurrence_unchanged(self, kdv):
        e = expr(kdv, "u_x^2")
        assert substitute_on_solutions(e, kdv.pde) == e

    def test_differential_consequence(self, kdv):
        e = expr(kdv, "u_txx")
        expected = total_derivative(expr(kdv, "-u_x*u_xx - u_xxxx"), 1)
        assert substitute_on_solutions(e, kdv.pde) == expected

    def test_idempotent(self, kp):
        e = expr(kp, "u_tx*u_txx + u*u_ttx")
        once = substitute_on_solutions(e, kp.pde)
        assert substitute_on_solutions(once, kp.pde) == once

    def test_ledger_is_exact(self, kp):
        e = expr(kp, "x*u_txx*u_y + u_tx^2")
        restricted, r = substitute_with_ledger(e, kp.pde)
        assert e == restricted + expand_r_operator(r, kp.pde)

    def test_misdeclared_leading_rejected(self, kdv):
        # rhs containing a differential consequence of the leading jet
        from topocharge.pde import PdeError

        with pytest.raises(PdeError):
            PdeSpec(
                "bad",
                1,
                expr(kdv, "u_xx - u_xxx"),
                ("u", (0, 2, 0, 0)),
                expr(kdv, "u_xxx"),
                JetExpr.number(1),
                symbols=kdv.symbols,
            )

    def test_depth_guard(self, kp):
        e = expr(kp, "u_tx^3*u_txx^2")
        with pytest.raises(SubstitutionDepthExceeded):
            substitute_on_solutions(e, kp.pde, max_steps=3)

    def test_cycle_guard(self, kdv):
        # R(u_txx) needs R(u_ttx), which needs R(u_txx) again through u_xxx
        pde = PdeSpec("cycle", 1, expr(kdv, "u_tx - u_tt - u_xxx"), ("u", (1, 1, 0, 0)),
                      expr(kdv, "u_tt + u_xxx"), JetExpr.number(1), symbols=kdv.symbols)
        with pytest.raises(SubstitutionDepthExceeded):
            substitute_on_solutions(expr(kdv, "u_txx"), pde)

    def test_ledger_cycle_guard(self, kdv):
        # the ledger's fixed point grows without end on this PDE; it must
        # fail at once through the ring map's cycle guard
        pde = PdeSpec("cycle", 1, expr(kdv, "u_tx - u_tt - u_xxx"), ("u", (1, 1, 0, 0)),
                      expr(kdv, "u_tt + u_xxx"), JetExpr.number(1), symbols=kdv.symbols)
        with pytest.raises(SubstitutionDepthExceeded, match="needs itself"):
            substitute_with_ledger(expr(kdv, "u_txx"), pde)


CATALOG_NAMES = ("kdv_lagrangian", "kp", "umkp", "shear", "nv", "vorticity")


@st.composite
def jet_polynomials(draw, pde):
    """Sums of products of the PDE's jets, leading consequences included.

    A term has at most two leading consequences, each at most one t-order
    above the leading jet: higher ones make the ledger's fixed point, the
    reference here, run for tens of seconds.
    """
    dep, lead = pde.leading
    spatial = st.sampled_from(range(1, pde.dim + 1))
    terms = JetExpr.zero()
    for _ in range(draw(st.integers(1, 3))):
        term = JetExpr.number(Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3))))
        if draw(st.booleans()):
            term = term * JetExpr.variable(X)
        for base in draw(st.lists(st.sampled_from([lead, (0, 0, 0, 0)]), min_size=1,
                                  max_size=3).filter(lambda b: b.count(lead) <= 2)):
            mi = list(base)
            mi[T] += draw(st.integers(0, 1))
            if draw(st.booleans()):
                mi[draw(spatial)] += 1
            term = term * JetExpr.jet(dep, tuple(mi))
        terms = terms + term
    return terms


class TestRestrictionMap:
    """The cached jet map agrees with the one-occurrence-at-a-time fixed point."""

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_matches_fixed_point(self, name, data):
        warm = get_entry(name).pde
        e = data.draw(jet_polynomials(warm))
        restricted = substitute_on_solutions(e, warm)
        assert restricted == substitute_with_ledger(e, warm)[0]
        assert substitute_on_solutions(restricted, warm) == restricted
        cold = dataclasses.replace(warm)
        assert not cold._restrictions
        assert substitute_on_solutions(e, cold) == restricted


class TestMultipliers:
    def test_kdv_f(self, kdv):
        verify_multiplier(kdv.pde, expr(kdv, "f"))

    def test_kp_q3(self, kp):
        verify_multiplier(kp.pde, expr(kp, "x*f - 1/2*sigma*y^2*f'"))

    def test_not_a_multiplier(self, kdv):
        with pytest.raises(NotAMultiplier) as err:
            verify_multiplier(kdv.pde, expr(kdv, "u"))
        assert not err.value.residual.is_zero()


class TestCurrents:
    def test_kp_current1_zero_residual(self, kp):
        c = kp.current("current-1")
        assert verify_current(kp.pde, c.T, c.Phi).is_zero()

    def test_u_zero_current_fails(self, kdv):
        residual = verify_current(kdv.pde, expr(kdv, "u"), (JetExpr.zero(),))
        assert residual == expr(kdv, "u_t")

    def test_split_kp_current3(self, kp):
        c = kp.current("current-3")
        fam = split_by_arbitrary_function(kp.pde, c.T, c.Phi)
        assert fam.N == 0
        assert fam.T_coeffs[0] == expr(kp, "u")
        assert fam.Flux_coeffs[1][1] == expr(kp, "-y*u + 1/2*y^2*u_y")

    def test_split_constant_family(self, kdv):
        fam = split_by_arbitrary_function(
            kdv.pde, JetExpr.zero(), (expr(kdv, "u_t + 1/2*u_x^2 + u_xxx"),)
        )
        assert fam.fun is None and fam.N == 0

    def test_split_rejects_nonlinear(self, kdv):
        with pytest.raises(NonlinearInArbFun):
            split_by_arbitrary_function(kdv.pde, expr(kdv, "f^2*u"), (JetExpr.zero(),))

    def test_split_rejects_mixed(self, kdv):
        sym = kdv.symbols.with_arbfun("g", (T,))
        T_expr = parse_expr("f*u + g*u_x", 1, sym)
        with pytest.raises(MixedArbFuns):
            split_by_arbitrary_function(kdv.pde, T_expr, (JetExpr.zero(),))

    def test_split_checks_relations(self, kp):
        with pytest.raises(CurrentVerificationError):
            split_by_arbitrary_function(kp.pde, expr(kp, "u*f"), (JetExpr.zero(),) * 2)


class TestReductionMechanics:
    def test_kp_psi0_is_minus_phi1(self, kp):
        c = kp.current("current-3")
        psi = trivializing_potentials(c.family)
        assert psi[0] == tuple(-comp for comp in c.family.Flux_coeffs[1])

    def test_kp_div_psi0_is_u_on_solutions(self, kp):
        c = kp.current("current-3")
        psi0 = trivializing_potentials(c.family)[0]
        lhs = substitute_on_solutions(divergence(list(psi0), 2), kp.pde)
        assert lhs == expr(kp, "u")

    def test_trivial_family_reduction(self, kdv):
        c = kdv.current("current-1")
        flux = reduce_to_spatial_flux(c.family, kdv.pde, certify=False)
        assert flux.Gamma == (expr(kdv, "u_t + 1/2*u_x^2 + u_xxx"),)

    def test_kp_gamma3_matches_repaired_print(self, kp):
        flux = kp.charge("charge-3").flux
        printed = (
            expr(kp, "1/2*u^2 + u_xx - x*(u_t + u*u_x + u_xxx)"
                     " - 1/2*sigma*y^2*(u_tt + u_t*u_x + u*u_tx + u_txxx)"),
            expr(kp, "y*u_t - sigma*x*u_y - 1/2*y^2*u_ty"),
        )
        assert flux.Gamma == printed

    def test_identity_r_factor(self, kp):
        c = kp.current("current-3")
        ident = divergence_identity(kp.pde, c.family, 0)
        assert ident.R == expr(kp, "1/2*sigma*y^2*G")
        # exact off solutions
        lhs = ident.T - divergence(list(ident.Psi), 2) - expand_r_operator(ident.R, kp.pde)
        assert lhs.is_zero()

    def test_identity_index_range(self, kp):
        c = kp.current("current-3")
        with pytest.raises(ValueError):
            divergence_identity(kp.pde, c.family, 1)


class TestPairing:
    def test_exact_pairing_kp3(self, kp):
        c = kp.current("current-3")
        m = kp.multiplier("multiplier-3")
        residual = current_divergence(kp.pde, c.T, c.Phi) - c.pairing * m.Q * kp.pde.G
        assert residual.is_zero()

    def test_euler_crosscheck(self, kp):
        # Q*G - (D_t T + Div Phi) is a total spacetime divergence
        from topocharge.variational import euler_u

        for c in kp.currents:
            m = kp.multiplier(c.multiplier_id)
            diff = m.Q * kp.pde.G - current_divergence(kp.pde, c.T, c.Phi)
            assert euler_u(diff).is_zero()


def charge_cases(entry):
    """(charge, Gamma, the PDE of the charge's case) for every charge."""
    return [
        (ch, ch.flux.Gamma, entry.pde_for_case(entry.current(ch.current_id).case))
        for ch in entry.charges
    ]


def ascending_ladder(gamma, pde):
    """Reference: one curl-witness search per bound 2..B, stopping at the
    first bound whose ansatz pools exhaust the cap."""
    top = max(c.max_order() for c in gamma)
    certified = None
    for bound in range(min(2, top), top + 1):
        try:
            if curl_witness_on_solutions(gamma, pde, bound) is not None:
                return "trivial"
        except AnsatzExhausted:
            break
        certified = bound
    return certified


def feed_pools(gamma, pde, bound):
    """The ansatz pools a curl-witness search at `bound` builds, by
    (flux component, antiderivative axis), without the cap."""
    out = {}
    for idx, comp in enumerate(substitute_on_solutions(c, pde) for c in gamma):
        for axis in range(1, len(gamma) + 1):
            if axis != idx + 1 and not comp.is_zero():
                pools = build_pools(comp, [axis], bound, {axis: comp.var_degree(axis) + 1},
                                    conservation.CURL_ROUNDS, 10**6)
                out[idx, axis] = set(pools[axis])
    return out


def largest_pool(gamma, pde, bound):
    return max(len(pool) for pool in feed_pools(gamma, pde, bound).values())


class TestCertificate:
    def test_curl_on_solutions_is_trivial(self, kp):
        # Gamma = curl(x*u_t); its y-component only reads as a curl after
        # u_tx is replaced on solutions
        theta = expr(kp, "x*u_t")
        gamma = (total_derivative(theta, 2), -total_derivative(theta, 1))
        assert nontriviality_certificate(gamma, kp.pde) == "trivial"

    @pytest.mark.parametrize("name", ["kp", "nv", "shear", "vorticity"])
    def test_matches_ascending_ladder(self, name):
        searched = 0
        for ch, gamma, pde in charge_cases(get_entry(name)):
            cert = nontriviality_certificate(gamma, pde)
            if cert != "u_t-certificate":
                assert cert == ascending_ladder(gamma, pde), ch.id
                searched += 1
        assert searched > 0

    @pytest.mark.parametrize("name, charge_id",
                             [("kp", "charge-3"), ("nv", "charge-2"), ("vorticity", "charge-1")])
    def test_cap_at_top_bound(self, name, charge_id, monkeypatch):
        entry = get_entry(name)
        (_, gamma, pde), = [c for c in charge_cases(entry) if c[0].id == charge_id]
        top = max(c.max_order() for c in gamma)
        cap = largest_pool(gamma, pde, top - 1)
        assert largest_pool(gamma, pde, top) > cap
        monkeypatch.setattr(conservation, "CURL_POOL_CAP", cap)
        assert nontriviality_certificate(gamma, pde) == ascending_ladder(gamma, pde) == top - 1
        monkeypatch.setattr(conservation, "CURL_POOL_CAP", 0)
        assert nontriviality_certificate(gamma, pde) is None
        assert ascending_ladder(gamma, pde) is None

    def test_pools_nest_by_order_bound(self):
        for entry in load_catalog():
            if entry.dim == 1:
                continue
            for ch, gamma, pde in charge_cases(entry):
                top = max(c.max_order() for c in gamma)
                pools = [feed_pools(gamma, pde, bound) for bound in range(2, top + 1)]
                for lower, upper in zip(pools, pools[1:]):
                    for feed, pool in lower.items():
                        assert pool <= upper[feed], (entry.name, ch.id, feed)
