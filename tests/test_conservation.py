"""Conservation-law mechanics: verification, splitting, reduction, identities."""

import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topocharge import conservation
from topocharge import pde as pde_module
from topocharge.catalog import get_entry, instantiate, load_catalog
from topocharge.conservation import (
    CurrentVerificationError,
    MixedArbFuns,
    NonlinearInArbFun,
    NotAMultiplier,
    current_divergence,
    curl_witness_on_solutions,
    divergence_identity,
    nontriviality_certificate,
    not_a_curl_on_solutions,
    reduce_to_spatial_flux,
    split_by_arbitrary_function,
    trivializing_potentials,
    verify_current,
    verify_multiplier,
)
from topocharge.jetexpr import (
    JetExpr, T, X, Y, Z, _collect, _leibniz, arbfun_key, biharmonic_rule, curl, divergence,
    total_derivative,
)
from topocharge.parsing import parse_expr
from topocharge.pde import (
    PdeSpec,
    SubstitutionDepthExceeded,
    expand_r_operator,
    substitute_on_solutions,
    substitute_with_ledger,
)
from topocharge.variational import (
    AnsatzExhausted,
    _mono_max_order,
    build_pools,
    one_step_antiderivatives,
)


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
        flux = reduce_to_spatial_flux(c.family, kdv.pde)
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


def feed_pools(gamma, pde, bound, build=build_pools):
    """The ansatz pools a curl-witness search at `bound` builds, by
    (flux component, antiderivative axis), without the cap."""
    out = {}
    for idx, comp in enumerate(substitute_on_solutions(c, pde) for c in gamma):
        for axis in range(1, len(gamma) + 1):
            if axis != idx + 1 and not comp.is_zero():
                pools = build(comp, [axis], bound, {axis: comp.var_degree(axis) + 1},
                              conservation.CURL_ROUNDS, 10**6)
                out[idx, axis] = set(pools[axis])
    return out


def largest_pool(gamma, pde, bound):
    return max(len(pool) for pool in feed_pools(gamma, pde, bound).values())


UMKP_BINDINGS = {
    "integrable": {"alpha": "sqrt(2)", "beta": "0", "sigma": "1"},
    "gardner": {"alpha": "sqrt(2/3)", "beta": "2*alpha", "sigma": "1"},
    "equal-transverse": {"alpha": "1/2", "beta": "alpha", "sigma": "-1"},
    "generic": {"alpha": "1/2", "beta": "2/3", "sigma": "1"},
}


class TestCertificate:
    def test_curl_on_solutions_is_trivial(self, kp):
        # Gamma = curl(x*u_t); its y-component only reads as a curl after
        # u_tx is replaced on solutions
        theta = expr(kp, "x*u_t")
        gamma = (total_derivative(theta, 2), -total_derivative(theta, 1))
        assert nontriviality_certificate(gamma, kp.pde) == "trivial"

    @pytest.mark.parametrize("name", ["kp", "nv", "shear", "vorticity", "umkp",
                                      *(f"umkp-{case}" for case in UMKP_BINDINGS)])
    def test_matches_ascending_ladder(self, name):
        searched = 0
        for ch, gamma, pde in charge_cases(TestColumnImages.searched_entry(name)):
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
        # the search's caps, also on charges the Euler-operator proof decides;
        # a fresh memo keeps the stubbed results out of the catalog's spec
        pde = dataclasses.replace(pde)
        monkeypatch.setattr(conservation, "not_a_curl_on_solutions", lambda *a: False)
        top = max(c.max_order() for c in gamma)
        cap = largest_pool(gamma, pde, top - 1)
        assert largest_pool(gamma, pde, top) > cap
        monkeypatch.setattr(conservation, "CURL_POOL_CAP", cap)
        assert nontriviality_certificate(gamma, pde) == ascending_ladder(gamma, pde) == top - 1
        monkeypatch.setattr(conservation, "CURL_POOL_CAP", 0)
        assert nontriviality_certificate(gamma, pde) is None
        assert ascending_ladder(gamma, pde) is None

    @pytest.mark.parametrize("name, charge_id",
                             [("kp", "charge-3"), ("vorticity", "charge-1"),
                              ("umkp", "charge-4")])
    def test_proven_charge_builds_no_pool(self, name, charge_id, monkeypatch):
        (_, gamma, pde), = [c for c in charge_cases(get_entry(name)) if c[0].id == charge_id]
        pde = dataclasses.replace(pde)
        assert not_a_curl_on_solutions(gamma, pde)
        builds = []
        build = conservation.build_pools
        monkeypatch.setattr(conservation, "build_pools",
                            lambda *args: builds.append(args) or build(*args))
        monkeypatch.setattr(conservation, "CURL_POOL_CAP", 0)
        top = max(c.max_order() for c in gamma)
        assert nontriviality_certificate(gamma, pde) == top
        assert builds == []

    def test_memo_matches_uncached_copy(self):
        entries = load_catalog()  # loaded first, so the instances share its specs
        entries += [
            instantiate("umkp", {"alpha": "sqrt(2)", "beta": "0", "sigma": "1"}),
            instantiate("umkp", {"alpha": "sqrt(2/3)", "beta": "2*alpha", "sigma": "1"}),
        ]
        for entry in entries:
            for ch, gamma, pde in charge_cases(entry):
                fresh = nontriviality_certificate(gamma, dataclasses.replace(pde))
                assert ch.flux.nontrivial_up_to_order == fresh, (entry.name, ch.id)

    def test_memo_runs_one_search_per_key(self, monkeypatch):
        entry = get_entry("kp")
        (_, gamma, pde), = [c for c in charge_cases(entry) if c[0].id == "charge-3"]
        pde = dataclasses.replace(pde)
        monkeypatch.setattr(conservation, "not_a_curl_on_solutions", lambda *a: False)
        calls = []
        search = conservation.curl_witness_on_solutions
        monkeypatch.setattr(conservation, "curl_witness_on_solutions",
                            lambda *args: calls.append(args) or search(*args))

        def searches(*args):
            before = len(calls)
            cert = nontriviality_certificate(gamma, pde, *args)
            return cert, len(calls) - before

        top = max(c.max_order() for c in gamma)
        cert, ran = searches()
        assert ran > 0
        assert searches() == searches(top) == (cert, 0)
        assert searches(top - 1)[1] > 0
        monkeypatch.setattr(conservation, "CURL_POOL_CAP", conservation.CURL_POOL_CAP + 1)
        assert searches()[1] > 0

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


def collected_pools(target, axes, order_bound, var_bounds, rounds, cap):
    """Reference harvest for build_pools: every candidate's order is checked
    and every D_d(candidate) is merged by _collect before its monomials
    join the next frontier."""
    pools = {d: set() for d in axes}
    frontier = {m for m, _ in target.terms}
    for _ in range(rounds):
        new_by_dir = {d: set() for d in axes}
        for m in frontier:
            for d in axes:
                for cand in one_step_antiderivatives(m, d, var_bounds):
                    if _mono_max_order(cand) <= order_bound and cand not in pools[d]:
                        new_by_dir[d].add(cand)
        if not any(new_by_dir.values()):
            break
        seen = set(frontier)
        frontier = set()
        for d in axes:
            pools[d] |= new_by_dir[d]
            for cand in new_by_dir[d]:
                frontier |= set(_collect(_leibniz(((cand, 1),), d))) - seen
        if sum(len(p) for p in pools.values()) > cap:
            raise AnsatzExhausted(f"ansatz pool exceeded {cap} monomials")
    return {d: sorted(pools[d]) for d in axes}


@st.composite
def pool_targets(draw):
    """(target, axes): a few monomials in u-jets of order <= 5 along t and
    the axes, x/y powers and, in some, one factor of shear's biharmonic
    phi(y, z), whose D_y can reach the rewrite rule."""
    axes = draw(st.sampled_from([[X, Y], [X, Y, Z]]))
    target = JetExpr.zero()
    for _ in range(draw(st.integers(1, 2))):
        term = JetExpr.number(draw(st.integers(1, 3)))
        for axis in (X, Y):
            term = term * JetExpr.variable(axis) ** draw(st.integers(0, 2))
        for _ in range(draw(st.integers(1, 2))):
            mi = [0, 0, 0, 0]
            for axis in draw(st.lists(st.sampled_from([T, *axes]), max_size=5)):
                mi[axis] += 1
            term = term * JetExpr.jet("u", mi)
        if draw(st.booleans()):
            orders = (draw(st.integers(0, 3)), draw(st.integers(0, 2)))
            term = term * JetExpr.arbfun(arbfun_key("phi", (Y, Z), orders, biharmonic_rule(0)))
        target = target + term
    return target, axes


class TestPoolParity:
    """build_pools reads the monomials of D_d(candidate) off the Leibniz
    pairs, merging only where a rewrite rule may fire, and skips the order
    check of an antiderivative of a monomial within the bound.  Checked
    against the reference harvest on the catalog's feeds, where the rule
    fires, at the cap and on random targets."""

    @pytest.mark.parametrize("name", ["kp", "nv", "shear", "vorticity", "umkp",
                                      *(f"umkp-{case}" for case in UMKP_BINDINGS)])
    def test_matches_collected_harvest(self, name):
        ruled = set()
        for ch, gamma, pde in charge_cases(TestColumnImages.searched_entry(name)):
            top = max(c.max_order() for c in gamma)
            for bound in range(2, top + 1):
                assert (feed_pools(gamma, pde, bound)
                        == feed_pools(gamma, pde, bound, collected_pools)), (ch.id, bound)
            if any(key[3] for c in gamma for key in c.fun_keys()):
                ruled.add(ch.id)
        # shear's biharmonic phi is the one rewrite-rule function
        assert ruled == ({"charge-phi"} if name == "shear" else set())

    @pytest.mark.parametrize("text", ["u_y*phi_yyy", "x*u_y*phi_yyyz", "u_yy*phi_yy"])
    def test_rewrite_rule_fires(self, text):
        # D_y of a candidate reaches phi_yyyy, which the biharmonic rule rewrites
        target = expr(get_entry("shear"), text)
        for rounds in (2, 3):
            args = (target, [2], 6, {2: 1}, rounds, 10**6)
            assert build_pools(*args) == collected_pools(*args), rounds

    def test_cap_raises_alike(self):
        (_, gamma, pde), = [c for c in charge_cases(get_entry("umkp")) if c[0].id == "charge-4"]
        target = substitute_on_solutions(gamma[0], pde)
        args = (target, [2], 6, {2: target.var_degree(2) + 1}, conservation.CURL_ROUNDS)
        size = len(build_pools(*args, 10**6)[2])
        assert build_pools(*args, size)[2] == collected_pools(*args, size)[2]
        for build in (build_pools, collected_pools):
            with pytest.raises(AnsatzExhausted):
                build(*args, size - 1)

    @given(pool_targets(), st.sampled_from([2, 3]), st.integers(2, 6), st.integers(0, 1))
    @settings(max_examples=60, deadline=None)
    def test_random_targets_match_collected_harvest(self, target_axes, rounds, bound, extra):
        target, axes = target_axes
        var_bounds = {d: target.var_degree(d) + extra for d in axes}
        args = (target, axes, bound, var_bounds, rounds)

        def pools(build, cap):
            try:
                return build(*args, cap)
            except AnsatzExhausted:
                return "exhausted"

        want = pools(collected_pools, 3000)
        assert pools(build_pools, 3000) == want
        if want != "exhausted":
            size = sum(len(p) for p in want.values())
            assert size == 0 or pools(build_pools, size - 1) == "exhausted"
            assert size == 0 or pools(collected_pools, size - 1) == "exhausted"


class TestRestrictionMemos:
    """A certificate restricts each Gamma component once, and a spec checks
    a family's split relations once per family."""

    @pytest.mark.parametrize("name, charge_id",
                             [("umkp", "charge-1"), ("nv", "charge-2"), ("shear", "charge-phi")])
    def test_ladder_restricts_each_component_once(self, name, charge_id, monkeypatch):
        (_, gamma, pde), = [c for c in charge_cases(get_entry(name)) if c[0].id == charge_id]
        pde = dataclasses.replace(pde)
        assert all(substitute_on_solutions(c, pde) != c for c in gamma)
        changed = []
        restrict = pde_module._restrict

        def counted(e, *args):
            out = restrict(e, *args)
            if out is not e:
                changed.append(e)
            return out

        monkeypatch.setattr(pde_module, "_restrict", counted)
        assert isinstance(nontriviality_certificate(gamma, pde), int)
        assert [sum(e == c for e in changed) for c in gamma] == [1] * len(gamma)

    def test_flux_check_runs_once_per_spec(self, kp, monkeypatch):
        cur = kp.current("current-3")
        pde = dataclasses.replace(kp.pde_for_case(cur.case))
        checks = []
        verify = conservation.verify_family
        monkeypatch.setattr(conservation, "verify_family",
                            lambda *args: checks.append(args) or verify(*args))
        first = reduce_to_spatial_flux(cur.family, pde)
        assert len(checks) == 1
        assert reduce_to_spatial_flux(cur.family, pde) == first
        assert split_by_arbitrary_function(pde, cur.T, cur.Phi) == cur.family
        assert len(checks) == 1

        # a corrupted Gamma on the same spec is checked, and never recorded
        phi0 = cur.family.Flux_coeffs[0]
        bad = dataclasses.replace(cur.family, Flux_coeffs=(
            (phi0[0] + expr(kp, "u"), *phi0[1:]), *cur.family.Flux_coeffs[1:]))
        for _ in range(2):
            with pytest.raises(CurrentVerificationError):
                reduce_to_spatial_flux(bad, pde)
        assert len(checks) == 3


class TestDivergenceOfGamma:
    """Div Gamma = sum_j (-D_t)^j r_j exactly, the r_j being the split
    relations: the T terms telescope.  So the split relations, checked on
    solutions, give Div Gamma|_E = 0 with no check of their own."""

    @pytest.mark.parametrize("name", [
        "kdv_lagrangian", "kp", "umkp", "shear", "nv", "vorticity",
        *(f"umkp-{case}" for case in ("integrable", "gardner", "equal-transverse"))])
    def test_telescopes_for_every_family(self, name):
        entry = TestColumnImages.searched_entry(name)
        assert entry.currents
        for cur in entry.currents:
            family = cur.family
            gamma = reduce_to_spatial_flux(family, entry.pde_for_case(cur.case)).Gamma
            total = JetExpr.zero()
            for j, r in enumerate(conservation.split_relations(family)):
                for _ in range(j):
                    r = -total_derivative(r, T)
                total = total + r
            assert (divergence(list(gamma), family.dim) - total).is_zero(), cur.id


class TestColumnImages:
    """Each curl-witness column image is D_a|_E of the restricted column
    monomial; it must equal the restriction of the curl, column by column."""

    # searches with column monomials that hold a consequence of the leading jet
    WITH_HIT_COLUMNS = {"kp", "nv", "umkp-integrable", "umkp-gardner", "umkp-generic"}

    @staticmethod
    def searched_entry(name):
        if name.startswith("umkp-"):
            return instantiate("umkp", UMKP_BINDINGS[name[len("umkp-"):]])
        return get_entry(name)

    @pytest.mark.parametrize("name", ["kp", "nv", "vorticity", "shear",
                                      *(f"umkp-{case}" for case in UMKP_BINDINGS)])
    def test_equal_to_the_restricted_curl(self, name, monkeypatch):
        entry = self.searched_entry(name)
        seen = {"columns": 0, "hits": 0}
        solve = conservation.solve_ansatz

        def checked(columns, images, targets):
            images = list(images)
            assert len(images) == len(columns)
            npots = 1 if pde.dim == 2 else 3
            for (pot, mono), image in zip(columns, images):
                m = JetExpr(((mono, 1),))
                theta = [m if i == pot else JetExpr.zero() for i in range(npots)]
                want = tuple(substitute_on_solutions(c, pde) for c in curl(theta, pde.dim))
                assert tuple(JetExpr.from_pairs(part) for part in image) == want, (pot, mono)
                seen["columns"] += 1
                seen["hits"] += substitute_on_solutions(m, pde) != m
            return solve(columns, images, targets)

        monkeypatch.setattr(conservation, "solve_ansatz", checked)
        for ch, gamma, pde in charge_cases(entry):
            if isinstance(ch.flux.nontrivial_up_to_order, int):
                assert curl_witness_on_solutions(
                    gamma, pde, ch.flux.nontrivial_up_to_order) is None
        assert seen["columns"] > 0
        assert (seen["hits"] > 0) == (name in self.WITH_HIT_COLUMNS)


def curl_atoms(entry, normal: bool) -> list:
    """Coordinates, u-jets of spatial order <= 2 with and without one t, and
    shear's phi, phi_y, phi_z; `normal` drops the consequences of the
    leading jet."""
    space = "xyz"[:entry.dim]
    pairs = [a + b for i, a in enumerate(space) for b in space[i:]]
    jets = [f"u_{t}{k}" for t in ("", "t") for k in (*space, *pairs)] + ["u", "u_t"]
    out = [*jets, *space, "t"] + (["phi", "phi_y", "phi_z"] if entry.name == "shear" else [])
    if normal:
        out = [a for a in out if substitute_on_solutions(expr(entry, a), entry.pde)
               == expr(entry, a)]
    return out


def random_curls(entry, seed: int, count: int, normal: bool) -> list:
    """`count` seeded random curls on solutions: curl(theta) of a polynomial
    potential theta, plus in each component a multiple of a derivative of
    G, which vanishes on solutions."""
    rng = random.Random(f"{entry.name}-{seed}")
    atoms = curl_atoms(entry, normal)
    npots = 1 if entry.dim == 2 else 3

    def poly(terms):
        return expr(entry, " + ".join(
            f"{rng.choice((1, 2, -3, '1/2'))}*" + "*".join(rng.sample(atoms, rng.randint(1, 3)))
            for _ in range(terms)))

    out = []
    for _ in range(count):
        theta = [poly(rng.randint(1, 3)) for _ in range(npots)]
        out.append(tuple(c + poly(1) * total_derivative(entry.pde.G, rng.randint(0, entry.dim))
                         for c in curl(theta, entry.dim)))
    return out


class TestNotACurl:
    """The Euler-operator proof that Gamma is not a curl on solutions."""

    CURL_ENTRIES = ["kp", "umkp", "vorticity", "shear", "nv"]

    @pytest.mark.parametrize("name", CURL_ENTRIES)
    def test_genuine_curls_never_fire(self, name):
        entry = get_entry(name)
        for gamma in random_curls(entry, 1, 60, normal=False):
            assert not not_a_curl_on_solutions(gamma, entry.pde), gamma

    @pytest.mark.parametrize("name", CURL_ENTRIES)
    def test_normal_curls_stay_trivial(self, name):
        # potentials free of leading-jet consequences are in the search's reach
        entry = get_entry(name)
        for gamma in random_curls(entry, 2, 4 if name == "shear" else 12, normal=True):
            assert not not_a_curl_on_solutions(gamma, entry.pde), gamma
            assert nontriviality_certificate(gamma, entry.pde) == "trivial", gamma

    # NV's leading jet u_txy differentiates along both spatial axes
    @pytest.mark.parametrize("name, proven", [
        ("kp", True), ("umkp", True), ("vorticity", True), ("shear", True), ("nv", False),
        *((f"umkp-{case}", True) for case in UMKP_BINDINGS)])
    def test_decides_the_searched_charges(self, name, proven):
        searched = [(ch, gamma, pde) for ch, gamma, pde
                    in charge_cases(TestColumnImages.searched_entry(name))
                    if isinstance(ch.flux.nontrivial_up_to_order, int)]
        assert searched
        for ch, gamma, pde in searched:
            assert not_a_curl_on_solutions(gamma, pde) == proven, ch.id

    @pytest.mark.parametrize("name, charge_id, solves",
                             [("kp", "charge-3", False), ("umkp", "charge-4", False),
                              ("nv", "charge-2", True)])
    def test_proof_skips_the_solve(self, name, charge_id, solves, monkeypatch):
        (ch, gamma, pde), = [c for c in charge_cases(get_entry(name)) if c[0].id == charge_id]
        calls = []
        solve = conservation.solve_ansatz
        monkeypatch.setattr(conservation, "solve_ansatz",
                            lambda *args: calls.append(args) or solve(*args))
        cert = nontriviality_certificate(gamma, dataclasses.replace(pde))
        assert bool(calls) == solves
        assert cert == ch.flux.nontrivial_up_to_order

