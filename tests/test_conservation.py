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


def feed_pools(gamma, pde, bound, build=build_pools):
    """The ansatz pools of each restricted flux component along each other
    axis at `bound`, without the cap: catalog targets for the harvest
    parity check."""
    out = {}
    for idx, comp in enumerate(substitute_on_solutions(c, pde) for c in gamma):
        for axis in range(1, len(gamma) + 1):
            if axis != idx + 1 and not comp.is_zero():
                pools = build(comp, [axis], bound, {axis: comp.var_degree(axis) + 1}, 2, 10**6)
                out[idx, axis] = set(pools[axis])
    return out


UMKP_BINDINGS = {
    "integrable": {"alpha": "sqrt(2)", "beta": "0", "sigma": "1"},
    "gardner": {"alpha": "sqrt(2/3)", "beta": "2*alpha", "sigma": "1"},
    "equal-transverse": {"alpha": "1/2", "beta": "alpha", "sigma": "-1"},
    "generic": {"alpha": "1/2", "beta": "2/3", "sigma": "1"},
}


def searched_entry(name):
    """A catalog entry, or `umkp-<case>` for umKP bound at that case."""
    if name.startswith("umkp-"):
        return instantiate("umkp", UMKP_BINDINGS[name[len("umkp-"):]])
    return get_entry(name)


class TestCertificate:
    def test_curl_on_solutions_is_trivial(self, kp):
        # Gamma = curl(x*u_t); its y-component only reads as a curl after
        # u_tx is replaced on solutions
        theta = expr(kp, "x*u_t")
        gamma = (total_derivative(theta, 2), -total_derivative(theta, 1))
        assert nontriviality_certificate(gamma, kp.pde) == "trivial"

    def test_curl_of_a_leading_jet_is_trivial(self, kp):
        # Gamma = curl(u_tx) = (u_txy, -u_txx); on solutions u_tx is the rhs,
        # which holds u_xxxx, above Gamma's own jet order
        theta = expr(kp, "u_tx")
        gamma = (total_derivative(theta, 2), -total_derivative(theta, 1))
        assert nontriviality_certificate(gamma, dataclasses.replace(kp.pde)) == "trivial"

    @pytest.mark.parametrize("name", ["kp", "umkp", "vorticity", "shear", "nv"])
    def test_random_curls_are_trivial(self, name):
        # their potentials hold consequences of the leading jet
        entry = get_entry(name)
        for gamma in random_curls(entry, 1, 20, normal=False):
            assert nontriviality_certificate(gamma, entry.pde) == "trivial", gamma

    def test_a_curl_added_to_a_charge_stays_proven(self):
        sums = 0
        for entry in load_catalog():
            if entry.dim == 1:
                continue
            for ch, gamma, pde in charge_cases(entry):
                for curl_ in random_curls(entry, 3, 2, normal=False, pde=pde):
                    total = tuple(a + b for a, b in zip(gamma, curl_))
                    assert isinstance(nontriviality_certificate(total, pde), int), ch.id
                    sums += 1
        assert sums == 34

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
        # one decision per (spec, Gamma); a copy of the spec shares no memo
        (_, gamma, pde), = [c for c in charge_cases(get_entry("kp")) if c[0].id == "charge-3"]
        pde = dataclasses.replace(pde)
        calls = []
        decide = conservation.curl_witness_on_solutions
        monkeypatch.setattr(conservation, "curl_witness_on_solutions",
                            lambda *args: calls.append(args) or decide(*args))
        cert = nontriviality_certificate(gamma, pde)
        assert isinstance(cert, int) and len(calls) == 1
        assert nontriviality_certificate(gamma, pde) == cert and len(calls) == 1
        assert nontriviality_certificate(gamma, dataclasses.replace(pde)) == cert
        assert len(calls) == 2

    def test_frame_is_built_once_and_only_without_an_axis(self, monkeypatch):
        builds = []
        frame = conservation.framed_spec
        monkeypatch.setattr(conservation, "framed_spec",
                            lambda pde: builds.append(pde) or frame(pde))
        for name in ("kp", "vorticity", "umkp"):
            for _, gamma, pde in charge_cases(get_entry(name)):
                nontriviality_certificate(gamma, dataclasses.replace(pde))
        assert builds == []
        nv = dataclasses.replace(get_entry("nv").pde)
        certs = [nontriviality_certificate(gamma, nv) for _, gamma, _ in
                 charge_cases(get_entry("nv"))]
        assert certs == [4, 5, 5] and builds == [nv]

    @pytest.mark.parametrize("text", ["x*y*u_tx", "y^2*u_xy*u_t + x", "x^2*u_xxy - u_ty^2*u_x"])
    def test_frame_keeps_the_curl_form(self, text):
        # with D_x = D_xi + D_eta and D_y = D_eta, curl(theta) = (theta_y,
        # -theta_x) maps to (theta_eta, -theta_xi - theta_eta), so Gamma_x +
        # Gamma_y maps to -D_xi of the framed potential
        nv = get_entry("nv")
        theta = expr(nv, text)
        gamma = curl([theta], 2)
        assert (conservation.to_frame(gamma[0] + gamma[1])
                == -total_derivative(conservation.to_frame(theta), X))
        # x, y = xi, eta - xi, printed on the x and y slots
        assert conservation.to_frame(expr(nv, "x*y*u_xy")) == expr(nv, "(x*y - x^2)*(u_xy + u_yy)")

    def test_frame_solves_for_the_pure_eta_jet(self):
        framed = conservation.framed_spec(get_entry("nv").pde)
        assert framed.leading == ("u", (1, 0, 2, 0))
        assert framed.G == conservation.to_frame(get_entry("nv").pde.G)
        assert conservation.framed_spec(get_entry("shear").pde) is None


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
        for ch, gamma, pde in charge_cases(searched_entry(name)):
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
        args = (target, [2], 6, {2: target.var_degree(2) + 1}, 2)
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
    """A certificate restricts the component it decides on once, and a spec
    checks a family's split relations once per family."""

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

        # Gamma_x, or for NV the image of Gamma_x + Gamma_y in the frame
        # xi = x, eta = x + y, which is restricted in x, y first
        decided = gamma[0]
        if name == "nv":
            decided = conservation.to_frame(substitute_on_solutions(gamma[0] + gamma[1], pde))
        monkeypatch.setattr(pde_module, "_restrict", counted)
        assert isinstance(nontriviality_certificate(gamma, pde), int)
        assert sum(e == decided for e in changed) == 1
        assert len(set(changed)) == len(changed)
        assert all(sum(e == c for e in changed) <= 1 for c in gamma)

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
        entry = searched_entry(name)
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


def alternating_sum(vectors) -> tuple:
    """sum_j (-D_t)^j v_j componentwise: the closed form the reduction's
    recursion must reproduce."""
    total = None
    for j, vec in enumerate(vectors):
        for _ in range(j):
            vec = tuple(-total_derivative(c, T) for c in vec)
        total = vec if total is None else tuple(a + b for a, b in zip(total, vec))
    return total


def reference_potentials(family) -> list:
    """Psi_i = -sum_{j=0}^{N-i} (-D_t)^j Phi_{i+j+1}."""
    return [tuple(-c for c in alternating_sum(family.Flux_coeffs[i + 1:]))
            for i in range(family.N + 1)]


class TestReductionReference:
    """The recursion Psi_{i-1} = -Phi_i - D_t Psi_i from Psi_N = -Phi_{N+1},
    and Gamma = Phi_0 + D_t Psi_0, equal the closed-form alternating sums."""

    @pytest.mark.parametrize("name", [
        "kdv_lagrangian", "kp", "umkp", "shear", "nv", "vorticity",
        *(f"umkp-{case}" for case in UMKP_BINDINGS)])
    def test_every_family(self, name):
        entry = searched_entry(name)
        assert entry.currents
        for cur in entry.currents:
            family = cur.family
            assert trivializing_potentials(family) == reference_potentials(family), cur.id
            gamma = reduce_to_spatial_flux(family, entry.pde_for_case(cur.case)).Gamma
            assert gamma == alternating_sum(family.Flux_coeffs), cur.id

    def test_family_deeper_than_the_catalog(self, kp):
        # N = 3; the potentials need no relation between the coefficients
        family = conservation.CurrentFamily(
            2, ("f", (T,), ()),
            tuple(expr(kp, s) for s in ("u", "x*u_x", "y^2*u_y", "t*u^2")),
            tuple((expr(kp, a), expr(kp, b)) for a, b in (
                ("u_x", "u_y"), ("x*u_t", "u*u_y"), ("t^2*u_x^2", "y*u_ty"),
                ("u_xx", "t*x*u"), ("t^3*u_y", "x^2*u_t"))))
        assert family.N == 3
        psi = trivializing_potentials(family)
        assert psi == reference_potentials(family)
        assert psi[3] == tuple(-c for c in family.Flux_coeffs[4])
        assert all(not c.is_zero() for p in psi for c in p)


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


def random_curls(entry, seed: int, count: int, normal: bool, pde=None) -> list:
    """`count` seeded random curls on solutions of `pde` (default: the
    entry's): curl(theta) of a polynomial potential theta, plus in each
    component a multiple of a derivative of G, which vanishes on
    solutions."""
    rng = random.Random(f"{entry.name}-{seed}")
    atoms = curl_atoms(entry, normal)
    g = (pde or entry.pde).G
    npots = 1 if entry.dim == 2 else 3

    def poly(terms):
        return expr(entry, " + ".join(
            f"{rng.choice((1, 2, -3, '1/2'))}*" + "*".join(rng.sample(atoms, rng.randint(1, 3)))
            for _ in range(terms)))

    out = []
    for _ in range(count):
        theta = [poly(rng.randint(1, 3)) for _ in range(npots)]
        out.append(tuple(c + poly(1) * total_derivative(g, rng.randint(0, entry.dim))
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
        # potentials free of leading-jet consequences
        entry = get_entry(name)
        for gamma in random_curls(entry, 2, 4 if name == "shear" else 12, normal=True):
            assert not not_a_curl_on_solutions(gamma, entry.pde), gamma
            assert nontriviality_certificate(gamma, entry.pde) == "trivial", gamma

    # NV's leading jet u_txy differentiates along both spatial axes; its
    # charges are proven in the frame xi = x, eta = x + y
    @pytest.mark.parametrize("name, proven", [
        ("kp", True), ("umkp", True), ("vorticity", True), ("shear", True), ("nv", True),
        *((f"umkp-{case}", True) for case in UMKP_BINDINGS)])
    def test_decides_the_searched_charges(self, name, proven):
        searched = [(ch, gamma, pde) for ch, gamma, pde
                    in charge_cases(searched_entry(name))
                    if isinstance(ch.flux.nontrivial_up_to_order, int)]
        assert searched
        for ch, gamma, pde in searched:
            assert not_a_curl_on_solutions(gamma, pde) == proven, ch.id
