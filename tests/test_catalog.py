"""Catalog self-verification, typo repairs, and parameter instantiation."""

import dataclasses
from fractions import Fraction
from pathlib import Path

import pytest
import yaml

from topocharge import catalog as cat
from topocharge import cli, conservation
from topocharge.catalog import (
    CatalogCorrupt,
    ConstraintViolation,
    _build_entry,
    _read_yaml,
    get_entry,
    instantiate,
    load_catalog,
)
from topocharge.conservation import NotAMultiplier, current_divergence, verify_current
from topocharge.jetexpr import JetExpr
from topocharge.parsing import parse_expr
from topocharge.pde import substitute_on_solutions, verified
from topocharge.potential import build_potential_system


REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference"


@pytest.fixture(scope="module")
def entries():
    return {e.name: e for e in load_catalog()}


class TestLoad:
    def test_six_entries(self, entries):
        assert sorted(entries) == [
            "kdv_lagrangian", "kp", "nv", "shear", "umkp", "vorticity",
        ]

    def test_kp_inventory(self, entries):
        kp = entries["kp"]
        assert len(kp.multipliers) == 4
        assert len(kp.currents) == 4
        assert len(kp.charges) == 4
        assert all(build_potential_system(ch.flux).dim == 2 for ch in kp.charges)

    def test_kdv_inventory(self, entries):
        kdv = entries["kdv_lagrangian"]
        assert [m.id for m in kdv.multipliers] == ["multiplier-f"]
        assert len(kdv.currents) == 1

    def test_alias(self):
        assert get_entry("kdv").name == "kdv_lagrangian"

    def test_every_current_verifies(self, entries):
        for entry in entries.values():
            for c in entry.currents:
                pde = entry.pde_for_case(c.case)
                assert verify_current(pde, c.T, c.Phi).is_zero(), (entry.name, c.id)

    def test_pairing_exactness(self, entries):
        for entry in entries.values():
            for c in entry.currents:
                pde = entry.pde_for_case(c.case)
                Q = entry.multiplier(c.multiplier_id).Q
                exact = current_divergence(pde, c.T, c.Phi) - c.pairing * Q * pde.G
                if c.pairing_exact:
                    assert exact.is_zero(), (entry.name, c.id)
                else:
                    assert substitute_on_solutions(exact, pde).is_zero()

    def test_umkp_fluxes_reconstructed(self, entries):
        umkp = entries["umkp"]
        recon = [c.id for c in umkp.currents if c.reconstructed]
        assert recon == ["current-1", "current-2", "current-3", "current-4"]

    def test_charge_certificates(self, entries):
        for entry in entries.values():
            for ch in entry.charges:
                assert ch.flux.certificate not in (None, "trivial"), (
                    entry.name, ch.id,
                )


class TestShow:
    @pytest.mark.parametrize(
        "name", ["kdv_lagrangian", "kp", "umkp", "shear", "nv", "vorticity"])
    def test_matches_golden_file(self, name, capsys):
        assert cli.main(["catalog", "show", name]) == 0
        shown = capsys.readouterr().out.encode("utf-8")
        assert shown == (REFERENCE / f"show_{name}.txt").read_bytes()


class TestRepairs:
    def test_repairs_recorded(self, entries):
        recorded = {
            (name, obj_id)
            for name, entry in entries.items()
            for obj_id, _note in entry.repairs()
        }
        assert ("nv", "current-2") in recorded
        assert ("nv", "current-3") in recorded
        assert ("kp", "charge-3") in recorded
        assert ("umkp", "multiplier-q4") in recorded
        for name, entry in entries.items():
            for obj_id, note in entry.repairs():
                assert note.strip(), (name, obj_id)

    def test_nv_current2_unrepaired_variants_fail(self, entries):
        nv = entries["nv"]
        pde = nv.pde
        # variant A: the printed run without the inserted "+"
        # (the merged term -u_tx*u_xy*alpha*u_xx^2*u_xy)
        bad_x = parse_expr(
            "(-u_tx*u_xy*alpha*u_xx^2*u_xy - beta*u_xy^2*u_yy + u_xyy^2"
            " + 2*u_xx*u_xxxy)*f - x*(u_xx*u_xy + u_xxxy/alpha)*f'",
            2, nv.symbols,
        )
        good = nv.current("current-2")
        residual = verify_current(pde, good.T, (bad_x, good.Phi[1]))
        assert not residual.is_zero()
        # variant B: u_xxx/alpha kept in the printed f' x-flux slot
        bad_x2 = good.Phi[0] + parse_expr("u_xxx/alpha*f'", 2, nv.symbols)
        bad_y2 = good.Phi[1] - parse_expr("u_xxx/alpha*f'", 2, nv.symbols)
        residual = verify_current(pde, good.T, (bad_x2, bad_y2))
        assert not residual.is_zero()

    def test_umkp_q4_printed_form_fails(self, entries):
        from topocharge.conservation import NotAMultiplier, verify_multiplier

        umkp = entries["umkp"]
        pde = umkp.pde_for_case("integrable")
        printed = parse_expr(
            "(2/3*u_t + 4/3*alpha*u_x*u_y - 8/9*u_x^3 + 8/3*u_xxx)*f"
            " - 2/3*alpha*x*u_x*f' + (1/3*y^2 - 1/3*alpha*x*y)*f'' + 1/18*y^3*f'''",
            2, umkp.symbols,
        )
        from topocharge.catalog import _bind

        printed = _bind(printed, umkp.cases["integrable"])
        with pytest.raises(NotAMultiplier):
            verify_multiplier(pde, printed)


class TestCorruption:
    def test_broken_current_raises(self):
        doc = _read_yaml("kdv_lagrangian.yaml")
        doc["currents"][0]["Phi"] = ["(u_t + 1/2*u_x^2 - u_xxx)*f"]
        with pytest.raises(CatalogCorrupt) as err:
            _build_entry(doc)
        assert err.value.object_id == "current-1"

    def test_broken_multiplier_raises(self):
        doc = _read_yaml("kdv_lagrangian.yaml")
        doc["multipliers"][0]["Q"] = "u*f"
        with pytest.raises(CatalogCorrupt):
            _build_entry(doc)

    def test_wrong_expected_r_raises(self):
        doc = _read_yaml("kp.yaml")
        for ident in doc["identities"]:
            if ident["id"] == "id-1":
                ident["R"] = "sigma*y^2*G"
        with pytest.raises(CatalogCorrupt) as err:
            _build_entry(doc)
        assert err.value.object_id == "id-1"


class TestInstantiate:
    def test_kp_sigma(self):
        for sigma in ("1", "-1"):
            entry = instantiate("kp", {"sigma": sigma})
            assert len(entry.currents) == 4

    def test_kp_sigma_violation(self):
        with pytest.raises(ConstraintViolation):
            instantiate("kp", {"sigma": "2"})

    def test_unknown_param(self):
        with pytest.raises(ConstraintViolation):
            instantiate("kp", {"gamma": "1"})

    def test_umkp_degenerate_still_verifies(self):
        entry = instantiate("umkp", {"alpha": "0", "beta": "0", "sigma": "1"})
        assert {m.id for m in entry.multipliers} == {
            "multiplier-f", "multiplier-yf", "multiplier-q1",
        }

    def test_umkp_gardner_case(self):
        entry = instantiate("umkp", {"alpha": "sqrt(2/3)", "beta": "2*alpha", "sigma": "1"})
        assert "multiplier-q2" in {m.id for m in entry.multipliers}
        assert "multiplier-q3" not in {m.id for m in entry.multipliers}

    def test_umkp_integrable_case(self):
        entry = instantiate("umkp", {"alpha": "sqrt(2)", "beta": "0", "sigma": "1"})
        ids = {m.id for m in entry.multipliers}
        assert {"multiplier-q3", "multiplier-q4"} <= ids

    def test_vorticity_inviscid_gates_xf_yf(self):
        inviscid = instantiate("vorticity", {"mu": "0"})
        assert {m.id for m in inviscid.multipliers} == {
            "multiplier-f", "multiplier-xf", "multiplier-yf",
        }
        viscous = instantiate("vorticity", {"mu": "1/100"})
        assert {m.id for m in viscous.multipliers} == {"multiplier-f"}


UMKP_CASE_BINDINGS = {
    "integrable": {"alpha": "sqrt(2)", "beta": "0", "sigma": "1"},
    "gardner": {"alpha": "sqrt(2/3)", "beta": "2*alpha", "sigma": "1"},
}


class TestSharedCaseSpecs:
    @pytest.mark.parametrize("case", sorted(UMKP_CASE_BINDINGS))
    def test_case_binding_shares_the_catalog_spec(self, case):
        umkp = get_entry("umkp")
        inst = instantiate("umkp", UMKP_CASE_BINDINGS[case])
        assert inst.case_pdes[case] is umkp.case_pdes[case]
        assert inst.case_pdes["generic"] is inst.case_pdes[case]

    def test_unmatched_binding_shares_nothing(self):
        umkp = get_entry("umkp")
        inst = instantiate("umkp", {"alpha": "1/2", "beta": "-1", "sigma": "1"})
        assert not any(a is b for a in inst.case_pdes.values()
                       for b in umkp.case_pdes.values())

    def test_cleared_cache_rebuilds_cold(self, monkeypatch):
        old = load_catalog()
        calls = []
        search = conservation.curl_witness_on_solutions
        monkeypatch.setattr(conservation, "curl_witness_on_solutions",
                            lambda *args: calls.append(args) or search(*args))
        saved = dict(cat._CACHE)
        cat._CACHE.clear()
        try:
            new = load_catalog()
        finally:
            cat._CACHE.clear()
            cat._CACHE.update(saved)
        old_specs = [s for e in old for s in e.case_pdes.values()]
        assert not any(s is o for e in new for s in e.case_pdes.values()
                       for o in old_specs)
        assert len(calls) > 0


def _edit(doc: dict, group: str, obj_id: str, **changes) -> None:
    (obj,) = [o for o in doc[group] if o["id"] == obj_id]
    obj.update(changes)


class TestVerifiedMemo:
    """One memo per PdeSpec holds the results of the checks that passed on
    it, keyed by every input of the check: a binding that is a case's own
    reuses what the load verified, new inputs run, and a failure is never
    stored."""

    @staticmethod
    def record(monkeypatch) -> dict:
        """The inputs of each multiplier, split-relation, reconstruction and
        identity check that runs; a reconstruction by its result."""
        calls = {"multiplier": [], "family": [], "reconstruct": [], "identity": []}

        def spy(name, kind, pick, owner=cat):
            real = getattr(owner, name)

            def counted(*args):
                out = real(*args)
                calls[kind].append(pick(args, out))
                return out

            monkeypatch.setattr(owner, name, counted)

        spy("verify_multiplier", "multiplier", lambda args, out: args[1])
        # the load checks split relations through conservation.check_family
        spy("verify_family", "family", lambda args, out: args[1], conservation)
        spy("_reconstruct_fluxes", "reconstruct", lambda args, out: out)
        spy("divergence_identity", "identity", lambda args, out: args[1:])
        return calls

    @staticmethod
    def inputs(entry, case=None) -> dict:
        """The same inputs for the entry's objects, of one case or of all."""
        currents = [c for c in entry.currents if case in (None, c.case)]
        return {
            "multiplier": [m.Q for m in entry.multipliers if case in (None, m.case)],
            "family": [c.family for c in currents],
            "reconstruct": [(c.family.T_coeffs, c.family.Flux_coeffs)
                            for c in currents if c.reconstructed],
            "identity": [(c.family, i.index) for i in entry.identities
                         for c in currents if c.id == i.current_id],
        }

    def test_case_binding_reuses_the_load(self, monkeypatch):
        load_catalog()
        calls = self.record(monkeypatch)
        inst = instantiate("umkp", UMKP_CASE_BINDINGS["integrable"])
        own = self.inputs(inst, "integrable")
        assert all(own.values())
        for kind, wanted in own.items():
            assert not [x for x in wanted if x in calls[kind]], kind

    def test_new_binding_runs_every_check(self, monkeypatch):
        load_catalog()
        calls = self.record(monkeypatch)
        inst = instantiate("umkp", {"alpha": "3/2", "beta": "alpha", "sigma": "-1"})
        assert "multiplier-yf" in {m.id for m in inst.multipliers}
        for kind, wanted in self.inputs(inst).items():
            assert wanted and all(x in calls[kind] for x in wanted), kind

    @pytest.mark.parametrize("name, group, obj_id, changes", [
        ("umkp", "multipliers", "multiplier-q3", {"Q": "(x - alpha*y*u_x)*f - y^2*f'"}),
        ("umkp", "identities", "id-3", {"R": "y^2*G"}),
        ("kp", "charges", "charge-3", {"printed_gamma": [
            "1/2*u^2 + u_xx - x*(u_t + u*u_x + u_xxx) "
            "- 1/2*sigma*y^2*(u_tt + u_t*u_x + u*u_tx + u_txxx)",
            "y*u_t - sigma*x*u_y - 1/3*y^2*u_ty"]}),
    ], ids=["Q", "R", "printed_gamma"])
    def test_corrupted_document_raises_at_the_object(self, name, group, obj_id, changes):
        entry = get_entry(name)
        doc = _read_yaml(f"{name}.yaml")
        rebuilt = _build_entry(doc)
        assert all(rebuilt.case_pdes[c] is s for c, s in entry.case_pdes.items())
        sizes = [len(s._verified) for s in entry.case_pdes.values()]
        _edit(doc, group, obj_id, **changes)
        for _ in range(2):  # nothing was stored, so the second build fails alike
            with pytest.raises(CatalogCorrupt) as err:
                _build_entry(doc)
            assert err.value.object_id == obj_id
        assert [len(s._verified) for s in entry.case_pdes.values()] == sizes

    def test_failed_check_is_not_stored(self):
        pde = dataclasses.replace(get_entry("kp").pde)
        assert not pde._verified
        runs = []

        def failing():
            runs.append(1)
            raise NotAMultiplier("residual", JetExpr.zero())

        key = ("multiplier", JetExpr.jet("u"))
        for _ in range(2):
            with pytest.raises(NotAMultiplier):
                verified(pde, key, failing)
        assert len(runs) == 2 and not pde._verified
        assert verified(pde, key, lambda: None) is None
        assert verified(pde, key, failing) is None and len(runs) == 2


class TestYamlLoaders:
    """libyaml and the pure-Python loader read every shipped document alike."""

    SHIPPED = sorted((Path(__file__).resolve().parents[1] / "manifests").glob("*.yaml"))

    @pytest.mark.parametrize("source", [*cat.ENTRY_FILES, *SHIPPED],
                             ids=lambda s: Path(s).name)
    def test_equal_documents(self, source):
        if not hasattr(yaml, "CSafeLoader"):
            pytest.skip("PyYAML without libyaml")
        if not isinstance(source, Path):
            source = Path(cat.__file__).parent / "catalog_data" / source
        text = source.read_text(encoding="utf-8")
        doc = yaml.load(text, Loader=yaml.CSafeLoader)
        assert doc == yaml.load(text, Loader=yaml.SafeLoader)
        assert cat.load_yaml(text) == doc and doc

    def test_refused_text_quotes_the_line(self):
        with pytest.raises(yaml.YAMLError, match=r"pde: \[kp"):
            cat.load_yaml("pde: [kp\n")


class TestBindingValues:
    @pytest.mark.parametrize("value", [1.0e-05, 1e+20, 0.01, 2.5])
    def test_yaml_float_is_its_exact_decimal(self, value):
        overlay = cat.exact_params("vorticity", {"mu": value})
        assert cat.numeric_params(overlay) == {"mu": value}
        (mu,) = overlay.values()
        assert mu == parse_expr(str(Fraction(repr(value))), 2)

    @pytest.mark.parametrize("text, value", [("1e-5", Fraction(1, 100000)),
                                             ("1e+20", Fraction(10**20)),
                                             ("-25E-4", Fraction(-1, 400))],
                             ids=["1e-5", "1e+20", "-25E-4"])
    def test_exponent_text_binds_exactly(self, text, value):
        # YAML 1.1 reads a float without a decimal point (mu: 1e-5) as text
        assert yaml.safe_load(f"mu: {text}") == {"mu": text}
        overlay = cat.exact_params("vorticity", {"mu": text})
        assert cat.numeric_params(overlay) == {"mu": float(value)}
        (mu,) = overlay.values()
        assert mu == parse_expr(str(value), 2)

    @pytest.mark.parametrize("text", ["sqrt(2)*sqrt(3)", "sqrt(2)/2", "sqrt(2"])
    def test_outside_the_grammar_names_the_accepted_forms(self, text):
        with pytest.raises(ConstraintViolation) as exc:
            cat.exact_params("vorticity", {"mu": text})
        assert "'mu'" in str(exc.value) and cat.BINDING_FORMS in str(exc.value)
