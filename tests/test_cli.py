"""Command-line contract: subcommands, exit codes, report determinism."""

import copy
import dataclasses
import importlib.util
import math
from pathlib import Path

import pytest
import yaml

from topocharge import catalog as cat
from topocharge import evolution, manifest, quadrature
from topocharge.cli import main
from topocharge.jetexpr import JetExpr

TWO_PI = 2.0 * math.pi


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


UMKP_INTEGRABLE = ["alpha=sqrt(2)", "beta=0", "sigma=1"]


class TestVerify:
    def test_catalog_multiplier(self, capsys):
        code, out, _ = run(capsys, "verify", "kdv_lagrangian", "multiplier-f")
        assert code == 0 and "verified" in out

    def test_catalog_current(self, capsys):
        code, out, _ = run(capsys, "verify", "kp", "current-1")
        assert code == 0

    def test_adhoc_current_residual(self, capsys):
        code, out, _ = run(capsys, "verify", "kp", "(u, 0, 0)")
        assert code == 1 and "u_t" in out

    def test_adhoc_multiplier(self, capsys):
        code, out, _ = run(capsys, "verify", "kp", "y*f")
        assert code == 0

    def test_unknown_entry(self, capsys):
        code, _, err = run(capsys, "verify", "heat", "multiplier-f")
        assert code == 2

    def test_flag_style(self, capsys):
        code, _, _ = run(capsys, "verify", "--pde", "kp", "--object", "current-2")
        assert code == 0

    def test_params_without_value_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "kp", "current-1", "--params", "sigma")
        assert code == 2 and "name=value" in err

    @pytest.mark.parametrize("pde, text, params", [
        ("umkp", "alpha*u_x*f + y*f'", UMKP_INTEGRABLE),
        ("umkp", "(x - alpha*y*u_x)*f - 1/2*y^2*f'", UMKP_INTEGRABLE),
        ("kp", "(u_x*f, (u*u_x + u_xxx)*f - u*f', sigma*u_y*f)", ["sigma=-1"]),
        ("umkp", "@q1.txt", UMKP_INTEGRABLE),
    ], ids=["q1", "q3", "kp_current", "q1_file"])
    def test_adhoc_text_is_read_under_the_params(self, pde, text, params, tmp_path,
                                                 monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "q1.txt").write_text("alpha*u_x*f + y*f'\n")
        code, out, _ = run(capsys, "verify", pde, text, "--params", *params)
        assert code == 0 and "ad-hoc" in out and "verified" in out


class TestReduce:
    def test_kdv_already_flux_form(self, capsys):
        code, out, _ = run(capsys, "reduce", "kdv_lagrangian", "current-1")
        assert code == 0
        assert "u_x^2/2 + u_xxx + u_t" in out

    def test_kp_current3(self, capsys):
        code, out, _ = run(capsys, "reduce", "kp", "current-3")
        assert code == 0
        assert "R(G) = y^2*G*sigma/2" in out


class TestPotential:
    def test_kp_charge1(self, capsys):
        code, out, _ = run(capsys, "potential", "kp", "charge-1")
        assert code == 0
        assert "= w_y" in out and "= -w_x" in out
        assert "chi(t)" in out

    def test_vorticity_charge1(self, capsys):
        code, out, _ = run(capsys, "potential", "vorticity", "charge-1")
        assert code == 0

    def test_kdv_has_no_curls(self, capsys):
        code, _, err = run(capsys, "potential", "kdv", "charge-1")
        assert code == 2
        assert "dim" in err


class TestCatalogCmd:
    def test_list(self, capsys):
        code, out, _ = run(capsys, "catalog", "list")
        assert code == 0 and "vorticity" in out

    def test_show(self, capsys):
        code, out, _ = run(capsys, "catalog", "show", "kdv_lagrangian")
        assert code == 0 and "multiplier-f" in out

    @pytest.mark.parametrize("params, name", [
        (["alpha=x", "beta=0", "sigma=1"], "alpha"),
        (["alpha=u_x", "beta=0", "sigma=1"], "alpha"),
        (["alpha=1", "beta=f", "sigma=1"], "beta"),
        (["beta=2*alpha", "alpha=sqrt(2)", "sigma=1"], "beta"),
        (["alpha=sqrt(-2)", "beta=0", "sigma=1"], "alpha"),
    ], ids=["coordinate", "jet", "function", "bound_after", "negative_root"])
    def test_binding_that_is_not_a_constant(self, params, name, capsys):
        code, out, err = run(capsys, "catalog", "show", "umkp", "--params", *params)
        assert code == 2 and err.startswith("error:") and f"parameter {name!r}" in err
        assert out == ""

    def test_entry_file_takes_params(self, tmp_path, capsys):
        entry = {"name": "advect", "title": "advection at speed c", "dim": 1,
                 "params": {"c": {}}, "G": "u_t + c*u_x", "leading": "u_t", "rhs": "-c*u_x"}
        path = tmp_path / "advect.yaml"
        path.write_text(yaml.safe_dump(entry))
        code, out, _ = run(capsys, "catalog", "show", str(path), "--params", "c=2")
        assert code == 0 and "G: 2*u_x + u_t" in out


class TestInputFiles:
    """A missing or unparsable input file is a usage error, not a traceback."""

    @pytest.mark.parametrize("argv, needle", [
        (["simulate", "--manifest", "{tmp}/nothere.yaml"], "nothere.yaml"),
        (["simulate", "--manifest", "{tmp}/pde_missing.yaml"], "nothere.yaml"),
        (["catalog", "show", "{tmp}/nothere.yaml"], "nothere.yaml"),
        (["verify", "kp", "@{tmp}/nothere.txt"], "nothere.txt"),
        (["simulate", "--manifest", "{tmp}/bad_yaml.yaml"], "pde: [kp"),
    ], ids=["missing_manifest", "missing_pde_file", "missing_entry_file",
            "missing_object_file", "invalid_yaml"])
    def test_exits_2(self, argv, needle, tmp_path, capsys):
        (tmp_path / "pde_missing.yaml").write_text(f"pde: {tmp_path / 'nothere.yaml'}\n")
        (tmp_path / "bad_yaml.yaml").write_text("pde: [kp\n")
        code, out, err = run(capsys, *(arg.format(tmp=tmp_path) for arg in argv))
        assert code == 2 and err.startswith("error:") and needle in err
        assert out == ""


CATALOG_DATA = Path(cat.__file__).parent / "catalog_data"


def edited_entry(tmp_path, stem: str, old: str, new: str) -> Path:
    """A copy of a shipped entry file, named as it, with one passage edited."""
    text = (CATALOG_DATA / f"{stem}.yaml").read_text(encoding="utf-8")
    assert text.count(old) == 1, old
    path = tmp_path / f"{stem}.yaml"
    path.write_text(text.replace(old, new), encoding="utf-8")
    return path


class TestEntryFiles:
    """An entry file against the catalog format: a misspelled key, a wrong
    type or an id that names nothing exits 2 on one line naming its key
    path, before any object is verified."""

    @pytest.mark.parametrize("stem, old, new, message", [
        ("kp", "\ncharges:\n", "\nchargez:\n", "kp: unknown catalog entry key(s) chargez"),
        ("kp", "\nidentities:\n", "\nidentitys:\n",
         "kp: unknown catalog entry key(s) identitys"),
        ("kp", "    printed_gamma:\n      - \"1/2*u^2", "    printed_gama:\n      - \"1/2*u^2",
         "kp: unknown catalog entry key(s) charges[2].printed_gama"),
        ("kp", "charge-1\n    current: current-1\n", "charge-1\n    current: current-99\n",
         "kp: charges[0].current names no current 'current-99'"),
        ("kp", "\ndim: 2\n", "\ndim: two\n", "kp: dim must be a number, got 'two'"),
        ("kp", "\n  k: x\n", "\n  k: w\n", "kp: div_form.k must be t, x, y or z, got 'w'"),
        ("kp", "current: current-3\n    index: 0\n", "current: current-3\n    index: zero\n",
         "kp: identities[0].index must be a number, got 'zero'"),
        ("shear", "    rule: biharmonic\n", "    rule: biharmonik\n",
         "shear: arbfuns.phi.rule must be biharmonic, got 'biharmonik'"),
        ("umkp", "1/2*y^2*f'\"\n    case: integrable\n", "1/2*y^2*f'\"\n    case: integrabel\n",
         "umkp: multipliers[4].case names no case 'integrabel'"),
    ], ids=["chargez", "identitys", "printed_gama", "dangling_current", "dim_two", "k_w",
            "index_zero", "rule_biharmonik", "case_integrabel"])
    def test_exits_2_naming_the_key_path(self, stem, old, new, message, tmp_path, capsys):
        path = edited_entry(tmp_path, stem, old, new)
        code, out, err = run(capsys, "catalog", "show", str(path))
        assert (code, out, err) == (2, "", f"catalog corrupt: {message}\n")

    @pytest.mark.parametrize("text, got", [("", "None"), ("- G\n- rhs\n", "['G', 'rhs']")],
                             ids=["empty", "list"])
    def test_a_document_that_is_not_a_mapping_exits_2(self, text, got, tmp_path, capsys):
        (tmp_path / "entry.yaml").write_text(text, encoding="utf-8")
        message = f"catalog corrupt: entry: a catalog entry must be a mapping, got {got}\n"
        assert run(capsys, "catalog", "show", str(tmp_path / "entry.yaml")) == (2, "", message)
        manifest = write_manifest(tmp_path, {"pde": str(tmp_path / "entry.yaml")})
        assert run(capsys, "simulate", "--manifest", str(manifest)) == (2, "", message)


@pytest.fixture()
def kp_manifest(tmp_path):
    manifest = {
        "pde": "kp",
        "params": {"sigma": "1"},
        "grid": {"resolutions": [32, 32], "periods": [TWO_PI, TWO_PI]},
        "u0": {"modes": [{"a": 0.05, "k": [1, 1]}]},
        "t_end": 0.05,
        "samples": 5,
        "f": "one",
        "constraints": [{"density": "u"}],
        "charges": [{"id": "charge-1", "curve": {"rect": [0.7, 3.9, 1.1, 5.2]}}],
        "checks": [{"type": "mass", "tolerance": 1e-9}],
        "seed": 7,
    }
    path = tmp_path / "kp.yaml"
    path.write_text(yaml.safe_dump(manifest))
    return path


class TestSimulate:
    def test_zero_data_all_zero(self, tmp_path, capsys):
        manifest = {
            "pde": "kdv_lagrangian",
            "grid": {"resolutions": [32], "periods": [TWO_PI]},
            "u0": {},
            "t_end": 0.01,
            "samples": 3,
            "constraints": [{"density": "u"}],
        }
        path = tmp_path / "zero.yaml"
        path.write_text(yaml.safe_dump(manifest))
        code, out, _ = run(capsys, "simulate", "--manifest", str(path),
                           "--out", str(tmp_path / "rep"))
        assert code == 0
        report = (tmp_path / "rep" / "report_00_constraint.txt").read_text()
        assert "satisfied" in report

    def test_kp_run_and_determinism(self, kp_manifest, tmp_path, capsys):
        code, _, _ = run(capsys, "simulate", "--manifest", str(kp_manifest),
                         "--out", str(tmp_path / "r1"))
        assert code == 0
        code, _, _ = run(capsys, "simulate", "--manifest", str(kp_manifest),
                         "--out", str(tmp_path / "r2"))
        assert code == 0
        for p1 in sorted((tmp_path / "r1").iterdir()):
            p2 = tmp_path / "r2" / p1.name
            assert p1.read_bytes() == p2.read_bytes()

    def test_components_evaluated_once_per_sample(self, kp_manifest, tmp_path, capsys,
                                                 monkeypatch):
        # two curves of one charge and a balance check on the first one's
        # rectangle, at the run and at half resolution
        manifest = yaml.safe_load(kp_manifest.read_text())
        manifest["charges"].append({"id": "charge-1", "curve": {"rect": [1.5, 3.1, 2.0, 4.2]}})
        manifest["checks"].append({"type": "balance", "curve": {"rect": [0.7, 3.9, 1.1, 5.2]}})
        calls = []
        evaluate = quadrature.evaluate_on_grid

        def counted(e, grid, *args):
            calls.append((grid, e))
            return evaluate(e, grid, *args)

        monkeypatch.setattr(quadrature, "evaluate_on_grid", counted)
        code, out, _ = run(capsys, "simulate", "--manifest",
                           str(write_manifest(tmp_path, manifest)), "--out", str(tmp_path / "rep"))
        assert code == 0 and out.count("conserved") == 3 and "balance: satisfied" in out
        keys = [(id(grid), e) for grid, e in calls]  # the grids stay alive in calls
        assert len(set(keys)) == len(keys)
        assert not any(e.is_zero() for _, e in calls)
        # per run and sample: two charge components, u and the flux's nonzero
        # components; and the constraint density once
        flux = [c for c in cat.get_entry("kp").pde.div_form.F if not c.is_zero()]
        assert len(calls) == 2 * manifest["samples"] * (2 + 1 + len(flux)) + 1

    @pytest.mark.parametrize("group", ["constraints", "checks"])
    def test_null_tolerance_is_the_default(self, group, kp_manifest, tmp_path, capsys):
        manifest = yaml.safe_load(kp_manifest.read_text())
        manifest[group][0]["tolerance"] = None
        null = write_manifest(tmp_path, manifest, "null.yaml")
        del manifest[group][0]["tolerance"]
        absent = write_manifest(tmp_path, manifest, "absent.yaml")
        for path in (null, absent):
            code, _, _ = run(capsys, "simulate", "--manifest", str(path),
                             "--out", str(tmp_path / path.stem))
            assert code == 0
        reports = [sorted((tmp_path / side).iterdir()) for side in ("null", "absent")]
        assert [p.name for p in reports[0]] == [p.name for p in reports[1]]
        assert [p.read_bytes() for p in reports[0]] == [p.read_bytes() for p in reports[1]]

    @pytest.mark.parametrize("key", ["f"])
    def test_null_key_is_the_default(self, key, kp_manifest, tmp_path, capsys):
        manifest = yaml.safe_load(kp_manifest.read_text())
        manifest[key] = None
        null = write_manifest(tmp_path, manifest, "null.yaml")
        del manifest[key]
        absent = write_manifest(tmp_path, manifest, "absent.yaml")
        for path in (null, absent):
            code, _, _ = run(capsys, "simulate", "--manifest", str(path),
                             "--out", str(tmp_path / path.stem))
            assert code == 0
        reports = [sorted((tmp_path / side).iterdir()) for side in ("null", "absent")]
        assert [p.name for p in reports[0]] == [p.name for p in reports[1]]
        assert [p.read_bytes() for p in reports[0]] == [p.read_bytes() for p in reports[1]]

    def test_binding_in_earlier_params(self, monkeypatch):
        seen = []
        check = quadrature.check_constraint
        monkeypatch.setattr(quadrature, "check_constraint",
                            lambda *args, **kwargs: seen.append(args[3]) or check(*args, **kwargs))
        doc = {
            "pde": "umkp",
            "params": {"alpha": "sqrt(2/3)", "beta": "2*alpha", "sigma": "1"},
            "grid": {"resolutions": [16, 16], "periods": [TWO_PI, TWO_PI]},
            "u0": {"modes": [{"a": 0.05, "k": [1, 1]}]},
            "constraints": [{"density": "u"}],
        }
        reports, code = manifest.run(manifest.plan(doc))
        assert code == 0 and [rep.verdict for rep in reports] == ["satisfied"]
        assert abs(seen[0]["beta"] - 2.0 * math.sqrt(2.0 / 3.0)) <= 1e-15
        assert seen[0]["alpha"] == math.sqrt(2.0 / 3.0) and seen[0]["sigma"] == 1.0

    # YAML reads 1e-5 and 1e+20 (no decimal point) as text, not as floats
    @pytest.mark.parametrize("text, value", [("1.0e-05", 1e-05), ("1.0e+20", 1e20),
                                             ("1e-5", 1e-05), ("1e+20", 1e20)])
    def test_manifest_float_in_exponent_form(self, text, value, tmp_path, capsys,
                                             monkeypatch):
        seen = []
        check = quadrature.check_constraint
        monkeypatch.setattr(quadrature, "check_constraint",
                            lambda *args, **kwargs: seen.append(args[3]) or check(*args, **kwargs))
        path = tmp_path / "vorticity.yaml"
        path.write_text(f"pde: vorticity\nparams: {{mu: {text}}}\n"
                        "grid: {resolutions: [16, 16], periods: [6.283185307179586, "
                        "6.283185307179586]}\nu0: {modes: [{a: 0.05, k: [1, 1]}]}\n"
                        "constraints: [{density: u}]\n")
        code, out, err = run(capsys, "simulate", "--manifest", str(path),
                             "--out", str(tmp_path / "rep"))
        assert (code, err) == (0, "") and "constraint: satisfied" in out
        assert seen == [{"mu": value}]

    def test_params_exponent_text(self, capsys):
        code, out, err = run(capsys, "catalog", "show", "vorticity", "--params", "mu=1e+20")
        assert (code, err) == (0, "") and "vorticity" in out

    @pytest.mark.parametrize("text", ["sqrt(2)*sqrt(3)", "sqrt(2)/2"])
    def test_binding_outside_the_grammar(self, text, capsys):
        code, out, err = run(capsys, "catalog", "show", "vorticity", "--params", f"mu={text}")
        assert code == 2 and out == ""
        assert f"parameter 'mu': {text!r} is not {cat.BINDING_FORMS}" in err

    def test_violating_datum_exits_3(self, tmp_path, capsys):
        manifest = {
            "pde": "kp",
            "params": {"sigma": "1"},
            "grid": {"resolutions": [32, 32], "periods": [TWO_PI, TWO_PI]},
            "u0": {"constant": 0.05, "modes": [{"a": 0.05, "k": [0, 1]}]},
            "t_end": 0.02,
            "samples": 3,
            "constraints": [{"density": "u"}],
        }
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(manifest))
        code, out, _ = run(capsys, "simulate", "--manifest", str(path),
                           "--out", str(tmp_path / "rep"))
        assert code == 3
        assert "violated" in out


def write_manifest(tmp_path, manifest, name="m.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(manifest))
    return path


ROOT = Path(__file__).resolve().parents[1]
SHIPPED_KP = ROOT / "manifests" / "kp_charge.yaml"
RECT = [0.7, 3.9, 1.1, 5.2]
# vorticity's charge-2 belongs to the inviscid case mu = 0
VORTICITY_CHARGE_2 = {
    "pde": "vorticity", "params": {"mu": "1/10"},
    "grid": {"resolutions": [32, 32], "periods": [TWO_PI, TWO_PI]},
    "u0": {"modes": [{"a": 0.05, "k": [1, 1]}]}, "t_end": 0.2, "samples": 5,
    "charges": [{"id": "charge-2", "curve": {"rect": RECT}}],
}


class TestSimulateUsage:
    """Bad manifests exit 2 before any evolution, naming the cause."""

    def simulate(self, capsys, tmp_path, manifest):
        path = write_manifest(tmp_path, manifest)
        return run(capsys, "simulate", "--manifest", str(path), "--out", str(tmp_path / "rep"))

    def test_misspelled_t_end(self, tmp_path, capsys):
        manifest = yaml.safe_load(SHIPPED_KP.read_text())
        manifest["t_edn"] = manifest.pop("t_end")
        code, out, err = self.simulate(capsys, tmp_path, manifest)
        assert code == 2 and "t_edn" in err
        assert out == ""

    def test_checks_without_t_end(self, kp_manifest, tmp_path, capsys):
        manifest = yaml.safe_load(kp_manifest.read_text())
        del manifest["t_end"]
        code, _, err = self.simulate(capsys, tmp_path, manifest)
        assert code == 2 and "t_end" in err

    def test_unknown_check_type(self, kp_manifest, tmp_path, capsys):
        manifest = yaml.safe_load(kp_manifest.read_text())
        manifest["checks"] = [{"type": "mas"}]
        code, _, err = self.simulate(capsys, tmp_path, manifest)
        assert code == 2 and "mas" in err

    def test_one_resolution_for_2d_pde(self, kp_manifest, tmp_path, capsys):
        manifest = yaml.safe_load(kp_manifest.read_text())
        manifest["grid"] = {"resolutions": [32], "periods": [TWO_PI]}
        code, _, err = self.simulate(capsys, tmp_path, manifest)
        assert code == 2 and "resolutions" in err

    def test_unbound_parameter(self, tmp_path, capsys):
        manifest = {
            "pde": "vorticity",
            "grid": {"resolutions": [32, 32], "periods": [TWO_PI, TWO_PI]},
            "u0": {"modes": [{"a": 0.1, "k": [1, 1]}]},
            "t_end": 0.01,
        }
        code, _, err = self.simulate(capsys, tmp_path, manifest)
        assert code == 2 and "mu" in err

    def test_balance_needs_divergence_form(self, tmp_path, capsys):
        manifest = {
            "pde": "vorticity",
            "params": {"mu": "0"},
            "grid": {"resolutions": [32, 32], "periods": [TWO_PI, TWO_PI]},
            "u0": {"modes": [{"a": 0.1, "k": [1, 1]}]},
            "t_end": 0.01,
            "checks": [{"type": "balance", "curve": {"rect": [0.7, 3.9, 1.1, 5.2]}}],
        }
        code, _, err = self.simulate(capsys, tmp_path, manifest)
        assert code == 2 and "divergence form" in err

    def test_g_not_in_evolution_form(self, tmp_path, capsys):
        entry = {"name": "wave", "title": "linear wave equation", "dim": 1,
                 "G": "u_tt - u_xx", "leading": "u_tt", "rhs": "u_xx"}
        entry_path = write_manifest(tmp_path, entry, "wave.yaml")
        manifest = {
            "pde": str(entry_path),
            "grid": {"resolutions": [32], "periods": [TWO_PI]},
            "u0": {"modes": [{"a": 0.1, "k": [1]}]},
            "t_end": 0.01,
        }
        code, _, err = self.simulate(capsys, tmp_path, manifest)
        assert code == 2 and "P(D) u_t = N(u)" in err

    def test_coordinate_in_the_evolution_form(self, tmp_path, capsys):
        entry = {"name": "advect", "title": "advection with speed x", "dim": 1,
                 "G": "u_t - x*u_x", "leading": "u_t", "rhs": "x*u_x"}
        manifest = {
            "pde": str(write_manifest(tmp_path, entry, "advect.yaml")),
            "grid": {"resolutions": [32], "periods": [TWO_PI]},
            "u0": {"modes": [{"a": 0.1, "k": [1]}]},
            "t_end": 0.01,
        }
        code, _, err = self.simulate(capsys, tmp_path, manifest)
        assert code == 2 and "advect" in err and "need a grid" in err

    def test_grid_below_minimum_resolution(self, kp_manifest, tmp_path, capsys):
        manifest = yaml.safe_load(kp_manifest.read_text())
        manifest["grid"]["resolutions"] = [8, 8]
        code, out, err = self.simulate(capsys, tmp_path, manifest)
        assert code == 2 and "resolutions must be >= 16" in err
        assert out == "" and not list(tmp_path.glob("rep/report_*"))

    @pytest.mark.parametrize("period", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_period(self, period, kp_manifest, no_evolution, tmp_path, capsys):
        manifest = yaml.safe_load(kp_manifest.read_text())
        manifest["grid"]["periods"][1] = period
        code, out, err = self.simulate(capsys, tmp_path, manifest)
        assert code == 2 and "periods must be positive and finite" in err
        assert out == "" and not list(tmp_path.glob("rep/report_*"))

    # a mode amplitude is refused by the table before u0 is sampled
    @pytest.mark.parametrize("edit, needle", [
        (lambda u0: u0["modes"][0].update(a=math.nan), "u0.modes[0].a must be finite, got nan"),
        (lambda u0: u0.update(constant=math.inf), "u0 is not finite on the grid"),
    ], ids=["mode_amplitude_nan", "constant_inf"])
    def test_non_finite_initial_data(self, edit, needle, kp_manifest, no_evolution, tmp_path,
                                     capsys):
        manifest = yaml.safe_load(kp_manifest.read_text())
        edit(manifest["u0"])
        code, out, err = self.simulate(capsys, tmp_path, manifest)
        assert code == 2 and needle in err
        assert out == "" and not list(tmp_path.glob("rep/report_*"))

    @pytest.mark.parametrize("doubled", ["charge", "balance"])
    def test_doubling_tolerance_below_minimum_resolution(self, doubled, kp_manifest,
                                                         tmp_path, capsys):
        manifest = yaml.safe_load(kp_manifest.read_text())
        manifest["grid"]["resolutions"] = [16, 16]
        if doubled == "balance":
            manifest["charges"][0]["tolerance"] = 1e-6
            manifest["checks"].append(
                {"type": "balance", "curve": {"rect": [0.7, 3.9, 1.1, 5.2]}})
        code, out, err = self.simulate(capsys, tmp_path, manifest)
        assert code == 2 and "resolution doubling" in err
        assert out == "" and not list(tmp_path.glob("rep/report_*"))

    @pytest.mark.parametrize("interp", ["bogus", "spectral", "cubic", "exact"])
    def test_unknown_interp(self, interp, kp_manifest, tmp_path, capsys):
        # one quadrature serves every charge, so no key chooses one, whatever its value
        manifest = yaml.safe_load(kp_manifest.read_text()) | {"interp": interp}
        code, out, err = self.simulate(capsys, tmp_path, manifest)
        assert code == 2 and "unknown manifest key(s) interp" in err
        assert out == "" and not (tmp_path / "rep").exists()

    @pytest.mark.parametrize("where, value", [
        ("t_end", "abc"),
        ("samples", "many"),
        ("cfl", "half"),
        ("dt", "small"),
        ("resolutions", ["x", 64]),
        ("a", "big"),
        ("k", ["one", 1]),
        ("phase", [0.0, "pi"]),
    ], ids=["t_end", "samples", "cfl", "dt", "resolutions", "a", "k", "phase"])
    def test_non_numeric_value(self, where, value, kp_manifest, tmp_path, capsys):
        manifest = yaml.safe_load(kp_manifest.read_text())
        if where == "resolutions":
            manifest["grid"]["resolutions"] = value
        elif where in ("a", "k", "phase"):
            manifest["u0"]["modes"][0][where] = value
        else:
            manifest[where] = value
        code, out, err = self.simulate(capsys, tmp_path, manifest)
        assert code == 2 and "must be a number" in err and where in err
        assert out == "" and not list(tmp_path.glob("rep/report_*"))

    def test_non_numeric_param(self, kp_manifest, tmp_path, capsys):
        manifest = yaml.safe_load(kp_manifest.read_text())
        manifest["params"] = {"sigma": "one"}
        code, out, err = self.simulate(capsys, tmp_path, manifest)
        assert code == 2 and "sigma" in err
        assert out == "" and not list(tmp_path.glob("rep/report_*"))

    @pytest.fixture()
    def no_evolution(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("evolve called for a manifest that should be refused")

        monkeypatch.setattr(evolution, "evolve", refuse)

    @pytest.mark.parametrize("edit, needle", [
        (lambda m: m["charges"][0].update(id="charge-9"), "charge-9"),
        (lambda m: m["charges"][0].pop("curve"), "curve"),
        (lambda m: m["charges"][0].update(curve={"rect": [0.7, 3.9, 1.1]}), "rect"),
        (lambda m: m.update(checks=["mass"]), "checks"),
        (lambda m: m.update(charges=["charge-1"]), "charges"),
        (lambda m: m.update(constraints=["u"]), "constraints"),
        (lambda m: m.update(checks=[{"type": "balance", "curve": [0.7, 3.9, 1.1, 5.2]}]),
         "curve"),
        (lambda m: m["u0"].update(modes=[0.05]), "modes"),
        (lambda m: m.update(constraints=[{"density": "u +"}]), "unexpected token"),
        (lambda m: m.update(f="cosh"), "cosh"),
        (lambda m: m.update(u0=[1, 2]), "u0 must be a mapping"),
        (lambda m: m.update(grid="64"), "grid must be a mapping"),
        (lambda m: m.update(params=[1]), "params must be a mapping"),
        (lambda m: m["u0"]["modes"][0].update(k=[1]), "k needs an entry per grid axis"),
        (lambda m: m["u0"]["modes"][0].update(phase=[0.0]),
         "phase needs an entry per grid axis"),
        (lambda m: m["u0"]["modes"][0].update(k=[1, 1, 7]), "k needs an entry per grid axis"),
        (lambda m: m["u0"]["modes"][0].update(phase=[0.0, 0.0, 3.0]),
         "phase needs an entry per grid axis"),
        (lambda m: m.update(out=5), "out must be a path"),
        (lambda m: m["u0"]["modes"][0].pop("a"), "u0.modes[0].a is required"),
        (lambda m: m["params"].update(alpha="2"), "unknown parameter 'alpha'"),
        (lambda m: m.update(params={"sigma": "2"}), "sigma^2 = 1"),
        (lambda m: m.update(params={"sigma": "x"}), "parameter 'sigma' must be a constant"),
        (lambda m: m.update(params={"sigma": "u_x"}), "parameter 'sigma' must be a constant"),
        (lambda m: m.update(params={"sigma": "f"}), "parameter 'sigma' must be a constant"),
        (lambda m: m.update(params={"sigma": "sigma"}), "parameter 'sigma' names sigma"),
        (lambda m: m["charges"][0].update(id="charge-3"), "charge-3 needs d_t^2 u"),
        (lambda m: m.update(pde=5), "pde must be text"),
        (lambda m: m.update(constraints=[{"density": 5}]), "constraints[0].density must be text"),
        (lambda m: m["u0"].update(expr=5), "u0.expr must be text"),
        (lambda m: m.update(checks=[{"type": ["mass"]}]), "unknown check type ['mass']"),
        (lambda m: m["checks"][0].update(curve={"rect": RECT}),
         "unknown manifest key(s) checks[0].curve"),
        (lambda m: m.update(seed=True), "seed must be a number, got True"),
        (lambda m: (m.clear(), m.update(VORTICITY_CHARGE_2)),
         "charge charge-2 belongs to case inviscid"),
        (lambda m: m.update(t_end=math.inf), "t_end must be finite, got inf"),
        (lambda m: m["constraints"][0].update(tolerance=math.inf),
         "constraints[0].tolerance must be finite, got inf"),
        (lambda m: m["charges"][0].update(tolerance=math.inf),
         "charges[0].tolerance must be finite, got inf"),
        (lambda m: m["checks"][0].update(tolerance=math.inf),
         "checks[0].tolerance must be finite, got inf"),
        (lambda m: m.update(constraints=[{"density": "u_t"}]),
         "constraints[0].density needs d_t^1 u"),
        (lambda m: m.update(constraints=[{"density": "u", "tolerance": 1.0}, {"density": "u_tt"}]),
         "constraints[1].density needs d_t^2 u"),
        (lambda m: m["charges"][0].update(curve={"rect": [math.nan, 3.9, 1.1, 5.2]}),
         "charges[0].curve.rect must be finite"),
        (lambda m: m["charges"][0].update(curve={"rect": [0.7, 3.9, -math.inf, 5.2]}),
         "charges[0].curve.rect must be finite"),
        (lambda m: m["charges"][0].update(curve={"rect": [1, 1, 1, 2]}),
         "charges[0].curve.rect must be finite with x0 != x1 and y0 != y1, got [1.0, 1.0"),
        (lambda m: m["checks"].append({"type": "balance", "curve": {"rect": [0.7, 3.9, 2, 2]}}),
         "checks[1].curve.rect must be finite with x0 != x1 and y0 != y1"),
        (lambda m: (m.update(samples=4), m["checks"].append({"type": "balance", "curve": {
            "rect": RECT}})), "and >= 5 for a tolerance by doubling (strides 1 and 2), got 4"),
        (lambda m: (m.update(samples=3), m["checks"].append({"type": "balance", "curve": {
            "rect": RECT}})), "checks[1]: a balance check differences in time"),
        (lambda m: m["grid"].update(resolutions=[-1, 32]),
         "grid.resolutions must be positive, got [-1, 32]"),
        (lambda m: m.update(samples=10 ** 9), "1000000000 samples of the grid [32, 32] take "
         "16384000000000 bytes, above 1 GiB"),
    ], ids=["unknown_charge", "charge_without_curve", "short_rect", "check_not_mapping",
            "charge_not_mapping", "constraint_not_mapping", "curve_not_mapping",
            "mode_not_mapping", "unparsable_density", "unknown_f", "u0_not_mapping",
            "grid_not_mapping", "params_not_mapping", "short_k", "short_phase", "long_k",
            "long_phase", "out_not_a_path", "mode_without_a", "undeclared_param",
            "param_breaks_square", "param_coordinate", "param_jet", "param_function",
            "param_unbound", "charge_needs_u_tt", "pde_not_text", "density_not_text",
            "expr_not_text", "check_type_not_text", "mass_check_with_curve",
            "seed_boolean", "charge_off_its_case", "infinite_t_end",
            "infinite_constraint_tolerance", "infinite_charge_tolerance",
            "infinite_mass_tolerance", "constraint_needs_u_t", "constraint_needs_u_tt",
            "nan_rect", "infinite_rect", "zero_width_rect", "zero_height_balance_rect",
            "doubled_balance_four_samples", "doubled_balance_three_samples",
            "negative_resolution", "sample_storage"])
    def test_bad_spec_refused_before_evolution(self, edit, needle, no_evolution,
                                               kp_manifest, tmp_path, capsys):
        manifest = yaml.safe_load(kp_manifest.read_text())
        edit(manifest)
        code, out, err = self.simulate(capsys, tmp_path, manifest)
        assert code == 2 and needle in err
        assert out == "" and not list(tmp_path.glob("rep/report_*"))

    def test_balance_with_a_tolerance_runs_at_three_samples(self, no_evolution, kp_manifest,
                                                            tmp_path, capsys):
        manifest = yaml.safe_load(kp_manifest.read_text())
        manifest["samples"] = 3
        manifest["checks"].append({"type": "balance", "tolerance": 1e-3, "curve": {"rect": RECT}})
        with pytest.raises(AssertionError, match="evolve called"):
            self.simulate(capsys, tmp_path, manifest)

    def test_charge_in_its_case_runs(self, tmp_path, capsys):
        manifest = VORTICITY_CHARGE_2 | {"params": {"mu": "0"}}
        code, out, err = self.simulate(capsys, tmp_path, manifest)
        assert (code, err) == (0, "") and out.startswith("charge: conserved")

    @pytest.mark.parametrize("where, value, needle", [
        ("samples", 2, "samples >= 3"),
        ("dt", -0.01, "dt must be > 0"),
        ("cfl", 0, "cfl must be > 0"),
        ("cfl", -0.5, "cfl must be > 0"),
        ("cfl", math.inf, "cfl must be finite, got inf"),
        ("dt", math.inf, "dt must be finite, got inf"),
    ], ids=["balance_two_samples", "negative_dt", "zero_cfl", "negative_cfl", "infinite_cfl",
            "infinite_dt"])
    def test_degenerate_run_setting(self, where, value, needle, no_evolution,
                                    kp_manifest, tmp_path, capsys):
        manifest = yaml.safe_load(kp_manifest.read_text())
        manifest["checks"].append({"type": "balance", "curve": {"rect": [0.7, 3.9, 1.1, 5.2]}})
        manifest[where] = value
        code, out, err = self.simulate(capsys, tmp_path, manifest)
        assert code == 2 and needle in err
        assert out == "" and not list(tmp_path.glob("rep/report_*"))

    @pytest.mark.parametrize("value", [-1.0, float("nan")], ids=["negative", "nan"])
    @pytest.mark.parametrize("key, index", [
        ("constraints", 0), ("charges", 0), ("checks", 0), ("checks", 1)],
        ids=["constraint", "charge", "mass", "balance"])
    def test_tolerance_below_zero(self, key, index, value, no_evolution,
                                  kp_manifest, tmp_path, capsys):
        manifest = yaml.safe_load(kp_manifest.read_text())
        manifest["checks"].append({"type": "balance", "curve": {"rect": RECT}})
        manifest[key][index]["tolerance"] = value
        code, out, err = self.simulate(capsys, tmp_path, manifest)
        assert code == 2 and f"{key}[{index}].tolerance must be >= 0, got {value!r}" in err
        assert out == "" and not list(tmp_path.glob("rep/report_*"))

    @pytest.mark.parametrize("value", [-1.0, float("nan")], ids=["negative", "nan"])
    def test_t_end_below_zero_with_constraints_only(self, value, no_evolution,
                                                    kp_manifest, tmp_path, capsys):
        manifest = yaml.safe_load(kp_manifest.read_text())
        del manifest["charges"], manifest["checks"]
        manifest["t_end"] = value
        code, out, err = self.simulate(capsys, tmp_path, manifest)
        assert code == 2 and f"t_end must be >= 0, got {value!r}" in err
        assert out == "" and not list(tmp_path.glob("rep/report_*"))

    @pytest.mark.parametrize("samples", [1, 0, -5])
    def test_samples_below_two(self, samples, no_evolution, kp_manifest, tmp_path, capsys):
        manifest = yaml.safe_load(kp_manifest.read_text())
        manifest["samples"] = samples
        code, out, err = self.simulate(capsys, tmp_path, manifest)
        assert code == 2 and f"samples must be >= 2 (t = 0 and t_end), got {samples}" in err
        assert out == "" and not list(tmp_path.glob("rep/report_*"))

    @pytest.mark.parametrize("edit, needle", [
        (lambda m: m.update(samples=2.7), "samples must be an integer"),
        (lambda m: m["grid"].update(resolutions=[32.9, 32]), "grid.resolutions must be an integer"),
        (lambda m: m.update(seed=1.5), "seed must be an integer"),
        (lambda m: m["u0"]["modes"][0].update(k=[1.5, 1]), "u0.modes[0].k must be an integer"),
    ], ids=["samples", "resolutions", "seed", "k"])
    def test_fraction_where_an_integer_belongs(self, edit, needle, no_evolution,
                                               kp_manifest, tmp_path, capsys):
        manifest = yaml.safe_load(kp_manifest.read_text())
        edit(manifest)
        code, out, err = self.simulate(capsys, tmp_path, manifest)
        assert code == 2 and needle in err
        assert out == "" and not list(tmp_path.glob("rep/report_*"))

    def test_integral_number_is_an_integer(self):
        samples = manifest._read(17.0, manifest.MANIFEST["samples"], "samples")
        assert samples == 17 and type(samples) is int
        k = manifest._read([2.0, -1], [int], "u0.modes[0].k")
        assert k == [2, -1] and all(type(v) is int for v in k)

    @pytest.mark.parametrize("edit, path", [
        (lambda m: m["grid"].update(resolution=[64, 64]), "grid.resolution"),
        (lambda m: m["u0"].update(constnt=0.1), "u0.constnt"),
        (lambda m: m["u0"]["modes"][0].update(phse=[0.0, 1.0]), "u0.modes[0].phse"),
        (lambda m: m["constraints"][0].update(tolerence=1.0), "constraints[0].tolerence"),
        (lambda m: m["charges"][0].update(tol=1e-3), "charges[0].tol"),
        (lambda m: m["charges"][0]["curve"].update(rct=RECT), "charges[0].curve.rct"),
        (lambda m: m["checks"][0].update(tolerence=1.0), "checks[0].tolerence"),
        (lambda m: m["checks"].append({"type": "balance", "curve": {"rect": RECT, "r": 1}}),
         "checks[1].curve.r"),
    ], ids=["grid", "u0", "mode", "constraint", "charge", "charge_curve", "check",
            "check_curve"])
    def test_unknown_nested_key(self, edit, path, no_evolution, kp_manifest, tmp_path, capsys):
        manifest = yaml.safe_load(kp_manifest.read_text())
        edit(manifest)
        code, out, err = self.simulate(capsys, tmp_path, manifest)
        assert code == 2 and f"unknown manifest key(s) {path}" in err
        assert out == "" and not list(tmp_path.glob("rep/report_*"))

    def test_known_keys_cover_the_shipped_and_bench_manifests(self):
        spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        docs = [yaml.safe_load(p.read_text()) for p in sorted(SHIPPED_KP.parent.glob("*.yaml"))]
        docs.append(workloads.kp_manifest(ROOT, 1))
        assert len(docs) == 4 and "phase" in docs[-1]["u0"]["modes"][0]
        for doc in docs:
            assert set(manifest._read(doc, manifest.MANIFEST)) == set(doc)

    @pytest.mark.parametrize("manifest", [
        {"pde": "shear", "params": {"alpha": "1", "beta": "1"},
         "grid": {"resolutions": [16, 16, 16], "periods": [TWO_PI] * 3},
         "u0": {"modes": [{"a": 0.05, "k": [1, 1, 1]}]}, "t_end": 0.01,
         "charges": [{"id": "charge-f", "tolerance": 1e-3, "curve": {"rect": RECT}}]},
        {"pde": "kdv_lagrangian", "grid": {"resolutions": [32], "periods": [TWO_PI]},
         "u0": {"modes": [{"a": 0.1, "k": [1]}]}, "t_end": 0.01,
         "checks": [{"type": "balance", "tolerance": 1e-3, "curve": {"rect": RECT}}]},
    ], ids=["3d_charge", "1d_balance"])
    def test_curve_integrals_need_a_2d_entry(self, manifest, no_evolution, tmp_path, capsys):
        code, out, err = self.simulate(capsys, tmp_path, manifest)
        assert code == 2 and "planar curve" in err and manifest["pde"] in err
        assert out == "" and not list(tmp_path.glob("rep/report_*"))


class TestShippedManifests:
    """The manifests under manifests/ keep their verdicts and exit codes."""

    def test_kp_charge(self, simulated):
        reports, code = simulated("kp_charge")
        assert code == 0
        assert [f"{rep.kind}: {rep.verdict}" for rep in reports] == [
            "constraint: satisfied", "charge: conserved", "charge: conserved",
            "mass: conserved", "balance: satisfied"]
        assert simulated.steps["kp_charge"] == {(64, 64): 1664, (32, 32): 192}

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_kp_charge_with_a_diverging_step_exits_1(self, tmp_path, capsys):
        # RK4 at dt = 0.01 takes 32 steps and its fields are NaN from
        # t = 0.047; the guard reads the state at every sample as well as
        # every 50 steps, so no verdict is taken on a diverged run
        manifest = yaml.safe_load(SHIPPED_KP.read_text()) | {"dt": 0.01}
        path = write_manifest(tmp_path, manifest)
        code, out, err = run(capsys, "simulate", "--manifest", str(path),
                             "--out", str(tmp_path / "rep"))
        assert code == 1 and "blew up" in err
        assert out == "" and not list(tmp_path.glob("rep/report_*"))

    def test_kp_violating(self, tmp_path, capsys):
        path = SHIPPED_KP.with_name("kp_violating.yaml")
        code, out, _ = run(capsys, "simulate", "--manifest", str(path), "--out", str(tmp_path))
        assert code == 3
        assert "constraint-violation: violated" in out
        assert (tmp_path / "report_01_constraint-violation.txt").exists()


class TestVerdicts:
    """manifest.run judges every charge and check on one ladder of runs, and
    a verdict that should fail does."""

    KP_CHARGE = cat.load_yaml(SHIPPED_KP.read_text(encoding="utf-8"))

    @pytest.mark.parametrize("given, shapes", [(False, [(64, 64), (32, 32)]), (True, [(64, 64)])],
                             ids=["doubling", "given"])
    def test_each_grid_is_evolved_at_most_once(self, given, shapes, monkeypatch):
        # two charges and a balance check read the half grid: it is evolved once,
        # and not at all when every tolerance is given
        shapes_run, evolve = [], evolution.evolve
        monkeypatch.setattr(evolution, "evolve", lambda evolver, u0, **kwargs: (
            shapes_run.append(u0.shape) or evolve(evolver, u0, **kwargs)))
        doc = copy.deepcopy(self.KP_CHARGE)
        for spec in doc["charges"] + doc["checks"] if given else ():
            spec["tolerance"] = 1.0
        reports, code = manifest.run(manifest.plan(doc))
        assert code == 0 and len(reports) == 5 and shapes_run == shapes

    def test_charge_negative_control_fails(self):
        # Gamma + (u_x, 0) adds the flux of u_x, the cell integral of u_xx inside
        # the curve, under the unchanged rule; measured 3.1e-3 and 5.6e-3 against
        # doubling tolerances of 1.9e-9 and 3.5e-10
        self.assert_control_fails(copy.deepcopy(self.KP_CHARGE))

    def test_weighted_charge_negative_control_fails(self):
        # the same control on KP charge-2, whose Gamma carries y: measured 3.1e-3
        # and 5.6e-3 against doubling tolerances of 1.9e-9 and 3.6e-10
        self.assert_control_fails(self.kp_charge_2())

    def assert_control_fails(self, doc):
        plan = manifest.plan(doc)
        u_x = JetExpr.jet("u", (0, 1, 0, 0))
        plan = dataclasses.replace(plan, charges=tuple(
            (label, (gx + u_x, gy), loop, tol) for label, (gx, gy), loop, tol in plan.charges))
        reports, code = manifest.run(plan)
        assert code == manifest.EXIT_RESIDUAL
        assert [f"{rep.kind}: {rep.verdict}" for rep in reports] == [
            "constraint: satisfied", "charge: failed", "charge: failed",
            "mass: conserved", "balance: satisfied"]
        assert all(max(map(abs, rep.values)) > 10 * rep.tolerance for rep in reports[1:3])

    def kp_charge_2(self):
        doc = copy.deepcopy(self.KP_CHARGE)
        for spec in doc["charges"]:
            spec["id"] = "charge-2"
        return doc

    @pytest.mark.parametrize("case", ["kp-charge-2", "vorticity-charge-2", "vorticity-charge-3"])
    def test_coordinate_weighted_charge_reads_zero(self, case):
        # Gamma = sum x^a y^b P_ab: each face integral is exact on the grid's trig
        # polynomial, so the charge reads round-off, measured at most 1.1e-12
        if case == "kp-charge-2":
            doc = self.kp_charge_2()
        else:
            doc = {"pde": "vorticity", "params": {"mu": "0"},
                   "grid": {"resolutions": [64, 64], "periods": [TWO_PI, TWO_PI]},
                   "u0": {"modes": [{"a": 0.3, "k": [1, 1]},
                                    {"a": 0.1, "k": [2, 1], "phase": [math.pi / 2, 0]}]},
                   "t_end": 0.2, "samples": 9,
                   "charges": [{"id": case.removeprefix("vorticity-"), "curve": {"rect": RECT}}]}
        plan = manifest.plan(doc)
        assert all(tol is None for *_, tol in plan.charges)
        reports, code = manifest.run(plan)
        charges = [rep for rep in reports if rep.kind == "charge"]
        assert code == 0 and len(charges) == len(doc["charges"])
        for rep in charges:
            assert rep.verdict == "conserved"
            assert max(map(abs, rep.values)) <= 1e-11

    @pytest.mark.parametrize("beta, fired", [("1", True), ("0", False)],
                             ids=["alpha_eq_beta", "alpha_ne_beta"])
    def test_constraint_guard_says_when_it_fired(self, beta, fired):
        # umKP on kp_charge.yaml's mean-zero data.  At alpha = beta the data pass
        # the guard and F^x, not an x-derivative, drives the x-mean that sigma
        # u_yy carries onto the zero set of D_x: the guard fires at the first
        # step's midpoint stage, t = 7.56e-5.  At alpha != beta it fires at t = 0.
        doc = copy.deepcopy(self.KP_CHARGE) | {
            "pde": "umkp", "params": {"alpha": "1", "beta": beta, "sigma": "1"}, "t_end": 0.05,
            "charges": [{"id": "charge-f", "curve": {"rect": [0.7, 3.9, 1.1, 5.2]}}]}
        reports, code = manifest.run(manifest.plan(doc))
        assert code == manifest.EXIT_CONSTRAINT
        assert [rep.kind for rep in reports] == ["constraint", "constraint-violation"]
        (t,), text = reports[1].times, reports[1].descriptor
        if fired:
            assert 7.5e-5 < t < 7.6e-5
            assert text.endswith(f"; the flow left the integral constraint at t = {t:.6g}")
        else:
            assert t == 0.0
            assert text.endswith("; the initial data violate the integral constraint")
