"""manifest.plan reads a manifest and runs every refusal without evolving:
on the shipped manifests, and on each of their key paths mutated by a fixed
set of bad values, it returns a Plan or raises an error that the CLI
reports as bad input (exit 2) on one line."""

import copy
import dataclasses
import math
from pathlib import Path

import pytest

from topocharge import catalog as cat
from topocharge import cli, evolution, manifest

MANIFESTS = Path(__file__).resolve().parents[1] / "manifests"
SHIPPED = {path.stem: cat.load_yaml(path.read_text(encoding="utf-8"))
           for path in sorted(MANIFESTS.glob("*.yaml"))}


@pytest.fixture()
def no_evolution(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("plan evolved a manifest")

    monkeypatch.setattr(evolution, "evolve", refuse)
    monkeypatch.setattr(evolution, "KhatEvolver", refuse)


@pytest.mark.parametrize("stem", sorted(SHIPPED))
def test_plan_evolves_nothing(stem, no_evolution):
    doc = SHIPPED[stem]
    plan = manifest.plan(copy.deepcopy(doc))
    assert plan.u0.shape == tuple(doc["grid"]["resolutions"])
    assert len(plan.constraints) == len(doc.get("constraints", []))
    assert len(plan.charges) == len(doc.get("charges", []))
    assert len(plan.checks) == len(doc.get("checks", []))
    with pytest.raises(dataclasses.FrozenInstanceError):
        plan.seed = 1


@pytest.mark.parametrize("samples, refused", [(16384, False), (16385, True)])
def test_sample_storage_bound(samples, refused, no_evolution):
    # 16384 samples of 64^2 points, a field and a u_t of 8 bytes a point, fill 1 GiB
    doc = copy.deepcopy(SHIPPED["kp_charge"]) | {"samples": samples}
    assert doc["grid"]["resolutions"] == [64, 64]
    if refused:
        with pytest.raises(manifest.UsageError, match="16385 samples .* 1073807360 bytes"):
            manifest.plan(doc)
    else:
        assert manifest.plan(doc).stepping["n_samples"] == samples


def key_paths(node, path=()):
    """The path of every mapping key and list item in node, at any depth."""
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from key_paths(value, path + (key,))


def mutations(value) -> dict:
    """NaN, +-inf, 0, -1, empty, wrong length and wrong type, in place of value."""
    out = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "zero": 0, "minus_one": -1,
           "empty": type(value)() if isinstance(value, (str, list, dict)) else "",
           "wrong_type": 5 if isinstance(value, str) else "text"}
    if isinstance(value, list):
        out |= {"short": value[:-1], "long": value + value[-1:]}
    return out


CASES = [(stem, path) for stem, doc in SHIPPED.items() for path in key_paths(doc)]


@pytest.mark.parametrize("stem, path", CASES,
                         ids=[f"{stem}:{'.'.join(map(str, path))}" for stem, path in CASES])
def test_mutant_is_planned_or_refused_on_one_line(stem, path, no_evolution):
    *parents, last = path
    original = SHIPPED[stem]
    for node in parents:
        original = original[node]
    for name, value in mutations(original[last]).items():
        doc = copy.deepcopy(SHIPPED[stem])
        node = doc
        for key in parents:
            node = node[key]
        node[last] = value
        try:
            manifest.plan(doc)
        except (*cli.USAGE_ERRORS, cat.CatalogCorrupt) as exc:
            assert str(exc) and "\n" not in str(exc), f"{name}: {exc!r}"
        except Exception as exc:  # noqa: BLE001  (any other error is a finding)
            pytest.fail(f"{name} ({value!r}): {type(exc).__name__}: {exc}")
