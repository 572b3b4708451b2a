"""`reduce` and `potential --yaml` of every catalog current and charge, and
`catalog show umkp` at each of its four case bindings, against recorded
outputs: stdout, stderr and the exit code of each command.

The recorded outputs live in ``tests/golden/``: ``cases.json`` lists each
case's arguments, exit code and stderr, and ``<case>.stdout`` holds its
stdout.  To record them again from the tree on ``PYTHONPATH``, run

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES_FILE = GOLDEN / "cases.json"


def run(argv: list) -> tuple[int, str, str]:
    from topocharge import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


# The four umKP cases of the catalog as `--params` arguments; `catalog show`
# prints the certificates of each bound instance.
UMKP_BINDINGS = {
    "integrable": ["alpha=sqrt(2)", "beta=0", "sigma=1"],
    "gardner": ["alpha=sqrt(2/3)", "beta=2*alpha", "sigma=1"],
    "equal-transverse": ["alpha=1/2", "beta=alpha", "sigma=-1"],
    "generic": ["alpha=1/2", "beta=2/3", "sigma=1"],
}


def catalog_cases() -> dict:
    """Case name -> argv: reduce of each current, potential --yaml of each
    charge, catalog show of each umKP binding."""
    from topocharge import catalog as cat

    cases = {}
    for entry in cat.load_catalog():
        for cur in entry.currents:
            cases[f"reduce_{entry.name}_{cur.id}"] = ["reduce", entry.name, cur.id]
        for charge in entry.charges:
            cases[f"potential_{entry.name}_{charge.id}"] = [
                "potential", entry.name, charge.id, "--yaml"]
    for case, params in UMKP_BINDINGS.items():
        cases[f"show_umkp_{case}"] = ["catalog", "show", "umkp", "--params", *params]
    return cases


def _recorded() -> dict:
    return json.loads(CASES_FILE.read_text(encoding="utf-8"))


RECORDED = _recorded() if CASES_FILE.exists() else {}


def test_every_current_and_charge_is_recorded():
    assert {name: case["argv"] for name, case in RECORDED.items()} == catalog_cases()


@pytest.mark.parametrize("name", sorted(RECORDED))
def test_output_matches_the_recording(name):
    case = RECORDED[name]
    code, out, err = run(case["argv"])
    want = (GOLDEN / f"{name}.stdout").read_text(encoding="utf-8")
    assert (code, err) == (case["exit"], case["stderr"])
    assert out == want


def record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    cases = {}
    for name, argv in catalog_cases().items():
        code, out, err = run(argv)
        (GOLDEN / f"{name}.stdout").write_text(out, encoding="utf-8")
        cases[name] = {"argv": argv, "exit": code, "stderr": err}
        print(f"{name}: exit {code}", file=sys.stderr)
    CASES_FILE.write_text(json.dumps(cases, indent=1, sort_keys=True) + "\n",
                          encoding="utf-8")


if __name__ == "__main__":
    record()
