"""`reduce` and `potential --yaml` of every catalog current and charge, and
`catalog show umkp` at each of its four case bindings, against recorded
outputs: stdout, stderr and the exit code of each command.  And the
reports and exit code of `simulate` on each shipped manifest, against
recorded ones.

The recorded outputs live in ``tests/golden/``: ``cases.json`` lists each
case's arguments, exit code and stderr, and ``<case>.stdout`` holds its
stdout.  ``reports/<manifest>/`` holds the reports of a manifest under the
names `simulate --out` gives them, and ``reports/exit_codes.json`` the exit
code of each.  To record them again from the tree on ``PYTHONPATH``, run

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import collections
import contextlib
import io
import itertools
import json
import math
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES_FILE = GOLDEN / "cases.json"
REPORTS = GOLDEN / "reports"
EXITS_FILE = REPORTS / "exit_codes.json"
MANIFESTS = Path(__file__).resolve().parents[1] / "manifests"


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


# -- simulate reports ------------------------------------------------------------

# A number in a report may move by this fraction of the report's recorded
# tolerance; every other line must stay byte-identical.
DRIFT = 1e-6


def report_files(reports) -> dict:
    """File name -> text of each report, named as `simulate --out` names it."""
    return {f"report_{i:02d}_{rep.kind}.txt": rep.to_text() for i, rep in enumerate(reports)}


def _recorded_reports(stem: str) -> dict:
    return {path.name: path.read_text(encoding="utf-8")
            for path in sorted((REPORTS / stem).glob("report_*.txt"))}


def _number_drift(want, have, tol: float) -> float:
    try:
        a, b = float(want), float(have)
    except (TypeError, ValueError):
        return 0.0 if want == have else math.inf
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if math.isnan(a) or math.isnan(b) or tol == 0:
        return math.inf
    return abs(a - b) / tol


def _keyed(text: str) -> dict:
    """Each line of a report under its key: a header line by the text
    before its ': ' (`meta.*`, `tolerance`, `verdict`, ...), a row after
    `columns:` by its time cell, each with its occurrence number."""
    out, seen, rows = {}, collections.Counter(), False
    for line in text.splitlines():
        key = ("row", line.split(" ")[0]) if rows else ("head", line.split(": ")[0])
        seen[key] += 1
        out[(*key, seen[key])] = line
        rows = rows or line.startswith("columns: ")
    return out


def line_drifts(want: str, have: str) -> list[tuple[float, str, str]]:
    """(drift, recorded line, line now) for each key of a report recorded
    as want, then each key only the report now has (see _keyed).

    The tolerance line and the rows hold numbers, and a line drifts by its
    numbers' largest |now - recorded| over the recorded tolerance (a NaN
    matches a NaN).  Any other line drifts by 0 if it is byte-identical and
    by inf if not, and a line that one side lacks drifts by inf.
    """
    tol = next(float(w.split(": ")[1]) for w in want.splitlines() if w.startswith("tolerance: "))
    recorded, now = _keyed(want), _keyed(have)
    rows = []
    for key in [*recorded, *(k for k in now if k not in recorded)]:
        w, h = recorded.get(key), now.get(key)
        if w is None or h is None:
            drift = math.inf
        elif key[0] == "row" or key[1] == "tolerance":
            cells = [line.removeprefix("tolerance: ").split() for line in (w, h)]
            drift = max(_number_drift(a, b, tol) for a, b in itertools.zip_longest(*cells))
        else:
            drift = 0.0 if w == h else math.inf
        rows.append((drift, w or "", h or ""))
    return rows


def drift_table(recorded: dict, have: dict) -> tuple[float, str]:
    """The largest drift over the reports, and a table with each report's
    largest drift and every line whose drift exceeds DRIFT."""
    worst, lines = 0.0, [f"{'report':34s} {'largest drift / tolerance':>26s}"]
    for name in sorted(set(recorded) | set(have)):
        want, now = recorded.get(name), have.get(name)
        if want is None or now is None:
            worst = math.inf
            lines.append(f"{name:34s} {'recorded only' if now is None else 'new':>26s}")
            continue
        rows = line_drifts(want, now)
        top = max(drift for drift, _, _ in rows)
        worst = max(worst, top)
        lines.append(f"{name:34s} {top:26.3e}")
        for number, (drift, w, h) in enumerate(rows, 1):
            if drift > DRIFT:
                lines += [f"    line {number}: {drift:.3e}", f"      recorded: {w}",
                          f"      now:      {h}"]
    return worst, "\n".join(lines)


RECORDED_EXITS = (json.loads(EXITS_FILE.read_text(encoding="utf-8"))
                  if EXITS_FILE.exists() else {})


def test_every_shipped_manifest_is_recorded():
    assert sorted(RECORDED_EXITS) == sorted(p.stem for p in MANIFESTS.glob("*.yaml"))


@pytest.mark.parametrize("stem", sorted(RECORDED_EXITS))
def test_reports_match_the_recording(stem, simulated):
    reports, code = simulated(stem)
    worst, table = drift_table(_recorded_reports(stem), report_files(reports))
    print(f"\n{stem}: exit {code}\n{table}")
    assert code == RECORDED_EXITS[stem]
    assert worst <= DRIFT, table


class TestDriftControls:
    """The comparison fails a number moved by 1 % of its report's tolerance,
    a changed verdict line and a deleted line, and passes a move below
    DRIFT."""

    NAME = "report_01_charge.txt"

    def moved(self, fraction: float) -> tuple[dict, dict]:
        recorded = _recorded_reports("kp_acceptance")
        lines = recorded[self.NAME].splitlines(keepends=True)
        tol = float(lines[2].removeprefix("tolerance: "))
        t, v = lines[-1].split()
        lines[-1] = f"{t} {float(v) + fraction * tol!r}\n"
        return recorded, dict(recorded, **{self.NAME: "".join(lines)})

    def test_one_percent_of_the_tolerance_fails(self):
        worst, table = drift_table(*self.moved(0.01))
        assert worst == pytest.approx(0.01, rel=1e-6) and worst > DRIFT
        assert self.NAME in table and "line" in table

    def test_below_the_bound_passes(self):
        worst, _ = drift_table(*self.moved(0.1 * DRIFT))
        assert 0 < worst <= DRIFT

    def test_a_changed_verdict_fails(self):
        recorded = _recorded_reports("kp_acceptance")
        text = recorded[self.NAME]
        assert "verdict: conserved\n" in text
        changed = dict(recorded, **{self.NAME: text.replace("verdict: conserved", "verdict: failed")})
        worst, table = drift_table(recorded, changed)
        assert worst == math.inf and "verdict: failed" in table

    def test_a_deleted_meta_line_reads_inf_on_that_line_alone(self):
        # lines align by key, so the rows after it still read their own drift
        recorded, moved = self.moved(0.01)
        line = "meta.scheme: 'RK4'\n"
        assert line in moved[self.NAME]
        deleted = moved[self.NAME].replace(line, "")
        rows = line_drifts(recorded[self.NAME], deleted)
        assert [(w, h) for drift, w, h in rows if drift == math.inf] == [(line.strip(), "")]
        finite = sorted(drift for drift, _, _ in rows if drift != math.inf)
        assert finite[-1] == pytest.approx(0.01, rel=1e-6) and finite[-2] == 0
        worst, table = drift_table(recorded, dict(moved, **{self.NAME: deleted}))
        assert worst == math.inf and "meta.scheme" in table


def record_reports() -> None:
    from topocharge import catalog as cat
    from topocharge import manifest

    codes = {}
    for path in sorted(MANIFESTS.glob("*.yaml")):
        doc = cat.load_yaml(path.read_text(encoding="utf-8"))
        reports, codes[path.stem] = manifest.run(manifest.plan(doc))
        folder = REPORTS / path.stem
        folder.mkdir(parents=True, exist_ok=True)
        for old in folder.glob("report_*.txt"):
            old.unlink()
        for name, text in report_files(reports).items():
            (folder / name).write_text(text, encoding="utf-8")
        print(f"{path.stem}: exit {codes[path.stem]}", file=sys.stderr)
    EXITS_FILE.write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n", encoding="utf-8")


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
    record_reports()
