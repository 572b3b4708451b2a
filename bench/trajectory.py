"""Record a trajectory point: two sets of ten seeded runs of every workload,
interleaved, plus one traced run each.

    python3 bench/trajectory.py --label NAME

Runs ``bench/run.py`` one process at a time for ``run_seconds`` of
BENCHMARK.json and writes ``bench/trajectory/NAME.json``.  The two sets
use the same seeds and are recorded round-robin: seed by seed, the sets
take turns (a first on even rounds, b first on odd ones), and each turn
runs every workload once, so a slow or fast phase of the host falls on
both sets instead of on one.  The spread of a metric within a set is the
distance between its first and third quartiles
(``statistics.quantiles(n=4)``) as a share of its median; the move
between sets is the second set's median against the first's, signed so
that a positive share is worse.  Both are the figures each end-to-end
bound is set against.  Each run's time to verdict in seconds (its report
line ``seconds``) is recorded beside them, with no bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEEDS = tuple(range(1, 11))
SETS = ("a", "b")


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stdout[-3000:]}\n{proc.stderr[-3000:]}")
    result = json.loads(lines[-1])
    for key in ("context", "seconds"):
        result[key] = next((json.loads(ln[len(key) + 1:]) for ln in lines
                            if ln.startswith(key + " ")), None)
    return result


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_share(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = second / first - 1.0
    return change if better == "lower" else -change


def summarise(runs: list[dict]) -> dict:
    metrics = {}
    for m in runs[0]["metrics"]:
        values = [r["metrics"][m]["value"] for r in runs]
        metrics[m] = {"median": statistics.median(values), "spread": spread(values),
                      "values": values}
    calibration = [r["context"]["calibration_s"] for r in runs]
    seconds = [r["seconds"]["time_to_verdict_s"] for r in runs]
    return {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "calibration_s": {"median": statistics.median(calibration),
                          "values": calibration},
        "end_to_end": metrics,
        "time_to_verdict_s": {"median": statistics.median(seconds),
                              "spread": spread(seconds), "values": seconds},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    runs = {(s, w): [] for s in SETS for w in names}
    for round_, seed in enumerate(SEEDS):
        for set_ in (SETS if round_ % 2 == 0 else SETS[::-1]):
            for name in names:
                result = run(name, seed, seconds, 0)
                runs[(set_, name)].append(result)
                print(f"{set_} {name} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
                    + f", time_to_verdict_s={result['seconds']['time_to_verdict_s']:.6g}",
                    flush=True)
    out = {"seconds": seconds, "seeds": list(SEEDS), "workloads": {}}
    for name in names:
        sets = {s: summarise(runs[(s, name)]) for s in SETS}
        traced = run(name, SEEDS[0], seconds, 1)
        out["context"] = traced["context"]
        out["workloads"][name] = {
            "sets": sets,
            "worse_b_vs_a": {
                m: worse_share(sets["a"]["end_to_end"][m]["median"],
                               sets["b"]["end_to_end"][m]["median"], better[m])
                for m in better},
            "per_layer": {m: v["value"] for m, v in traced["metrics"].items()},
            "traced_correct": traced["correct"],
        }
        print(name)
        for m in better:
            a, b = (sets[s]["end_to_end"][m] for s in SETS)
            print(f"  {m:20s} median a {a['median']:.6g} b {b['median']:.6g}  "
                  f"spread a {a['spread']:.4f} b {b['spread']:.4f}  "
                  f"worse b/a {out['workloads'][name]['worse_b_vs_a'][m]:+.4f}", flush=True)
        a, b = (sets[s]["time_to_verdict_s"] for s in SETS)
        print(f"  {'time_to_verdict_s':20s} median a {a['median']:.6g} b {b['median']:.6g}  "
              f"spread a {a['spread']:.4f} b {b['spread']:.4f}  (seconds, no bound)")
    path = BENCH_DIR / "trajectory" / f"{args.label}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
