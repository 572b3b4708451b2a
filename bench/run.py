"""topocharge benchmark: three seeded workloads, one closed-loop caller.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` next to this directory, never from an installed copy.  With
``--trace 0`` the run measures the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` it runs one operation untraced, then the same
operation with the program's functions wrapped, and reports per-layer
metrics plus the tracing overhead.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics;
the lines before it are a human-readable report with the machine context.
A failed output check makes ``correct`` false and the exit code 1.

Time to verdict is reported as work in units of a fixed loop sampled while
each operation runs (``time_to_verdict_ref``, see ``hostprobe.py``), not in
seconds: the shared host's speed drifts by up to about 2x over minutes,
which no statistic within a run removes.  The seconds are in the report
line ``seconds``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import random
import resource
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from hostprobe import HostProbe

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "_work"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKLOADS = ("catalog_cold", "kp_simulate", "kdv_source_sink")
END_TO_END = {"setup_s": "s", "time_to_verdict_ref": "ref_loops", "peak_rss_mb": "MB"}
SETUP_REPEATS = 7   # set-ups per run: fresh interpreters plus the run's own
MIN_OPS = {"catalog_cold": 1, "kp_simulate": 2, "kdv_source_sink": 2}
CHILD_TIMEOUT_S = 160

# One caller, no worker threads: pin the numerical libraries to one thread
# before numpy is imported here or in any child interpreter.
for _var in THREAD_VARS:
    os.environ[_var] = "1"


class Abort(Exception):
    """The benchmark cannot run here; exit 2 without a result line."""


def _locate_program():
    if not (SRC / "topocharge" / "__init__.py").is_file():
        raise Abort(f"no program source at {SRC / 'topocharge'}")
    for name in ("kp_charge.yaml", "kp_violating.yaml"):
        if not (ROOT / "manifests" / name).is_file():
            raise Abort(f"missing manifest {name}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import topocharge

    if SRC.resolve() not in Path(topocharge.__file__).resolve().parents:
        raise Abort(f"imported topocharge from {topocharge.__file__}, not {SRC}")
    return time.perf_counter() - t0


def _calibrate() -> float:
    """Wall time of a fixed pure-Python workload (exact rational sums, like
    the kernel's), so a slow host shows in every result."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 40_000):
        acc += Fraction(i % 97 + 1, i % 89 + 1)
    if acc <= 0:
        raise Abort("calibration arithmetic is broken")
    return time.perf_counter() - t0


def _cpu_ticks() -> list[int] | None:
    """The machine-wide cpu line of /proc/stat, where the kernel has one."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(start: list[int] | None) -> float | None:
    """Share of CPU time the hypervisor took from this machine since
    ``start``: a noisy host shows here as well as in the calibration."""
    end = _cpu_ticks()
    if start is None or end is None or len(end) < 8:
        return None
    delta = [b - a for a, b in zip(start, end)]
    return delta[7] / sum(delta) if sum(delta) else 0.0


def _context() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "calibration_s": _calibrate(),
        "caller": "closed loop, 1 client",
    }


def _child(args: list[str], timeout: float) -> dict:
    """Run this script in a fresh interpreter; its last line is JSON."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise Abort(f"child {args} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- set-up ----------------------------------------------------------------------


def _setup(workload: str, seed: int):
    """The workload's set-up in this process: returns (state, load_s)."""
    from topocharge import catalog as cat

    import workloads as W

    t0 = time.perf_counter()
    if workload == "catalog_cold":
        return None, 0.0
    if workload == "kp_simulate":
        cat.get_entry("kp")
        load = time.perf_counter() - t0
        return W.kp_manifest(ROOT, seed), load
    kdv = cat.get_entry("kdv_lagrangian")
    load = time.perf_counter() - t0
    from topocharge.parsing import parse_expr

    phase = random.Random(seed).uniform(0.0, 2.0 * math.pi)
    return (kdv, parse_expr("-1/2*u_x^2 - u_xxx", 1), phase), load


def probe_setup(workload: str, seed: int) -> dict:
    """Child mode: import the program and set the workload up, cold."""
    import_s = _locate_program()
    t0 = time.perf_counter()
    _, load = _setup(workload, seed)
    return {"setup_s": import_s + time.perf_counter() - t0, "catalog_load_s": load}


# -- operations --------------------------------------------------------------------


class Runner:
    """One workload's operation, its checks, and its set-up state."""

    def __init__(self, workload: str, seed: int, work: Path):
        import workloads as W

        self.W, self.workload, self.seed, self.work = W, workload, seed, work
        self.attempted = 0
        self.failures: list[str] = []
        self.extra: dict = {}
        self.child_rss = 0.0

    def setup(self, import_s: float) -> None:
        t0 = time.perf_counter()
        self.state, load = _setup(self.workload, self.seed)
        self.own_setup = {"setup_s": import_s + time.perf_counter() - t0,
                          "catalog_load_s": load}
        if self.workload == "kp_simulate":
            import yaml

            self.manifest = self.work / "kp.yaml"
            self.manifest.write_text(yaml.safe_dump(self.state, sort_keys=True),
                                     encoding="utf-8")
            self._send_violating()

    def _record(self, failures: list[str], checks: int) -> None:
        self.attempted += checks
        self.failures.extend(failures)

    def _send_violating(self) -> None:
        from topocharge import cli

        code, _ = self.W.run_simulate(cli, ROOT / "manifests" / "kp_violating.yaml",
                                      self.work / "violating")
        self._record([] if code == 3 else [f"kp_violating exited {code}, not 3"], 1)

    def op(self, index: int, tracer=None) -> tuple[float, float | None]:
        """Run operation ``index``; returns its time to verdict in seconds
        and in loop units.  A traced operation runs without the host probe
        and has no loop units."""
        W = self.W
        if self.workload == "catalog_cold":
            args = ["--probe", "cold", "--seed", str(self.seed)]
            if tracer is not None:
                args += ["--trace", "1"]
            res = _child(args, CHILD_TIMEOUT_S)
            self.child_rss = max(self.child_rss, res["peak_rss_mb"])
            self._record(res["failures"], res["checks"])
            self.extra.setdefault("samples", []).append(res)
            if tracer is not None:
                self.child_layers = res["layers"]
                self.extra["spans"] = res["spans"]
            return res["time_to_verdict_s"], res.get("time_to_verdict_ref")
        probe = HostProbe() if tracer is None else contextlib.nullcontext()
        if self.workload == "kp_simulate":
            from topocharge import cli

            out = self.work / f"reports-{index}"
            with probe:
                t0 = time.perf_counter()
                code, verdicts = W.run_simulate(cli, self.manifest, out)
                elapsed = time.perf_counter() - t0
            fail = []
            if code != 0 or verdicts != W.KP_VERDICTS:
                fail.append(f"simulate exited {code} with verdicts {verdicts}")
            digest = W.reports_digest(out)
            first = self.extra.setdefault("digest", digest)
            if digest != first:
                fail.append("same-seed simulate reports differ")
            shutil.rmtree(out)
            self._record(fail, 2)
            return _split(probe, elapsed)
        kdv, F, phase = self.state
        with probe:
            t0 = time.perf_counter()
            res = W.kdv_sample(kdv, F, phase)
            elapsed = time.perf_counter() - t0
        self.extra["order"] = res["order"]
        self._record([] if res["order"] >= 3.0 else
                     [f"observed order {res['order']:.3f} < 3"], 1)
        return _split(probe, elapsed)


def _split(probe, wall_s: float) -> tuple[float, float | None]:
    return probe.split(wall_s) if isinstance(probe, HostProbe) else (wall_s, None)


def probe_cold(seed: int, trace: bool) -> dict:
    """Child mode: one catalog_cold sample in this fresh interpreter."""
    _locate_program()
    from topocharge import catalog, cli  # noqa: F401  (imported before the probe starts)

    import workloads as W

    if not trace:
        with HostProbe() as probe:
            t0 = time.perf_counter()
            res = W.cold_sample(seed)
            wall = time.perf_counter() - t0
        own, units = probe.split(wall)
        # catalog_load_s and instantiate_s keep the samples' time (about 2.5%)
        res.update({"time_to_verdict_s": own, "time_to_verdict_ref": units,
                    "probe_samples": len(probe.readings)})
    else:
        from layers import Traced, layer_values

        traced = Traced()
        with traced as tracer:
            res = W.cold_sample(seed, tracer)
        res["layers"] = layer_values(tracer)
        res["spans"] = tracer.table()[:40]
    res["peak_rss_mb"] = _rss_mb()
    return res


# -- measurement -------------------------------------------------------------------


def measure(runner: Runner, seconds: float) -> dict:
    """The untraced closed loop: operations until ``seconds`` have passed."""
    import numpy as np

    probe = ["--probe", "setup", "--workload", runner.workload, "--seed", str(runner.seed)]
    setups = [runner.own_setup] + [_child(probe, CHILD_TIMEOUT_S)
                                   for _ in range(SETUP_REPEATS - 1)]
    times, units = [], []
    t0 = time.perf_counter()
    index = 0
    while index < MIN_OPS[runner.workload] or time.perf_counter() - t0 < seconds:
        own, unit = runner.op(index)
        times.append(own)
        units.append(unit)
        index += 1
    if runner.workload == "catalog_cold":
        samples = runner.extra["samples"]
        load = np.median([s["catalog_load_s"] for s in samples])
        rss = runner.child_rss
        runner.extra["instantiate_s"] = np.median([s["instantiate_s"] for s in samples])
    else:
        load = np.median([s["catalog_load_s"] for s in setups])
        rss = _rss_mb()
    runner.extra.update({"catalog_load_s": load, "ops": len(times), "setups": len(setups),
                         "time_to_verdict_s": float(np.median(times))})
    return {
        "setup_s": float(np.median([s["setup_s"] for s in setups])),
        "time_to_verdict_ref": float(np.median(units)),
        "peak_rss_mb": rss,
    }


def measure_traced(runner: Runner, seconds: float) -> dict:
    """One op untraced, then the same op traced until ``seconds`` pass.

    Counts come from the first traced repetition (they repeat exactly);
    times are medians over the repetitions.  Op times are the operations'
    own seconds, as in the untraced run.
    """
    import numpy as np

    from layers import Traced, layer_values, per_layer_units

    reference, _ = runner.op(0)
    reps, op_s = [], []
    t0 = time.perf_counter()
    while not reps or time.perf_counter() - t0 < seconds:
        with Traced() as tracer:
            own, _ = runner.op(0, tracer)
        op_s.append(own)
        if runner.workload == "catalog_cold":
            reps.append(runner.child_layers)
        else:
            reps.append(layer_values(tracer))
            runner.extra["spans"] = tracer.table()[:40]
    units = per_layer_units()
    values = {}
    for name, unit in units.items():
        if name.startswith("trace."):
            continue
        values[name] = (reps[0][name] if unit == "count"
                        else float(np.median([r[name] for r in reps])))
    values["trace.op_s"] = float(np.median(op_s))
    values["trace.overhead_pct"] = 100.0 * (values["trace.op_s"] / reference - 1.0)
    return {name: (values[name], unit) for name, unit in units.items()}


def _report(args, context: dict, runner: Runner, metrics: dict) -> None:
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print("context " + json.dumps(context, sort_keys=True))
    x = runner.extra
    counts = {"setup_s": x.get("setups"), "time_to_verdict_ref": x.get("ops")}
    for name, (value, unit) in metrics.items():
        n = f" (median of {counts[name]})" if counts.get(name) else ""
        print(f"  {name:42s} {value:16.6f} {unit}{n}")
    if not args.trace:
        print("seconds " + json.dumps({"time_to_verdict_s": x["time_to_verdict_s"]}))
        print(f"  {'catalog_load_s':42s} {x['catalog_load_s']:16.6f} s")
        if "instantiate_s" in x:
            print(f"  {'instantiate_s':42s} {x['instantiate_s']:16.6f} s")
    if "order" in x:
        print(f"  {'kdv observed order 128->256':42s} {x['order']:16.6f}")
    frac = len(runner.failures) / max(runner.attempted, 1)
    print(f"  {'failed_fraction':42s} {frac:16.6f} "
          f"({len(runner.failures)}/{runner.attempted})")
    for row in x.get("spans", [])[:12]:
        print(f"  span {row['span']:36s} n={row['count']:<9d} "
              f"self {row['self_s']:9.4f} s  total {row['total_s']:9.4f} s  "
              f"under {row['parent']}")
    for failure in runner.failures[:20]:
        print(f"  FAILED: {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=("setup", "cold"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(BENCH_DIR))
    try:
        if args.probe == "setup":
            print(json.dumps(probe_setup(args.workload, args.seed)))
            return 0
        if args.probe == "cold":
            print(json.dumps(probe_cold(args.seed, bool(args.trace))))
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        ticks = _cpu_ticks()
        import_s = _locate_program()
        context = _context()
        work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
        work.mkdir(parents=True)
        try:
            runner = Runner(args.workload, args.seed, work)
            runner.setup(import_s)
            if args.trace:
                metrics = measure_traced(runner, args.seconds)
            else:
                values = measure(runner, args.seconds)
                metrics = {k: (values[k], END_TO_END[k]) for k in END_TO_END}
        finally:
            shutil.rmtree(work, ignore_errors=True)
            if WORK.is_dir() and not any(WORK.iterdir()):
                WORK.rmdir()
    except (Abort, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    context["steal_share"] = steal_share(ticks)
    _report(args, context, runner, metrics)
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
