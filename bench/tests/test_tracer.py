"""Self-time and aggregation arithmetic of the benchmark tracer, the
host probe behind time to verdict, and the spread arithmetic
the trajectory reports."""

import sys
import time
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from hostprobe import INTERVAL_S, HostProbe  # noqa: E402
from tracer import Tracer, install, uninstall  # noqa: E402
from trajectory import spread, worse_share  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_subtracts_children():
    clock = FakeClock()
    tr = Tracer(clock)
    tr.enter("a")          # a: 0 .. 10, children b (2..5) and c (6..9)
    clock.advance(2)
    tr.enter("b")
    clock.advance(3)
    tr.exit()
    clock.advance(1)
    tr.enter("c")
    clock.advance(1)
    tr.enter("d")          # grandchild: counted in c's children, not a's
    clock.advance(1)
    tr.exit()
    clock.advance(1)
    tr.exit()
    clock.advance(1)
    tr.exit()
    assert tr.total["a"] == 10
    assert tr.self_time["a"] == 10 - 3 - 3
    assert tr.self_time["b"] == 3
    assert tr.total["c"] == 3 and tr.self_time["c"] == 2
    assert tr.self_time["d"] == 1
    assert sum(tr.self_time.values()) == tr.total["a"]
    assert tr.edges[("a", "b")] == 1 and tr.edges[("c", "d")] == 1
    assert tr.edges[(None, "a")] == 1
    rows = {r["span"]: r for r in tr.table()}
    assert rows["d"]["parent"] == "c" and rows["a"]["parent"] is None
    assert [r["span"] for r in tr.table()][0] == "a"   # largest self time first


def test_recursion_counts_calls_but_not_time_twice():
    clock = FakeClock()
    tr = Tracer(clock)
    tr.enter("f")
    clock.advance(1)
    tr.enter("f")
    clock.advance(2)
    tr.exit()
    clock.advance(1)
    tr.exit()
    assert tr.count["f"] == 2
    assert tr.total["f"] == 4          # outermost span only
    assert tr.self_time["f"] == 4      # 2 (inner) + 4 - 2 (outer)


def test_labelled_span_attributes_inner_time():
    clock = FakeClock()
    tr = Tracer(clock)
    with tr.span("catalog.build.kp"):
        clock.advance(1)
        tr.enter("conservation.certificate")
        clock.advance(5)
        tr.exit()
    tr.enter("conservation.certificate")   # outside any label
    clock.advance(7)
    tr.exit()
    assert tr.by_label[("catalog.build.kp", "conservation.certificate")] == 5
    assert tr.total["conservation.certificate"] == 12
    assert tr.total["catalog.build.kp"] == 6


def test_install_wraps_every_binding_and_undoes():
    def work(x):
        return x + 1

    class K:
        def m(self, v):
            return 2 * v
        alias = m

    home = types.SimpleNamespace(work=work)
    other = types.ModuleType("other")
    other.work = work
    other.unrelated = len
    tr = Tracer()
    undo = install(tr, [other], [
        (home, "work", "w", None, lambda r, a, k: [("sum", r)]),
        (K, "m", "k.m", lambda a, k: f"n{a[1]}", None),
    ])
    assert home.work(1) == 2 and other.work(2) == 3
    assert K().m(3) == 6 and K().alias(4) == 8
    assert tr.count["w"] == 2 and tr.counters["sum"] == 5
    assert tr.count["k.m.n3"] == 1 and tr.count["k.m.n4"] == 1
    uninstall(undo)
    assert home.work is work and other.work is work
    assert K.__dict__["m"] is K.__dict__["alias"]


def test_spread_and_worse_share():
    # quartiles of 1..9 by the exclusive method: 2.5 and 7.5, median 5
    assert spread([float(v) for v in range(9, 0, -1)]) == 1.0
    assert spread([2.0, 2.0, 2.0, 2.0]) == 0.0
    assert worse_share(2.0, 2.5, "lower") == 0.25
    assert worse_share(2.0, 2.5, "higher") == -0.25
    assert worse_share(4.0, 3.0, "higher") == 0.25



def test_probe_split_takes_samples_out_and_weights_by_speed():
    probe = HostProbe()
    probe.readings = [0.5, 0.25, 0.25]  # 1 s of samples; mean of 1/r is 10/3
    own, units = probe.split(7.0)
    assert own == 6.0
    assert units == pytest.approx(20.0)
    # a host twice as slow doubles the body and the samples alike
    probe.readings = [1.0, 0.5, 0.5]
    assert probe.split(14.0) == (12.0, pytest.approx(20.0))
    probe.readings = []
    with pytest.raises(ValueError):
        probe.split(1.0)


def test_probe_samples_while_the_body_runs():
    with HostProbe() as probe:
        t0 = time.process_time()
        while time.process_time() - t0 < 3 * INTERVAL_S:
            sum(range(1000))
    n = len(probe.readings)
    assert n >= 1 and all(r > 0 for r in probe.readings)
    sum(range(10_000_000))  # the timer is off once the body has ended
    assert len(probe.readings) == n
