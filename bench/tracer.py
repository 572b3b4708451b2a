"""Span tracer for the benchmark's traced run.

The tracer wraps functions of the program from outside: every module
attribute and class attribute that binds a traced function is replaced by
one wrapper, so calls through any of those names are seen and nothing
under ``src/`` changes.  Spans are aggregated online (a run makes millions
of kernel calls, too many to keep one record each): per span name the
tracer keeps the call count, the inclusive time of outermost calls (a
recursive call inside a span of the same name adds no time twice) and
the self time, which is the span's duration minus the time its child
spans cover.  Parent-child edges are kept as counts.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class Tracer:
    """Nested spans with online self-time aggregation.

    ``clock`` is injectable so the arithmetic can be tested with a fake
    clock.  ``label`` is the name of the outermost benchmark span on the
    stack (for example ``catalog.build.kp``), so a layer's time can be
    attributed to the catalog entry that caused it.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.count = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.edges = defaultdict(int)
        self.by_label = defaultdict(float)
        self.counters = defaultdict(int)
        self._stack: list[list] = []  # [name, start, child_time]
        self._open = defaultdict(int)
        self.label = None

    def enter(self, name: str):
        self._stack.append([name, self.clock(), 0.0])
        self._open[name] += 1

    def exit(self):
        name, start, child = self._stack.pop()
        elapsed = self.clock() - start
        self._open[name] -= 1
        parent = self._stack[-1][0] if self._stack else None
        self.count[name] += 1
        self.self_time[name] += elapsed - child
        self.edges[(parent, name)] += 1
        if not self._open[name]:
            self.total[name] += elapsed
            if self.label is not None and name != self.label:
                self.by_label[(self.label, name)] += elapsed
        if self._stack:
            self._stack[-1][2] += elapsed

    def span(self, name: str):
        """A benchmark-level span that also labels the spans inside it."""
        return _Span(self, name)

    def wrap(self, fn, name: str, key=None, after=None):
        """A wrapper recording a span per call.

        ``key(args, kwargs)`` may return a suffix that splits the span name
        (by grid shape or quadrature method); ``after(result, args,
        kwargs)`` may return ``(counter, amount)`` pairs to add, for counts
        the arguments or the result carry (matrix cells, time steps).
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            full = name if key is None else f"{name}.{key(args, kwargs)}"
            self.enter(full)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if after is not None:
                for counter, amount in after(result, args, kwargs):
                    self.counters[counter] += amount
            return result

        return traced

    def table(self) -> list[dict]:
        """One row per span name, by self time: count, inclusive and self
        time, and the parent span that made most of its calls."""
        parents = {}
        for (parent, name), n in self.edges.items():
            if n > parents.get(name, (None, 0))[1]:
                parents[name] = (parent, n)
        rows = [
            {"span": n, "parent": parents[n][0], "count": self.count[n],
             "total_s": self.total[n], "self_s": self.self_time[n]}
            for n in self.count if self.count[n]
        ]
        return sorted(rows, key=lambda r: -r["self_s"])


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name
        self._saved = None

    def __enter__(self):
        self._saved, self.tracer.label = self.tracer.label, self.name
        self.tracer.enter(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer.exit()
        self.tracer.label = self._saved
        return False


def install(tracer: Tracer, modules, targets) -> list:
    """Replace every binding of each target function by one traced wrapper.

    ``targets`` holds ``(owner, attribute, span_name, key, after)``: the
    owner is a module or a class that defines the function.  Every name in
    the owner (aliases such as ``__rmul__ = __mul__`` too) and in each of
    ``modules`` that binds the same function object gets the same wrapper.
    Returns the undo list for :func:`uninstall`.
    """
    undo = []
    for owner, attr, span_name, key, after in targets:
        fn = owner.__dict__[attr]
        wrapper = tracer.wrap(fn, span_name, key, after)
        for space in (owner, *modules):
            for name, value in list(vars(space).items()):
                if value is fn:
                    setattr(space, name, wrapper)
                    undo.append((space, name, fn))
    return undo


def uninstall(undo) -> None:
    for owner, attr, fn in reversed(undo):
        setattr(owner, attr, fn)
