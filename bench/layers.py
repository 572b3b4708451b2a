"""Which program functions the traced run wraps, and the per-layer metrics
derived from the spans.

Which end-to-end metric each per-layer metric should move, and on which
workload, is written down in ``layer_map.json``.  Time metrics are the
inclusive time of the outermost calls; counts are call counts, or the
count an argument or result carries (matrix cells, time steps).  The
certificate is reported in total (every caller) and per catalog entry
(only the time spent under that entry's build).
"""

from __future__ import annotations

import importlib

from tracer import Tracer, install, uninstall

MODULES = ("catalog", "cli", "conservation", "evolution", "grids", "jetexpr",
           "parsing", "pde", "potential", "printing", "quadrature", "variational")
ENTRIES = ("kdv_lagrangian", "kp", "umkp", "shear", "nv", "vorticity")
SHAPES = ("64x64", "32x32", "128", "256")
METHODS = ("cubic", "spectral", "exact")


def _shape(array) -> str:
    return "x".join(str(n) for n in array.shape)


def _method(args, kwargs) -> str:
    return kwargs.get("method", args[8] if len(args) > 8 else "cubic")


def _targets(m: dict) -> list:
    ev, jx = m["evolution"], m["jetexpr"]
    return [
        (m["conservation"], "nontriviality_certificate", "conservation.certificate", None, None),
        (m["conservation"], "curl_witness_on_solutions", "conservation.curl_witness", None, None),
        (m["conservation"], "verify_family", "conservation.verify_family", None, None),
        (m["conservation"], "verify_multiplier", "conservation.verify_multiplier", None, None),
        (m["conservation"], "verify_current", "conservation.verify_current", None, None),
        (m["conservation"], "reduce_to_spatial_flux", "conservation.reduce", None, None),
        (m["conservation"], "divergence_identity", "conservation.divergence_identity", None, None),
        (m["pde"], "substitute_with_ledger", "pde.substitute", None, None),
        (m["variational"], "build_pools", "variational.build_pools", None, None),
        (m["variational"], "solve_linear", "variational.solve_linear", None,
         lambda r, a, k: [("variational.solve_linear_cells", len(a[0]) * a[1])]),
        (m["variational"], "euler_u", "variational.euler_u", None, None),
        (m["variational"], "invert_divergence", "variational.invert_divergence", None, None),
        (jx.JetExpr, "__mul__", "jetexpr.mul", None, None),
        (jx, "total_derivative", "jetexpr.total_derivative", None, None),
        (jx, "substitute_params", "jetexpr.substitute_params", None, None),
        (m["parsing"], "parse_expr", "parsing.parse", None, None),
        (m["printing"], "to_source", "printing.to_source", None, None),
        (m["potential"], "build_potential_system", "potential.build", None, None),
        (ev, "evolve", "evolution.evolve", None,
         lambda r, a, k: [(f"evolution.steps.{_shape(a[1].data)}", r.meta["steps"])]),
        (ev.KhatEvolver, "rhs_hat", "evolution.rhs", lambda a, k: _shape(a[1]), None),
        (ev.KhatEvolver, "ut_grid", "evolution.sample", None, None),
        (ev.KhatEvolver, "dt_estimate", "evolution.dt_estimate", None, None),
        (m["grids"], "evaluate_on_grid", "grids.evaluate", None, None),
        (m["quadrature"], "loop_integral", "quadrature.loop_integral", _method, None),
        (m["quadrature"], "extract_source_sink", "quadrature.source_sink", None, None),
        (m["quadrature"], "check_constraint", "quadrature.check_constraint", None, None),
    ]


class Traced:
    """Context manager: wrap the program's functions for one traced op."""

    def __init__(self):
        self.tracer = Tracer()
        self.modules = {name: importlib.import_module(f"topocharge.{name}")
                        for name in MODULES}
        self._undo = []

    def __enter__(self) -> Tracer:
        spaces = [importlib.import_module("topocharge"), *self.modules.values()]
        self._undo = install(self.tracer, spaces, _targets(self.modules))
        return self.tracer

    def __exit__(self, *exc):
        uninstall(self._undo)
        return False


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for e in ENTRIES:
        units[f"catalog.build_s.{e}"] = "s"
    units["catalog.instantiate_s"] = "s"
    for e in ENTRIES:
        units[f"conservation.certificate_s.{e}"] = "s"
    units["conservation.certificate_calls"] = "count"
    units["conservation.certificate_s"] = "s"
    units["conservation.curl_witness_calls"] = "count"
    for name in ("verify_family", "verify_multiplier", "reduce", "divergence_identity"):
        units[f"conservation.{name}_s"] = "s"
    units.update({
        "pde.substitute_calls": "count", "pde.substitute_s": "s",
        "variational.build_pools_s": "s", "variational.solve_linear_calls": "count",
        "variational.solve_linear_s": "s", "variational.solve_linear_cells": "count",
        "variational.euler_u_calls": "count", "variational.euler_u_s": "s",
        "variational.invert_divergence_s": "s",
        "jetexpr.mul_calls": "count", "jetexpr.mul_s": "s",
        "jetexpr.total_derivative_calls": "count", "jetexpr.total_derivative_s": "s",
        "jetexpr.substitute_params_s": "s",
        "parsing.parse_calls": "count", "parsing.parse_s": "s",
        "printing.to_source_s": "s", "potential.build_s": "s",
    })
    for kind, unit in (("steps", "count"), ("rhs_calls", "count"), ("rhs_us", "us")):
        for shape in SHAPES:
            units[f"evolution.{kind}.{shape}"] = unit
    units.update({"evolution.evolve_s": "s", "evolution.dt_estimate_s": "s",
                  "evolution.sample_s": "s", "grids.evaluate_calls": "count",
                  "grids.evaluate_s": "s"})
    for method in METHODS:
        units[f"quadrature.loop_integral_calls.{method}"] = "count"
        units[f"quadrature.loop_integral_s.{method}"] = "s"
    units.update({"quadrature.source_sink_s": "s", "quadrature.check_constraint_s": "s",
                  "trace.op_s": "s", "trace.overhead_pct": "%"})
    return units


def layer_values(tr: Tracer) -> dict:
    """Per-layer values of one traced op (without the trace.* entries)."""
    v = {}
    for e in ENTRIES:
        v[f"catalog.build_s.{e}"] = tr.total[f"catalog.build.{e}"]
        v[f"conservation.certificate_s.{e}"] = tr.by_label[
            (f"catalog.build.{e}", "conservation.certificate")]
    v["catalog.instantiate_s"] = tr.total["catalog.instantiate"]
    v["conservation.certificate_calls"] = tr.count["conservation.certificate"]
    v["conservation.certificate_s"] = tr.total["conservation.certificate"]
    v["conservation.curl_witness_calls"] = tr.count["conservation.curl_witness"]
    for name in ("verify_family", "verify_multiplier", "reduce", "divergence_identity"):
        v[f"conservation.{name}_s"] = tr.total[f"conservation.{name}"]
    for span in ("pde.substitute", "variational.solve_linear", "variational.euler_u",
                 "jetexpr.mul", "jetexpr.total_derivative", "parsing.parse",
                 "grids.evaluate"):
        v[f"{span}_calls"] = tr.count[span]
        v[f"{span}_s"] = tr.total[span]
    v["variational.solve_linear_cells"] = tr.counters["variational.solve_linear_cells"]
    for span in ("variational.build_pools", "variational.invert_divergence",
                 "jetexpr.substitute_params", "printing.to_source", "potential.build",
                 "evolution.evolve", "evolution.dt_estimate", "evolution.sample",
                 "quadrature.source_sink", "quadrature.check_constraint"):
        v[f"{span}_s"] = tr.total[span]
    for shape in SHAPES:
        calls = tr.count[f"evolution.rhs.{shape}"]
        v[f"evolution.steps.{shape}"] = tr.counters[f"evolution.steps.{shape}"]
        v[f"evolution.rhs_calls.{shape}"] = calls
        v[f"evolution.rhs_us.{shape}"] = (
            1e6 * tr.total[f"evolution.rhs.{shape}"] / calls if calls else 0.0)
    for method in METHODS:
        v[f"quadrature.loop_integral_calls.{method}"] = tr.count[
            f"quadrature.loop_integral.{method}"]
        v[f"quadrature.loop_integral_s.{method}"] = tr.total[
            f"quadrature.loop_integral.{method}"]
    return v
