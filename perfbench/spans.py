"""Spans around the program's public functions, recorded from outside.

``Tracer.installed()`` replaces each traced function under the names the
calling modules imported it by (``quadplate.cases.assemble``, ...), so
the program itself is unchanged.  Spans are kept in memory as flat lists
and turned into per-layer metrics after the run.
"""

from __future__ import annotations

import contextlib
import importlib
import time

import numpy as np

# Traced layer -> the (module, attribute) names it is called through.
# ``cli.main`` is a layer too: argument parsing is about a quarter of a
# mapping-report item.
LAYERS = {
    "cli.main": [("quadplate.cli", "main")],
    "cases.load_case": [("quadplate.cli", "load_case")],
    "cases.run_modal": [("quadplate.cli", "run_modal")],
    "cases.run_sectprops": [("quadplate.cli", "run_sectprops")],
    "cases.run_mapcheck": [("quadplate.cli", "run_mapcheck")],
    "cases.emit": [("quadplate.cli", "emit")],
    "modal.mesh": [("quadplate.cases", "mesh_quad"),
                   ("quadplate.cases", "mesh_triangle")],
    "modal.nodes_on_segment": [("quadplate.cases", "nodes_on_segment")],
    "modal.assemble": [("quadplate.cases", "assemble")],
    "modal.apply_bcs": [("quadplate.cases", "apply_bcs")],
    "modal.solve_modes": [("quadplate.cases", "solve_modes")],
    "modal.mode_shape_samples": [("quadplate.cases", "mode_shape_samples")],
    "mapping.build_scheme": [("quadplate.cases", "build_scheme"),
                             ("quadplate.modal", "build_scheme")],
    "mapping.compute_poles_cartesian": [
        ("quadplate.cases", "compute_poles_cartesian"),
        ("quadplate.mapping", "compute_poles_cartesian")],
    "mapping.solve_pole_natural": [("quadplate.mapping", "solve_pole_natural")],
    "plate_element.element_matrices": [("quadplate.modal", "element_matrices")],
    "quadrature.section_properties": [("quadplate.cases",
                                       "section_properties")],
}
# Layers that call other traced layers; only for these is self time
# different from busy time.
PARENT_LAYERS = ("cli.main", "cases.run_modal", "cases.run_sectprops",
                 "cases.run_mapcheck", "modal.assemble",
                 "modal.mode_shape_samples", "mapping.build_scheme")


def _dense_bytes(system) -> int:
    return sum(a.nbytes for a in (system.k, system.m)
               if isinstance(a, np.ndarray))


def _scheme_fallback(args, kwargs, result):
    return (result.kind == "pascal6", bool(result.fallback))


def _solve_counts(args, kwargs, result):
    system = kwargs.get("system", args[0])
    return (system.n_dofs, int(result.omega.size),
            float(result.residuals.max(initial=0.0)))


# Counters taken from a layer's arguments and result, where the work is.
_COUNTERS = {
    "modal.assemble": lambda args, kwargs, result: _dense_bytes(result),
    "modal.apply_bcs": lambda args, kwargs, result: _dense_bytes(result),
    "modal.solve_modes": _solve_counts,
    "mapping.build_scheme": _scheme_fallback,
}


class Tracer:
    """In-memory span recorder.

    A span is ``[layer, item, parent, start, end, counter]``; ``parent`` is
    the index of the enclosing span or -1, and spans of one item share
    ``item``.
    """

    def __init__(self):
        self.spans = []
        self.item = None
        self._stack = []

    def _wrap(self, layer, function):
        counter = _COUNTERS.get(layer)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [layer, self.item, stack[-1] if stack else -1, clock(),
                    None, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = function(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if counter is not None:
                span[5] = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = function
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced name for the duration of the block."""
        saved = []
        try:
            for layer, targets in LAYERS.items():
                for module_name, attribute in targets:
                    module = importlib.import_module(module_name)
                    original = getattr(module, attribute)
                    saved.append((module, attribute, original))
                    setattr(module, attribute, self._wrap(layer, original))
            yield self
        finally:
            for module, attribute, original in reversed(saved):
                setattr(module, attribute, original)


def layer_totals(spans: list) -> dict:
    """Per layer: calls, busy seconds and self seconds.

    Self time is a span's duration minus the time its child spans cover.
    Calls nest synchronously, so the children of one span do not overlap
    and their durations add up.
    """
    child_time = [0.0] * len(spans)
    for layer, item, parent, start, end, counter in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals = {layer: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
              for layer in LAYERS}
    for index, (layer, item, parent, start, end, counter) in enumerate(spans):
        entry = totals[layer]
        entry["calls"] += 1
        entry["busy_s"] += end - start
        entry["self_s"] += end - start - child_time[index]
    return totals


def pass_metrics(spans: list, wall: float, output_bytes: int) -> dict:
    """Per-layer metrics of one traced pass over a workload's items."""
    totals = layer_totals(spans)
    metrics = {}
    for layer, entry in totals.items():
        metrics[f"{layer}.calls"] = entry["calls"]
        metrics[f"{layer}.busy_s"] = entry["busy_s"]
        if layer in PARENT_LAYERS:
            metrics[f"{layer}.self_s"] = entry["self_s"]
    counters = {}
    for layer, item, parent, start, end, counter in spans:
        if counter is not None:
            counters.setdefault(layer, []).append(counter)
    schemes = counters.get("mapping.build_scheme", [])
    pascal = [fallback for is_pascal, fallback in schemes if is_pascal]
    metrics["mapping.pascal6_fallback_ratio"] = (
        sum(pascal) / len(pascal) if pascal else 0.0)
    solves = counters.get("modal.solve_modes", [])
    metrics["modal.solve_modes.n_dofs"] = max((n for n, _, _ in solves),
                                              default=0)
    computed = sum(n for n, _, _ in solves)
    metrics["modal.solve_modes.useful_ratio"] = (
        sum(k for _, k, _ in solves) / computed if computed else 0.0)
    metrics["modal.solve_modes.max_residual"] = max(
        (r for _, _, r in solves), default=0.0)
    metrics["modal.dense_bytes_computed"] = sum(
        counters.get("modal.assemble", []) + counters.get("modal.apply_bcs",
                                                           []))
    metrics["cases.emit.bytes"] = output_bytes
    metrics["trace.self_coverage"] = sum(
        entry["self_s"] for entry in totals.values()) / wall
    return metrics


def item_split(spans: list, item) -> dict:
    """Busy seconds per layer within one item."""
    split = {}
    for layer, owner, parent, start, end, counter in spans:
        if owner == item:
            split[layer] = split.get(layer, 0.0) + end - start
    return split


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith((".calls", ".n_dofs")):
        return "count"
    if "bytes" in name:
        return "bytes"
    return "ratio"
