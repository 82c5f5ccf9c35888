"""Correctness gate of the quadplate benchmark.

``check`` turns one item's CLI outputs into a list of failure reasons; an
empty list means the item passed.  The checks are:

* modal (JSON): every mesh's largest relative eigen-residual is at most
  ``RESIDUAL_TOL``, on any seed; where the item's inputs were recorded in
  ``reference.json``, the first six omega per mesh match the recorded
  values to ``OMEGA_RTOL``.
* mode shapes (plot): the block layout follows from the mesh, every
  value is finite, and where recorded, each block's sum and maximum of
  |deflection| match to ``SHAPE_RTOL`` (the plot prints 7 significant
  digits, and a mode's sign is not part of the check).
* section (JSON): every scheme's area and moments match
  ``polygon_section_properties`` to ``SECTION_RTOL``, and the mapcheck
  residuals stay at the levels of the acceptance suite's criterion 4.
"""

from __future__ import annotations

import json
import math
import os

from quadplate import polygon_section_properties

OMEGA_RTOL = 1e-9
RESIDUAL_TOL = 1e-8
SHAPE_RTOL = 1e-5
SECTION_RTOL = 1e-10
MAPCHECK_LIMITS = {
    "partition_of_unity_residual": 1e-10,
    "kronecker_residual": 1e-8,
    "max_map_deviation_relative": 1e-9,
    "pole_round_trip_residual": 1e-10,
}
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


def load_reference(path: str = REFERENCE_PATH) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _expected(item, reference):
    entry = reference.get(item.digest)
    return None if entry is None else entry["values"]


def _rel(value, expected, scale=None) -> float:
    return abs(value - expected) / max(abs(expected), scale or 0.0, 1e-300)


def modal_summary(text: str) -> dict:
    """Per mesh, the omega column of a JSON modal report."""
    report = json.loads(text)
    omega = {}
    for row in report["tables"]["rows"]:
        omega.setdefault(row["mesh"], []).append(row["omega"])
    return omega


def shape_summary(text: str) -> dict:
    """Per plot block, [points, sum |z|, max |z|]."""
    summary = {}
    for block in text.strip().split("\n\n"):
        header, *lines = block.splitlines()
        z = [float(line.split()[2]) for line in lines]
        summary[header.lstrip("# ")] = [len(z), sum(map(abs, z)),
                                        max(map(abs, z))]
    return summary


def _check_modal(item, outputs, reference) -> list:
    report = json.loads(outputs[0])
    errors = []
    for mesh in report["tables"]["meshes"]:
        if not mesh["max_residual"] <= RESIDUAL_TOL:
            errors.append(f"mesh {mesh['mesh']}: eigen-residual "
                          f"{mesh['max_residual']:.3e} > {RESIDUAL_TOL:g}")
    omega = modal_summary(outputs[0])
    for mesh, values in omega.items():
        if not all(math.isfinite(w) and w > 0.0 for w in values):
            errors.append(f"mesh {mesh}: omega not finite and positive")
    expected = _expected(item, reference)
    if expected is not None:
        if sorted(omega) != sorted(expected):
            errors.append(f"meshes {sorted(omega)} != {sorted(expected)}")
        for mesh in sorted(set(omega) & set(expected)):
            got, want = omega[mesh], expected[mesh]
            if len(got) != len(want):
                errors.append(f"mesh {mesh}: {len(got)} modes, "
                              f"reference has {len(want)}")
            for mode, (w, ref) in enumerate(zip(got, want), start=1):
                if _rel(w, ref) > OMEGA_RTOL:
                    errors.append(f"mesh {mesh} mode {mode}: omega {w!r} "
                                  f"vs reference {ref!r}")
    return errors


def _check_shapes(item, outputs, reference) -> list:
    summary = shape_summary(outputs[0])
    errors = []
    if not summary:
        errors.append("no plot blocks")
    for header, (points, total, peak) in summary.items():
        if points % 25 or not math.isfinite(total) or peak <= 0.0:
            errors.append(f"block {header!r}: {points} points, "
                          f"sum {total}, max {peak}")
    expected = _expected(item, reference)
    if expected is not None:
        if sorted(summary) != sorted(expected):
            errors.append(f"blocks {sorted(summary)} != {sorted(expected)}")
        for header in sorted(set(summary) & set(expected)):
            got, want = summary[header], expected[header]
            if got[0] != want[0] or any(
                    _rel(g, w) > SHAPE_RTOL for g, w in zip(got[1:], want[1:])):
                errors.append(f"block {header!r}: {got} vs reference {want}")
    return errors


def _check_section(item, outputs, reference) -> list:
    sect, mapcheck = (json.loads(text) for text in outputs)
    exact = polygon_section_properties(item.case["geometry"]["quad"]
                                       ["vertices"]).as_dict()
    scale = max(abs(value) for value in exact.values())
    errors = []
    schemes = sect["tables"]["schemes"]
    if [row["scheme"] for row in schemes] != [
            "bilinear", "serendipity8", "pascal6"]:
        errors.append(f"sectprops schemes {[r['scheme'] for r in schemes]}")
    for row in schemes:
        for key, value in exact.items():
            if _rel(row[key], value, scale) > SECTION_RTOL:
                errors.append(f"sectprops {row['scheme']} {key}: "
                              f"{row[key]!r} vs polygon {value!r}")
    entries = mapcheck["tables"]["schemes"]
    if sorted(entries) != ["bilinear", "pascal6", "serendipity8"]:
        errors.append(f"mapcheck schemes {sorted(entries)}")
    for kind, entry in sorted(entries.items()):
        for key, limit in MAPCHECK_LIMITS.items():
            if key in entry and not entry[key] <= limit:
                errors.append(f"mapcheck {kind} {key} {entry[key]:.3e} "
                              f"> {limit:g}")
    return errors


_CHECKS = {"modal": _check_modal, "shapes": _check_shapes,
           "section": _check_section}


def check(item, outputs: list, reference: dict) -> list:
    """Failure reasons of one item's outputs; empty when it passed."""
    try:
        return _CHECKS[item.kind](item, outputs, reference)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
