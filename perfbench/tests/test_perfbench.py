"""Tests of the benchmark itself, at tiny input sizes."""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)


def _bench(cwd, workload, trace, size="tiny"):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", "3", "--seconds", "0.5", "--trace", str(trace),
               "--size", size]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(
        workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_runs_tiny_and_prints_every_metric(workload, trace):
    done = _bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, done.stdout
    assert result["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()
            } == {entry["name"]: entry["unit"] for entry in expected}
    for entry in expected:
        printed = [line for line in lines[:-1]
                   if line.startswith(entry["name"] + " ")]
        assert len(printed) == 1
        assert printed[0].split()[2] == entry["unit"]
    assert any(line.startswith("error_rate 0 ratio") for line in lines)
    env = json.loads(next(line for line in lines
                          if line.startswith("env "))[4:])
    assert env["nproc"] >= 1 and env["blas_threads_pinned"] == 1
    assert set(env["blas_threads"].values()) <= {1}
    for key in ("numpy", "scipy", "python", "numpy_blas", "seed", "commit"):
        assert key in env


def test_checkout_without_source_fails_without_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(tmp_path, "modal-medium", 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_perturbed_reference_is_reported_as_failure(tmp_path):
    import gate

    cli, items, paths = run.set_up("modal-medium", 3, "full", str(tmp_path))
    index = next(i for i, item in enumerate(items)
                 if item.label == "cantilever-quad 16x16")
    item, path = items[index], paths[index]
    reference = gate.load_reference()
    passes = run.run_passes(cli, [item], [path], 0.01, reference)
    assert passes.failures == []

    perturbed = copy.deepcopy(reference)
    perturbed[item.digest]["values"]["16x16"][0] *= 1.0 + 1e-8
    passes = run.run_passes(cli, [item], [path], 0.01, perturbed)
    assert len(passes.failures) == 1
    label, _, reasons = passes.failures[0]
    assert label == item.label and len(reasons) == 1
    assert "mesh 16x16 mode 1: omega" in reasons[0]


def test_perturbed_shape_reference_is_reported_as_failure(tmp_path):
    import gate

    cli, items, paths = run.set_up("modal-shapes", 0, "full", str(tmp_path))
    item = next(item for item in items if item.label.startswith(
        "cantilever-isosceles"))
    _, outputs, error = run.run_item(cli, item, paths[items.index(item)])
    assert error is None
    reference = gate.load_reference()
    assert gate.check(item, outputs, reference) == []
    perturbed = copy.deepcopy(reference)
    block = sorted(perturbed[item.digest]["values"])[0]
    perturbed[item.digest]["values"][block][1] *= 1.0 + 1e-4
    reasons = gate.check(item, outputs, perturbed)
    assert len(reasons) == 1 and block in reasons[0]


def test_every_recorded_item_has_a_reference_at_the_default_seed():
    import gate

    reference = gate.load_reference()
    for workload in workloads.WORKLOADS:
        for item in workloads.build(workload, workloads.DEFAULT_SEED):
            if item.kind != "section":
                assert item.digest in reference, (workload, item.label)


def test_inputs_follow_the_seed():
    def digests(workload, seed):
        return sorted(item.digest for item in workloads.build(workload, seed))

    assert digests("mapping-report", 5) == digests("mapping-report", 5)
    assert digests("mapping-report", 5) != digests("mapping-report", 6)
    # the modal meshes are the same on every seed, so their references
    # apply on every seed
    for workload in ("modal-medium", "modal-shapes"):
        assert digests(workload, 5) == digests(workload, 6)


def test_tail_has_ten_samples_beyond_it():
    samples = list(range(40))
    value, percentile = run.tail(samples)
    assert sum(s > value for s in samples) == 10
    assert percentile == 75.0
    assert run.tail(samples[:10]) == (9, 100.0)


def test_speed_scale_takes_times_to_the_reference_speed():
    import speed

    assert speed.measure(0.0) > 0.0
    assert speed.scale(speed.REFERENCE_S, speed.REFERENCE_S) == 1.0
    # a host running at half the reference speed halves the times
    slow = 2.0 * speed.REFERENCE_S
    assert speed.scale(slow, slow) == 0.5
