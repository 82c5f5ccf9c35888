#!/usr/bin/env python3
"""The quadplate benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src`` directory.  The workload's case files are generated from the seed,
then ``quadplate.cli.main`` is called in-process, one call per CLI
invocation, in whole passes over the workload's items until ``--seconds``
have elapsed.  Every item's output is checked (see ``gate.py``).

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` half the time runs untraced and half traced, and the last
line reports the per-layer metrics (see ``spans.py``) and the tracing
overhead.  Lines before the last one give the environment, every metric
with its unit and how it was taken, and each failed item with the reason.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
# Set-ups in separate processes, besides the run's own one.
SETUP_PROBES = 4
# Failed items printed in full; the rest are only counted.
MAX_FAILURE_LINES = 20


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="tiny inputs, for the benchmark's own tests; fine: "
                        "modal-medium on 32x32 meshes, for a traced split")
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up, print it and exit")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# BLAS threads.  One: the cores of a shared guest slow down independently
# of each other, so a two-thread solve waits for whichever core is slower
# at that moment, and the speed measured on the benchmark's own thread
# (see ``speed.py``) cannot follow it.
BLAS_THREADS = 1


def pin_blas_threads() -> None:
    """Fix the BLAS thread count; numpy must not be imported yet."""
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS"):
        os.environ[variable] = str(BLAS_THREADS)


def run_item(cli, item, case_path):
    """Run an item's CLI calls; return (seconds, outputs, error or None)."""
    outputs = []
    start = time.perf_counter()
    try:
        for argv in item.argvs(case_path):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = cli.main(argv)
            if code != 0:
                return (time.perf_counter() - start, outputs,
                        f"exit code {code}: {err.getvalue().strip()}")
            outputs.append(out.getvalue())
    except (Exception, SystemExit) as exc:  # one failed item, not the run
        return (time.perf_counter() - start, outputs,
                "".join(traceback.format_exception(exc)).strip())
    return time.perf_counter() - start, outputs, None


def set_up(workload, seed, size, directory):
    """Import the program, write the case files and run a tiny warm-up
    pass.  Returns (cli module, items, case paths)."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from quadplate import cli

    items = workloads.build(workload, seed, size)
    paths = workloads.write_cases(items, directory)
    warm_dir = os.path.join(directory, "warm-up")
    os.mkdir(warm_dir)
    warm = workloads.build(workload, seed, "tiny")
    for item, path in zip(warm, workloads.write_cases(warm, warm_dir)):
        run_item(cli, item, path)
    return cli, items, paths


def timed_set_up(args, directory):
    """``set_up``, and its time at the reference speed, with the host's
    speed measured right after it."""
    start = time.perf_counter()
    cli, items, paths = set_up(args.workload, args.seed, args.size,
                               directory)
    seconds = time.perf_counter() - start
    import speed

    after = speed.measure(0.1 * seconds)
    return cli, items, paths, seconds * speed.scale(after, after)


def probe_setup(args) -> float:
    """Seconds of one set-up in a fresh process, at the reference
    speed."""
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(args.seed),
               "--size", args.size, "--setup-only"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(done.stdout.split()[-1])


class Passes:
    """Timings and failures of whole passes over a workload's items."""

    def __init__(self, n_items):
        self.walls = []
        self.item_times = [[] for _ in range(n_items)]
        # the same times at the reference speed (see ``speed.py``)
        self.item_scaled = [[] for _ in range(n_items)]
        self.attempted = 0
        self.failures = []
        self.layer_metrics = []
        self.slowest_split = None


def run_passes(cli, items, paths, seconds, reference, tracer=None):
    """Whole passes while the next one is expected to end within
    ``seconds``, at least one.  The host's speed is measured before and
    after each item, for a tenth of the item's time."""
    import gate
    import spans
    import speed

    result = Passes(len(items))
    deadline = time.perf_counter() + seconds
    before = speed.measure(0.0)
    while True:
        runs = []
        start = time.perf_counter()
        for index, (item, path) in enumerate(zip(items, paths)):
            if tracer is not None:
                tracer.item = index
            runs.append(run_item(cli, item, path))
            after = speed.measure(0.1 * runs[-1][0])
            result.item_scaled[index].append(
                runs[-1][0] * speed.scale(before, after))
            before = after
        pass_seconds = time.perf_counter() - start
        # the pass's own time leaves out the speed measurements
        wall = sum(run[0] for run in runs)
        result.walls.append(wall)
        for index, (item, (elapsed, outputs, error)) in enumerate(
                zip(items, runs)):
            result.item_times[index].append(elapsed)
            reasons = [error] if error else gate.check(item, outputs,
                                                       reference)
            if reasons:
                result.failures.append((item.label, len(result.walls),
                                        reasons))
        result.attempted += len(items)
        if tracer is not None:
            recorded = list(tracer.spans)
            tracer.spans.clear()
            output_bytes = sum(len(text) for _, outputs, _ in runs
                               for text in outputs)
            result.layer_metrics.append(
                spans.pass_metrics(recorded, wall, output_bytes))
            slowest = max(range(len(items)),
                          key=lambda i: result.item_times[i][-1])
            result.slowest_split = (items[slowest].label,
                                    spans.item_split(recorded, slowest))
        if time.perf_counter() + pass_seconds > deadline:
            return result


def tail(samples):
    """Highest percentile with at least ten samples beyond it, as
    (value, percentile); with fewer than eleven samples, the maximum."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(passes, setup_times):
    """The end-to-end rows.

    Each item's time is taken at the reference speed (see ``speed.py``)
    and is the median over its repeats in the run; a pass is the sum of
    those times."""
    item_median = [statistics.median(times) for times in passes.item_scaled]
    tail_value, tail_pct = tail(item_median)
    repeats = (f"each item's median of {len(passes.walls)} repeats, at the "
               f"reference speed")
    raw = sum(statistics.median(times) for times in passes.item_times)
    return [
        ("wall_s", sum(item_median), "s",
         f"sum over {len(item_median)} items of {repeats}; as measured "
         f"{raw:.4g} s"),
        ("item_p50_ms", 1e3 * statistics.median(item_median), "ms",
         f"median over {len(item_median)} items of {repeats}"),
        ("item_tail_ms", 1e3 * tail_value, "ms",
         f"p{tail_pct:.1f} over {len(item_median)} items of {repeats}"),
        ("peak_rss_mb",
         resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
         "ru_maxrss of this process"),
        ("setup_s", statistics.median(setup_times), "s",
         f"median of {len(setup_times)} set-ups, each in a fresh process, "
         f"at the reference speed"),
    ]


def per_layer(untraced, traced):
    import spans

    names = traced.layer_metrics[0]
    rows = [(name, statistics.median(m[name] for m in traced.layer_metrics),
             spans.unit(name), "median of traced passes") for name in names]
    overhead = statistics.median(traced.walls) - statistics.median(
        untraced.walls)
    rows.append(("trace.overhead_s", overhead, "s",
                 f"median traced pass ({len(traced.walls)}) minus median "
                 f"untraced pass ({len(untraced.walls)})"))
    return rows


def _blas_threads() -> dict:
    """Thread count of each loaded OpenBLAS, asked from the library."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as handle:
        libraries = sorted({line.split()[-1] for line in handle
                            if "openblas" in line and "/" in line})
    threads = {}
    for path in libraries:
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                threads[os.path.basename(path)] = function()
                break
    return threads


def environment(args) -> dict:
    import numpy
    import scipy

    def blas(module):
        config = module.show_config(mode="dicts")["Build Dependencies"]
        return f"{config['blas']['name']} {config['blas']['version']}"

    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "quadplate", "*.py"))):
        with open(path, "rb") as handle:
            digest.update(handle.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    return {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads": _blas_threads(),
        "numpy_blas": blas(numpy), "scipy_blas": blas(scipy),
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__, "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "quadplate", "__init__.py")):
        print(f"perfbench: no quadplate source under {SRC}", file=sys.stderr)
        return 2
    pin_blas_threads()
    os.makedirs(WORK_DIR, exist_ok=True)
    directory = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    try:
        if args.setup_only:
            print(timed_set_up(args, directory)[-1])
            return 0
        setup_times = [] if args.trace else [
            probe_setup(args) for _ in range(SETUP_PROBES)]
        cli, items, paths, seconds = timed_set_up(args, directory)
        setup_times.append(seconds)

        import gate
        import spans

        reference = gate.load_reference()
        print("env " + json.dumps(environment(args), sort_keys=True))
        if args.trace:
            untraced = run_passes(cli, items, paths, args.seconds / 2,
                                  reference)
            tracer = spans.Tracer()
            with tracer.installed():
                traced = run_passes(cli, items, paths, args.seconds / 2,
                                    reference, tracer)
            runs = (untraced, traced)
            rows = per_layer(untraced, traced)
            label, split = traced.slowest_split
            print(f"split of the slowest item, {label}: " + ", ".join(
                f"{layer} {seconds:.3f} s" for layer, seconds in split.items()))
        else:
            runs = (run_passes(cli, items, paths, args.seconds, reference),)
            rows = end_to_end(runs[0], setup_times)
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    attempted = sum(run.attempted for run in runs)
    failures = [failure for run in runs for failure in run.failures]
    for label, pass_number, reasons in failures[:MAX_FAILURE_LINES]:
        print(f"FAIL {label} (pass {pass_number}): " + "; ".join(reasons))
    if len(failures) > MAX_FAILURE_LINES:
        print(f"... and {len(failures) - MAX_FAILURE_LINES} more failures")
    for name, value, unit, how in rows:
        print(f"{name} {value:.6g} {unit} ({how})")
    print(f"error_rate {len(failures) / attempted:.6g} ratio "
          f"({len(failures)} failed of {attempted} attempted items)")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, value, unit, _ in rows},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
