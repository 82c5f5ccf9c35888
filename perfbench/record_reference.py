#!/usr/bin/env python3
"""Record the correctness gate's reference values from the program.

    python3 perfbench/record_reference.py

Runs each modal and mode-shape item of every workload once at the default
seed and writes ``perfbench/reference.json``, keyed by the item's input
digest: per modal item the omega of each mesh to 12 significant digits,
per mode-shape item each plot block's point count and the sum and maximum
of |deflection|.  Section items need no record: they are checked against
``polygon_section_properties``.  Rerun it only in a change that means to
alter the program's results, and say so in that change.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import run
import workloads


def _round12(value: float) -> float:
    return float(f"{value:.12g}")


def main() -> int:
    run.pin_blas_threads()
    sys.path.insert(0, run.SRC)
    from quadplate import cli

    import gate

    reference = {}
    os.makedirs(run.WORK_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK_DIR) as directory:
        for workload in workloads.WORKLOADS:
            items = [item for item in workloads.build(
                workload, workloads.DEFAULT_SEED) if item.kind != "section"]
            subdir = os.path.join(directory, workload)
            os.mkdir(subdir)
            for item, path in zip(items, workloads.write_cases(items, subdir)):
                _, outputs, error = run.run_item(cli, item, path)
                reasons = [error] if error else gate.check(item, outputs, {})
                if reasons:
                    print(f"{item.label}: " + "; ".join(reasons),
                          file=sys.stderr)
                    return 1
                if item.kind == "modal":
                    values = {mesh: [_round12(w) for w in omega] for mesh, omega
                              in gate.modal_summary(outputs[0]).items()}
                else:
                    values = {block: [n, _round12(total), _round12(peak)]
                              for block, (n, total, peak)
                              in gate.shape_summary(outputs[0]).items()}
                reference[item.digest] = {"label": f"{workload}: {item.label}",
                                          "values": values}
                print(f"recorded {workload}: {item.label}")
    with open(gate.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
