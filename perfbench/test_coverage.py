#!/usr/bin/env python3
"""Check the traced run of both sim workloads on a short run.

For each sim workload, runs `run.py --trace 1 --seconds 0`: one
untraced and one traced repetition at the size the benchmark runs.
Asserts that the run is correct (traced RunResult byte-identical to
System::run, zero auditor violations), that every per-layer metric is
reported, and that sim.coverage reaches the stated tolerance
(README.md).  Exits 0 on success.

    python3 perfbench/test_coverage.py
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
COVERAGE_MIN = 0.70
WORKLOADS = ["sim_mix4_ddr5_darp", "sim_swapt_ddr3"]


def per_layer_names():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer"]}


def main():
    expected = per_layer_names()
    failures = []
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", "1", "--seconds", "0", "--trace", "1"],
            cwd=HERE.parent, stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        metrics = result["metrics"]
        coverage = metrics["sim.coverage"]["value"]
        print("%s: correct=%s coverage=%.3f overhead=%.2f"
              % (workload, result["correct"], coverage,
                 metrics["sim.trace_overhead"]["value"]))
        if not result["correct"] or result["failed"] != 0:
            failures.append("%s: run not correct" % workload)
        if set(metrics) != expected:
            failures.append("%s: metric names differ from BENCHMARK.json"
                            % workload)
        if coverage < COVERAGE_MIN:
            failures.append("%s: coverage %.3f below %.2f"
                            % (workload, coverage, COVERAGE_MIN))
    for f in failures:
        print("FAIL:", f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
