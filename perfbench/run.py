#!/usr/bin/env python3
"""Build and run the NUAT performance benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures and builds perfbench/CMakeLists.txt (the simulator sources
under src/ plus the benchmark program) in Release mode, then runs
nuat_perfbench with the same arguments.  The build directory is
$CARGO_TARGET_DIR/perfbench when that variable is set, else
.bench_build/perfbench; a traced run also writes its span window to
<build>/spans/.  Its output is passed through, so the last
stdout line is the result JSON.  Exits non-zero, without a result
line, when the build or the run fails.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_JOBS = "2"
RUN_TIMEOUT_S = 175


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def run_quiet(cmd):
    """Run a build step; on failure echo its output to stderr."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write("perfbench: %s failed\n" % " ".join(cmd))
        sys.exit(1)


def build(out):
    if not (out / "Makefile").exists():
        run_quiet(["cmake", "-S", str(HERE), "-B", str(out),
                   "-G", "Unix Makefiles", "-DCMAKE_BUILD_TYPE=Release"])
    run_quiet(["cmake", "--build", str(out), "-j", BUILD_JOBS])
    return out / "nuat_perfbench"


def option(args, name):
    return args[args.index(name) + 1] if name in args[:-1] else None


def main():
    args = sys.argv[1:]
    out = build_dir()
    binary = build(out)
    if option(args, "--trace") == "1" and "--spans-out" not in args:
        spans = out / "spans"
        spans.mkdir(exist_ok=True)
        name = "%s-seed%s.jsonl" % (option(args, "--workload"),
                                    option(args, "--seed") or "1")
        args += ["--spans-out", str(spans / name)]
    try:
        proc = subprocess.run([str(binary)] + args, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        sys.exit(1)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
