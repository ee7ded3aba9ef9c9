#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload in a fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds
perfbench/ (which pulls in ../src) under $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later calls find the
build up to date. Build output goes to stderr. The workload's own output
goes to stdout, and its last line is the JSON result. Any failure (missing
sources, a build error, a crashed or timed-out run, an unreadable result)
exits non-zero without printing a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("paper_grid", "fleet_single", "live_loopback")
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def cached_source_dir(bdir: Path):
    cache = bdir / "CMakeCache.txt"
    if not cache.exists():
        return None
    for line in cache.read_text(errors="replace").splitlines():
        if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
            return line.split("=", 1)[1]
    return None


def build() -> Path:
    bdir = build_dir()
    if cached_source_dir(bdir) not in (None, str(BENCH_DIR)):
        shutil.rmtree(bdir)  # configured for another checkout
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")
    return bdir / "perfbench"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    exe = build()
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--spans", str(exe.parent / f"spans-{args.workload}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {args.workload} ran past {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        sys.exit(f"perfbench: {args.workload} exited {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.exit("perfbench: last output line is not JSON")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit("perfbench: result lacks the expected keys")
    sys.stdout.write("\n".join(lines[:-1]) + "\n" if len(lines) > 1 else "")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
