#!/usr/bin/env python3
"""Steadiness check: two interleaved sets of benchmark runs of one build.

    python3 perfbench/steady.py [--workloads a,b] [--json PATH]

Run from the root of a checkout. For each workload it makes 10 runs per
set, each of BENCHMARK.json's run_seconds and with its own --seed (set A
uses seeds 1..10, set B 101..110), alternating A and B run by run so both
sets see the same machine conditions. For every end-to-end metric it prints each set's median and
quartiles (Python's statistics.quantiles(n=4)), the spread
(Q3 - Q1) / median, and the shift (B - A) / A of set B's median against
set A's. A metric passes when, in both sets, its spread is within its bound
from BENCHMARK.json (setup_s is exempt from the spread test) and the size
of the shift, in either direction, is within the bound too; "steady"
additionally asks for every spread below a third of the bound. The
failed-operation shares of the two sets must be identical. Exits 1 if any
check fails.

The bounds in BENCHMARK.json were chosen from this command's output: each
is at least three times the largest spread and twice the largest shift
seen on any workload, capped at 0.25 (see README.md).
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10
SEED_BASES = (1, 101)  # set A, set B


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"steady: {workload} seed {seed} failed")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--json", help="also write every result to this file")
    args = ap.parse_args()
    metrics = bench["end_to_end"]

    raw = {}
    ok = True
    for workload in args.workloads.split(","):
        results = [[] for _ in SEED_BASES]
        t0 = time.time()
        for i in range(RUNS):
            for s, base in enumerate(SEED_BASES):
                results[s].append(
                    run_once(workload, base + i, bench["run_seconds"]))
        raw[workload] = results
        print(f"\n== {workload}: {len(SEED_BASES)} x {RUNS} runs, "
              f"{time.time() - t0:.0f} s")
        shares = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
                  for rs in results]
        correct = all(r["correct"] for rs in results for r in rs)
        print(f"   failed share per set: {shares}; all correct: {correct}")
        if len(set(shares)) != 1 or not correct:
            ok = False
        print(f"   {'metric':<14} {'set':<4} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'spread':>8} {'bound':>6}  verdict")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            stats = [summarize([r["metrics"][name]["value"] for r in rs])
                     for rs in results]
            for s, st in enumerate(stats):
                spread_ok = name == "setup_s" or st["spread"] <= bound
                steady = name == "setup_s" or st["spread"] <= bound / 3
                verdict = ("steady" if steady else
                           "within bound" if spread_ok else "TOO NOISY")
                ok &= spread_ok
                print(f"   {name:<14} {'AB'[s]:<4} {st['median']:>12.6g} "
                      f"{st['q1']:>12.6g} {st['q3']:>12.6g} "
                      f"{st['spread']:>8.4f} {bound:>6}  {verdict}")
            a, b = stats[0]["median"], stats[1]["median"]
            shift = (b - a) / a
            agree = abs(shift) <= bound
            ok &= agree
            print(f"   {name:<14} B vs A median shift {shift:+.4f} -> "
                  f"{'agree' if agree else 'DISAGREE'}")
    if args.json:
        Path(args.json).write_text(json.dumps(raw, indent=1))
    print("\nsteady: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
