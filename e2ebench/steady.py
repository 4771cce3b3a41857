#!/usr/bin/env python3
"""Steadiness check for the e2ebench benchmark.

Runs two sets of N untraced runs of one workload, alternating between the
sets run by run so that host drift falls on both alike, each run with its own
seed. For every end-to-end metric it prints each set's median, quartiles and
spread (interquartile distance as a share of the median, quartiles as
statistics.quantiles(values, n=4) gives them) against the metric's bound in
BENCHMARK.json, and how far apart the two medians are, in either direction,
as a share of the smaller one. Every metric, setup_s too, must keep both
within its bound, and every run must fail the same share of operations. Per run
it prints host.runq_wait_ms and mem.minor_faults, which flag a run the host
disturbed.

Usage, from the repository root:
    python3 e2ebench/steady.py --workload caida_flap --runs 10
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def one_run(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"run failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    with open(os.path.join(ROOT, "e2ebench", "out", f"{workload}.json")) as f:
        extra = json.load(f)
    return result, extra


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10, help="runs per set")
    p.add_argument("--seconds", type=int, help="defaults to run_seconds of BENCHMARK.json")
    p.add_argument("--first-seed", type=int, default=1)
    a = p.parse_args()
    if a.runs < 2:
        p.error("--runs must be at least 2 to give quartiles")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = a.seconds or bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    sets = [[], []]
    for i in range(a.runs):
        for s in range(2):
            seed = a.first_seed + i * 2 + s
            result, extra = one_run(bench["command"], a.workload, seed, seconds)
            sets[s].append(result)
            vals = " ".join(f"{k}={v['value']:.4f}" for k, v in result["metrics"].items())
            print(f"set {s + 1} run {i + 1:2d} seed {seed:4d}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} {vals} "
                  f"runq_wait_ms={extra['host.runq_wait_ms']:.1f} "
                  f"minor_faults={extra['mem.minor_faults']}", flush=True)

    ok = True
    medians = []
    shares = []
    print(f"\n{a.workload}: {a.runs} runs per set, {seconds} s each")
    for s, runs in enumerate(sets):
        share = {r["failed"] / r["attempted"] for r in runs}
        print(f"set {s + 1}: failed share per run {sorted(share)}")
        ok &= len(share) == 1
        shares.append(share)
        med = {}
        for name, spec in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            m = statistics.median(values)
            spread = (q3 - q1) / m if m else float("inf")
            med[name] = m
            flag = "ok" if spread <= spec["bound"] else "TOO WIDE"
            if spread > spec["bound"] / 3 and flag == "ok":
                flag = "ok (above a third of the bound)"
            ok &= flag.startswith("ok")
            print(f"  {name:<14} median {m:12.4f} q1 {q1:12.4f} q3 {q3:12.4f} "
                  f"spread {spread:7.4f} bound {spec['bound']:.2f} {flag}")
        medians.append(med)
    ok &= shares[0] == shares[1]
    print("second set against the first:")
    for name, spec in bounds.items():
        m1, m2 = medians[0][name], medians[1][name]
        apart = abs(m2 - m1) / min(m1, m2) if min(m1, m2) > 0 else float("inf")
        flag = "ok" if apart <= spec["bound"] else "APART BEYOND BOUND"
        ok &= flag == "ok"
        print(f"  {name:<14} {m1:12.4f} -> {m2:12.4f} apart by {apart:.4f} "
              f"bound {spec['bound']:.2f} {flag}")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
