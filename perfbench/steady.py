#!/usr/bin/env python3
"""Check that the benchmark is steady across seeds.

    python3 perfbench/steady.py --seeds 11,12,13,14,15 --seconds 20 [paper_encode ...]

Runs `run.py` once per (seed, workload), interleaving the workloads so
that slow drift of the host's speed spreads over all of them instead of
landing on one. For each workload and end-to-end metric it prints the
median of the runs and the spread: the distance between the first and
third quartile (`statistics.quantiles(values, n=4)`) as a share of the
median, next to a third of the metric's bound from BENCHMARK.json.
Every run must report `correct: true`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", required=True, help="comma-separated seeds")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]

    values = {w: {} for w in args.workloads}
    ok = True
    for seed in seeds:
        for w in args.workloads:
            cmd = [
                sys.executable,
                os.path.join(HERE, "run.py"),
                "--workload", w,
                "--seed", str(seed),
                "--seconds", str(args.seconds),
                "--trace", "0",
            ]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if out.returncode != 0 or not result.get("correct"):
                ok = False
                print(f"seed {seed} {w}: FAILED (exit {out.returncode})", file=sys.stderr)
                print(out.stdout[-2000:], out.stderr[-2000:], file=sys.stderr)
                continue
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            summary = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"seed {seed} {w}: {summary}", flush=True)

    print(f"\n{'workload':<14} {'metric':<16} {'median':>12} {'spread':>8} {'bound/3':>8}")
    for w in args.workloads:
        for metric in bench["end_to_end"]:
            vs = values[w].get(metric["name"], [])
            if len(vs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread < metric["bound"] / 3 else "  WIDE"
            print(f"{w:<14} {metric['name']:<16} {med:>12.5g} {spread:>8.4f} {metric['bound'] / 3:>8.4f}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
