"""Steadiness of the end-to-end metrics over seeds.

    python3 perfbench/steady.py [--workloads sweep,ode,bound_oracle] [--runs 10] [--trace 0]

Runs run.py --runs times per workload, with seeds 1, 2, ..., one run at a time, for
BENCHMARK.json's run_seconds, and prints for every metric the median, the
quartiles (statistics.quantiles, n=4) and the quartile spread as a share of
the median, next to the bound in BENCHMARK.json when it has one.  Also shows
whether every run was correct and the failed shares seen (one per workload
when the share is steady).  With --trace 1 it adds the traced ops_per_s.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default="sweep,ode,bound_oracle")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}

    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        shares, walls, correct = set(), [], True
        for seed in range(1, args.runs + 1):
            t = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=True)
            walls.append(time.perf_counter() - t)
            lines = proc.stdout.strip().splitlines()
            res = json.loads(lines[-1])
            for line in lines:
                if line.startswith("traced ops_per_s "):
                    values.setdefault("(traced ops_per_s)", []).append(float(line.split()[-1]))
            correct = correct and res["correct"]
            shares.add(Fraction(res["failed"], res["attempted"]))
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{workload}: {args.runs} runs, seeds 1..{args.runs}, correct={correct}, "
              f"failed shares {sorted(str(s) for s in shares)}, "
              f"wall per run {statistics.median(walls):.1f} s (max {max(walls):.1f} s)")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            note = f"  bound {bound:.3f}  spread/bound {spread / bound:.2f}" if bound else ""
            print(f"  {name:32s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {spread:6.3f}{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
