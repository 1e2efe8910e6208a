"""quatode benchmark: one workload, checked, with end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload {sweep,ode,bound_oracle} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source tree holding src/quatode.  The workload runs
in its own child process (perfbench/child.py): one caller, closed loop, no
worker threads, BLAS pinned to one thread.  Set-up is measured in the
workload process and in SETUP_EACH_SIDE cold set-up-only processes before
and after it, so the median spans the whole run.  The first round's outputs are
checked here against perfbench/reference.py; later rounds must repeat them
byte for byte.

The timing metrics are taken from each operation's best time over the
rounds, as `timeit` advises for a shared machine: on a 2-vCPU virtual
machine the same code ran 1.5 to 1.8 times slower for seconds to minutes at
a time, and in one set of ten runs whole-run means spread by 0.17 and 0.23
of their median on `sweep` and `ode`, best times by 0.06 and 0.04
(perfbench/README.md, Steadiness).

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics of a traced run with --trace 1.  Failure causes are printed above it.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import os
import statistics
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")

SETUP_EACH_SIDE = 8        # set-up-only processes before, and again after, the workload
CHILD_TIMEOUT_S = 170.0
TAIL_SHARE = 0.1           # op_tail_ms: the slowest tenth of a round's seeded operations
ACCURACY_CAP = -math.log10(2.0 ** -52)    # double precision, 15.65 digits

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "ops/s", "op_p50_ms": "ms",
                    "op_tail_ms": "ms", "peak_rss_mb": "MB", "accuracy_digits": "digits"}


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    return env


def run_child(args, extra=()) -> dict:
    cmd = [sys.executable, CHILD, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "quatode", "__init__.py")):
        print(f"no quatode sources under {SRC}", file=sys.stderr)
        return 2

    each_side = 0 if args.trace else SETUP_EACH_SIDE      # traced runs report no setup_s
    setups = [run_child(args, ["--setup-only"])["setup_s"] for _ in range(each_side)]
    res = run_child(args)
    setups.append(res["setup_s"])
    setups += [run_child(args, ["--setup-only"])["setup_s"] for _ in range(each_side)]

    sys.path.insert(0, SRC)
    import checks
    import tracer

    specs = workloads.generate(args.workload, args.seed)
    verdicts = checks.check(args.workload, specs, res["first_round"])
    rounds = res["rounds"]
    per_round = len(verdicts)
    attempted = rounds * per_round
    if attempted != res["ops"]:
        raise SystemExit(f"checked {per_round} operations per round, ran {res['ops']} "
                         f"in {rounds} rounds")
    failed_causes = collections.Counter(v.known_fault for v in verdicts if v.failed)
    wrong = [(n, v.problems) for n, v in enumerate(verdicts) if v.wrong]
    failed = rounds * sum(failed_causes.values())
    correct = not wrong and not res["repeat_mismatches"]

    print(f"workload {args.workload} seed {args.seed}: {rounds} rounds of {per_round} "
          f"operations, {attempted} attempted, {failed} failed")
    for cause, count in sorted(failed_causes.items()):
        print(f"  failed {rounds * count}: {cause}")
    for n, problems in wrong[:20]:
        print(f"  WRONG operation {n}: {'; '.join(problems)}")
    for n in res["repeat_mismatches"]:
        print(f"  WRONG spec {n}: output differs from the first round")

    if args.trace:
        metrics = {name: {"value": res["per_layer"][name], "unit": unit}
                   for name, unit in tracer.PER_LAYER}
        # against untraced ops_per_s this gives the tracing overhead
        print(f"traced ops_per_s {per_round / sum(res['op_best'])!r}")
    else:
        deviations = [d for v in verdicts if not v.problems for d in v.deviations]
        worst = max(deviations, default=0.0)
        digits = ACCURACY_CAP if worst <= 0.0 else min(ACCURACY_CAP, -math.log10(worst))
        # each operation's best time over the rounds (a sweep row's is its
        # invocation's best time over its rows)
        best = res["op_best"]
        # p50 and tail over the seeded operations: the known-fault rows run in
        # small fixed invocations whose parser cost is not a row's cost
        seeded = sorted(best[n] for n, v in enumerate(verdicts) if v.known_fault is None)
        # a mean over the slowest tenth: one operation's best time (a single
        # order statistic) moves with the host far more than a mean of several
        slowest = seeded[-math.ceil(TAIL_SHARE * len(seeded)):]
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": per_round / sum(best),
            "op_p50_ms": statistics.median(seeded) * 1e3,
            "op_tail_ms": statistics.fmean(slowest) * 1e3,
            "peak_rss_mb": res["peak_rss_mb"],
            "accuracy_digits": digits,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
