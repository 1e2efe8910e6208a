"""One workload in one process: set-up, one untimed warm-up, timed rounds.

    python3 perfbench/child.py --workload W --seed N --seconds S --trace 0|1 [--setup-only]

Set-up is measured from the first line of this file: importing quatode
(from src/ next to this directory) and making the inputs.  The timed part
repeats whole rounds until S seconds have passed and at least MIN_ROUNDS
rounds have run.  The first round's outputs are kept for the
checks; every later round must reproduce them exactly.  The result is one
JSON line on stdout.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# every operation is timed at least this often, however short the run
MIN_ROUNDS = 3
# stop after the round that crosses this, even before MIN_ROUNDS
HARD_STOP_S = 120.0


def timed_rounds(specs, run, weights, seconds, min_rounds):
    """Whole rounds of `run(spec)` until `seconds` and `min_rounds` are reached.

    Returns (each operation's best time over the rounds, rounds, first round's
    outputs, indices of the specs whose output in a later round differs from
    the first).  Only the best time per spec is kept, so memory
    does not grow with the run.  A spec of weight w counts as w operations,
    each with a w-th of its time.
    """
    first = [None] * len(specs)
    mismatches = set()
    best = [float("inf")] * len(specs)
    rounds = 0
    clock = time.perf_counter
    start = clock()
    while True:
        for n, spec in enumerate(specs):
            t = clock()
            out = run(spec)
            dt = clock() - t
            if dt < best[n]:
                best[n] = dt
            if rounds == 0:
                first[n] = out
            elif out != first[n]:
                mismatches.add(n)
        rounds += 1
        wall = clock() - start
        if (wall >= seconds and rounds >= min_rounds) or wall >= HARD_STOP_S:
            per_op = [b / w for b, w in zip(best, weights) for _ in range(w)]
            return per_op, rounds, first, sorted(mismatches)


def main() -> int:
    import workloads

    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, SRC)
    try:
        import quatode
    except ImportError as exc:
        print(f"cannot import quatode from {SRC}: {exc}", file=sys.stderr)
        return 3
    if not os.path.abspath(quatode.__file__).startswith(SRC + os.sep):
        print(f"quatode was imported from {quatode.__file__}, not {SRC}", file=sys.stderr)
        return 3

    specs = workloads.generate(args.workload, args.seed)
    run = workloads.make_runner(args.workload)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    run(specs[0])
    if tracer is not None:
        tracer.reset()

    weights = [workloads.ops_in(args.workload, s) for s in specs]
    best, rounds, first, mismatches = timed_rounds(
        specs, run, weights, args.seconds, MIN_ROUNDS)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ops = rounds * sum(weights)
    result = {"setup_s": setup_s, "rounds": rounds, "ops": ops,
              "op_best": best, "peak_rss_mb": peak_rss_mb,
              "first_round": first, "repeat_mismatches": mismatches}
    if tracer is not None:
        result["per_layer"] = tracer.per_layer(ops)
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.dump(os.path.join(out_dir, f"trace-{args.workload}"), ops)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
