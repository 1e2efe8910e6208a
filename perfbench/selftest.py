"""Show that every check rejects a slightly perturbed output.

    python3 perfbench/selftest.py

Runs a few operations of each input set with seed 1, confirms their real
outputs pass, then perturbs one field at a time (an energy by 1e-6, R + T by
1e-9, ...) and confirms the named check rejects it.  Last, it changes one
character of a later round's output and confirms the repeat check of the
timed rounds flags it.  Exits 1 if any perturbation slips through or any
real output fails.
"""

from __future__ import annotations

import copy
import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import child  # noqa: E402
import workloads  # noqa: E402

SEED = 1


def _csv_edit(text: str, row: int, field: int, fn) -> str:
    lines = text.splitlines()
    cells = lines[row + 1].split(",")
    cells[field] = repr(fn(float(cells[field])))
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _json_edit(text: str, fn) -> str:
    out = json.loads(text)
    fn(out)
    return json.dumps(out)


def _find(specs, pred):
    return next(n for n, s in enumerate(specs) if pred(s))


def sweep_cases(specs):
    step_w0 = _find(specs, lambda s: s["kind"] == "step" and s["fixed"]["Wabs"] == 0.0
                    and s["param"] != "Wabs")
    barrier_w = _find(specs, lambda s: s["kind"] == "barrier" and s["param"] == "E"
                      and s["fixed"]["Wabs"] > 0.0)
    barrier_w0 = _find(specs, lambda s: s["kind"] == "barrier" and s["fixed"]["Wabs"] == 0.0)
    step_below, below_row = next(
        (n, m) for n, s in enumerate(specs) if s["kind"] == "step"
        for m, row in enumerate(workloads.sweep_rows(s))
        if row["E"] < (row["V"] ** 2 + row["Wabs"] ** 2) ** 0.5)

    def edit(idx, row, field, fn, *more):
        """Apply fn to one CSV field, and more (field, fn) pairs to the same row."""
        def apply(outputs):
            for f, g in ((field, fn), *zip(more[::2], more[1::2])):
                outputs[idx][1] = _csv_edit(outputs[idx][1], row, f, g)
        return idx, apply

    def scale(by):
        return lambda x: x * by

    return [
        ("R + T shifted by 1e-9", "|R+T-1|", *edit(barrier_w, 0, 6, lambda x: x + 1e-9)),
        ("r moved by 1e-8 (R kept)", "r vs split solve", *edit(barrier_w, 3, 8, lambda x: x + 1e-8)),
        ("t~ moved by 1e-8 relative", "t~ exp(-ka) vs split solve",
         *edit(barrier_w, 5, 14, lambda x: x * (1.0 + 1e-8) + 1e-8)),
        ("current spread 2e-10 per unit current", "current spread",
         *edit(barrier_w, 1, 16, lambda x: x + 2e-10 * 4.0)),
        ("W = 0 step: r moved by 5e-10", "r vs textbook", *edit(step_w0, 2, 9, lambda x: x + 5e-10)),
        ("W = 0 barrier: T moved by 1e-9", "T vs textbook",
         *edit(barrier_w0, 1, 7, lambda x: x + 1e-9)),
        ("W = 0 step: r~ made 1e-9", "j-channel amplitudes at W = 0",
         *edit(step_w0, 3, 10, lambda x: x + 1e-9)),
        ("T and R traded by 1e-9 (R + T kept)", "T - |t|^2",
         *edit(barrier_w, 4, 7, lambda x: x + 1e-9, 6, lambda x: x - 1e-9)),
        ("step r scaled by 1 + 1e-9 below threshold", "||r|-1| below threshold",
         *edit(step_below, below_row, 8, scale(1.0 + 1e-9), 9, scale(1.0 + 1e-9))),
        ("regime label changed", "regime", *edit_label(step_below, below_row)),
        ("step T below threshold made 1e-12", "T = 0 below threshold",
         *edit(step_below, below_row, 7, lambda x: x + 1e-12)),
        ("echoed E moved by one ulp", "row echoes", *edit(barrier_w, 2, 0, _next_up)),
        ("exit code 1 without an ERROR row", "exit code", barrier_w, _exit_code(barrier_w)),
    ]


def _next_up(x: float) -> float:
    return math.nextafter(x, math.inf)


def _exit_code(idx):
    def apply(outputs):
        outputs[idx][0] = 1
    return apply


def edit_label(idx, row):
    def apply(outputs):
        lines = outputs[idx][1].splitlines()
        cells = lines[row + 1].split(",")
        cells[5] = "AboveThreshold"
        lines[row + 1] = ",".join(cells)
        outputs[idx][1] = "\n".join(lines) + "\n"
    return idx, apply


def bound_cases(specs):
    zero = _find(specs, lambda s: s["wclass"] == "zero")
    small = _find(specs, lambda s: s["wclass"] == "small")
    sizable = _find(specs, lambda s: s["wclass"] == "sizable")

    def energies(idx, fn):
        def apply(outputs):
            outputs[idx][1] = _json_edit(outputs[idx][1], fn)
        return idx, apply

    def shift(out):
        out["energies"][0] += 1e-6

    def drop(out):
        for key in ("energies", "residuals", "regimes"):
            out[key].pop()

    def inject(out):
        out["energies"], out["residuals"], out["regimes"] = [-1.0], [1e-9], ["Evanescent"]

    def regime(out):
        out["regimes"][0] = "SubW"

    def residual(out):
        out["residuals"][0] = 2e-8

    return [
        ("W = 0 energy moved by 1e-6", "energy vs W = 0 bisection", *energies(zero, shift)),
        ("small-|W| energy moved by 1e-6", "Newton distance", *energies(small, shift)),
        ("a W = 0 state dropped", "states found", *energies(zero, drop)),
        ("a small-|W| state dropped", "states found", *energies(small, drop)),
        ("a state invented on a sizable-|W| well", "Newton distance", *energies(sizable, inject)),
        ("regime label changed", "regimes", *energies(zero, regime)),
        ("reported residual 2e-8", "reported residual", *energies(small, residual)),
    ]


def ode_cases(specs):
    ivp = _find(specs, lambda s: s["kind"] == "qmat2")
    cl = _find(specs, lambda s: s["kind"] == "clode")
    quad = _find(specs, lambda s: s["kind"] == "quad" and s["branch"] == "generic")
    sphere = _find(specs, lambda s: s["kind"] == "quad" and s["branch"] == "sphere")
    first_hode = _find(specs, lambda s: s["kind"] == "hode")

    def change(idx, fn):
        def apply(outputs):
            fn(outputs[idx])
        return idx, apply

    def bump(pos, by):
        def fn(out):
            out[pos] += by
        return fn

    def root(out):
        out[4][0] += 1e-6

    def relabel(out):
        out[1] = "parallel"

    def drop_root(out):
        del out[4][4:]

    return [
        ("qmat2 phi(1) moved by 1e-8", "vs matrix exponential", *change(ivp, bump(32, 1e-8))),
        ("clode phi'(0.5) moved by 1e-8", "vs matrix exponential", *change(cl, bump(20, 1e-8))),
        ("hode phi(1) moved by 2e-6", "closed form vs RK4 oracle",
         *change(first_hode, bump(33, 2e-6))),
        ("generic root moved by 1e-6", "quadratic residual", *change(quad, root)),
        ("sphere radius moved by 1e-9", "sphere radius", *change(sphere, bump(2, 1e-9))),
        ("generic case reported as parallel", "branch", *change(quad, relabel)),
        ("one of two roots dropped", "roots returned", *change(quad, drop_root)),
    ]


def oracle_cases(specs):
    def change(idx, fn):
        def apply(outputs):
            outputs[idx][1] = _json_edit(outputs[idx][1], fn)
        return idx, apply

    def err(out):
        out["oracle_max_err"] += 1e-9

    def phi(out):
        out["points"][-1]["phi"][2] += 1e-8

    def residual(out):
        out["points"][-1]["residual"] = 2e-10

    def disagree(out):
        out["oracle_max_err"] = 2e-6

    return [
        ("oracle_max_err shifted by 1e-9", "RK4 disagreement vs independent RK4",
         *change(0, err)),
        ("phi at the last point moved by 1e-8", "vs matrix exponential", *change(1, phi)),
        ("ODE residual reported as 2e-10", "ODE residual", *change(2, residual)),
        ("oracle_max_err reported as 2e-6", "reported RK4 disagreement", *change(0, disagree)),
    ]


CASES = {"sweep": sweep_cases, "bound": bound_cases, "ode": ode_cases,
         "oracle": oracle_cases}
# operations to run per input set: enough for every case above
LIMIT = {"sweep": None, "bound": None, "ode": None, "oracle": 3}


def repeat_case() -> bool:
    """One character of a later round's output changed: the timed rounds flag it."""
    specs = [s for s in workloads.generate_sweep(SEED) if s["known_fault"] is None][:3]
    run = workloads.make_runner("sweep")
    calls = 0

    def flaky(spec):
        nonlocal calls
        calls += 1
        code, text = run(spec)
        if calls == len(specs) + 2:           # second round, second spec
            text = text[:-2] + ("0" if text[-2] != "0" else "1") + text[-1]
        return [code, text]

    weights = [workloads.ops_in("sweep", s) for s in specs]
    mismatches = child.timed_rounds(specs, flaky, weights, 0.0, 2)[3]
    caught = mismatches == [1]
    print(f"repeat: {'rejected' if caught else 'MISSED  '}  one character changed in "
          f"round 2 of spec 1 -> repeat mismatches {mismatches}")
    return caught


def main() -> int:
    ok = True
    for part, cases in CASES.items():
        specs = workloads.GENERATORS[part](SEED)
        if part == "sweep":
            specs = [s for s in specs if s["known_fault"] is None]
        specs = specs[:LIMIT[part]]
        run = workloads.make_runner(part)
        outputs = [run(s) for s in specs]
        clean = [v for v in checks.CHECKS[part](specs, outputs) if v.problems]
        print(f"{part}: {len(specs)} real outputs, {len(clean)} with problems")
        ok = ok and not clean
        for label, expect, idx, apply in cases(specs):
            bad = copy.deepcopy(outputs)
            apply(bad)
            verdicts = checks.CHECKS[part](specs, bad)
            problems = [p for v in verdicts for p in v.problems]
            caught = any(expect in p for p in problems)
            ok = ok and caught
            shown = next((p for p in problems if expect in p), problems[:1])
            print(f"  {'rejected' if caught else 'MISSED  '}  {label:42s} -> {shown}")
    ok = repeat_case() and ok
    print("all perturbations rejected" if ok else "SOME PERTURBATION WAS NOT REJECTED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
