"""Checks of every operation's output against the computations in reference.py.

`check(workload, specs, outputs)` returns one `Verdict` per operation of a
round (one per CSV row for sweep); `CHECKS[part]` checks one input set.  A
verdict lists the problems found and the deviations measured;
`accuracy_digits` is taken from the deviations of the operations that
passed.  An operation whose spec names a known fault and that shows a
problem counts as failed with that cause; a problem anywhere else makes the
run incorrect.
"""

from __future__ import annotations

import cmath
import json
import math

import numpy as np

import reference as ref
import workloads

CSV_HEADER = ("E,V,Wabs,Warg,a,regime,R,T,r_re,r_im,rt_re,rt_im,"
              "t_re,t_im,tt_re,tt_im,current_residual")
UNITARITY_TOL = 1e-10      # |R + T - 1|, and ||r| - 1| below threshold
CURRENT_TOL = 1e-10        # spread of the current over x, per unit incident current
AMPLITUDE_TOL = 1e-9       # amplitudes against the symplectic-split solve
TEXTBOOK_TOL = 1e-10       # W = 0 amplitudes against the textbook formulas
ENERGY_TOL = 1e-9          # W = 0 well energies against bisection
CONTINUATION_TOL = 1e-6    # small-|W| well energies against their W = 0 values
ROOT_DISTANCE_TOL = 1e-8   # Newton distance to a root of the well determinant
ACCEPT = 1e-8              # quatode's own acceptance of a well energy
IVP_TOL = 1e-10            # closed form against the matrix exponential
RK4_TOL = 1e-6             # closed form against the package's RK4 oracle
QUAD_TOL = 1e-10           # quadratic residual per unit coefficient scale
ORACLE_ERR_TOL = 1e-10     # reported oracle disagreement against ours
RK4_SUBSET = 2             # IVPs per solver in the ode RK4 cross-check


class Verdict:
    def __init__(self, known_fault: str | None = None):
        self.known_fault = known_fault
        self.problems: list[str] = []
        self.deviations: list[float] = []

    def within(self, what: str, value: float, tol: float, accuracy: bool = True):
        value = float(value)
        if not value <= tol:                      # NaN fails too
            self.problems.append(f"{what} = {value:.3g} > {tol:.0e}")
        if accuracy:
            self.deviations.append(value)

    def require(self, what: str, ok: bool):
        if not ok:
            self.problems.append(what)

    @property
    def failed(self) -> bool:
        return bool(self.problems) and self.known_fault is not None

    @property
    def wrong(self) -> bool:
        return bool(self.problems) and self.known_fault is None


def _rel(x, y) -> float:
    return abs(x - y) / max(1.0, abs(y))


# -- sweep ------------------------------------------------------------------


def _regime(E: float, V: float, wabs: float) -> str:
    if E > math.hypot(V, wabs):
        return "AboveThreshold"
    return "SubW" if E < wabs else "Evanescent"


def check_sweep_row(kind: str, row: dict, fields: list[str], v: Verdict):
    E, V, wabs, warg, a = (row[k] for k in ("E", "V", "Wabs", "Warg", "a"))
    W = wabs * complex(math.cos(warg), math.sin(warg))
    v.require("row has 17 fields", len(fields) == 17)
    if len(fields) != 17:
        return
    printed = [float(f) for f in fields[:5]]
    v.require("row echoes E, V, |W|, a", printed[0] == E and printed[1] == V
              and printed[2] == abs(W) and printed[4] == a)
    v.require("row echoes arg W", abs(printed[3] - (cmath.phase(W) if wabs else 0.0)) <= 1e-12)
    if fields[5] == "ERROR":
        v.problems.append("ERROR row")
        return
    v.require(f"regime {fields[5]} is {_regime(E, V, wabs)}", fields[5] == _regime(E, V, wabs))
    R, T = float(fields[6]), float(fields[7])
    r, rt, t, tt = (complex(float(fields[n]), float(fields[n + 1])) for n in (8, 10, 12, 14))
    k = math.sqrt(2.0 * E)
    v.within("|R+T-1|", abs(R + T - 1.0), UNITARITY_TOL)
    v.within("current spread", float(fields[16]) / max(1.0, k), CURRENT_TOL)
    v.within("R - |r|^2", abs(R - abs(r) ** 2), UNITARITY_TOL)
    if kind == "step" and E < math.hypot(V, wabs):
        v.require("T = 0 below threshold", T == 0.0)
        v.within("||r|-1| below threshold", abs(abs(r) - 1.0), UNITARITY_TOL)
    if kind == "barrier":
        v.within("T - |t|^2", abs(T - abs(t) ** 2), UNITARITY_TOL)
    if wabs == 0.0:
        if kind == "step":
            r0, T0 = ref.textbook_step(E, V)
            v.within("r vs textbook", abs(r - r0), TEXTBOOK_TOL)
            v.within("T vs textbook", abs(T - T0), TEXTBOOK_TOL)
        else:
            v.within("T vs textbook", abs(T - ref.textbook_barrier_T(E, V, a)), TEXTBOOK_TOL)
        v.within("j-channel amplitudes at W = 0", max(abs(rt), abs(tt)), TEXTBOOK_TOL)
    if abs(E - wabs) <= 1e-9 * wabs:
        return      # the split solve's 2x2 system is defective exactly at E = |W|
    if kind == "step":
        rr, rtr, tr, ttr, Tr = ref.split_step(E, V, W)
        pairs = (("r", r, rr), ("r~", rt, rtr), ("t", t, tr), ("t~", tt, ttr), ("T", T, Tr))
    else:
        rr, rtr, tr, ttr = ref.split_barrier(E, V, W, a)
        # t~ multiplies j exp(-k x) on x > a: compare its size at x = a
        damp = math.exp(-k * a)
        pairs = (("r", r, rr), ("r~", rt, rtr), ("t", t, tr),
                 ("t~ exp(-ka)", tt * damp, ttr * damp))
    for name, got, want in pairs:
        v.within(f"{name} vs split solve", _rel(got, want), AMPLITUDE_TOL)


def check_sweep(specs, outputs) -> list[Verdict]:
    verdicts = []
    for spec, (code, text) in zip(specs, outputs):
        lines = text.splitlines()
        rows = workloads.sweep_rows(spec)
        shape_ok = (len(lines) == len(rows) + 1 and lines[0] == CSV_HEADER)
        has_error = any(",ERROR," in line for line in lines[1:])
        for n, row in enumerate(rows):
            v = Verdict(spec["known_fault"])
            v.require("CSV header and one line per row", shape_ok)
            v.require("exit code is 1 exactly when a row is ERROR", code == (1 if has_error else 0))
            if shape_ok:
                check_sweep_row(spec["kind"], row, lines[n + 1].split(","), v)
            verdicts.append(v)
    return verdicts


# -- bound ------------------------------------------------------------------


def check_bound(specs, outputs) -> list[Verdict]:
    verdicts = []
    for spec, (code, text) in zip(specs, outputs):
        v = Verdict(spec["known_fault"])
        verdicts.append(v)
        v.require("exit code 0", code == 0)
        try:
            out = json.loads(text)
            energies, residuals, regimes = out["energies"], out["residuals"], out["regimes"]
            params = out["params"]
        except (ValueError, KeyError, TypeError):
            v.problems.append("output is not the bound JSON")
            continue
        V, a, wabs, warg = spec["V"], spec["a"], spec["Wabs"], spec["Warg"]
        W = wabs * complex(math.cos(warg), math.sin(warg))
        vmax = math.hypot(V, wabs)
        v.require("params echo V, a, |W| and the grid",
                  params["V"] == V and params["a"] == a and params["Wabs"] == abs(W)
                  and params["grid"] == spec["grid"])
        v.require("one residual and regime per energy",
                  len(residuals) == len(energies) == len(regimes))
        v.require("energies ascend inside (-sqrt(V^2+|W|^2), 0)",
                  all(-vmax < e < 0.0 for e in energies) and energies == sorted(energies))
        v.require("regimes follow |E| against |W|", regimes == [
            "SubW" if abs(e) < abs(W) else "Evanescent" for e in energies])
        for res in residuals:
            v.within("reported residual", res, ACCEPT, accuracy=False)
        for e in energies:
            v.within("Newton distance to a root", ref.well_root_distance(e, V, W, a)
                     / max(1.0, abs(e)), ROOT_DISTANCE_TOL, accuracy=spec["wclass"] == "zero")
        if spec["wclass"] == "sizable":
            least = ref.well_scan_minimum(V, W, a)
            v.require(f"reference scan finds no state (least singular value {least:.2e})",
                      least > ACCEPT)
            v.require("no energies reported", not energies)
            continue
        expected = ref.well_energies_w0(V, a)
        v.require(f"{len(energies)} states found, bisection gives {len(expected)}",
                  len(energies) == len(expected))
        if len(energies) != len(expected):
            continue
        tol = ENERGY_TOL if spec["wclass"] == "zero" else CONTINUATION_TOL
        for e, e0 in zip(energies, expected):
            v.within("energy vs W = 0 bisection", _rel(e, e0), tol,
                     accuracy=spec["wclass"] == "zero")
    return verdicts


# -- ode --------------------------------------------------------------------

EXPECTED_BRANCH = {"generic": ("distinct", "generic"), "parallel": ("distinct", "parallel"),
                   "orthogonal": ("distinct", "orthogonal"),
                   "repeated": ("repeated", "orthogonal"),
                   "sphere": ("sphere", "both_zero"), "real_pair": ("real_pair", "both_zero")}


def _ivp_reference(spec) -> tuple[np.ndarray, np.ndarray]:
    zero = (0.0, 0.0, 0.0, 0.0)
    a, b = tuple(spec["a"]), tuple(spec["b"])
    a_i = tuple(spec.get("a_i", zero))
    b_i = tuple(spec.get("b_i", zero))
    return ref.system_matrix(a, a_i, b, b_i), np.array(spec["phi0"] + spec["dphi0"])


def check_samples(v: Verdict, k: np.ndarray, y0: np.ndarray, xs, states):
    """states[n] = (phi, dphi) as 8 reals at xs[n], against expm(k x) y0."""
    for x, y in zip(xs, states):
        want = ref.expm(k * x) @ y0
        err = np.linalg.norm(np.asarray(y) - want) / max(1.0, float(np.linalg.norm(want)))
        v.within(f"(phi, phi') at x={x} vs matrix exponential", err, IVP_TOL)


def check_quadratic(spec, out, v: Verdict):
    kind, case, alpha, center, flat = out
    a, b = tuple(spec["a"]), tuple(spec["b"])
    want_kind, want_case = EXPECTED_BRANCH[spec["branch"]]
    v.require(f"branch {kind}/{case} is {want_kind}/{want_case}",
              (kind, case) == (want_kind, want_case))
    roots = [tuple(flat[n:n + 4]) for n in range(0, len(flat), 4)]
    scale = 1.0 + sum(c * c for c in a) + math.sqrt(sum(c * c for c in b))
    for q in roots:
        v.within("quadratic residual", ref.quadratic_residual(q, a, b) / scale, QUAD_TOL)
    want_count = {"distinct": 2, "repeated": 1, "real_pair": 2, "sphere": 16}[want_kind]
    v.require(f"{len(roots)} roots returned", len(roots) == want_count)
    if want_kind in ("distinct", "real_pair") and len(roots) == 2:
        v.require("two distinct roots", ref.qnorm(ref.qsub(*roots)) > 1e-8)
    c0 = b[0] - a[0] * a[0] / 4.0
    if want_kind == "sphere":
        v.within("sphere centre", abs(center + a[0] / 2.0), QUAD_TOL)
        v.within("sphere radius", abs(alpha - math.sqrt(c0)), QUAD_TOL)
    if want_kind == "real_pair" and len(roots) == 2:
        pair = sorted(q[0] for q in roots)
        s = math.sqrt(-c0)
        v.within("real pair", max(abs(pair[0] + a[0] / 2.0 + s), abs(pair[1] + a[0] / 2.0 - s),
                                  *(abs(c) for q in roots for c in q[1:])), QUAD_TOL)


def check_ode(specs, outputs) -> list[Verdict]:
    from quatode import oracle
    from quatode.quatcore import Quaternion, RightLinearScalarOp

    verdicts = []
    subset = {"hode": RK4_SUBSET, "qmat2": RK4_SUBSET, "clode": RK4_SUBSET}
    for spec, out in zip(specs, outputs):
        v = Verdict(spec["known_fault"])
        verdicts.append(v)
        if spec["kind"] == "quad":
            check_quadratic(spec, out, v)
            continue
        states = [out[n:n + 8] for n in range(0, len(out), 8)]
        v.require("value and derivative at every sample point",
                  len(states) == len(workloads.SAMPLE_POINTS))
        k, y0 = _ivp_reference(spec)
        check_samples(v, k, y0, workloads.SAMPLE_POINTS, states)
        if subset[spec["kind"]] > 0:
            subset[spec["kind"]] -= 1
            Q = Quaternion
            if spec["kind"] == "clode":
                rhs = oracle.clinear_rhs(RightLinearScalarOp(Q(*spec["a"]), Q(*spec["a_i"])),
                                         RightLinearScalarOp(Q(*spec["b"]), Q(*spec["b_i"])))
            else:
                rhs = oracle.qlinear_rhs(Q(*spec["a"]), Q(*spec["b"]))
            traj = oracle.rk4_integrate(rhs, Q(*spec["phi0"]), Q(*spec["dphi0"]),
                                        0.0, 1.0, 4096)
            for x, y in zip(workloads.SAMPLE_POINTS, states):
                step = round(x * 4096)
                v.within(f"closed form vs RK4 oracle at x={x}",
                         float(np.linalg.norm(traj.states[step] - np.asarray(y))),
                         RK4_TOL, accuracy=False)
    return verdicts


# -- oracle -----------------------------------------------------------------


def check_oracle(specs, outputs) -> list[Verdict]:
    verdicts = []
    for spec, (code, text) in zip(specs, outputs):
        v = Verdict(spec["known_fault"])
        verdicts.append(v)
        v.require("exit code 0", code == 0)
        try:
            out = json.loads(text)
            points = out["points"]
            xs = [p["x"] for p in points]
            states = [p["phi"] + p["dphi"] for p in points]
            residuals = [p["residual"] for p in points]
            reported = out["oracle_max_err"]
        except (ValueError, KeyError, TypeError):
            v.problems.append("output is not the ode JSON")
            continue
        v.require("kind and sample points echoed", out["kind"] == spec["kind"]
                  and xs == spec["points"] and all(len(s) == 8 for s in states))
        if spec["kind"] == "h":
            zero = [0.0] * 4
            spec = dict(spec, a_i=zero, b_i=zero)
        else:
            spec = dict(spec, a=spec["a"][:4], a_i=spec["a"][4:],
                        b=spec["b"][:4], b_i=spec["b"][4:])
        k, y0 = _ivp_reference(spec)
        check_samples(v, k, y0, xs, states)
        for x, res in zip(xs, residuals):
            v.within(f"ODE residual at x={x}", res, IVP_TOL)
        v.within("reported RK4 disagreement", reported, RK4_TOL, accuracy=False)
        ours = max((float(np.linalg.norm(ref.rk4_endpoint(k, y0, x, spec["steps"])[:4] - s[:4]))
                    for x, s in zip(xs, states) if x != 0.0), default=0.0)
        v.within("RK4 disagreement vs independent RK4", abs(reported - ours), ORACLE_ERR_TOL)
    return verdicts


CHECKS = {"sweep": check_sweep, "bound": check_bound, "ode": check_ode,
          "oracle": check_oracle}


def check(workload: str, specs, outputs) -> list[Verdict]:
    """Each input set's specs go to that set's checks; verdicts keep the round's order."""
    parts = workloads.WORKLOADS[workload]
    if len(parts) == 1:
        return CHECKS[parts[0]](specs, outputs)
    # the two-set workload has one operation per spec
    verdicts = [None] * len(specs)
    for part in parts:
        idx = [n for n, spec in enumerate(specs) if spec["part"] == part]
        for n, v in zip(idx, CHECKS[part]([specs[n] for n in idx], [outputs[n] for n in idx])):
            verdicts[n] = v
    return verdicts
