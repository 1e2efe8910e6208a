"""Inputs of the three workloads, made from the seed, and the calls that run them.

There are four input sets (`sweep`, `bound`, `ode`, `oracle`); a workload
runs one of them or, for `bound_oracle`, two.  `generate(workload, seed)`
returns one round: a list of operation specs made of plain numbers and
strings, so the parent process can rebuild it for the checks without
importing quatode.  A run repeats the same round until its time is up; every
round attempts the same operations.

`make_runner(workload)` returns a function that performs one spec with the
quatode package and returns its output: [exit code, captured stdout] for a
CLI call, a list of values for the library calls of `ode`.  Module
attributes are looked up at call time, so the wrappers the traced run
installs are seen.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import random

import numpy as np

SAMPLE_POINTS = (0.0, 0.25, 0.5, 0.75, 1.0)
# the 80 standalone quadratics of one ode round, by branch; with the 120 IVPs
# the median operation falls inside the hode IVPs, away from a class boundary
QUADRATIC_MIX = (("generic", 20), ("parallel", 12), ("orthogonal", 12),
                 ("sphere", 12), ("repeated", 12), ("real_pair", 12))
IVPS_PER_SOLVER = 40
# rows per seeded sweep invocation; barrier rows (the slower kind) are 73% of
# a round, so the median row lies inside the barrier rows
SWEEP_ROWS = {"step": 12, "barrier": 24}
# a seeded row must keep this relative distance from E = |W| and from the
# threshold E = sqrt(V^2 + |W|^2), where the mode basis degenerates
BOUNDARY_MARGIN = 0.01

# Operations that fail today on every run, on inputs that no seed changes.
# Each entry: (cause, argv).  Every row of these invocations is a known fault.
KNOWN_FAULT_SWEEPS = (
    ("unitarity: |R+T-1| ~ 2.4e-10 > 1e-10 exactly at E = |W| (step)",
     ["sweep", "step", "--param", "a", "--start", "1", "--stop", "2",
      "--count", "2", "--E", "1", "--V", "4", "--Wabs", "1"]),
    ("unitarity: |R+T-1| ~ 2.4e-10 > 1e-10 exactly at E = |W| (barrier)",
     ["sweep", "barrier", "--param", "a", "--start", "10", "--stop", "20",
      "--count", "2", "--E", "1", "--V", "4", "--Wabs", "1"]),
    ("ERROR row: cmath.exp overflows in scatter._column for a thick barrier",
     ["sweep", "barrier", "--param", "a", "--start", "250", "--stop", "400",
      "--count", "4", "--E", "1.5", "--V", "4", "--Wabs", "1"]),
)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"quatode-perfbench/{workload}/{seed}")


def _f(x: float) -> str:
    return repr(float(x))


def _join(xs) -> str:
    return ",".join(_f(x) for x in xs)


# -- sweep ------------------------------------------------------------------


PHASES = ("zero", "real", "imag", "complex")


def _phase(rng: random.Random, kind: str) -> float:
    if kind == "real":
        return rng.choice((0.0, math.pi))
    if kind == "imag":
        return rng.choice((math.pi / 2.0, -math.pi / 2.0))
    while True:
        arg = rng.uniform(-math.pi, math.pi)
        if abs(math.sin(2.0 * arg)) > 0.3:
            return arg


def sweep_rows(spec: dict) -> list[dict]:
    """The (E, V, Wabs, Warg, a) of every row, as the CLI builds them."""
    rows = []
    for v in np.linspace(spec["start"], spec["stop"], spec["count"]):
        row = dict(spec["fixed"])
        row[spec["param"]] = float(v)
        rows.append(row)
    return rows


def _safe(row: dict) -> bool:
    wabs = row["Wabs"]
    threshold = math.hypot(row["V"], wabs)
    if abs(row["E"] - threshold) < BOUNDARY_MARGIN * threshold:
        return False
    return wabs == 0.0 or abs(row["E"] - wabs) >= BOUNDARY_MARGIN * wabs


def _sweep_slot(rng: random.Random, kind: str, param: str, phase: str) -> dict:
    while True:
        fixed = {"E": rng.uniform(0.1, 8.0), "V": rng.uniform(0.5, 5.0),
                 "Wabs": 0.0 if phase == "zero" else rng.uniform(0.2, 2.5),
                 "Warg": 0.0 if phase == "zero" else _phase(rng, phase),
                 "a": rng.uniform(0.2, 4.0) if kind == "barrier" else 0.0}
        lo, hi = {"E": (0.05, 9.0), "V": (0.3, 6.0),
                  "Wabs": (0.05, 3.0), "a": (0.1, 5.0)}[param]
        start = rng.uniform(lo, lo + 0.4 * (hi - lo))
        stop = rng.uniform(start + 0.3 * (hi - lo), hi)
        spec = {"kind": kind, "param": param, "start": start, "stop": stop,
                "count": SWEEP_ROWS[kind], "fixed": fixed, "known_fault": None}
        if all(_safe(row) for row in sweep_rows(spec)):
            return spec


def _sweep_argv(spec: dict) -> list[str]:
    # "--opt=value" throughout: argparse would read "-1e-05" as an option
    argv = ["sweep", spec["kind"], "--param", spec["param"],
            "--start=" + _f(spec["start"]), "--stop=" + _f(spec["stop"]),
            "--count", str(spec["count"])]
    for name in ("E", "V", "Wabs", "Warg", "a"):
        if name != spec["param"]:
            argv.append(f"--{name}=" + _f(spec["fixed"][name]))
    return argv


def _fault_spec(cause: str, argv: list[str]) -> dict:
    opts = dict(zip(argv[2::2], argv[3::2]))
    fixed = {"E": float(opts["--E"]), "V": float(opts["--V"]),
             "Wabs": float(opts["--Wabs"]), "Warg": 0.0, "a": 0.0}
    return {"kind": argv[1], "param": opts["--param"],
            "start": float(opts["--start"]), "stop": float(opts["--stop"]),
            "count": int(opts["--count"]), "fixed": fixed,
            "known_fault": cause, "argv": list(argv)}


def generate_sweep(seed: int) -> list[dict]:
    rng = _rng("sweep", seed)
    specs = []
    for kind, params in (("step", ("E", "Wabs", "V")),
                         ("barrier", ("E", "Wabs", "a", "V"))):
        for phase in PHASES:
            for param in params:
                if phase == "zero" and param == "Wabs":
                    continue
                spec = _sweep_slot(rng, kind, param, phase)
                spec["argv"] = _sweep_argv(spec)
                specs.append(spec)
    specs += [_fault_spec(cause, argv) for cause, argv in KNOWN_FAULT_SWEEPS]
    return specs


# -- bound ------------------------------------------------------------------

# The scan grid of `bound` and the RK4 steps of `ode --oracle`, below the
# CLI defaults (2000 and 4096) so that one invocation takes 30-130 ms, not
# 200-400 ms: an operation's best time over a run (see run.py) needs the
# host to stay fast for a whole operation, which it seldom does for 0.3 s.
# At 400 points the scan still brackets every state of the 10-state wells
# (at 250 it misses one); the cost per grid point and per step is the
# CLI default's.
BOUND_GRID = 400
ORACLE_STEPS = 512
# (W = 0 state count of the well, |W| class); the depth V is drawn per slot
BOUND_SLOTS = ((1, "zero", (0.5, 3.0)), (3, "zero", (3.0, 15.0)),
               (6, "zero", (10.0, 30.0)), (10, "zero", (25.0, 50.0)),
               (2, "small", (1.0, 10.0)), (5, "small", (8.0, 25.0)),
               (2, "sizable", (2.0, 10.0)), (4, "sizable", (5.0, 20.0)))


def generate_bound(seed: int) -> list[dict]:
    rng = _rng("bound", seed)
    specs = []
    for states, wclass, (vlo, vhi) in BOUND_SLOTS:
        V = rng.uniform(vlo, vhi)
        # a sqrt(2V) / pi = states - 1 + frac puts the shallowest state well
        # inside (-V, 0) for frac in [0.2, 0.9]
        a = math.pi * (states - 1 + rng.uniform(0.2, 0.9)) / math.sqrt(2.0 * V)
        if wclass == "zero":
            wabs, warg = 0.0, 0.0
        elif wclass == "small":
            wabs, warg = 10.0 ** rng.uniform(-6.0, -4.7), rng.uniform(-math.pi, math.pi)
        else:
            wabs, warg = rng.uniform(0.5, 2.5), rng.uniform(-math.pi, math.pi)
        argv = ["bound", "--V=" + _f(V), "--a=" + _f(a), f"--grid={BOUND_GRID}"]
        if wabs:
            argv += ["--Wabs=" + _f(wabs), "--Warg=" + _f(warg)]
        specs.append({"V": V, "a": a, "Wabs": wabs, "Warg": warg, "grid": BOUND_GRID,
                      "wclass": wclass, "argv": argv, "known_fault": None})
    return specs


# -- ode --------------------------------------------------------------------


def _quat(rng: random.Random, scale: float) -> list[float]:
    return [rng.uniform(-scale, scale) for _ in range(4)]


def _unit(rng: random.Random) -> np.ndarray:
    while True:
        v = np.array([rng.gauss(0.0, 1.0) for _ in range(3)])
        n = float(np.linalg.norm(v))
        if n > 1e-3:
            return v / n


def _quadratic(rng: random.Random, branch: str) -> tuple[list[float], list[float]]:
    """(a, b) of q^2 + a q + b = 0 built in reduced form p = q + a0/2."""
    a0 = rng.uniform(-2.0, 2.0)
    u = _unit(rng)
    w = np.cross(u, _unit(rng))
    w = w / np.linalg.norm(w)                  # orthogonal to u
    an = rng.uniform(0.5, 2.0)
    cn = rng.uniform(0.5, 2.0)
    a_vec = an * u
    if branch == "generic":
        mix = rng.uniform(0.3, 0.8)
        c_vec = cn * (mix * u + math.sqrt(1.0 - mix * mix) * w)
        c0 = rng.uniform(-2.0, 2.0)
    elif branch == "parallel":
        c_vec = rng.choice((-1.0, 1.0)) * cn * u
        c0 = rng.uniform(-2.0, 2.0)
    elif branch in ("orthogonal", "repeated"):
        c_vec = cn * w
        c0 = cn * cn / (an * an) - an * an / 4.0   # delta = 0: repeated root
        if branch == "orthogonal":
            c0 += rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 1.5) * an * an
    else:
        a_vec = np.zeros(3)
        c_vec = np.zeros(3)
        c0 = rng.uniform(0.2, 3.0) * (1.0 if branch == "sphere" else -1.0)
    b_vec = c_vec + (a0 / 2.0) * a_vec
    b0 = c0 + a0 * a0 / 4.0
    return [a0, *map(float, a_vec)], [b0, *map(float, b_vec)]


def generate_ode(seed: int) -> list[dict]:
    rng = _rng("ode", seed)
    specs = []
    for solver in ("hode", "qmat2"):
        for _ in range(IVPS_PER_SOLVER):
            specs.append({"kind": solver, "a": _quat(rng, 1.5), "b": _quat(rng, 1.5),
                          "phi0": _quat(rng, 1.0), "dphi0": _quat(rng, 1.0),
                          "known_fault": None})
    for _ in range(IVPS_PER_SOLVER):
        specs.append({"kind": "clode", "a": _quat(rng, 1.0), "a_i": _quat(rng, 1.0),
                      "b": _quat(rng, 1.0), "b_i": _quat(rng, 1.0),
                      "phi0": _quat(rng, 1.0), "dphi0": _quat(rng, 1.0),
                      "known_fault": None})
    for branch, count in QUADRATIC_MIX:
        for _ in range(count):
            a, b = _quadratic(rng, branch)
            specs.append({"kind": "quad", "branch": branch, "a": a, "b": b,
                          "known_fault": None})
    rng.shuffle(specs)
    return specs


# -- oracle -----------------------------------------------------------------

ORACLE_POINT_COUNTS = (2, 2, 3, 3, 3, 3, 4, 4)


def generate_oracle(seed: int) -> list[dict]:
    rng = _rng("oracle", seed)
    counts = list(ORACLE_POINT_COUNTS)
    rng.shuffle(counts)
    specs = []
    for n, count in enumerate(counts):
        kind = "h" if n % 2 == 0 else "c"
        width = 4 if kind == "h" else 8
        a = [rng.uniform(-1.2, 1.2) for _ in range(width)]
        b = [rng.uniform(-1.2, 1.2) for _ in range(width)]
        phi0, dphi0 = _quat(rng, 1.0), _quat(rng, 1.0)
        points = sorted(rng.sample([k / 8.0 for k in range(1, 9)], count))
        if rng.random() < 0.5:
            points = [0.0] + points
        argv = ["ode", kind, "--a=" + _join(a), "--b=" + _join(b),
                "--phi0=" + _join(phi0), "--dphi0=" + _join(dphi0),
                "--points=" + _join(points), "--oracle", f"--oracle-steps={ORACLE_STEPS}"]
        specs.append({"kind": kind, "a": a, "b": b, "phi0": phi0, "dphi0": dphi0,
                      "points": points, "steps": ORACLE_STEPS, "argv": argv,
                      "known_fault": None})
    return specs


GENERATORS = {"sweep": generate_sweep, "bound": generate_bound,
              "ode": generate_ode, "oracle": generate_oracle}
# the input sets each workload runs; spectra and oracle calls take 30-130 ms
# each, so they share a workload, and so a run, without one hiding the other
WORKLOADS = {"sweep": ("sweep",), "ode": ("ode",), "bound_oracle": ("bound", "oracle")}


def generate(workload: str, seed: int) -> list[dict]:
    """One round: the specs of the workload's input sets, alternating, each
    tagged with its set under "part"."""
    parts = [[dict(spec, part=part) for spec in GENERATORS[part](seed)]
             for part in WORKLOADS[workload]]
    return [spec for group in itertools.zip_longest(*parts) for spec in group if spec]


def ops_in(workload: str, spec: dict) -> int:
    """Operations one spec counts for: CSV rows for sweep, else one."""
    return spec["count"] if workload == "sweep" else 1


# -- running ----------------------------------------------------------------


def make_runner(workload: str):
    """A function spec -> output that calls into quatode."""
    import quatode
    from quatode import cli, clode, hode, qmat2, quadsolve
    Q = quatode.Quaternion

    def run_cli(spec):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(spec["argv"])
        return [code, buf.getvalue()]

    if workload != "ode":
        return run_cli

    def sample(sol):
        out = []
        for x in SAMPLE_POINTS:
            phi, dphi = sol.value(x), sol.derivative(x)
            out += [phi.w, phi.x, phi.y, phi.z, dphi.w, dphi.x, dphi.y, dphi.z]
        return out

    def run_ode(spec):
        kind = spec["kind"]
        if kind == "quad":
            a, b = spec["a"], spec["b"]
            roots = quadsolve.solve_coeffs(a[0], a[1:], b[0], b[1:])
            flat = [c for q in roots.all_roots() for c in (q.w, q.x, q.y, q.z)]
            return [roots.kind.value, roots.case.value, roots.alpha, roots.center, flat]
        phi0, dphi0 = Q(*spec["phi0"]), Q(*spec["dphi0"])
        if kind == "hode":
            sol = hode.solve_ivp(Q(*spec["a"]), Q(*spec["b"]), phi0, dphi0)
        elif kind == "qmat2":
            sol = qmat2.solve_ode_via_matrix(Q(*spec["a"]), Q(*spec["b"]), phi0, dphi0)
        else:
            op_a = quatode.RightLinearScalarOp(Q(*spec["a"]), Q(*spec["a_i"]))
            op_b = quatode.RightLinearScalarOp(Q(*spec["b"]), Q(*spec["b_i"]))
            sol = clode.solve_clinear_ops(op_a, op_b, phi0, dphi0)
        return sample(sol)

    return run_ode
