"""Spans and counters at quatode's layer boundaries, for the traced run.

`install()` replaces public functions by timing wrappers at the name the
calling module looks up them by (for instance `scatter.schrodinger_modes`,
which is what `scatter.solve_step` calls), and counts `Quaternion`
constructions, `quatcore.exp` calls, numpy.linalg decompositions made while
a scatter span is innermost, RK4 steps and RK4 right-hand-side calls.  Spans
are kept in memory as (name, parent, start, end) and written out by `dump`.
Nothing in the package itself is edited.
"""

from __future__ import annotations

import json
import math
from array import array
from time import perf_counter

import numpy as np

# numpy.linalg functions that factor or decompose their matrix argument
LINALG_DECOMPOSITIONS = ("svd", "solve", "eig", "eigvals", "eigh", "eigvalsh",
                         "lstsq", "inv", "det", "slogdet", "qr", "cholesky",
                         "pinv", "matrix_rank")
SCATTER_SPANS = ("scatter.match", "scatter.current", "scatter.bound")

# per-layer metric: (name, unit); the values come from `per_layer`
PER_LAYER = (
    ("cli.self_ms_per_op", "ms"),
    ("quatcore.quaternions_per_op", "count"),
    ("quatcore.exp_calls_per_op", "count"),
    ("quadsolve.solve_us", "us"),
    ("quadsolve.resolvent_us", "us"),
    ("hode.solve_ivp_self_us", "us"),
    ("hode.eval_us", "us"),
    ("qmat2.eig_us", "us"),
    ("qmat2.solve_self_us", "us"),
    ("qmat2.eval_us", "us"),
    ("clode.solve_us", "us"),
    ("clode.eval_us", "us"),
    ("clode.modes_us", "us"),
    ("scatter.match_self_us", "us"),
    ("scatter.current_us", "us"),
    ("scatter.bound_self_ms", "ms"),
    ("scatter.linalg_calls_per_op", "count"),
    ("scatter.linalg_matrices_per_op", "count"),
    ("oracle.rk4_steps_per_op", "count"),
    ("oracle.rhs_calls_per_op", "count"),
    ("oracle.ns_per_step", "ns"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.reset()

    def reset(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts = {"quatcore.quaternions": 0, "quatcore.exp": 0,
                       "scatter.linalg_calls": 0, "scatter.linalg_matrices": 0,
                       "oracle.rk4_steps": 0, "oracle.rhs_calls": 0}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn):
        nid = self._id(name)

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            self.stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self.stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1

        return traced

    def counted(self, key: str, fn):
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _linalg(self, fn):
        traced = self.span("numpy.linalg", fn)
        scatter_ids = {self._id(n) for n in SCATTER_SPANS}

        def wrapper(*args, **kwargs):
            if self.stack and self.name[self.stack[-1]] in scatter_ids:
                self.counts["scatter.linalg_calls"] += 1
                shape = np.shape(args[0]) if args else ()
                self.counts["scatter.linalg_matrices"] += math.prod(shape[:-2])
                return traced(*args, **kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        from quatode import cli, clode, hode, oracle, qmat2, quadsolve, quatcore, scatter

        def wrap_attr(owner, attr, name):
            setattr(owner, attr, self.span(name, getattr(owner, attr)))

        wrap_attr(cli, "main", "cli.main")
        wrap_attr(quadsolve, "solve", "quadsolve.solve")
        wrap_attr(quadsolve, "cubic_resolvent", "quadsolve.resolvent")
        wrap_attr(hode, "solve_ivp", "hode.solve_ivp")
        wrap_attr(hode, "residual", "hode.residual")
        wrap_attr(qmat2, "right_eigenpairs", "qmat2.eig")
        wrap_attr(qmat2, "solve_ode_via_matrix", "qmat2.solve")
        wrap_attr(clode, "solve_clinear_ops", "clode.solve")
        wrap_attr(clode, "residual", "clode.residual")
        wrap_attr(scatter, "schrodinger_modes", "clode.modes")
        wrap_attr(scatter, "solve_step", "scatter.match")
        wrap_attr(scatter, "solve_barrier", "scatter.match")
        wrap_attr(scatter, "current_residual", "scatter.current")
        wrap_attr(scatter, "find_bound_states", "scatter.bound")
        for cls, name in ((hode.GeneralSolution, "hode.eval"),
                          (qmat2.MatrixSolution, "qmat2.eval"),
                          (clode.CLSolution, "clode.eval")):
            for method in ("value", "derivative", "second"):
                wrap_attr(cls, method, name)

        quatcore.exp = self.counted("quatcore.exp", quatcore.exp)
        for fname in LINALG_DECOMPOSITIONS:
            setattr(np.linalg, fname, self._linalg(getattr(np.linalg, fname)))

        init = quatcore.Quaternion.__init__

        def counting_init(q, w=0.0, x=0.0, y=0.0, z=0.0):
            self.counts["quatcore.quaternions"] += 1
            init(q, w, x, y, z)

        quatcore.Quaternion.__init__ = counting_init

        rk4 = self.span("oracle.rk4", oracle.rk4_integrate)

        def rk4_integrate(rhs, phi0, dphi0, x0, x1, steps):
            self.counts["oracle.rk4_steps"] += steps
            return rk4(rhs, phi0, dphi0, x0, x1, steps)

        oracle.rk4_integrate = rk4_integrate
        for factory in ("qlinear_rhs", "clinear_rhs"):
            setattr(oracle, factory, self._counting_rhs(getattr(oracle, factory)))

    def _counting_rhs(self, factory):
        def make(*args, **kwargs):
            rhs = factory(*args, **kwargs)

            def counted_rhs(x, y):
                self.counts["oracle.rhs_calls"] += 1
                return rhs(x, y)

            return counted_rhs

        return make

    # -- reduction ------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, self seconds."""
        dur = np.array(self.end) - np.array(self.start)
        names = np.array(self.name, dtype=np.int64)
        parents = np.array(self.parent, dtype=np.int64)
        child = np.zeros(dur.size)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        out = {}
        for nid, name in enumerate(self.names):
            sel = names == nid
            out[name] = {"calls": int(sel.sum()), "total_s": float(dur[sel].sum()),
                         "self_s": float((dur[sel] - child[sel]).sum())}
        return out

    def per_layer(self, ops: int) -> dict[str, float]:
        tot = self.totals()
        empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

        def mean(name, key="total_s", scale=1e6):
            t = tot.get(name, empty)
            return t[key] / t["calls"] * scale if t["calls"] else 0.0

        c = self.counts
        rk4 = tot.get("oracle.rk4", empty)
        return {
            "cli.self_ms_per_op": tot.get("cli.main", empty)["self_s"] / ops * 1e3,
            "quatcore.quaternions_per_op": c["quatcore.quaternions"] / ops,
            "quatcore.exp_calls_per_op": c["quatcore.exp"] / ops,
            "quadsolve.solve_us": mean("quadsolve.solve"),
            "quadsolve.resolvent_us": mean("quadsolve.resolvent"),
            "hode.solve_ivp_self_us": mean("hode.solve_ivp", "self_s"),
            "hode.eval_us": mean("hode.eval"),
            "qmat2.eig_us": mean("qmat2.eig"),
            "qmat2.solve_self_us": mean("qmat2.solve", "self_s"),
            "qmat2.eval_us": mean("qmat2.eval"),
            "clode.solve_us": mean("clode.solve"),
            "clode.eval_us": mean("clode.eval"),
            "clode.modes_us": mean("clode.modes"),
            "scatter.match_self_us": mean("scatter.match", "self_s"),
            "scatter.current_us": mean("scatter.current"),
            "scatter.bound_self_ms": mean("scatter.bound", "self_s", 1e3),
            "scatter.linalg_calls_per_op": c["scatter.linalg_calls"] / ops,
            "scatter.linalg_matrices_per_op": c["scatter.linalg_matrices"] / ops,
            "oracle.rk4_steps_per_op": c["oracle.rk4_steps"] / ops,
            "oracle.rhs_calls_per_op": c["oracle.rhs_calls"] / ops,
            "oracle.ns_per_step": (rk4["total_s"] / c["oracle.rk4_steps"] * 1e9
                                   if c["oracle.rk4_steps"] else 0.0),
        }

    def dump(self, path_prefix: str, ops: int):
        """Write the spans (.npz) and the per-name totals and counts (.json)."""
        np.savez(path_prefix + ".npz", names=np.array(self.names),
                 name=np.array(self.name), parent=np.array(self.parent),
                 start=np.array(self.start), end=np.array(self.end))
        with open(path_prefix + ".json", "w") as fh:
            json.dump({"ops": ops, "spans": self.totals(), "counts": self.counts}, fh,
                      indent=1, sort_keys=True)
