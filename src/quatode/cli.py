"""Command-line front end: quadratics, ODE solves, eigenpairs, scattering.

All numeric output is printed with 17 significant digits so that parsing the
text reproduces the binary doubles exactly; CSV always uses '.' decimals,
',' separators and '\n' line ends.  Exit codes: 0 success, 1 solver failure
(an ERROR row, or one stderr line naming the exception), 2 usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import clode, hode, oracle, qmat2, quadsolve, scatter
from .quatcore import Quaternion, RightLinearScalarOp

_CSV_HEADER = ("E,V,Wabs,Warg,a,regime,R,T,r_re,r_im,rt_re,rt_im,"
               "t_re,t_im,tt_re,tt_im,current_residual")
# a solved row: "%.17g" prints the same text as _fmt
_CSV_ROW = ",".join(["%.17g"] * 5 + ["%s"] + ["%.17g"] * 11)
# rows per stacked solve in a sweep: bounds the working memory of a long sweep
_SWEEP_BLOCK = 1024


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _finite(text: str) -> float:
    """A finite float; argparse reports anything else as a usage error."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _reals(text: str, count: int) -> list[float]:
    parts = [_finite(p) for p in text.split(",")]
    if len(parts) != count:
        raise argparse.ArgumentTypeError(f"expected {count} comma-separated reals")
    return parts


def _quaternion_arg(text: str) -> Quaternion:
    return Quaternion(*_reals(text, 4))


def _op_arg(text: str) -> RightLinearScalarOp:
    vals = _reals(text, 8)
    return RightLinearScalarOp(Quaternion(*vals[:4]), Quaternion(*vals[4:]))


def _points_arg(text: str) -> list[float]:
    return [_finite(p) for p in text.split(",")]


def cmd_quad(args) -> int:
    coeffs = quadsolve.normalize(args.values[0], args.values[1:4],
                                 args.values[4], args.values[5:8])
    roots = quadsolve.solve(coeffs)
    print(f"case: {roots.case.value}")
    print(f"kind: {roots.kind.value}")
    if roots.kind is quadsolve.RootKind.SPHERE:
        print(f"sphere: alpha={_fmt(roots.alpha)} center={_fmt(roots.center)}")
        worst = max(quadsolve.residual(coeffs, s) for s in roots.sphere_samples())
        print(f"residual: {_fmt(worst)}")
    else:
        for root in roots.roots:
            quad = " ".join(_fmt(v) for v in (root.w, root.x, root.y, root.z))
            print(f"root: {quad}  residual: {_fmt(quadsolve.residual(coeffs, root))}")
    return 0


def cmd_ode(args) -> int:
    xs = args.points
    if args.kind == "h":
        a, b = args.a_quaternion, args.b_quaternion
        sol = hode.solve_ivp(a, b, args.phi0, args.dphi0)
        rhs = oracle.qlinear_rhs(a, b)

        def resid(x):
            return hode.residual(sol, a, b, x)
    else:
        a_op, b_op = args.a_op, args.b_op
        sol = clode.solve_clinear_ops(a_op, b_op, args.phi0, args.dphi0)
        rhs = oracle.clinear_rhs(a_op, b_op)

        def resid(x):
            return clode.residual(sol, a_op, b_op, x)

    points = []
    for x in xs:
        phi = sol.value(x)
        dphi = sol.derivative(x)
        points.append({
            "x": x,
            "phi": list(phi.to_array()),
            "dphi": list(dphi.to_array()),
            "residual": resid(x),
        })
    payload = {"kind": args.kind, "points": points}
    if args.oracle:
        worst = 0.0
        for x in xs:
            if x == 0.0:
                continue
            end = oracle.rk4_endpoint(rhs, args.phi0, args.dphi0,
                                      0.0, x, args.oracle_steps)
            worst = max(worst, (Quaternion.from_array(end[:4]) - sol.value(x)).norm())
        payload["oracle_max_err"] = worst
    print(json.dumps(payload))
    return 0


def cmd_eig(args) -> int:
    vals = args.values
    entries = [[Quaternion(*vals[0:4]), Quaternion(*vals[4:8])],
               [Quaternion(*vals[8:12]), Quaternion(*vals[12:16])]]
    m = qmat2.Matrix2H(entries)
    try:
        dec = qmat2.diagonalize(m)
    except qmat2.DefectiveMatrixError:
        dec = qmat2.jordanize(m)
    payload = {
        "form": dec.form,
        "eigenvalues": [[z.real, z.imag] for z in dec.eigenvalues],
        "eigenvectors": [[list(v[0].to_array()), list(v[1].to_array())]
                         for v in dec.eigenvectors],
    }
    print(json.dumps(payload))
    return 0


def _polar(wabs, warg: float):
    return wabs * complex(math.cos(warg), math.sin(warg))


def _params_from(args) -> scatter.PhysicalParams:
    # bound-state search scans E itself; any positive placeholder works there
    return scatter.PhysicalParams(E=1.0, V=args.V, W=_polar(args.Wabs, args.Warg),
                                  a=args.a, hbar=args.hbar, m=args.mass)


def _scatter_rows(args, E, V, wabs, a) -> bool:
    """Solve the rows in one stacked call, print their CSV lines; True if one failed."""
    W = _polar(np.asarray(wabs, dtype=float), args.Warg)
    rows = scatter.solve_rows(args.kind, E, V, W, a, hbar=args.hbar, m=args.mass)
    print("\n".join(_csv_lines(args.kind, rows, E, V, W, a)))
    return rows.errors.count(None) < len(rows.errors)


def _csv_lines(kind: str, rows: scatter.ScatteringRows, E, V, W, a) -> list[str]:
    """CSV lines of solved rows, one % format each; a failed row prints as
    regime ERROR with nan numbers, and its cause goes to stderr."""
    table = np.empty((len(rows.errors), 16))
    wabs = np.hypot(W.real, W.imag)     # bit for bit abs(complex)
    table[:, 0], table[:, 1], table[:, 2], table[:, 4] = E, V, wabs, a
    table[:, 3] = np.where(wabs != 0.0, np.angle(W), 0.0)
    table[:, 5], table[:, 6], table[:, 15] = rows.R, rows.T, rows.current_spread
    np.stack([rows.r, rows.r_tilde, rows.t, rows.t_tilde], axis=1,
             out=table[:, 7:15].view(complex))
    lines = []
    for values, regime, exc in zip(table.tolist(), rows.regimes, rows.errors):
        if exc is None:
            lines.append(_CSV_ROW % (*values[:5], regime.value, *values[5:]))
            continue
        head = [_fmt(v) for v in values[:5]]
        names = ("E", "V", "Wabs", "Warg", "a")
        where = " ".join(f"{n}={v}" for n, v in zip(names, head))
        cause = f"{type(exc).__name__}: {exc}".replace("\n", " ")
        print(f"quatode {kind} {where}: {cause}", file=sys.stderr)
        lines.append(",".join(head + ["ERROR"] + [_fmt(math.nan)] * 11))
    return lines


def cmd_scatter(args) -> int:
    print(_CSV_HEADER)
    return 1 if _scatter_rows(args, args.E, args.V, args.Wabs, args.a) else 0


def cmd_sweep(args) -> int:
    values = np.linspace(args.start, args.stop, args.count)
    print(_CSV_HEADER)
    failed = False
    for lo in range(0, args.count, _SWEEP_BLOCK):
        row = {"E": args.E, "V": args.V, "Wabs": args.Wabs, "a": args.a}
        row[args.param] = values[lo:lo + _SWEEP_BLOCK]
        failed |= _scatter_rows(args, row["E"], row["V"], row["Wabs"], row["a"])
    return 1 if failed else 0


def cmd_bound(args) -> int:
    params = _params_from(args)
    result = scatter.find_bound_states(params, grid=args.grid)
    payload = {
        "energies": [float(e) for e in result.energies],
        "residuals": [float(r) for r in result.residuals],
        "regimes": [r.value for r in result.regimes],
        "params": {"V": params.V, "Wabs": abs(params.W),
                   "Warg": float(np.angle(params.W)) if abs(params.W) else 0.0,
                   "a": params.a, "hbar": params.hbar, "m": params.m,
                   "grid": args.grid},
    }
    print(json.dumps(payload))
    return 0


def _add_physical_flags(sub, with_a: bool, e_flag: bool = True, number=float):
    if e_flag:
        sub.add_argument("--E", type=number, required=True, help="energy > 0")
    sub.add_argument("--V", type=number, required=True, help="potential height/depth")
    sub.add_argument("--Wabs", type=number, default=0.0, help="|W| of the j-part")
    sub.add_argument("--Warg", type=number, default=0.0, help="arg W in radians")
    if with_a:
        sub.add_argument("--a", type=number, required=True, help="width > 0")
    sub.add_argument("--hbar", type=_finite, default=1.0)
    sub.add_argument("--mass", type=_finite, default=1.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quatode",
        description="Quaternionic second-order ODEs and 1D scattering "
                    "on quaternionic constant potentials.")
    subs = parser.add_subparsers(dest="command", required=True)

    p_quad = subs.add_parser("quad", help="solve q^2 + a q + b = 0")
    p_quad.add_argument("values", type=_finite, nargs=8,
                        metavar="C", help="a0 a1 a2 a3 b0 b1 b2 b3")
    p_quad.set_defaults(func=cmd_quad)

    p_ode = subs.add_parser("ode", help="solve an IVP and sample it")
    p_ode.add_argument("kind", choices=("h", "c"),
                       help="h: quaternionic coefficients, c: with right-i parts")
    p_ode.add_argument("--a", dest="a_raw", required=True,
                       help="4 reals (h) or 8 reals A,B (c)")
    p_ode.add_argument("--b", dest="b_raw", required=True,
                       help="4 reals (h) or 8 reals A,B (c)")
    p_ode.add_argument("--phi0", type=_quaternion_arg, required=True)
    p_ode.add_argument("--dphi0", type=_quaternion_arg, required=True)
    p_ode.add_argument("--points", type=_points_arg, required=True)
    p_ode.add_argument("--oracle", action="store_true",
                       help="also report RK4 disagreement")
    p_ode.add_argument("--oracle-steps", type=int, default=4096)
    p_ode.set_defaults(func=cmd_ode)

    p_eig = subs.add_parser("eig", help="right eigenpairs of a 2x2 quaternionic matrix")
    p_eig.add_argument("values", type=_finite, nargs=16, metavar="M",
                       help="row-major entries, 4 reals each")
    p_eig.set_defaults(func=cmd_eig)

    p_sc = subs.add_parser("scatter", help="solve one scattering configuration")
    p_sc.add_argument("kind", choices=("step", "barrier"))
    _add_physical_flags(p_sc, with_a=False)
    p_sc.add_argument("--a", type=float, default=0.0, help="barrier width")
    p_sc.set_defaults(func=cmd_scatter)

    p_sw = subs.add_parser("sweep", help="sweep one parameter, CSV output")
    p_sw.add_argument("kind", choices=("step", "barrier"))
    p_sw.add_argument("--param", choices=("E", "V", "Wabs", "a"), required=True)
    p_sw.add_argument("--start", type=_finite, required=True)
    p_sw.add_argument("--stop", type=_finite, required=True)
    p_sw.add_argument("--count", type=int, required=True)
    # fixed values; the swept one may be omitted
    p_sw.add_argument("--E", type=float, default=None)
    p_sw.add_argument("--V", type=float, default=None)
    p_sw.add_argument("--Wabs", type=float, default=0.0)
    p_sw.add_argument("--Warg", type=float, default=0.0)
    p_sw.add_argument("--a", type=float, default=0.0)
    p_sw.add_argument("--hbar", type=_finite, default=1.0)
    p_sw.add_argument("--mass", type=_finite, default=1.0)
    p_sw.set_defaults(func=cmd_sweep)

    p_bd = subs.add_parser("bound", help="bound states of the rectangular well")
    _add_physical_flags(p_bd, with_a=True, e_flag=False, number=_finite)
    p_bd.add_argument("--grid", type=int, default=2000)
    p_bd.set_defaults(func=cmd_bound)

    return parser


def _validate(args, parser):
    if args.command in ("scatter", "sweep", "bound"):
        for flag, value in (("--hbar", args.hbar), ("--mass", args.mass)):
            if not value > 0.0:
                parser.error(f"{flag} must be > 0")
        if not args.Wabs >= 0.0:
            parser.error("--Wabs must be >= 0 (arg W goes in --Warg)")
    if args.command == "sweep":
        if args.param == "Wabs" and not args.start >= 0.0:
            parser.error("a sweep of Wabs must start at >= 0")
        if args.count < 2:
            parser.error("--count must be >= 2")
        if not args.start < args.stop:
            parser.error("--start must be < --stop")
        for name in ("E", "V"):
            if args.param != name and getattr(args, name) is None:
                parser.error(f"--{name} is required when sweeping {args.param}")
        if args.E is None:
            args.E = args.start
        if args.V is None:
            args.V = args.start
    if args.command == "ode":
        n = 4 if args.kind == "h" else 8
        try:
            if args.kind == "h":
                args.a_quaternion = Quaternion(*_reals(args.a_raw, 4))
                args.b_quaternion = Quaternion(*_reals(args.b_raw, 4))
            else:
                args.a_op = _op_arg(args.a_raw)
                args.b_op = _op_arg(args.b_raw)
        except argparse.ArgumentTypeError as exc:
            parser.error(f"--a/--b: {exc} (kind {args.kind!r} takes {n})")
        if args.oracle_steps < 16:
            parser.error("--oracle-steps must be >= 16")
    if args.command == "bound":
        if args.V <= 0.0 or args.a <= 0.0 or args.grid < 3:
            parser.error("bound needs V > 0, a > 0 and --grid >= 3")


# built on the first main() call, not at import; parsing leaves it unchanged
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    _validate(args, parser)
    try:
        return args.func(args)
    except (ArithmeticError, ValueError) as exc:
        cause = f"{type(exc).__name__}: {exc}".replace("\n", " ")
        print(f"quatode {args.command}: {cause}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
