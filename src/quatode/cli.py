"""Command-line front end: quadratics, ODE solves, eigenpairs, scattering.

All numeric output is printed with 17 significant digits so that parsing the
text reproduces the binary doubles exactly; CSV always uses '.' decimals,
',' separators and '\n' line ends.  Exit codes: 0 success, 1 solver failure
(an ERROR row, or one stderr line naming the exception), 2 usage errors.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

# what every command needs; each command imports its own modules at its entry
from .quatcore import Quaternion, RightLinearScalarOp

_CSV_HEADER = ("E,V,Wabs,Warg,a,regime,R,T,r_re,r_im,rt_re,rt_im,"
               "t_re,t_im,tt_re,tt_im,current_residual")
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


def _points_arg(text: str) -> list[float]:
    return [_finite(p) for p in text.split(",")]


def _quaternion_arg(text: str) -> Quaternion:
    parts = _points_arg(text)
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("expected 4 comma-separated reals")
    return Quaternion(*parts)


def cmd_quad(args) -> int:
    from . import quadsolve
    coeffs = quadsolve.QuadraticCoeffs(args.values[0], args.values[1:4],
                                       args.values[4], args.values[5:8])
    roots = quadsolve.solve(coeffs)
    if roots.kind is quadsolve.RootKind.SPHERE:
        worst = max(quadsolve.residual(coeffs, s) for s in roots.sphere_samples())
        numbers = [roots.alpha, roots.center, worst]
        form = "sphere: alpha=%s center=%s\nresidual: %s"
    else:
        numbers = [v for q in roots.roots
                   for v in (q.w, q.x, q.y, q.z, quadsolve.residual(coeffs, q))]
        form = "\n".join(["root: %s %s %s %s  residual: %s"] * len(roots.roots))
    if not all(map(math.isfinite, numbers)):
        raise OverflowError("a root or residual is not finite")
    print(f"case: {roots.case.value}\nkind: {roots.kind.value}")
    print(form % tuple(map(_fmt, numbers)))
    return 0


def cmd_ode(args) -> int:
    import json
    xs = args.points
    if args.kind == "h":
        from . import hode
        a, b = Quaternion(*args.a), Quaternion(*args.b)
        sol = hode.solve_ivp(a, b, args.phi0, args.dphi0)
        apply_a, apply_b = a.__mul__, b.__mul__
    else:
        from . import clode
        a, b = (RightLinearScalarOp(Quaternion(*v[:4]), Quaternion(*v[4:]))
                for v in (args.a, args.b))
        sol = clode.solve_clinear_ops(a, b, args.phi0, args.dphi0)
        apply_a, apply_b = a, b

    points, phis = [], []
    for x in xs:
        phi = sol.value(x)
        dphi = sol.derivative(x)
        # hode.residual and clode.residual, in their operand order, on the
        # payload's phi and phi': one evaluation of each per point
        resid = (sol.second(x) + apply_a(dphi) + apply_b(phi)).norm()
        point = {"x": x, "phi": list(phi.to_array()),
                 "dphi": list(dphi.to_array()), "residual": resid}
        # e.g. z^2 e^{zx} p with |z| near the float range and p ~ 0 is inf * 0
        if not all(map(math.isfinite, (*point["phi"], *point["dphi"], point["residual"]))):
            raise OverflowError(f"solution or residual is not finite at x = {x!r}")
        points.append(point)
        phis.append(phi)
    payload = {"kind": args.kind, "points": points}
    if args.oracle:
        from . import oracle
        ends = [(x, phi) for x, phi in zip(xs, phis) if x != 0.0]
        worst = 0.0
        if ends:
            rhs = (oracle.qlinear_rhs if args.kind == "h" else oracle.clinear_rhs)(a, b)
            states = oracle.rk4_endpoint(rhs, args.phi0, args.dphi0, 0.0,
                                         np.array([x for x, _ in ends]), args.oracle_steps)
            for (_, phi), end in zip(ends, states):
                worst = max(worst, (Quaternion.from_array(end[:4]) - phi).norm())
        payload["oracle_max_err"] = worst
    print(json.dumps(payload))
    return 0


def cmd_eig(args) -> int:
    import json
    from . import qmat2
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


def _scatter_rows(args, E, V, wabs, a) -> bool:
    """Solve the rows in one stacked call, print their CSV lines; True if one failed."""
    from . import scatter
    W = _polar(np.asarray(wabs, dtype=float), args.Warg)
    rows = scatter.solve_rows(args.kind, E, V, W, a, hbar=args.hbar, m=args.mass)
    print("\n".join(_csv_lines(args.kind, rows, E, V, W, a)))
    return rows.errors.count(None) < len(rows.errors)


def _csv_lines(kind: str, rows, E, V, W, a) -> list[str]:
    """CSV lines of solved rows (a scatter.ScatteringRows), one % format each;
    a failed row prints as regime ERROR with nan numbers, and its cause goes
    to stderr.  A head column given as a scalar (a sweep's fixed values) is
    formatted once, into the row formats."""
    from . import scatter
    wabs = np.hypot(W.real, W.imag)     # bit for bit abs(complex)
    # np.angle(W), without its Python wrapper
    heads = (E, V, wabs, np.where(wabs != 0.0, np.arctan2(W.imag, W.real), 0.0), a)
    columns = [x for x in heads if np.ndim(x)]
    # "%.17g" prints the same text as _fmt
    head = ",".join(["%.17g" if np.ndim(x) else _fmt(float(x)) for x in heads])
    numbers = ",".join(["%.17g"] * 11)
    formats = {regime: f"{head},{regime.value},{numbers}" for regime in scatter.Regime}
    k = len(columns)
    table = np.empty((len(rows.errors), k + 11))
    for col, x in enumerate(columns):
        table[:, col] = x
    table[:, k], table[:, k + 1], table[:, -1] = rows.R, rows.T, rows.current_spread
    np.stack([rows.r, rows.r_tilde, rows.t, rows.t_tilde], axis=1,
             out=table[:, k + 2:-1].view(complex))
    lines = []
    for values, regime, exc in zip(table.tolist(), rows.regimes, rows.errors):
        if exc is None:
            lines.append(formats[regime] % tuple(values))
            continue
        text = head % tuple(values[:k])
        names = ("E", "V", "Wabs", "Warg", "a")
        where = " ".join(f"{n}={v}" for n, v in zip(names, text.split(",")))
        cause = f"{type(exc).__name__}: {exc}".replace("\n", " ")
        print(f"quatode {kind} {where}: {cause}", file=sys.stderr)
        lines.append(",".join([text, "ERROR"] + [_fmt(math.nan)] * 11))
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
    import json
    from . import scatter
    # bound-state search scans E itself; any positive placeholder works there
    params = scatter.PhysicalParams(E=1.0, V=args.V, W=_polar(args.Wabs, args.Warg),
                                    a=args.a, hbar=args.hbar, m=args.mass)
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


# each physical flag: its default when not required, and its help
_PHYSICAL_FLAGS = {"E": (None, "energy > 0"), "V": (None, "potential height/depth"),
                   "Wabs": (0.0, "|W| of the j-part"), "Warg": (0.0, "arg W in radians"),
                   "a": (0.0, "barrier or well width > 0"), "hbar": (1.0, None),
                   "mass": (1.0, None)}


def _add_physical_flags(sub, takes, requires):
    for name in takes:
        default, text = _PHYSICAL_FLAGS[name]
        sub.add_argument(f"--{name}", type=_finite, default=default,
                         required=name in requires, help=text)


def _build_parsers():
    """The top-level parser and its subparsers, by command name."""
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
    p_ode.add_argument("--a", type=_points_arg, required=True,
                       help="4 reals (h) or 8 reals A,B (c)")
    p_ode.add_argument("--b", type=_points_arg, required=True,
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
    _add_physical_flags(p_sc, _PHYSICAL_FLAGS, requires=("E", "V"))
    p_sc.set_defaults(func=cmd_scatter)

    p_sw = subs.add_parser("sweep", help="sweep one parameter, CSV output")
    p_sw.add_argument("kind", choices=("step", "barrier"))
    p_sw.add_argument("--param", choices=("E", "V", "Wabs", "a"), required=True)
    p_sw.add_argument("--start", type=_finite, required=True)
    p_sw.add_argument("--stop", type=_finite, required=True)
    p_sw.add_argument("--count", type=int, required=True)
    # fixed values; the swept one may be omitted
    _add_physical_flags(p_sw, _PHYSICAL_FLAGS, requires=())
    p_sw.set_defaults(func=cmd_sweep)

    p_bd = subs.add_parser("bound", help="bound states of the rectangular well")
    _add_physical_flags(p_bd, [n for n in _PHYSICAL_FLAGS if n != "E"], requires=("V", "a"))
    p_bd.add_argument("--grid", type=int, default=2000)
    p_bd.set_defaults(func=cmd_bound)

    return parser, subs.choices


def build_parser() -> argparse.ArgumentParser:
    return _build_parsers()[0]


def _validate(args, parser):
    """Checks argparse cannot state; parser is the command's own subparser."""
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
    if args.command == "ode":
        n = 4 if args.kind == "h" else 8
        if len(args.a) != n or len(args.b) != n:
            parser.error(f"--a/--b: kind {args.kind!r} takes {n} comma-separated reals")
        if args.oracle_steps < 16:
            parser.error("--oracle-steps must be >= 16")
    if args.command == "bound":
        if args.V <= 0.0 or args.a <= 0.0 or args.grid < 3:
            parser.error("bound needs V > 0, a > 0 and --grid >= 3")


# built on the first main() call, not at import; parsing leaves them unchanged
_parsers = functools.cache(_build_parsers)


def main(argv=None) -> int:
    parser, commands = _parsers()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = commands.get(argv[0]) if argv else None
    if command is None:
        # no argv, -h or an unknown command: the top-level parser reports it
        args = parser.parse_args(argv)
    else:
        # the command's own subparser, the one the top-level parser would hand
        # the rest of argv to, parses it without the top-level pass over it
        args, extra = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
    _validate(args, commands[args.command])
    try:
        # a failure is one stderr line: no numpy floating-point warnings
        with np.errstate(all="ignore"):
            return args.func(args)
    except (ArithmeticError, ValueError) as exc:
        cause = f"{type(exc).__name__}: {exc}".replace("\n", " ")
        print(f"quatode {args.command}: {cause}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
