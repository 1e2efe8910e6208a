import argparse
import json
import warnings
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import quatode
from quatode import cli
from quatode.cli import main
from quatode.scatter import solve_rows

from helpers import csv_lines_per_number, seeded_rows, step_reflection, well_bound_energies


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def usage_error(capsys, argv) -> str:
    """main(argv) exits 2 with nothing on stdout; the last line of its stderr."""
    with pytest.raises(SystemExit) as info:
        main(argv)
    out, err = capsys.readouterr()
    assert (info.value.code, out) == (2, "")
    return err.splitlines()[-1]


def positive_flag_error(argv) -> str:
    """The error naming argv's last flag, --hbar or --mass: not finite, or not > 0."""
    flag, value = argv[-1].split("=") if "=" in argv[-1] else argv[-2:]
    if math.isfinite(float(value)):
        return f"quatode {argv[0]}: error: {flag} must be > 0"
    return f"quatode {argv[0]}: error: argument {flag}: not a finite number: {value!r}"


def test_quad_sphere(capsys):
    code, out = run(capsys, "quad", "0", "0", "0", "0", "1", "0", "0", "0")
    assert code == 0
    assert "kind: sphere" in out
    assert "sphere: alpha=1 center=" in out


def test_quad_golden_generic(capsys):
    code, out = run(capsys, "quad", "0", "1", "0", "0", "1", "1", "0", "1")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("root:")]
    assert len(lines) == 2
    got = sorted(tuple(float(v) for v in l.split()[1:5]) for l in lines)
    assert got == sorted([(0.5, -1.5, -0.5, -0.5), (-0.5, 0.5, -0.5, 0.5)])
    for l in lines:
        assert float(l.split("residual:")[1]) < 1e-12


def test_quad_repeated(capsys):
    code, out = run(capsys, "quad", "0", "1", "0", "0", "0", "0", "0", "0.5")
    assert code == 0
    assert "kind: repeated" in out
    line = next(l for l in out.splitlines() if l.startswith("root:"))
    vals = tuple(float(v) for v in line.split()[1:5])
    assert max(abs(a - b) for a, b in zip(vals, (0, -0.5, -0.5, 0))) < 1e-12


def _quad_numbers(out: str) -> list[float]:
    """Every number quad printed: the lines after case and kind, labels dropped."""
    return [float(t.split("=")[-1]) for line in out.splitlines()[2:]
            for t in line.split() if not t.endswith(":")]


def test_quad_huge_residual_is_finite(capsys):
    # the residual's components are about 1e172: their squares overflowed, and
    # quad printed "residual: inf" with exit 0
    b = (1.0677826347714362e+188, 1.8210158282776135e-262, 19.606121149928832, 0.0)
    code, out = run(capsys, "quad", "--", "0.0", "0.013000118104168507",
                    "-2.570731076201115e-293", "-0.0071383735172707895", *map(repr, b))
    assert code == 0
    residual = _quad_numbers(out)[-1]
    assert math.isfinite(residual) and residual <= 1e-12 * math.hypot(*b)


def test_quad_prints_only_finite_numbers(capsys):
    # 500 seeded draws, each coefficient zero or log-uniform in 1e-300..1e300:
    # a solved one prints finite numbers only, a failed one one stderr line
    rng = np.random.default_rng(113)
    solved = 0
    for _ in range(500):
        values = np.where(rng.uniform(size=8) < 0.25, 0.0,
                          rng.choice((-1.0, 1.0), 8) * 10.0 ** rng.uniform(-300.0, 300.0, 8))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["quad", "--", *map(repr, values.tolist())])
        out, err = capsys.readouterr()
        if code == 0:
            solved += 1
            assert err == "" and all(map(math.isfinite, _quad_numbers(out))), values
        else:
            assert (code, out) == (1, "") and len(err.splitlines()) == 1, values
    assert solved >= 50


def test_quad_usage_error():
    with pytest.raises(SystemExit) as info:
        main(["quad", "1", "2", "3"])
    assert info.value.code == 2


def test_scatter_step_csv_schema(capsys):
    code, out = run(capsys, "scatter", "step", "--E", "5", "--V", "2",
                    "--Wabs", "1.5", "--Warg", "0.3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ("E,V,Wabs,Warg,a,regime,R,T,r_re,r_im,rt_re,rt_im,"
                        "t_re,t_im,tt_re,tt_im,current_residual")
    fields = lines[1].split(",")
    assert len(fields) == 17
    assert fields[5] == "AboveThreshold"
    big_r, big_t = float(fields[6]), float(fields[7])
    assert abs(big_r + big_t - 1.0) < 1e-10
    assert float(fields[16]) < 1e-10


def test_scatter_rows_roundtrip_and_determinism(capsys):
    args = ("scatter", "barrier", "--E", "1.3", "--V", "2", "--Wabs", "0.8",
            "--a", "1.1")
    code1, out1 = run(capsys, *args)
    code2, out2 = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    fields = out1.splitlines()[1].split(",")
    for f in fields[6:]:
        v = float(f)
        assert f"{v:.17g}" == f


def test_scatter_error_row_exit_code(capsys):
    code, out = run(capsys, "scatter", "step", "--E", "-1", "--V", "1")
    assert code == 1
    assert ",ERROR," in out
    assert "nan" in out


def test_scatter_error_cause_on_stderr(capsys):
    code = main(["scatter", "barrier", "--E", "1.5", "--V", "4", "--Wabs", "1",
                 "--a", "400"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out.splitlines()[1] == "1.5,4,1,0,400,ERROR" + ",nan" * 11
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert "a=400" in lines[0] and "OverflowError" in lines[0]


@pytest.mark.parametrize("argv, bad", [
    (["sweep", "barrier", "--param", "a", "--start", "200", "--stop", "240",
      "--count", "5", "--E", "1.5", "--V", "4", "--Wabs", "1"], "OverflowError"),
    (["sweep", "barrier", "--param", "E", "--start=-1", "--stop", "2",
      "--count", "7", "--V", "2", "--Wabs", "0.8", "--a", "0.9"], "ValueError"),
])
def test_sweep_failing_rows_leave_good_rows(capsys, argv, bad):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    rows = captured.out.splitlines()[1:]
    failed = [row for row in rows if ",ERROR," in row]
    assert 0 < len(failed) < len(rows)
    causes = captured.err.splitlines()
    assert len(causes) == len(failed) and all(bad in line for line in causes)
    for row in rows:
        if ",ERROR," in row:
            continue
        E, V, wabs, _, a = row.split(",")[:5]
        assert main(["scatter", "barrier", f"--E={E}", f"--V={V}", f"--Wabs={wabs}",
                     f"--a={a}"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == row


def test_long_sweep_rows_match_single_rows(capsys):
    # longer than one stacked block: rows must not depend on their block
    code, out = run(capsys, "sweep", "barrier", "--param", "E", "--start", "0.3",
                    "--stop", "6", "--count", "2500", "--V", "2", "--Wabs", "0.7",
                    "--Warg", "0.4", "--a", "0.9")
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 2500
    for n in (0, 1023, 1024, 2047, 2048, 2499):
        E = rows[n].split(",")[0]
        code, single = run(capsys, "scatter", "barrier", f"--E={E}", "--V", "2",
                           "--Wabs", "0.7", "--Warg", "0.4", "--a", "0.9")
        assert single.splitlines()[1] == rows[n]


def assert_same_lines(got, want):
    # the first difference only: a diff of thousands of lines takes minutes
    bad = next((n for n, (x, y) in enumerate(zip(got, want)) if x != y), None)
    assert bad is None, (bad, got[bad], want[bad])
    assert len(got) == len(want)


@pytest.mark.parametrize("kind", ["step", "barrier"])
def test_csv_lines_match_per_number_reference(capsys, kind):
    rows = seeded_rows(np.random.default_rng(83 if kind == "step" else 84), kind, 1000)
    # a thick barrier overflows (a step ignores a); E < 0 is invalid for both
    rows += [(1.5, 4.0, 1.0, 400.0), (-1.0, 2.0, 0.5, 1.0)]
    E, V, W, a = (np.array(col) for col in zip(*rows))
    solved = solve_rows(kind, E, V, W, a)
    got = cli._csv_lines(kind, solved, E, V, W, a)
    got_err = capsys.readouterr().err
    want = csv_lines_per_number(kind, solved, E, V, W, a)
    assert_same_lines(got, want)
    assert got_err == capsys.readouterr().err != ""
    fields = [line.split(",") for line in got]
    assert {f[5] for f in fields} == {"AboveThreshold", "Evanescent", "SubW", "ERROR"}
    # W = 0 rows print r~ as +0
    zero_w = [f for f in fields if f[2] == "0" and f[5] != "ERROR"]
    assert zero_w and all(f[10:12] == ["0", "0"] for f in zero_w)
    # V, W and a as scalars, as cmd_sweep passes its fixed values: the head
    # columns are formatted once; E = 30 overflows the barrier (a = 100) and
    # E = 1e308 the step, E < 0 is invalid
    E = np.concatenate([np.linspace(0.05, 25.0, 97), [30.0, 1e308, -1.0]])
    V, W, a = 4.0, np.asarray(1.0) * complex(math.cos(2.1), math.sin(2.1)), np.float64(100.0)
    with np.errstate(all="ignore"):     # as under main
        solved = solve_rows(kind, E, V, W, a)
    got = cli._csv_lines(kind, solved, E, V, W, a)
    got_err = capsys.readouterr().err
    want = csv_lines_per_number(kind, solved, E, V, W, a)
    assert_same_lines(got, want)
    assert got_err == capsys.readouterr().err
    assert [type(exc) for exc in solved.errors[-3:]] == [
        type(None) if kind == "step" else OverflowError, OverflowError, ValueError]
    fields = [line.split(",") for line in got]
    assert {f[5] for f in fields} == {"AboveThreshold", "Evanescent", "SubW", "ERROR"}
    assert len({tuple(f[1:5]) for f in fields}) == 1


def test_long_sweep_matches_per_number_reference(capsys):
    # 1500 rows: two stacked blocks, the last ~1/10 overflowing
    argv = ["sweep", "barrier", "--param", "a", "--start", "0.5", "--stop", "240",
            "--count", "1500", "--E", "1.5", "--V", "4", "--Wabs", "1", "--Warg", "0.3"]
    assert cli._SWEEP_BLOCK < 1500
    code = main(argv)
    got = capsys.readouterr()
    W = 1.0 * complex(math.cos(0.3), math.sin(0.3))
    a = np.linspace(0.5, 240.0, 1500)
    want = csv_lines_per_number("barrier", solve_rows("barrier", 1.5, 4.0, W, a),
                                1.5, 4.0, W, a)
    assert code == 1
    assert_same_lines(got.out.split("\n"), [cli._CSV_HEADER, *want, ""])
    assert got.err == capsys.readouterr().err
    assert 0 < got.out.count(",ERROR,") < 1500


@pytest.mark.parametrize("argv", [
    ["bound", "--V", "10", "--a", "2", "--hbar", "0"],
    ["scatter", "step", "--E", "1", "--V", "1", "--hbar=-1"],
    ["sweep", "step", "--param", "E", "--start", "1", "--stop", "2",
     "--count", "3", "--V", "1", "--hbar", "nan"],
    ["bound", "--V", "5", "--a", "1", "--hbar", "inf"],
    ["scatter", "step", "--E", "1", "--V", "1", "--hbar", "inf"],
    ["sweep", "step", "--param", "E", "--start", "1", "--stop", "2",
     "--count", "3", "--V", "1", "--hbar", "inf"],
])
def test_nonpositive_hbar_is_usage_error(capsys, argv):
    assert usage_error(capsys, argv) == positive_flag_error(argv)


@pytest.mark.parametrize("argv", [
    ["scatter", "barrier", "--E", "1", "--V", "2", "--a", "1", "--mass", "0"],
    ["sweep", "step", "--param", "E", "--start", "1", "--stop", "2",
     "--count", "3", "--V", "1", "--mass=-1"],
    ["bound", "--V", "10", "--a", "2", "--mass", "0"],
    ["scatter", "barrier", "--E", "1", "--V", "2", "--a", "1", "--mass", "inf"],
    ["sweep", "step", "--param", "E", "--start", "1", "--stop", "2",
     "--count", "3", "--V", "1", "--mass", "inf"],
    ["bound", "--V", "10", "--a", "2", "--mass", "inf"],
])
def test_nonpositive_mass_is_usage_error(capsys, argv):
    assert usage_error(capsys, argv) == positive_flag_error(argv)


@pytest.mark.parametrize("argv", [
    ["scatter", "step", "--E", "1", "--V", "1", "--Wabs=-0.5"],
    ["sweep", "step", "--param", "E", "--start", "1", "--stop", "2",
     "--count", "3", "--V", "1", "--Wabs=-0.5"],
    ["bound", "--V", "10", "--a", "2", "--Wabs=-0.5"],
])
def test_negative_wabs_is_usage_error(capsys, argv):
    assert usage_error(capsys, argv) == (f"quatode {argv[0]}: error: "
                                         "--Wabs must be >= 0 (arg W goes in --Warg)")


def test_negative_wabs_sweep_range_is_usage_error(capsys):
    argv = ["sweep", "barrier", "--param", "Wabs", "--start=-1", "--stop", "1",
            "--count", "3", "--E", "1", "--V", "2", "--a", "1"]
    assert usage_error(capsys, argv) == "quatode sweep: error: a sweep of Wabs must start at >= 0"


def test_sweep_step_below_threshold(capsys):
    code, out = run(capsys, "sweep", "step", "--param", "E", "--start", "0.1",
                    "--stop", "0.9", "--count", "5", "--V", "1.0")
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 5
    for row in rows:
        fields = row.split(",")
        assert fields[5] == "Evanescent"
        assert abs(float(fields[6]) - 1.0) < 1e-10      # R = 1
        assert float(fields[7]) == 0.0                  # T = 0


def test_sweep_barrier_unitarity(capsys):
    code, out = run(capsys, "sweep", "barrier", "--param", "E", "--start",
                    "0.4", "--stop", "5.7", "--count", "12", "--V", "2",
                    "--Wabs", "1.0", "--a", "0.8")
    assert code == 0
    for row in out.splitlines()[1:]:
        fields = row.split(",")
        assert abs(float(fields[6]) + float(fields[7]) - 1.0) < 1e-10


def test_sweep_monotone_transmission_above_threshold(capsys):
    code, out = run(capsys, "sweep", "step", "--param", "E", "--start", "1.2",
                    "--stop", "4.0", "--count", "9", "--V", "1.0")
    assert code == 0
    ts = [float(r.split(",")[7]) for r in out.splitlines()[1:]]
    rs = [float(r.split(",")[6]) for r in out.splitlines()[1:]]
    assert all(t1 <= t2 + 1e-12 for t1, t2 in zip(ts, ts[1:]))
    assert abs(rs[0] - step_reflection(1.2, 1.0)) < 1e-10


def test_sweep_validation():
    with pytest.raises(SystemExit) as info:
        main(["sweep", "step", "--param", "E", "--start", "2", "--stop", "1",
              "--count", "5", "--V", "1"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["sweep", "step", "--param", "E", "--start", "1", "--stop", "2",
              "--count", "1", "--V", "1"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["sweep", "step", "--param", "V", "--start", "1", "--stop", "2",
              "--count", "4"])  # missing --E
    assert info.value.code == 2


def test_bound_json(capsys):
    code, out = run(capsys, "bound", "--V", "10", "--a", "2", "--grid", "900")
    assert code == 0
    payload = json.loads(out)
    expected = well_bound_energies(10.0, 2.0)
    assert len(payload["energies"]) == len(expected)
    assert payload["energies"] == sorted(payload["energies"])
    for g, e in zip(payload["energies"], expected):
        assert abs(g - e) < 1e-8
    assert all(r < 1e-8 for r in payload["residuals"])
    assert payload["params"]["V"] == 10.0


def test_bound_empty_result(capsys):
    code, out = run(capsys, "bound", "--V", "10", "--a", "2",
                    "--Wabs", "0.4", "--grid", "500")
    assert code == 0
    payload = json.loads(out)
    assert payload["energies"] == []


def test_bound_thick_well_solves(capsys):
    # exp(g a) of this well overflows an unscaled matching system; with no
    # warning, stderr stays empty
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["bound", "--V", "10", "--Wabs", "10", "--a", "500"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert len(payload["energies"]) == len(payload["residuals"])
    assert all(r < 1e-8 for r in payload["residuals"])


def test_bound_validation():
    with pytest.raises(SystemExit) as info:
        main(["bound", "--V", "-1", "--a", "2"])
    assert info.value.code == 2


@pytest.mark.parametrize("grid", ["-1", "1", "2"])
def test_bound_grid_below_three_is_usage_error(capsys, grid):
    argv = ["bound", "--V", "10", "--a", "2", f"--grid={grid}"]
    assert usage_error(capsys, argv) == ("quatode bound: error: "
                                         "bound needs V > 0, a > 0 and --grid >= 3")


def test_oracle_steps_below_sixteen_is_usage_error(capsys):
    argv = ["ode", "h", "--a", "0,1,0,0", "--b", "0.25,0.5,0,0.5",
            "--phi0", "0,0,0,0", "--dphi0", "1,0,0,0", "--points", "0,0.5",
            "--oracle", "--oracle-steps", "8"]
    assert usage_error(capsys, argv) == "quatode ode: error: --oracle-steps must be >= 16"


def test_ode_quaternionic_with_oracle(capsys):
    code, out = run(capsys, "ode", "h", "--a", "0,1,0,0",
                    "--b", "0.25,0.5,0,0.5", "--phi0", "0,0,0,0",
                    "--dphi0=-0.5,-0.5,-0.5,0", "--points", "0,0.5,1",
                    "--oracle")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "h"
    assert len(payload["points"]) == 3
    for pt in payload["points"]:
        assert pt["residual"] < 1e-10
    assert payload["oracle_max_err"] < 1e-6
    # json floats round-trip by construction; check one value
    x0 = payload["points"][1]["phi"][0]
    assert isinstance(x0, float)


@pytest.mark.parametrize("kind, a, b", [("h", "0,1,0,0", "0.25,0.5,0,0.5"),
                                        ("c", "0.3,-0.7,0.2,0.5,0.4,0.1,-0.6,0.9",
                                         "-0.8,0.6,1.1,-0.2,0.3,-0.5,0.7,0.2")])
def test_ode_oracle_evaluates_the_solution_once_per_point(capsys, monkeypatch, kind, a, b):
    # the residual and the RK4 comparison reuse the payload's phi(x) and
    # phi'(x): each is evaluated once per point, with or without --oracle,
    # and the solve evaluates nothing; the payload is unchanged
    argv = ["ode", kind, f"--a={a}", f"--b={b}", "--phi0=0.5,-0.1,0.8,0.3",
            "--dphi0=-0.4,0.9,0.2,-0.7", "--points=0,0.5,1"]
    calls = []

    def counting(method):
        original = getattr(quatode.quatcore.ExpSum, method)

        def counted(self, x):
            calls.append((method, x))
            return original(self, x)
        return counted

    for method in ("value", "derivative"):
        monkeypatch.setattr(quatode.quatcore.ExpSum, method, counting(method))
    once = [(method, x) for x in (0.0, 0.5, 1.0) for method in ("value", "derivative")]
    code, plain = run(capsys, *argv)
    assert code == 0 and calls == once
    calls.clear()
    code, out = run(capsys, *argv, "--oracle")
    assert code == 0 and json.loads(out)["points"] == json.loads(plain)["points"]
    assert calls == once


@pytest.mark.parametrize("kind, a, b", [("h", "0,1,0,0", "0.25,0.5,0,0.5"),
                                        ("c", "0.3,-0.7,0.2,0.5,0.4,0.1,-0.6,0.9",
                                         "-0.8,0.6,1.1,-0.2,0.3,-0.5,0.7,0.2")],
                         ids=["h", "c"])
def test_ode_builds_the_rk4_generator_only_to_check_a_point(capsys, monkeypatch, kind, a, b):
    # without --oracle, or with no sample point but 0, nothing is integrated
    built = []
    for name in ("qlinear_rhs", "clinear_rhs"):
        original = getattr(quatode.oracle, name)
        monkeypatch.setattr(quatode.oracle, name,
                            lambda *ops, name=name, original=original:
                            built.append(name) or original(*ops))
    argv = ["ode", kind, f"--a={a}", f"--b={b}", "--phi0=0.5,-0.1,0.8,0.3",
            "--dphi0=-0.4,0.9,0.2,-0.7"]
    for extra in (["--points=0,0.5"], ["--points=0", "--oracle"]):
        code, _ = run(capsys, *argv, *extra)
        assert code == 0 and built == []
    code, out = run(capsys, *argv, "--points=0,0.5", "--oracle")
    assert code == 0 and json.loads(out)["oracle_max_err"] < 1e-6
    assert built == ["qlinear_rhs" if kind == "h" else "clinear_rhs"]


@pytest.mark.parametrize("argv", [
    ["ode", "h", "--a", "0,1,0,0", "--b", "0.25,0.5,0,0.5", "--phi0", "0,0,0,0",
     "--dphi0=-0.5,-0.5,-0.5,0", "--points", "0,0.5,1", "--oracle", "--oracle-steps", "512"],
    ["ode", "c", "--a=0.3,-0.7,0.2,0.5,0.4,0.1,-0.6,0.9", "--b=-0.8,0.6,1.1,-0.2,0.3,-0.5,0.7,0.2",
     "--phi0=0.5,-0.1,0.8,0.3", "--dphi0=-0.4,0.9,0.2,-0.7", "--points=0,0.25,0.75,1",
     "--oracle", "--oracle-steps=256"]], ids=["h", "c"])
def test_ode_payload_holds_python_floats(capsys, monkeypatch, argv):
    # every number of the payload is a float, not a numpy.float64, and the
    # printed line is the one that lists of numpy.float64 print
    payloads = []
    dumps = json.dumps
    monkeypatch.setattr(json, "dumps", lambda obj: payloads.append(obj) or dumps(obj))
    code, out = run(capsys, *argv)
    assert code == 0
    payload, = payloads
    points = payload["points"]
    numbers = [payload["oracle_max_err"], *(pt[key] for pt in points for key in ("x", "residual")),
               *(v for pt in points for key in ("phi", "dphi") for v in pt[key])]
    assert {type(v) for v in numbers} == {float}
    numpy_points = [{**pt, "phi": list(np.array(pt["phi"])), "dphi": list(np.array(pt["dphi"]))}
                    for pt in points]
    assert out == dumps({**payload, "points": numpy_points}) + "\n"


def test_ode_reports_a_finite_residual_of_a_huge_solution(capsys):
    # phi ~ 1e170 leaves a residual ~ 2e155, whose square overflows
    code, out = run(capsys, "ode", "h", "--a", "0.3,0.7,-0.2,0.5", "--b", "2.1,-0.4,0.9,0.3",
                    "--phi0=1e170,1e170,-1e170,1e170", "--dphi0", "1e170,0,1e170,0",
                    "--points", "0.37,1")
    assert code == 0
    for pt in json.loads(out)["points"]:
        size = math.hypot(*pt["phi"])
        assert 1e169 < size < 1e171
        assert 0.0 < pt["residual"] <= 1e-13 * size


def test_ode_complex_linear(capsys):
    code, out = run(capsys, "ode", "c", "--a", "0,0,0,0,0,0,0,0",
                    "--b", "0,0,0,0,0,0,-1,0", "--phi0", "0,0,1,0",
                    "--dphi0", "0,0,0,1", "--points", "0,1")
    assert code == 0
    payload = json.loads(out)
    phi1 = payload["points"][1]["phi"]
    expected = (0.5 * (math.sin(1) - math.sinh(1)),
                0.5 * (math.cos(1) - math.cosh(1)),
                0.5 * (math.cos(1) + math.cosh(1)),
                0.5 * (math.sin(1) + math.sinh(1)))
    assert max(abs(a - b) for a, b in zip(phi1, expected)) < 1e-11


def test_ode_wrong_arity_is_usage_error(capsys):
    argv = ["ode", "c", "--a", "0,1,0,0", "--b", "0,0,1,0",
            "--phi0", "1,0,0,0", "--dphi0", "0,0,0,0", "--points", "0"]
    assert usage_error(capsys, argv) == ("quatode ode: error: "
                                         "--a/--b: kind 'c' takes 8 comma-separated reals")


_ODE_TAIL = ("--b", "0,0,0,0", "--phi0", "1,0,0,0", "--dphi0", "0,0,0,0")


_SWEEP_ONE_TO_TWO = ("--start", "1", "--stop", "2", "--count", "3")


@pytest.mark.parametrize("argv, name, value", [
    (["quad", "0", "0", "0", "0", "nan", "0", "0", "0"], "C", "nan"),
    (["bound", "--V", "nan", "--a", "1"], "--V", "nan"),
    (["bound", "--V", "10", "--a", "1", "--Warg", "inf"], "--Warg", "inf"),
    (["eig", "nan"] + ["0"] * 15, "M", "nan"),
    (["ode", "h", "--a", "1,0,0,0", *_ODE_TAIL, "--points", "0.5,nan"], "--points", "nan"),
    (["ode", "h", "--a", "inf,0,0,0", *_ODE_TAIL, "--points", "0.5"], "--a", "inf"),
    (["sweep", "barrier", "--param", "E", "--start", "1", "--stop", "inf",
      "--count", "3", "--V", "2", "--a", "1"], "--stop", "inf"),
    (["scatter", "step", "--E", "1", "--V", "1", "--Warg", "inf"], "--Warg", "inf"),
    (["scatter", "step", "--E", "nan", "--V", "1"], "--E", "nan"),
    (["scatter", "step", "--E", "1", "--V", "1", "--Wabs", "nan"], "--Wabs", "nan"),
    (["scatter", "barrier", "--E", "1", "--V", "2", "--a", "inf"], "--a", "inf"),
    (["sweep", "step", "--param", "E", *_SWEEP_ONE_TO_TWO, "--V", "inf"], "--V", "inf"),
    (["sweep", "barrier", "--param", "V", *_SWEEP_ONE_TO_TWO, "--E", "1", "--a", "nan"],
     "--a", "nan"),
], ids=["quad", "bound-V", "bound-Warg", "eig", "ode-points", "ode-coeff", "sweep-stop",
        "scatter-Warg", "scatter-E", "scatter-Wabs", "scatter-a", "sweep-V", "sweep-a"])
def test_non_finite_number_is_usage_error(capsys, argv, name, value):
    # the parser refuses it: nothing on stdout (no CSV header), no solver
    # cause, and the error names the argument
    assert usage_error(capsys, argv) == (f"quatode {argv[0]}: error: argument {name}: "
                                         f"not a finite number: {value!r}")


def test_no_number_flag_takes_a_plain_float():
    # float() accepts nan and inf; every number goes through _finite
    for name, sub in cli._parsers()[1].items():
        for action in sub._actions:
            assert action.type is not float, (name, action.dest)


@pytest.mark.parametrize("argv, cause", [
    # b's counterpart is nilpotent: one Jordan chain of length 4
    (["ode", "c", "--a", "0,0,0,0,0,0,0,0", "--b", "0,0,-0.5,0,0,0,0,0.5",
      "--phi0", "1,0,0,0", "--dphi0", "0,0,0,0", "--points", "0.5"],
     "quatode ode: UnsupportedStructureError: "),
    (["ode", "h", "--a", "1e308,0,0,0", *_ODE_TAIL, "--points", "0.5"],
     "quatode ode: OverflowError: "),
    # the initial data are kept, but z^2 e^{zx} p at x = 0 is inf * 0 in the
    # residual: the fast exponent is -1e300
    (["ode", "c", "--a", "1e300,0,0,0,0,0,0,0", "--b", "0,1,1,0,0,0,0,0",
      "--phi0", "1,0,0,0", "--dphi0", "0,0,0,0", "--points", "0,0.5"],
     "quatode ode: OverflowError: "),
    (["bound", "--V", "1e308", "--a", "1"],
     "quatode bound: ValueError: well depth "),
    (["quad", "0", "1e200", "0", "0", "0", "1e200", "1", "0"],
     "quatode quad: OverflowError: "),
    (["quad", "1e308", "0", "0", "0", "1e308", "0", "0", "0"],
     "quatode quad: OverflowError: "),
    # the SVD of c - z I meets inf * 0 on the way: no numpy warning line
    (["eig", "1e308", "0", "0", "0", "1", "0", "0", "0", "0", "0", "1", "0", "0", "1", "0", "-1"],
     "quatode eig: LinAlgError: "),
], ids=["ode-c-structure", "ode-h-overflow", "ode-c-huge-coefficient", "bound-huge-depth",
        "quad-vector-overflow", "quad-shift-overflow", "eig-huge-entry"])
def test_solver_error_is_one_stderr_line(capsys, argv, cause):
    # a warning would be one more stderr line of the command
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(cause)
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, command", [
    (["quad", "1e200", "0", "0", "0", "1e200", "0", "0", "0"], "quad"),
    (["ode", "h", "--a", "1e308,0,0,0", "--b", "0,0,0,0", "--phi0", "1,0,0,0",
      "--dphi0", "0,0,0,0", "--points", "0.5"], "ode"),
])
def test_reduced_coefficient_overflow_names_its_cause(capsys, argv, command):
    # a0^2 overflows: the finiteness check names it, not a bare errno message
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err == f"quatode {command}: OverflowError: reduced coefficients overflow\n"


def test_eig_jordan_output(capsys):
    code, out = run(capsys, "eig", "0", "0", "0", "0", "1", "0", "0", "0",
                    "0", "0", "1", "0", "0", "1", "0", "-1")
    assert code == 0
    payload = json.loads(out)
    assert payload["form"] == "jordan"
    assert abs(payload["eigenvalues"][0][1] - 1.0) < 1e-7


def test_eig_diagonal_output(capsys):
    code, out = run(capsys, "eig", "0", "-1", "0", "0", "0", "0", "3", "0",
                    "0", "0", "3", "0", "0", "1", "0", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["form"] == "diagonal"
    assert [round(z[1], 9) for z in payload["eigenvalues"]] == [2.0, 4.0]


_SWEEP_HEAD = ["sweep", "barrier", "--param", "E", "--start", "0.5", "--stop", "3",
               "--count", "5"]


@pytest.mark.parametrize("argv", [
    ["quad", "0", "1", "0", "0", "1", "1", "0", "1"],
    ["ode", "h", "--a", "0,1,0,0", "--b=0.25,0.5,0,0.5", "--phi0", "0,0,0,0",
     "--dphi0=-0.5,-0.5,-0.5,0", "--points", "0,0.5,1", "--oracle"],
    ["ode", "c", "--a=0.3,-0.7,0.2,0.5,0.4,0.1,-0.6,0.9", "--b=-0.8,0.6,1.1,-0.2,0.3,-0.5,0.7,0.2",
     "--phi0=0.5,-0.1,0.8,0.3", "--dphi0=-0.4,0.9,0.2,-0.7", "--points=0,0.25,1",
     "--oracle-steps", "64"],
    ["eig", "--", "0.3", "-1", "0.2", "-0.5", "0.7", "0.4", "-1.1", "0.3", "-0.2", "0.6",
     "0.9", "0.1", "1.2", "-0.3", "0.5", "0.8"],
    ["scatter", "barrier", "--E", "1.3", "--V", "2", "--Wabs", "0.8", "--a", "1.1"],
    _SWEEP_HEAD + ["--V", "2", "--Wabs=1", "--Warg=-0.4", "--a", "0.8"],
    ["bound", "--V", "10", "--a", "2", "--grid", "400", "--hbar=0.9"],
], ids=["quad", "ode-h", "ode-c", "eig", "scatter", "sweep", "bound"])
def test_main_parses_as_the_top_level_parser(monkeypatch, argv):
    # main hands a known command's argv straight to its subparser: the
    # namespace, command included, is the one argparse's full pass gives
    class Parsed(Exception):
        pass

    def stop(args, parser):
        raise Parsed(argparse.Namespace(**vars(args)))

    monkeypatch.setattr(cli, "_validate", stop)
    with pytest.raises(Parsed) as info:
        main(argv)
    got = info.value.args[0]
    assert got == cli.build_parser().parse_args(argv)
    assert got.command == argv[0]


@pytest.mark.parametrize("argv, code, last", [
    (_SWEEP_HEAD + ["--V", "2", "--bogus"], 2,
     "quatode: error: unrecognized arguments: --bogus"),
    (["sweep", "barrier", "--param", "E", "--start", "0.5"], 2,
     "quatode sweep: error: the following arguments are required: --stop, --count"),
    (["sweep", "wall"] + _SWEEP_HEAD[2:], 2,
     "quatode sweep: error: argument kind: invalid choice: 'wall'"),
    ([], 2, "quatode: error: the following arguments are required: command"),
    (["sweep", "-h"], 0, None),
], ids=["unknown-flag", "missing-option", "invalid-choice", "empty", "sweep-help"])
def test_main_reports_usage_as_the_top_level_parser(capsys, argv, code, last):
    def outcome(parse):
        with pytest.raises(SystemExit) as info:
            parse(argv)
        return (info.value.code, *capsys.readouterr())

    got = outcome(main)
    assert got == outcome(cli.build_parser().parse_args)
    assert got[0] == code
    if last is None:
        assert got[1].startswith("usage: quatode sweep") and got[2] == ""
    else:
        assert got[1] == "" and got[2].splitlines()[-1].startswith(last)


def test_repeated_main_calls_match_fresh_processes(capsys):
    # main() builds its parser once per process; later calls must not see
    # anything left over from earlier ones, including a usage error.  Each
    # command imports its own modules: one that misses an import fails only
    # in a fresh process
    calls = [
        ["bound", "--V", "10", "--a", "2", "--grid", "400"],
        ["quad", "1", "2", "3"],
        ["sweep", "barrier", "--param", "E", "--start", "0.5", "--stop", "3",
         "--count", "5", "--V", "2", "--Wabs", "1", "--a", "0.8"],
        ["ode", "h", "--a", "0,1,0,0", "--b", "0.25,0.5,0,0.5",
         "--phi0", "0,0,0,0", "--dphi0=-0.5,-0.5,-0.5,0", "--points", "0,0.5,1",
         "--oracle", "--oracle-steps", "512"],
        ["quad", "0", "1", "0", "0", "1", "1", "0", "1"],
        ["eig", "0.3", "1", "0.2", "-0.5", "0.7", "0.4", "-1.1", "0.3",
         "-0.2", "0.6", "0.9", "0.1", "1.2", "-0.3", "0.5", "0.8"],
        ["ode", "c", "--a=2,0,0,0,0,0,0,0", "--b=1,0,0,0,0,0,0,0",
         "--phi0=1,0,0,0", "--dphi0=0,0,0,0", "--points=0.5"],
        ["scatter", "barrier", "--E", "1.3", "--V", "2", "--Wabs", "0.8",
         "--Warg=-0.6", "--a", "1.1"],
    ]
    in_process = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        in_process.append((code, capsys.readouterr().out))
    src = os.path.dirname(os.path.dirname(os.path.abspath(quatode.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    for argv, (code, out) in zip(calls, in_process):
        proc = subprocess.run([sys.executable, "-m", "quatode.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        assert (proc.returncode, proc.stdout) == (code, out)
    assert [code for code, _ in in_process] == [0, 2, 0, 0, 0, 0, 0, 0]
