import json
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
def test_nonpositive_hbar_is_usage_error(argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2


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
def test_nonpositive_mass_is_usage_error(argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2


@pytest.mark.parametrize("argv", [
    ["scatter", "step", "--E", "1", "--V", "1", "--Wabs=-0.5"],
    ["sweep", "step", "--param", "E", "--start", "1", "--stop", "2",
     "--count", "3", "--V", "1", "--Wabs=-0.5"],
    ["bound", "--V", "10", "--a", "2", "--Wabs=-0.5"],
])
def test_negative_wabs_is_usage_error(argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2


def test_negative_wabs_sweep_range_is_usage_error():
    with pytest.raises(SystemExit) as info:
        main(["sweep", "barrier", "--param", "Wabs", "--start=-1", "--stop", "1",
              "--count", "3", "--E", "1", "--V", "2", "--a", "1"])
    assert info.value.code == 2


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


def test_bound_validation():
    with pytest.raises(SystemExit) as info:
        main(["bound", "--V", "-1", "--a", "2"])
    assert info.value.code == 2


@pytest.mark.parametrize("grid", ["-1", "1", "2"])
def test_bound_grid_below_three_is_usage_error(grid):
    with pytest.raises(SystemExit) as info:
        main(["bound", "--V", "10", "--a", "2", f"--grid={grid}"])
    assert info.value.code == 2


def test_oracle_steps_below_sixteen_is_usage_error():
    with pytest.raises(SystemExit) as info:
        main(["ode", "h", "--a", "0,1,0,0", "--b", "0.25,0.5,0,0.5",
              "--phi0", "0,0,0,0", "--dphi0", "1,0,0,0", "--points", "0,0.5",
              "--oracle", "--oracle-steps", "8"])
    assert info.value.code == 2


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


def test_ode_wrong_arity_is_usage_error():
    with pytest.raises(SystemExit) as info:
        main(["ode", "c", "--a", "0,1,0,0", "--b", "0,0,1,0",
              "--phi0", "1,0,0,0", "--dphi0", "0,0,0,0", "--points", "0"])
    assert info.value.code == 2


_ODE_TAIL = ("--b", "0,0,0,0", "--phi0", "1,0,0,0", "--dphi0", "0,0,0,0")


@pytest.mark.parametrize("argv", [
    ["quad", "0", "0", "0", "0", "nan", "0", "0", "0"],
    ["bound", "--V", "nan", "--a", "1"],
    ["bound", "--V", "10", "--a", "1", "--Warg", "inf"],
    ["eig", "nan"] + ["0"] * 15,
    ["ode", "h", "--a", "1,0,0,0", *_ODE_TAIL, "--points", "0.5,nan"],
    ["ode", "h", "--a", "inf,0,0,0", *_ODE_TAIL, "--points", "0.5"],
    ["sweep", "barrier", "--param", "E", "--start", "1", "--stop", "inf",
     "--count", "3", "--V", "2", "--a", "1"],
], ids=["quad", "bound-V", "bound-Warg", "eig", "ode-points", "ode-coeff", "sweep-stop"])
def test_non_finite_number_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "not a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("argv, cause", [
    (["ode", "c", "--a", "0,0,0,0,0,0,0,0", "--b", "0,0,0,0,0,0,0,0",
      "--phi0", "1,0,0,0", "--dphi0", "0,0,0,0", "--points", "0.5"],
     "quatode ode: UnsupportedStructureError: "),
    (["ode", "h", "--a", "1e308,0,0,0", *_ODE_TAIL, "--points", "0.5"],
     "quatode ode: OverflowError: "),
    (["bound", "--V", "10", "--Wabs", "10", "--a", "500"],
     "quatode bound: OverflowError: "),
    (["quad", "0", "1e200", "0", "0", "0", "1e200", "1", "0"],
     "quatode quad: OverflowError: "),
    (["quad", "1e308", "0", "0", "0", "1e308", "0", "0", "0"],
     "quatode quad: OverflowError: "),
], ids=["ode-c-structure", "ode-h-overflow", "bound-thick-well",
        "quad-vector-overflow", "quad-shift-overflow"])
def test_solver_error_is_one_stderr_line(capsys, argv, cause):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(cause)
    assert "Traceback" not in err


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


def test_repeated_main_calls_match_fresh_processes(capsys):
    # main() builds its parser once per process; later calls must not see
    # anything left over from earlier ones, including a usage error
    calls = [
        ["bound", "--V", "10", "--a", "2", "--grid", "400"],
        ["quad", "1", "2", "3"],
        ["sweep", "barrier", "--param", "E", "--start", "0.5", "--stop", "3",
         "--count", "5", "--V", "2", "--Wabs", "1", "--a", "0.8"],
        ["ode", "h", "--a", "0,1,0,0", "--b", "0.25,0.5,0,0.5",
         "--phi0", "0,0,0,0", "--dphi0=-0.5,-0.5,-0.5,0", "--points", "0,0.5,1",
         "--oracle", "--oracle-steps", "512"],
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
    assert [code for code, _ in in_process] == [0, 2, 0, 0]
