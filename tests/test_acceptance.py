"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Golden values come from the worked examples reproduced independently in the
test helpers (tuple arithmetic and series exponentials), scattering
reductions from the standard complex-mechanics closed forms, and ODE checks
from the RK4 oracle.
"""

import cmath
import math
import time

import numpy as np

from quatode import clode, hode, oracle, qmat2, quadsolve, scatter
from quatode.qmat2 import Matrix2H
from quatode.quatcore import I, J, K, ONE, Quaternion, RightLinearScalarOp
from quatode.quatcore import exp as qexp
from quatode.quatcore import rebase_sphere_exponential

from helpers import (QI, QJ, as_tuple, barrier_transmission,
                     exponential_wronskian, qadd, qdist, qexp_series, qmul,
                     qscale, rand_quaternion, step_reflection,
                     well_bound_energies, wronskian_all_forms)

S2 = math.sqrt(2.0)
GOLDEN_XS = (0.0, 0.25, 0.5, 1.0)


def _report(num: int, name: str, ok: bool):
    print(f"acceptance {num:2d} [{name}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


# -- 1: golden quadratic roots ------------------------------------------------


def test_criterion_1_golden_roots():
    expected_parallel = [
        (S2, (S2 - 1) / S2, (S2 - 1) / S2, 0.0),
        (-S2, -(1 + S2) / S2, -(1 + S2) / S2, 0.0),
    ]
    runs = [
        ((0, [S2, S2, 0], -1, [-2 * S2, -2 * S2, 0]), expected_parallel),
        ((0, [1, 0, 0], 0, [0, 0, 0.5]), [(0.0, -0.5, -0.5, 0.0)]),
        ((0, [0, 1, 0], 1, [0, 0, -1]), [(0, -1, 0, 0), (0, -1, -1, 0)]),
        ((0, [0, 0, 1], 0, [0, 1, 0]),
         [(0.5, -0.5, -0.5, -0.5), (-0.5, -0.5, 0.5, -0.5)]),
        ((0, [1, 0, 0], 1, [1, 0, 1]),
         [(0.5, -1.5, -0.5, -0.5), (-0.5, 0.5, -0.5, 0.5)]),
    ]
    ok = True
    for (a0, av, b0, bv), expected in runs:
        elapsed = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            rs = quadsolve.solve_coeffs(a0, av, b0, bv)
            elapsed = min(elapsed, time.perf_counter() - t0)
        ok &= elapsed < 1e-3
        got = sorted(as_tuple(r) for r in rs.roots)
        want = sorted(expected)
        ok &= len(got) == len(want)
        for g, e in zip(got, want):
            ok &= max(abs(x - y) for x, y in zip(g, e)) < 1e-12
    sphere = quadsolve.solve_coeffs(0, [0, 0, 0], 1, [0, 0, 0])
    ok &= sphere.kind is quadsolve.RootKind.SPHERE and abs(sphere.alpha - 1) < 1e-12
    _report(1, "golden quadratic roots", ok)


# -- 2: golden IVPs -----------------------------------------------------------


def _golden_ivps():
    iu = qscale(1 / S2, qadd(QI, QJ))

    def exp_parallel(x):
        f = cmath.exp(-1j * x) * cmath.cosh((S2 + S2 * 1j) * x)
        return qmul(qadd((f.real, 0, 0, 0), qscale(f.imag, iu)), QI)

    def exp_orth_pos(x):
        c1 = (1.5, -0.5, -1.0, 0.0)
        c2 = (-1.0, 0.0, 1.0, 0.0)
        e = math.exp(-x)
        t1 = qmul(qexp_series((0, -x, 0, 0)), c1)
        t2 = qmul(qexp_series((0, -x, -x, 0)), c2)
        return qscale(e, qadd(t1, t2))

    def exp_orth_neg(x):
        coeff = (0.0, 0.5, 0.0, 0.5)
        t1 = qexp_series(qscale(x, (0.5, -0.5, -0.5, -0.5)))
        t2 = qexp_series(qscale(x, (-0.5, -0.5, 0.5, -0.5)))
        return qmul(qadd(t1, t2), coeff)

    def exp_generic(x):
        coeff = qscale(1 / 6, (0.0, -1.0, 1.0, 2.0))
        t1 = qmul(qexp_series(qscale(x, (1.5, -1.5, -0.5, -0.5))), coeff)
        t2 = qmul(qexp_series(qscale(x, (0.5, 0.5, -0.5, 0.5))), qscale(-1, coeff))
        return qadd(t1, t2)

    def exp_repeated(x):
        q = (-0.5, -0.5, -0.5, 0.0)
        s = (0.0, 0.25, -0.25, 0.5)
        e = qexp_series(qscale(x, q))
        return qadd(qmul(e, s),
                    qmul(qadd((x, 0, 0, 0), QI), qmul(e, qmul(QI, s))))

    return [
        (S2 * (I + J), Quaternion(-1) - 2 * S2 * (I + J),
         I, (ONE + K) / S2, exp_parallel),
        (Quaternion(2, 0, 1, 0), Quaternion(2, 0, 1, -1),
         (ONE - I) / 2, J, exp_orth_pos),
        (K, J, I + K, ONE, exp_orth_neg),
        (I - 2 * ONE, 2 * ONE + K, Quaternion(), J, exp_generic),
        (ONE + I, (Quaternion(1) + 2 * I + 2 * K) / 4,
         Quaternion(), -(ONE + I + J) / 2, exp_repeated),
    ]


def test_criterion_2_golden_ivps():
    ok = True
    for a, b, phi0, dphi0, expected in _golden_ivps():
        sol = hode.solve_ivp(a, b, phi0, dphi0)
        for x in GOLDEN_XS:
            ok &= qdist(sol.value(x), expected(x)) < 1e-11
            ok &= hode.residual(sol, a, b, x) < 1e-10
    _report(2, "golden quaternionic IVPs", ok)


# -- 3: diagonalization/Jordan worked solutions --------------------------------


def test_criterion_3_jordan_and_complex_linear():
    ok = True
    sol = qmat2.solve_ode_via_matrix(K - I, -J, K / 2, ONE + J / 2)
    for x in np.linspace(0.0, 1.75, 8):
        expected = (x + K / 2) * qexp(I * x)
        ok &= (sol.value(x) - expected).norm() < 1e-11
    zero = RightLinearScalarOp(Quaternion(), Quaternion())
    b_op = RightLinearScalarOp(Quaternion(), -J)
    csol = clode.solve_clinear_ops(zero, b_op, J, K)
    for x in np.linspace(0.0, 1.75, 8):
        expected = 0.5 * ((I + J) * Quaternion.from_complex(cmath.exp(-1j * x))
                          + (J - I) * math.cosh(x) + (K - ONE) * math.sinh(x))
        ok &= (csol.value(x) - expected).norm() < 1e-11
    _report(3, "worked Jordan and complex-linear solutions", ok)


# -- 4: anti-hermitian spectral example ----------------------------------------


def test_criterion_4_antihermitian_example():
    a = Matrix2H([[-I, 3 * J], [3 * J, I]])
    lam, vecs, h = qmat2.spectral_decompose_antihermitian(a)
    ok = abs(lam[0] - 2.0) < 1e-12 and abs(lam[1] - 4.0) < 1e-12
    dec = qmat2.right_eigenpairs(a)
    ok &= abs(dec.eigenvalues[0] - 2j) < 1e-12
    ok &= abs(dec.eigenvalues[1] - 4j) < 1e-12
    ok &= (h - Matrix2H([[3, K], [-K, 3]])).norm() < 1e-12
    _report(4, "anti-hermitian spectral example", ok)


# -- 5: step relation -----------------------------------------------------------


def test_criterion_5_step_relation():
    ok = True
    v = 2.0
    for w_ratio in np.linspace(0.0, 1.0, 10):
        wabs = w_ratio * v
        w = wabs * cmath.exp(0.37j)
        for e_ratio in np.linspace(1.5, 4.0, 20):
            params = scatter.PhysicalParams(E=e_ratio * v, V=v, W=w)
            res = scatter.solve_step(params)
            sigma = math.sqrt(params.E ** 2 - wabs ** 2)
            bracket = 1.0 - (wabs / (params.E + sigma)) ** 2
            flux = math.sqrt((sigma - v) / params.E)
            lhs = abs(res.r) ** 2 + flux * bracket * abs(res.t) ** 2
            ok &= abs(lhs - 1.0) < 1e-10
        thr = math.hypot(v, wabs)
        for f in np.linspace(0.05, 0.95, 20):
            params = scatter.PhysicalParams(E=f * thr, V=v, W=w)
            res = scatter.solve_step(params)
            ok &= abs(abs(res.r) ** 2 - 1.0) < 1e-10
            ok &= res.T == 0.0
    _report(5, "step continuity relation", ok)


# -- 6: barrier unitarity ---------------------------------------------------------


def test_criterion_6_barrier_unitarity():
    ok = True
    v = 2.0
    for a_width in (0.5, 1.0, 2.0):
        for w_ratio in np.linspace(0.0, 1.0, 10):
            for e_ratio in np.linspace(0.2, 3.0, 20):
                params = scatter.PhysicalParams(
                    E=e_ratio * v, V=v, W=w_ratio * v * cmath.exp(-0.61j),
                    a=a_width)
                res = scatter.solve_barrier(params)
                ok &= abs(res.R + res.T - 1.0) < 1e-10
    _report(6, "barrier unitarity grid", ok)


# -- 7: complex-mechanics reduction ------------------------------------------------


def test_criterion_7_complex_limit():
    ok = True
    for e_ratio in (1.3, 1.9, 2.6, 3.4):
        params = scatter.PhysicalParams(E=e_ratio * 1.1, V=1.1, W=0.0)
        res = scatter.solve_step(params)
        ok &= abs(res.R - step_reflection(params.E, params.V)) < 1e-10
    for E, V, a in ((0.8, 2.0, 1.0), (1.4, 2.0, 0.6), (3.1, 2.0, 1.2),
                    (0.35, 1.0, 2.0)):
        res = scatter.solve_barrier(scatter.PhysicalParams(E=E, V=V, W=0.0, a=a))
        ok &= abs(res.T - barrier_transmission(E, V, a)) < 1e-9
    found = scatter.find_bound_states(
        scatter.PhysicalParams(E=1.0, V=10.0, W=0.0, a=2.0), grid=2000)
    expected = well_bound_energies(10.0, 2.0)
    ok &= len(found.energies) == len(expected)
    for g, e in zip(found.energies, expected):
        ok &= abs(g - e) < 1e-9
    _report(7, "complex quantum mechanics reduction", ok)


# -- 8: Wronskian consistency -------------------------------------------------------


def test_criterion_8_wronskian():
    rng = np.random.default_rng(90)
    ok = True
    for _ in range(1000):
        vals = [rand_quaternion(rng) for _ in range(4)]
        forms = wronskian_all_forms(*vals)
        ok &= max(forms) - min(forms) < 1e-12 * (1.0 + max(forms))
    count = 0
    while count < 200:
        a, b = rand_quaternion(rng), rand_quaternion(rng)
        roots = quadsolve.solve_quaternion(a, b)
        if roots.kind is not quadsolve.RootKind.DISTINCT:
            continue
        count += 1
        q1, q2 = roots.roots
        shift = a.w / 2.0
        p1, p2 = q1 + shift, q2 + shift
        x = rng.uniform(-1.0, 1.0)
        f1, f2 = qexp(q1 * x), qexp(q2 * x)
        w = hode.wronskian(f1, f2, q1 * f1, q2 * f2)
        closed = exponential_wronskian(p1, p2, q1, q2, x)
        ok &= abs(w - closed) < 1e-11 * max(1.0, closed)
    _report(8, "Wronskian factorizations", ok)


# -- 9: oracle equivalence -----------------------------------------------------------


def test_criterion_9_oracle_equivalence():
    rng = np.random.default_rng(91)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        a, b = rand_quaternion(rng), rand_quaternion(rng)
        phi0, dphi0 = rand_quaternion(rng), rand_quaternion(rng)
        sol = hode.solve_ivp(a, b, phi0, dphi0)
        traj = oracle.rk4_integrate(oracle.qlinear_rhs(a, b), phi0, dphi0,
                                    0.0, 1.0, 4096)
        for n in range(0, 4097, 64):
            worst = max(worst, (traj.phi(n) - sol.value(traj.xs[n])).norm())
    solved = 0
    while solved < 100:
        a_op = RightLinearScalarOp(rand_quaternion(rng), rand_quaternion(rng))
        b_op = RightLinearScalarOp(rand_quaternion(rng), rand_quaternion(rng))
        phi0, dphi0 = rand_quaternion(rng), rand_quaternion(rng)
        try:
            sol = clode.solve_clinear_ops(a_op, b_op, phi0, dphi0)
        except clode.UnsupportedStructureError:
            continue
        solved += 1
        traj = oracle.rk4_integrate(oracle.clinear_rhs(a_op, b_op),
                                    phi0, dphi0, 0.0, 1.0, 4096)
        for n in range(0, 4097, 64):
            worst = max(worst, (traj.phi(n) - sol.value(traj.xs[n])).norm())
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 30.0
    print(f"  oracle sup-norm {worst:.3e}, elapsed {elapsed:.1f}s")
    _report(9, "analytic vs RK4 equivalence", ok)


# -- 10: property suites ---------------------------------------------------------------


def test_criterion_10_property_suites():
    rng = np.random.default_rng(92)
    ok = True

    # conjugate-pair counterpart spectrum
    for _ in range(1000):
        m = Matrix2H([[rand_quaternion(rng) for _ in range(2)] for _ in range(2)])
        lam = np.linalg.eigvals(m.counterpart())
        conj = list(np.conj(lam))
        for z in lam:
            k = int(np.argmin([abs(z - w) for w in conj]))
            ok &= abs(z - conj[k]) < 1e-10 * (1.0 + m.norm())
            conj.pop(k)

    # arbitrary-axis oscillation rebased onto the canonical complex pair
    for _ in range(1000):
        v = rng.standard_normal(3)
        v *= rng.uniform(0.3, 2.5) / np.linalg.norm(v)
        alpha = float(np.linalg.norm(v))
        c_plus, c_minus = rebase_sphere_exponential(v)
        x = rng.uniform(-2.0, 2.0)
        lhs = qexp(Quaternion.from_vector(v) * x)
        rhs = Quaternion.from_complex(cmath.exp(1j * alpha * x)) * c_plus \
            + Quaternion.from_complex(cmath.exp(-1j * alpha * x)) * c_minus
        ok &= (lhs - rhs).norm() < 1e-13

    # probability current independent of x for matched solutions
    for n in range(1000):
        params = scatter.PhysicalParams(
            E=rng.uniform(0.2, 6.0), V=rng.uniform(0.0, 3.0),
            W=complex(*rng.standard_normal(2)) * 0.8,
            a=rng.uniform(0.3, 2.0))
        res = scatter.solve_barrier(params) if n % 2 else scatter.solve_step(params)
        scale = max(1.0, params.momentum / params.m)
        ok &= scatter.current_residual(res) < 1e-10 * scale

    # right complex linearity of the complex-linear solver
    solved = 0
    while solved < 1000:
        a_op = RightLinearScalarOp(rand_quaternion(rng), rand_quaternion(rng))
        b_op = RightLinearScalarOp(rand_quaternion(rng), rand_quaternion(rng))
        phi0, dphi0 = rand_quaternion(rng), rand_quaternion(rng)
        z = Quaternion.from_complex(complex(*rng.standard_normal(2)))
        try:
            base = clode.solve_clinear_ops(a_op, b_op, phi0, dphi0)
        except clode.UnsupportedStructureError:
            continue
        solved += 1
        scaled = clode.solve_clinear_ops(a_op, b_op, phi0 * z, dphi0 * z)
        x = rng.uniform(0.0, 1.0)
        ref = base.value(x) * z
        ok &= (scaled.value(x) - ref).norm() < 1e-9 * (1.0 + ref.norm())

    _report(10, "bulk property suites", ok)
