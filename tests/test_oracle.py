import math

import numpy as np
import pytest

from quatode import clode, hode, oracle, quadsolve
from quatode.quatcore import I, J, K, ONE, Quaternion, RightLinearScalarOp

from helpers import rand_quaternion, rk4_stage_loop


def test_rk4_simple_oscillator():
    traj = oracle.rk4_integrate(oracle.qlinear_rhs(Quaternion(), ONE),
                                ONE, Quaternion(), 0.0, 1.0, 1024)
    assert abs(traj.phi(-1).w - math.cos(1.0)) < 1e-8
    assert abs(traj.dphi(-1).w + math.sin(1.0)) < 1e-8
    assert traj.xs.shape == (1025,) and traj.states.shape == (1025, 8)
    assert abs(traj.step_size - 1.0 / 1024) < 1e-15


def test_rk4_fourth_order_convergence():
    err = {}
    for steps in (32, 64):
        traj = oracle.rk4_integrate(oracle.qlinear_rhs(Quaternion(), ONE),
                                    ONE, Quaternion(), 0.0, 1.0, steps)
        err[steps] = abs(traj.phi(-1).w - math.cos(1.0))
    factor = err[32] / err[64]
    assert 12.0 < factor < 20.0


def test_rk4_minimum_steps():
    with pytest.raises(ValueError):
        oracle.rk4_integrate(oracle.qlinear_rhs(Quaternion(), ONE),
                             ONE, Quaternion(), 0.0, 1.0, 8)


def test_rk4_divergence_reports_location():
    def blowup(x, y):
        return 1e8 * y

    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(oracle.DivergenceError) as info:
            oracle.rk4_integrate(blowup, ONE, ONE, 0.0, 1.0, 64)
    assert 0.0 < info.value.x <= 1.0


def test_rk4_matches_worked_closed_forms():
    # quaternionic example with distinct generic roots
    a, b = I - 2 * ONE, 2 * ONE + K
    sol = hode.solve_ivp(a, b, Quaternion(), J)
    traj = oracle.rk4_integrate(oracle.qlinear_rhs(a, b), Quaternion(), J,
                                0.0, 1.0, 4096)
    assert (traj.phi(-1) - sol.value(1.0)).norm() < 1e-6
    # complex-linear example
    zero = RightLinearScalarOp(Quaternion(), Quaternion())
    b_op = RightLinearScalarOp(Quaternion(), -J)
    csol = clode.solve_clinear_ops(zero, b_op, J, K)
    traj = oracle.rk4_integrate(oracle.clinear_rhs(zero, b_op), J, K,
                                0.0, 1.0, 4096)
    assert (traj.phi(-1) - csol.value(1.0)).norm() < 1e-6


@pytest.mark.parametrize("kind", ["qlinear", "clinear"])
def test_rk4_propagator_matches_stage_loop(kind):
    rng = np.random.default_rng(41 if kind == "qlinear" else 42)
    for _ in range(10):
        if kind == "qlinear":
            rhs = oracle.qlinear_rhs(rand_quaternion(rng), rand_quaternion(rng))
        else:
            rhs = oracle.clinear_rhs(
                RightLinearScalarOp(rand_quaternion(rng), rand_quaternion(rng)),
                RightLinearScalarOp(rand_quaternion(rng), rand_quaternion(rng)))
        phi0, dphi0 = rand_quaternion(rng), rand_quaternion(rng)
        traj = oracle.rk4_integrate(rhs, phi0, dphi0, 0.0, 1.0, 512)
        ref = rk4_stage_loop(rhs, oracle.pack_state(phi0, dphi0), 0.0, 1.0, 512)
        rel = np.linalg.norm(traj.states - ref, axis=1) / np.linalg.norm(ref, axis=1)
        assert np.max(rel) < 1e-12


@pytest.mark.parametrize("kind", ["qlinear", "clinear"])
def test_rk4_endpoint_matches_trajectory(kind):
    rng = np.random.default_rng(43 if kind == "qlinear" else 44)
    for _ in range(10):
        if kind == "qlinear":
            rhs = oracle.qlinear_rhs(rand_quaternion(rng), rand_quaternion(rng))
        else:
            rhs = oracle.clinear_rhs(
                RightLinearScalarOp(rand_quaternion(rng), rand_quaternion(rng)),
                RightLinearScalarOp(rand_quaternion(rng), rand_quaternion(rng)))
        phi0, dphi0 = rand_quaternion(rng), rand_quaternion(rng)
        x1 = rng.uniform(-1.5, 1.5)
        end = oracle.rk4_endpoint(rhs, phi0, dphi0, 0.0, x1, 512)
        ref = oracle.rk4_integrate(rhs, phi0, dphi0, 0.0, x1, 512).states[-1]
        assert np.linalg.norm(end - ref) < 1e-12 * np.linalg.norm(ref)


def test_rk4_endpoint_divergence_and_minimum_steps():
    def blowup(x, y):
        return 1e8 * y

    with pytest.raises(oracle.DivergenceError) as info:
        oracle.rk4_endpoint(blowup, ONE, ONE, 0.0, 1.0, 64)
    assert info.value.x == 1.0
    with pytest.raises(ValueError):
        oracle.rk4_endpoint(oracle.qlinear_rhs(Quaternion(), ONE),
                            ONE, Quaternion(), 0.0, 1.0, 8)


@pytest.mark.parametrize("kind", ["qlinear", "clinear"])
def test_rk4_endpoint_stacked_rows_match_single_points(kind):
    # one stacked matrix_power over all end points gives, row for row, the
    # bits of one step matrix and one matrix_power per point
    rng = np.random.default_rng(45 if kind == "qlinear" else 46)
    for _ in range(5):
        if kind == "qlinear":
            rhs = oracle.qlinear_rhs(rand_quaternion(rng), rand_quaternion(rng))
        else:
            rhs = oracle.clinear_rhs(
                RightLinearScalarOp(rand_quaternion(rng), rand_quaternion(rng)),
                RightLinearScalarOp(rand_quaternion(rng), rand_quaternion(rng)))
        phi0, dphi0 = rand_quaternion(rng), rand_quaternion(rng)
        ends = rng.uniform(-1.5, 1.5, 7)
        stacked = oracle.rk4_endpoint(rhs, phi0, dphi0, 0.0, ends, 512)
        assert stacked.shape == (7, 8)
        for x1, row in zip(ends, stacked):
            single = (np.linalg.matrix_power(oracle.rk4_step_matrix(rhs, 0.0, x1 / 512), 512)
                      @ oracle.pack_state(phi0, dphi0))
            assert np.array_equal(row, single)
            assert np.array_equal(row, oracle.rk4_endpoint(rhs, phi0, dphi0, 0.0, x1, 512))


@pytest.mark.parametrize("ends, first", [([0.1, 5.0, -3.0, 2.0], 5.0),
                                         ([0.1, -3.0, 5.0], -3.0)])
def test_rk4_endpoint_stacked_divergence_names_first_point(ends, first):
    # phi'' = 1e6 phi: 512 steps overflow beyond |x| ~ 0.7
    rhs = oracle.qlinear_rhs(Quaternion(), Quaternion(-1e6))
    with pytest.raises(oracle.DivergenceError) as info:
        oracle.rk4_endpoint(rhs, ONE, ONE, 0.0, np.array(ends), 512)
    assert info.value.x == first


def test_residual_max_detects_perturbation():
    a, b = K, J
    sol = hode.solve_ivp(a, b, I + K, ONE)
    xs = np.linspace(0.0, 1.0, 9)
    assert max(hode.residual(sol, a, b, x) for x in xs) < 1e-10
    bad_b = b + Quaternion(1e-3)
    assert max(hode.residual(sol, a, bad_b, x) for x in xs) > 1e-4


def test_residual_max_sphere_basis():
    alpha = 2.0
    sol = hode.solve_ivp(Quaternion(), Quaternion(alpha ** 2), ONE, Quaternion())
    xs = np.linspace(0.0, 2.0, 9)
    assert max(hode.residual(sol, Quaternion(), Quaternion(alpha ** 2), x)
               for x in xs) < 1e-12


def test_companion_roots_resolvent_cubic():
    # q^2 + i q + 1 + i + j = 0 is generic; its resolvent is 16w^3 + 24w^2 - 3w - 1
    c = quadsolve.QuadraticCoeffs(0, (1, 0, 0), 1, (1, 1, 0))
    assert quadsolve.classify(c) is quadsolve.CaseTag.GENERIC
    w = quadsolve.cubic_resolvent(c)
    positive = [r.real for r in np.roots([16, 24, -3, -1]) if r.real > 0]
    assert len(positive) == 1
    assert abs(w - 0.25) < 1e-12 and abs(w - positive[0]) < 1e-12


def test_companion_roots_schrodinger_quartic():
    E, V, Wabs = 5.0, 3.0, 2.0
    m = clode.schrodinger_modes(E=E, V=V, W=Wabs)
    roots = np.roots([1, 0, -2 * V, 0, V * V + Wabs ** 2 - E * E])
    for z in (m.z_minus, -m.z_minus, m.z_plus, -m.z_plus):
        assert min(abs(r - z) for r in roots) < 1e-12


def test_rk4_backward_integration():
    a, b = K, J
    sol = hode.solve_ivp(a, b, I + K, ONE)
    traj = oracle.rk4_integrate(oracle.qlinear_rhs(a, b), I + K, ONE,
                                0.0, -1.0, 2048)
    assert (traj.phi(-1) - sol.value(-1.0)).norm() < 1e-6


def test_oracle_equivalence_sample():
    rng = np.random.default_rng(80)
    for _ in range(10):
        a, b = rand_quaternion(rng), rand_quaternion(rng)
        phi0, dphi0 = rand_quaternion(rng), rand_quaternion(rng)
        sol = hode.solve_ivp(a, b, phi0, dphi0)
        traj = oracle.rk4_integrate(oracle.qlinear_rhs(a, b), phi0, dphi0,
                                    0.0, 1.0, 4096)
        worst = max((traj.phi(n) - sol.value(traj.xs[n])).norm()
                    for n in range(0, 4097, 128))
        assert worst < 1e-6
