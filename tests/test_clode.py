import cmath
import math

import numpy as np
import pytest

from quatode import clode, hode, oracle
from quatode.clode import (ModeNormalizationError, UnsupportedStructureError,
                           schrodinger_modes, solve_clinear_ops, stationary_phase,
                           time_reversal_map)
from quatode.qmat2 import Matrix2CL, _companion_counterpart, lift, svec
from quatode.quatcore import I, J, K, ONE, Quaternion, RightLinearScalarOp

from helpers import (expm_series, mode_equation_residual, mode_quartic_residual,
                     rand_quaternion, spy_eigen_calls, stationary_b_op, svd_solve_clinear,
                     term_scale)

ZERO_OP = RightLinearScalarOp(Quaternion(), Quaternion())


def q_op(q: Quaternion) -> RightLinearScalarOp:
    return RightLinearScalarOp(q, Quaternion())


def rand_op(rng, scale=1.0) -> RightLinearScalarOp:
    return RightLinearScalarOp(rand_quaternion(rng, scale),
                               rand_quaternion(rng, scale))


# -- general complex-linear solves -------------------------------------------


def test_worked_example_closed_form():
    b_op = RightLinearScalarOp(Quaternion(), -J)   # phi'' - j phi i = 0
    sol = solve_clinear_ops(ZERO_OP, b_op, J, K)
    for x in np.linspace(0.0, 1.5, 9):
        expected = 0.5 * ((I + J) * Quaternion.from_complex(cmath.exp(-1j * x))
                          + (J - I) * math.cosh(x) + (K - ONE) * math.sinh(x))
        assert (sol.value(x) - expected).norm() < 1e-11
        assert clode.residual(sol, ZERO_OP, b_op, x) < 1e-10


def test_reduces_to_quaternionic_solver_without_right_i():
    rng = np.random.default_rng(60)
    for _ in range(50):
        a, b = rand_quaternion(rng), rand_quaternion(rng)
        phi0, dphi0 = rand_quaternion(rng), rand_quaternion(rng)
        csol = solve_clinear_ops(q_op(a), q_op(b), phi0, dphi0)
        hsol = hode.solve_ivp(a, b, phi0, dphi0)
        for x in np.linspace(0.0, 1.0, 5):
            assert (csol.value(x) - hsol.value(x)).norm() < 1e-9


def test_random_against_rk4():
    rng = np.random.default_rng(61)
    for _ in range(20):
        a_op, b_op = rand_op(rng), rand_op(rng)
        phi0, dphi0 = rand_quaternion(rng), rand_quaternion(rng)
        try:
            sol = solve_clinear_ops(a_op, b_op, phi0, dphi0)
        except UnsupportedStructureError:
            continue
        traj = oracle.rk4_integrate(oracle.clinear_rhs(a_op, b_op),
                                    phi0, dphi0, 0.0, 1.0, 4096)
        for n in range(0, 4097, 512):
            assert (traj.phi(n) - sol.value(traj.xs[n])).norm() < 1e-6


def test_complex_linearity():
    rng = np.random.default_rng(62)
    for _ in range(100):
        a_op, b_op = rand_op(rng), rand_op(rng)
        phi0, dphi0 = rand_quaternion(rng), rand_quaternion(rng)
        z = complex(*rng.standard_normal(2))
        zq = Quaternion.from_complex(z)
        try:
            base = solve_clinear_ops(a_op, b_op, phi0, dphi0)
        except UnsupportedStructureError:
            continue
        scaled = solve_clinear_ops(a_op, b_op, phi0 * zq, dphi0 * zq)
        for x in (0.3, 0.9):
            assert (scaled.value(x) - base.value(x) * zq).norm() < 1e-9 * (
                1.0 + base.value(x).norm())


def _sector_diag_op(mu1: complex, mu2: complex) -> RightLinearScalarOp:
    """Scalar op whose counterpart is diag(mu1, mu2) on the symplectic pair."""
    a = Quaternion.from_complex((mu1 + mu2.conjugate()) / 2.0)
    b = Quaternion.from_complex((mu1 - mu2.conjugate()) / 2j)
    return RightLinearScalarOp(a, b)


def test_sector_diag_op_construction():
    op = _sector_diag_op(2.0 + 0j, 0j)
    c = op.counterpart()
    assert np.allclose(c, np.diag([2.0, 0.0]))


def test_single_jordan_block_solution():
    # sector 1: y'' + 2y' + y = 0 (double root -1); sector 2: y'' - 4y = 0
    a_op = _sector_diag_op(2.0 + 0j, 0j)
    b_op = _sector_diag_op(1.0 + 0j, -4.0 + 0j)
    rng = np.random.default_rng(63)
    phi0, dphi0 = rand_quaternion(rng), rand_quaternion(rng)
    sol = solve_clinear_ops(a_op, b_op, phi0, dphi0)
    assert any(t.px is not None for t in sol.terms)  # the (u x + u~) term
    assert (sol.value(0.0) - phi0).norm() < 1e-12
    assert (sol.derivative(0.0) - dphi0).norm() < 1e-12
    traj = oracle.rk4_integrate(oracle.clinear_rhs(a_op, b_op),
                                phi0, dphi0, 0.0, 1.0, 4096)
    for n in range(0, 4097, 512):
        assert (traj.phi(n) - sol.value(traj.xs[n])).norm() < 1e-6
    for x in (0.2, 0.8):
        assert clode.residual(sol, a_op, b_op, x) < 1e-10


def _agrees_with_svd_route(a_op, b_op, phi0, dphi0, tol=1e-12):
    """Samples and cluster count against eigvals + one SVD per eigenvalue."""
    sol = solve_clinear_ops(a_op, b_op, phi0, dphi0)
    ref, clusters = svd_solve_clinear(_companion_counterpart(a_op, b_op), phi0, dphi0)
    assert len({t.z for t in sol.terms}) == clusters
    assert [t.px is None for t in sol.terms] == [t.px is None for t in ref.terms]
    for x in np.linspace(0.0, 1.5, 7):
        scale = term_scale(ref, x)
        assert (sol.value(x) - ref.value(x)).norm() <= tol * scale
    return sol


def test_one_jordan_block_at_any_eig_position():
    # a double root s in one sector, t and 1.5 in the other, turned by a
    # quaternion u: eig returns the merged pair at varying index pairs, and
    # each must leave the four-simple-eigenvalue path
    rng = np.random.default_rng(69)
    for _ in range(30):
        s, t = (complex(*rng.uniform(-1.0, 1.0, 2)) for _ in range(2))
        u = rand_quaternion(rng)
        u_inv = u.inverse()
        ops = [RightLinearScalarOp(u * op.A * u_inv, u * op.B * u_inv) for op in
               (_sector_diag_op(-2.0 * s, -(t + 1.5)), _sector_diag_op(s * s, 1.5 * t))]
        phi0, dphi0 = rand_quaternion(rng), rand_quaternion(rng)
        sol = _agrees_with_svd_route(*ops, phi0, dphi0)
        assert sum(term.px is not None for term in sol.terms) == 1


def test_eig_route_matches_svd_route_random():
    # with and without right-i parts: four simple eigenvalues take eig's columns
    rng = np.random.default_rng(64)
    for n in range(200):
        a_op, b_op = rand_op(rng), rand_op(rng)
        if n % 2:
            a_op, b_op = q_op(a_op.A), q_op(b_op.A)
        phi0, dphi0 = rand_quaternion(rng), rand_quaternion(rng)
        _agrees_with_svd_route(a_op, b_op, phi0, dphi0)


@pytest.mark.parametrize("delta", [1e-2, 1e-3, 1e-4, 1e-5])
def test_eig_route_near_repeated_roots(delta):
    # sectors y'' - 2s y' + (s^2 - delta^2) y = 0 with roots s +- delta, and
    # the same with t, turned by a quaternion u: (u A u^-1) psi + (u B u^-1) psi i
    rng = np.random.default_rng(65)
    for _ in range(10):
        s, t = (complex(rng.uniform(-1.0, 1.0), rng.uniform(0.2, 1.5)) for _ in range(2))
        u = rand_quaternion(rng)
        u_inv = u.inverse()
        ops = []
        for op in (_sector_diag_op(-2.0 * s, -2.0 * t),
                   _sector_diag_op(s * s - delta ** 2, t * t - delta ** 2)):
            assert op.B.norm() > 0.1      # a right-i part
            ops.append(RightLinearScalarOp(u * op.A * u_inv, u * op.B * u_inv))
        phi0, dphi0 = rand_quaternion(rng), rand_quaternion(rng)
        sol = _agrees_with_svd_route(*ops, phi0, dphi0)
        assert len(sol.terms) == 4
        c, y0 = _companion_counterpart(*ops), svec((phi0, dphi0))
        for x in np.linspace(0.0, 1.5, 7):
            exact = lift(expm_series(c * x) @ y0)[0]
            assert (sol.value(x) - exact).norm() <= 1e-12 * term_scale(sol, x)


def test_companion_counterpart_is_the_matrix_forms():
    # the counterpart the solver reads equals that of [[0, 1], [-b, -a]],
    # entry by entry (array_equal: a negated op may flip the sign of a zero)
    rng = np.random.default_rng(66)
    for _ in range(60):
        a_op, b_op = rand_op(rng), rand_op(rng)
        m_cl = Matrix2CL([[0, 1], [RightLinearScalarOp(-b_op.A, -b_op.B),
                                   RightLinearScalarOp(-a_op.A, -a_op.B)]])
        assert np.array_equal(_companion_counterpart(a_op, b_op), m_cl.counterpart())


def test_one_eig_and_no_svd_per_generic_solve(monkeypatch):
    calls = spy_eigen_calls(monkeypatch)
    sol = solve_clinear_ops(RightLinearScalarOp(0.3 + I, 0.2 * K),
                            RightLinearScalarOp(0.7 * J, -0.4 * ONE), ONE, K)
    assert len(sol.terms) == 4 and all(t.px is None for t in sol.terms)
    assert calls == ["eig"]


def test_generic_solve_terms_are_python_complex():
    # after its one eig, the four-simple-eigenvalue path works on built-in
    # complex (np.complex128 is a subclass, so the type is compared exactly)
    sol = solve_clinear_ops(RightLinearScalarOp(0.3 + I, 0.2 * K),
                            RightLinearScalarOp(0.7 * J, -0.4 * ONE), ONE, K)
    assert len(sol.terms) == 4
    for t in sol.terms:
        assert type(t.z) is complex
        assert [type(c) for c in t.p] == [complex] * 4


def test_huge_coefficient_keeps_the_initial_data():
    # phi'' + 1e300 phi' + (i + j) phi = 0: a plain Frobenius norm of the
    # counterpart overflows, and an infinite merge tolerance merged every
    # eigenvalue
    a_op, b_op = q_op(Quaternion(1e300)), q_op(I + J)
    sol = solve_clinear_ops(a_op, b_op, ONE, Quaternion())
    assert (sol.value(0.0) - ONE).norm() < 1e-12
    assert sol.derivative(0.0).norm() < 1e-12
    assert (sol.value(0.5) - ONE).norm() < 1e-12


@pytest.mark.parametrize("a, b", [(Quaternion(2), ONE), (K - I, -J)],
                         ids=["critically-damped", "jordan-example"])
def test_two_jordan_blocks_match_hode(a, b):
    # a repeated characteristic root is a Jordan block in both sectors at
    # once: phi'' + 2 phi' + phi = 0 has one cluster of algebraic multiplicity
    # 4 and geometric 2, and the Jordan worked example two defective clusters
    rng = np.random.default_rng(67)
    phi0, dphi0 = rand_quaternion(rng), rand_quaternion(rng)
    sol = _agrees_with_svd_route(q_op(a), q_op(b), phi0, dphi0)
    ref = hode.solve_ivp(a, b, phi0, dphi0)
    assert sum(t.px is not None for t in sol.terms) == 2
    for x in np.linspace(0.0, 1.5, 7):
        assert (sol.value(x) - ref.value(x)).norm() <= 1e-12 * term_scale(ref, x)
        assert (sol.derivative(x) - ref.derivative(x)).norm() <= 1e-11 * term_scale(ref, x)
        assert clode.residual(sol, q_op(a), q_op(b), x) < 1e-10


def test_jordan_blocks_with_right_i_parts():
    # sectors y'' + 2y' + y = 0 and y'' - 2s y' + s^2 y = 0: two defective
    # clusters, and the operators have right-i parts
    s = 0.4 + 0.7j
    a_op, b_op = _sector_diag_op(2.0 + 0j, -2.0 * s), _sector_diag_op(1.0 + 0j, s * s)
    rng = np.random.default_rng(68)
    phi0, dphi0 = rand_quaternion(rng), rand_quaternion(rng)
    sol = _agrees_with_svd_route(a_op, b_op, phi0, dphi0)
    assert sum(t.px is not None for t in sol.terms) == 2
    c, y0 = _companion_counterpart(a_op, b_op), svec((phi0, dphi0))
    for x in np.linspace(0.0, 1.5, 7):
        exact = lift(expm_series(c * x) @ y0)[0]
        assert (sol.value(x) - exact).norm() <= 1e-12 * term_scale(sol, x)


@pytest.mark.parametrize("nilpotent_b, cause", [(True, "algebraic 4, geometric 1"),
                                                (False, "broken Jordan chain")])
def test_jordan_chain_longer_than_two_unsupported(nilpotent_b, cause):
    # N = [[0, 1], [0, 0]] is the counterpart of n: psi -> -j psi / 2 + k psi i / 2.
    # phi'' + n(phi) = 0 has one Jordan chain of length 4, and phi'' + n(phi') = 0
    # chains of lengths 3 and 1 (lambda^2 I + lambda N has invariant factors
    # lambda, lambda^3): two null vectors, but only one starts a chain
    n = RightLinearScalarOp(-0.5 * J, 0.5 * K)
    assert np.array_equal(n.counterpart(), [[0, 1], [0, 0]])
    a_op, b_op = (ZERO_OP, n) if nilpotent_b else (n, ZERO_OP)
    with pytest.raises(UnsupportedStructureError, match=cause):
        solve_clinear_ops(a_op, b_op, ONE, Quaternion())


# -- Schrodinger modes --------------------------------------------------------


def test_modes_real_potential_reduction():
    m = schrodinger_modes(E=2.0, V=1.0, W=0.0)
    assert (m.u_minus - ONE).norm() == 0.0
    assert (m.u_plus - J).norm() == 0.0
    assert abs(m.z_minus - 1j * math.sqrt(2.0 - 1.0)) < 1e-14
    assert abs(m.z_plus - math.sqrt(3.0)) < 1e-14


def test_modes_above_threshold_structure():
    m = schrodinger_modes(E=5.0, V=2.0, W=1.0 + 1.0j)
    assert m.E > m.threshold
    assert abs(m.z_minus.real) < 1e-14 and m.z_minus.imag > 0.0
    assert abs(m.z_plus.imag) < 1e-14 and m.z_plus.real > 0.0


def test_modes_sub_w_polar_form():
    E, V = 0.5, 2.0
    W = 1.0 + 0.5j
    m = schrodinger_modes(E=E, V=V, W=W)
    rho = (V * V + abs(W) ** 2 - E * E) ** 0.25
    theta = math.atan2(math.sqrt(abs(W) ** 2 - E * E), V)
    assert abs(m.z_plus - rho * cmath.exp(1j * theta / 2)) < 1e-13
    assert abs(m.z_minus - rho * cmath.exp(-1j * theta / 2)) < 1e-13


def test_modes_quartic_and_mode_equation():
    rng = np.random.default_rng(64)
    for _ in range(200):
        E = rng.uniform(0.1, 5.0)
        V = rng.uniform(-2.0, 3.0)
        w = complex(*rng.standard_normal(2)) * 0.8
        m = schrodinger_modes(E=E, V=V, W=w)
        for z in (m.z_minus, m.z_plus, -m.z_minus, -m.z_plus):
            assert mode_quartic_residual(m, z) < 1e-11 * (1 + abs(z) ** 4)
        assert mode_equation_residual(m, m.u_minus, m.z_minus) < 1e-12 * (
            1.0 + m.u_minus.norm() * (1 + abs(m.z_minus) ** 2))
        assert mode_equation_residual(m, m.u_plus, m.z_plus) < 1e-12 * (
            1.0 + m.u_plus.norm() * (1 + abs(m.z_plus) ** 2))


def test_fourth_order_factorization():
    rng = np.random.default_rng(65)
    hbar = m_ = 1.0
    for _ in range(50):
        E = rng.uniform(0.2, 4.0)
        V = rng.uniform(-1.0, 2.0)
        w = complex(*rng.standard_normal(2)) * 0.7
        md = schrodinger_modes(E=E, V=V, W=w, hbar=hbar, m=m_)
        s = md.spatial_scale
        for u, z in ((md.u_minus, md.z_minus), (md.u_plus, md.z_plus)):
            g = s * z
            for x in (0.0, 0.4):
                f = u * Quaternion.from_complex(cmath.exp(g * x))
                f4 = u * Quaternion.from_complex(g ** 4 * cmath.exp(g * x))
                f2 = u * Quaternion.from_complex(g ** 2 * cmath.exp(g * x))
                h22m = hbar ** 2 / (2 * m_)
                lhs = h22m ** 2 * f4 - 2 * h22m * V * f2 \
                    + (V * V + abs(w) ** 2) * f
                assert (lhs - E * E * f).norm() < 1e-10 * (1.0 + lhs.norm())


def test_modes_negative_energy():
    rng = np.random.default_rng(68)
    for w in (0.0, 1e-6, 1.3 * cmath.exp(0.7j)):
        for _ in range(100):
            E = -rng.uniform(0.1, 5.0)
            V = rng.uniform(-2.0, 3.0)
            m = schrodinger_modes(E=E, V=V, W=w)
            for z in (m.z_minus, m.z_plus, -m.z_minus, -m.z_plus):
                assert mode_quartic_residual(m, z) < 1e-11 * (1 + abs(z) ** 4)
            assert mode_equation_residual(m, m.u_minus, m.z_minus) < 1e-12 * (
                1.0 + m.u_minus.norm() * (1 + abs(m.z_minus) ** 2))
            assert mode_equation_residual(m, m.u_plus, m.z_plus) < 1e-12 * (
                1.0 + m.u_plus.norm() * (1 + abs(m.z_plus) ** 2))
    # E > 0 keeps the principal root, bit for bit
    E = rng.uniform(0.0, 5.0, 300)
    W = rng.standard_normal(300) * 2.0 + 1j * rng.standard_normal(300)
    sigma = clode.schrodinger_mode_arrays(E, rng.uniform(-2.0, 3.0, 300),
                                          np.hypot(W.real, W.imag)).sigma
    principal = [cmath.sqrt(e * e - abs(w) ** 2) for e, w in zip(E.tolist(), W.tolist())]
    assert np.array_equal(sigma.view(np.uint64), np.array(principal).view(np.uint64))


def test_modes_at_w_are_the_modes_at_abs_w_turned():
    # arg W is a gauge: the modes at W are those at |W|, their j-parts turned
    # by t = W / |W|; u+ keeps its unit j-part, so its complex part takes conj(t)
    rng = np.random.default_rng(25)
    for _ in range(240):
        wabs = rng.uniform(0.05, 3.0)
        W = wabs * cmath.exp(1j * (math.pi / 2 * rng.integers(4) + rng.uniform(0.05, 1.52)))
        E = rng.choice((-1.0, 1.0)) * wabs * rng.uniform(0.05, 3.0)   # |E| < |W| in a third
        V = rng.uniform(-2.0, 3.0)
        got, at_abs = schrodinger_modes(E, V, W), schrodinger_modes(E, V, abs(W))
        assert (got.z_minus, got.z_plus) == (at_abs.z_minus, at_abs.z_plus)
        t = W / abs(W)
        (m1, m2), (p1, p2) = at_abs.u_minus.symplectic(), at_abs.u_plus.symplectic()
        for u, want, z in ((got.u_minus, Quaternion.from_symplectic(m1, m2 * t), got.z_minus),
                           (got.u_plus, Quaternion.from_symplectic(p1 * t.conjugate(), p2),
                            got.z_plus)):
            assert (u - want).norm() <= 2e-15 * max(1.0, want.norm())
            assert mode_equation_residual(got, u, z) < 1e-12 * (1.0 + u.norm() * (1 + abs(z) ** 2))


def test_mode_gauge_singularity():
    with pytest.raises(ModeNormalizationError):
        schrodinger_modes(E=0.0, V=0.5, W=0.0)


def test_modes_validate_constants():
    with pytest.raises(ValueError):
        schrodinger_modes(E=1.0, V=0.0, W=0.0, hbar=0.0)


# -- time reversal ------------------------------------------------------------


def _stationary_solution(rng, E, V, w):
    b_op = stationary_b_op(V, w, E)
    return solve_clinear_ops(ZERO_OP, b_op, rand_quaternion(rng),
                             rand_quaternion(rng)), b_op


def _flipped_b_op(V, w, E):
    base = stationary_b_op(V, w, E)
    return RightLinearScalarOp(base.A, -base.B)


def test_time_reversal_real_potential():
    rng = np.random.default_rng(66)
    E, V, w = 2.0, 0.7, 0.9 + 0.0j
    sol, _ = _stationary_solution(rng, E, V, w)
    rev = time_reversal_map(sol, w)
    flipped = _flipped_b_op(V, w, E)
    for x in (0.0, 0.5, 1.0):
        assert clode.residual(rev, ZERO_OP, flipped, x) < 1e-12 * (
            1.0 + rev.value(x).norm() + rev.second(x).norm())
    # the map is literally j on the left
    for x in (0.3, 0.8):
        assert (rev.value(x) - J * sol.value(x)).norm() < 1e-12


def test_time_reversal_imaginary_potential():
    rng = np.random.default_rng(67)
    E, V, w = 2.0, 0.7, 0.9j
    sol, _ = _stationary_solution(rng, E, V, w)
    rev = time_reversal_map(sol, w)
    flipped = _flipped_b_op(V, w, E)
    for x in (0.2, 0.9):
        assert (rev.value(x) - K * sol.value(x)).norm() < 1e-12
        assert clode.residual(rev, ZERO_OP, flipped, x) < 1e-12 * (
            1.0 + rev.value(x).norm() + rev.second(x).norm())


def test_time_reversal_complex_potential():
    # arg W is a gauge, so j exp(i arg W) reverses time for every W; 60
    # seeded (E, V, W) with W off both axes, under the real and imaginary
    # tests' bound
    rng = np.random.default_rng(68)
    for _ in range(60):
        E, V = rng.uniform(0.2, 4.0), rng.uniform(-3.0, 3.0)
        w = rng.uniform(0.1, 2.0) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        sol, _ = _stationary_solution(rng, E, V, w)
        rev = time_reversal_map(sol, w)
        flipped = _flipped_b_op(V, w, E)
        for x in (0.0, 0.4, 1.1):
            assert clode.residual(rev, ZERO_OP, flipped, x) < 1e-12 * (
                1.0 + rev.value(x).norm() + rev.second(x).norm()), (E, V, w)


def test_time_reversal_of_huge_tiny_and_non_finite_w():
    # W is scaled by a power of two before its phase is taken, so a W whose
    # abs overflows or is subnormal still gives j exp(i arg W), exactly j
    # for real W and k for imaginary W; a non-finite W is refused
    rng = np.random.default_rng(69)
    sol, _ = _stationary_solution(rng, 2.0, 0.7, 0.9)
    half = math.sqrt(0.5)
    for w, factor in ((complex(1.5e308, 1.5e308), Quaternion(0.0, 0.0, half, -half)),
                      (complex(-1.7e308, 0.0), J), (complex(0.0, 1.7e308), K),
                      (complex(5e-324, 0.0), J), (complex(0.0, -5e-324), K),
                      (complex(-3e-320, 3e-320), Quaternion(0.0, 0.0, half, half))):
        rev = time_reversal_map(sol, w)
        for x in (0.3, 0.8):
            assert (rev.value(x) - factor * sol.value(x)).norm() <= 1e-15 * sol.value(x).norm(), w
    for w in (complex(math.inf, 0.0), complex(math.nan, 0.0), complex(0.0, -math.inf)):
        with pytest.raises(ValueError):
            time_reversal_map(sol, w)


# -- stationary phase ----------------------------------------------------------


def test_stationary_phase_identity_at_zero():
    zeta = stationary_phase(3.0, 1.0, ONE)
    assert (zeta(0.0) - ONE).norm() == 0.0


def test_stationary_phase_order_matters():
    E, hbar, t = 1.3, 1.0, 0.7
    zeta = stationary_phase(E, hbar, J)
    expected = Quaternion.from_complex(cmath.exp(-1j * E * t / hbar)) * J
    swapped = J * Quaternion.from_complex(cmath.exp(-1j * E * t / hbar))
    assert (zeta(t) - expected).norm() < 1e-15
    assert (zeta(t) - swapped).norm() > 0.1


def test_stationary_phase_unit_norm():
    zeta0 = (ONE + I + J + K) / 2.0
    zeta = stationary_phase(2.0, 0.5, zeta0)
    for t in np.linspace(-3.0, 3.0, 13):
        assert abs(zeta(t).norm() - 1.0) < 1e-13


def test_stationary_phase_requires_unit():
    with pytest.raises(ValueError):
        stationary_phase(1.0, 1.0, 2 * ONE)


@pytest.mark.parametrize("E, hbar, zeta0", [
    (1.0, math.inf, ONE), (1.0, math.nan, ONE), (1.0, 0.0, ONE), (1.0, -1.0, ONE),
    (math.nan, 1.0, ONE), (math.inf, 1.0, ONE), (-math.inf, 1.0, ONE),
    (1.0, 1.0, Quaternion(math.nan)), (1.0, 1.0, Quaternion(math.inf))])
def test_stationary_phase_rejects_non_finite(E, hbar, zeta0):
    with pytest.raises(ValueError):
        stationary_phase(E, hbar, zeta0)
