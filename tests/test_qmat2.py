import math

import numpy as np
import pytest

from quatode import clode, hode, qmat2
from quatode.qmat2 import (DefectiveMatrixError, Matrix2CL, Matrix2H,
                           dieudonne, lift, svec)
from quatode.quatcore import I, J, K, ONE, ZERO, Quaternion, RightLinearScalarOp

from helpers import (counterpart_solve, per_entry_counterpart, rand_quaternion,
                     reconstruct_antihermitian, spy_eigen_calls, svd_right_eigenpairs,
                     term_scale)


def rand_matrix(rng, scale=1.0):
    return Matrix2H([[rand_quaternion(rng, scale) for _ in range(2)]
                     for _ in range(2)])


def vec_close(u, v, tol=1e-10):
    return (u[0] - v[0]).norm() + (u[1] - v[1]).norm() < tol


S1 = Matrix2H([[-I, 3 * J], [3 * J, I]])
APPC = Matrix2H([[Quaternion(), ONE], [J, I - K]])


# -- counterpart -------------------------------------------------------------


def test_counterpart_identity():
    assert np.allclose(Matrix2H.identity().counterpart(), np.eye(4))


def test_counterpart_spectrum_of_worked_example():
    lam = sorted(np.linalg.eigvals(S1.counterpart()), key=lambda z: z.imag)
    expected = sorted([2j, -2j, 4j, -4j], key=lambda z: z.imag)
    for g, e in zip(lam, expected):
        assert abs(g - e) < 1e-12


def test_counterpart_functorial_on_products():
    rng = np.random.default_rng(40)
    for _ in range(200):
        m, n = rand_matrix(rng), rand_matrix(rng)
        lhs = (m @ n).counterpart()
        rhs = m.counterpart() @ n.counterpart()
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * (1.0 + m.norm() * n.norm())


def test_counterpart_respects_matvec():
    rng = np.random.default_rng(41)
    for _ in range(100):
        m = rand_matrix(rng)
        v = (rand_quaternion(rng), rand_quaternion(rng))
        assert np.max(np.abs(m.counterpart() @ svec(v) - svec(m.matvec(v)))) < 1e-12


def test_svec_lift_roundtrip():
    rng = np.random.default_rng(42)
    v = (rand_quaternion(rng), rand_quaternion(rng))
    assert vec_close(lift(svec(v)), v, tol=1e-15)


def test_cl_matrix_action_with_right_i():
    m = Matrix2CL([[RightLinearScalarOp(Quaternion(), J), 0], [0, 0]])
    out = m.matvec((ONE, Quaternion()))
    # j * 1 * i = -k
    assert (out[0] + K).norm() == 0.0 and out[1].norm() == 0.0


def test_cl_counterpart_complex_linearity():
    rng = np.random.default_rng(43)
    for _ in range(100):
        ops = [[RightLinearScalarOp(rand_quaternion(rng), rand_quaternion(rng))
                for _ in range(2)] for _ in range(2)]
        m = Matrix2CL(ops)
        v = (rand_quaternion(rng), rand_quaternion(rng))
        z = complex(*rng.standard_normal(2))
        zq = Quaternion.from_complex(z)
        lhs = m.matvec((v[0] * zq, v[1] * zq))
        base = m.matvec(v)
        rhs = (base[0] * zq, base[1] * zq)
        assert vec_close(lhs, rhs, tol=1e-10 * (1 + base[0].norm() + base[1].norm()))
        assert np.max(np.abs(m.counterpart() @ svec(v) - svec(base))) < 1e-12



def test_counterparts_bit_identical_to_per_entry_assembly():
    # one np.array over complex entries, against one 2x2 array per entry
    rng = np.random.default_rng(44)
    for n in range(200):
        h = rand_matrix(rng, scale=10.0 ** rng.uniform(-3, 3))
        ops = [[RightLinearScalarOp(rand_quaternion(rng), rand_quaternion(rng))
                for _ in range(2)] for _ in range(2)]
        if n % 4 == 0:      # exact zeros and ones, as in a companion matrix
            ops[0] = [0, 1]
        for m in (h, Matrix2CL(ops)):
            assert m.counterpart().tobytes() == per_entry_counterpart(m).tobytes()


# -- right eigenpairs --------------------------------------------------------


def test_eigenpairs_worked_example():
    dec = qmat2.right_eigenpairs(S1)
    assert not dec.defective
    assert abs(dec.eigenvalues[0] - 2j) < 1e-12
    assert abs(dec.eigenvalues[1] - 4j) < 1e-12
    paper1 = (I / math.sqrt(2), J / math.sqrt(2))
    paper2 = (K / math.sqrt(2), ONE / math.sqrt(2))
    for got, expect, z in zip(dec.eigenvectors, (paper1, paper2),
                              dec.eigenvalues):
        mv = S1.matvec(got)
        ev = (got[0] * Quaternion.from_complex(z), got[1] * Quaternion.from_complex(z))
        assert vec_close(mv, ev)
        # same complex ray as the printed eigenvector
        overlap = expect[0].conjugate() * got[0] + expect[1].conjugate() * got[1]
        assert abs(overlap.norm() - 1.0) < 1e-10


def test_eigenpairs_real_diagonal():
    dec = qmat2.right_eigenpairs(Matrix2H([[1, 0], [0, 2]]))
    assert abs(dec.eigenvalues[0] - 1.0) < 1e-12
    assert abs(dec.eigenvalues[1] - 2.0) < 1e-12


def test_eigenpairs_defective_flag():
    dec = qmat2.right_eigenpairs(APPC)
    assert dec.defective
    assert abs(dec.eigenvalues[0] - 1j) < 1e-7


def test_conjugate_pair_spectrum_property():
    rng = np.random.default_rng(44)
    for _ in range(1000):
        m = rand_matrix(rng)
        lam = np.linalg.eigvals(m.counterpart())
        conj = np.conj(lam)
        used = [False] * 4
        for z in lam:
            best, bidx = math.inf, -1
            for k, w in enumerate(conj):
                if not used[k] and abs(z - w) < best:
                    best, bidx = abs(z - w), k
            assert best < 1e-10 * (1.0 + m.norm())
            used[bidx] = True


# -- diagonalization ---------------------------------------------------------


def test_diagonalize_worked_example():
    dec = qmat2.diagonalize(S1)
    d = Matrix2H.diagonal(Quaternion.from_complex(dec.eigenvalues[0]),
                          Quaternion.from_complex(dec.eigenvalues[1]))
    rebuilt = dec.transform @ d @ dec.transform_inv
    assert (rebuilt - S1).norm() < 1e-12


def test_diagonalize_already_diagonal():
    m = Matrix2H.diagonal(I, J)
    dec = qmat2.diagonalize(m)
    for col in dec.eigenvectors:
        assert abs(math.sqrt(col[0].norm2() + col[1].norm2()) - 1.0) < 1e-12
    d = Matrix2H.diagonal(Quaternion.from_complex(dec.eigenvalues[0]),
                          Quaternion.from_complex(dec.eigenvalues[1]))
    rebuilt = dec.transform @ d @ dec.transform_inv
    assert (rebuilt - m).norm() < 1e-10


def test_diagonalize_construct_then_recover():
    rng = np.random.default_rng(45)
    for _ in range(100):
        z1 = complex(rng.standard_normal(), abs(rng.standard_normal()) + 0.3)
        z2 = complex(rng.standard_normal(), abs(rng.standard_normal()) + 0.3)
        if abs(abs(z1) - abs(z2)) < 0.1:
            z2 *= 1.5
        s = rand_matrix(rng)
        if dieudonne(s) < 0.1:
            continue
        m = s @ Matrix2H.diagonal(Quaternion.from_complex(z1),
                                  Quaternion.from_complex(z2)) @ s.inverse()
        dec = qmat2.diagonalize(m)
        got = sorted(dec.eigenvalues, key=lambda z: (z.imag, z.real))
        want = sorted((z1, z2), key=lambda z: (z.imag, z.real))
        for g, w in zip(got, want):
            assert abs(g - w) < 1e-8 * (1.0 + abs(w))


def test_diagonalize_rejects_defective():
    with pytest.raises(DefectiveMatrixError):
        qmat2.diagonalize(APPC)


def test_spectrum_invariant_under_eigenvalue_rebasing():
    rng = np.random.default_rng(46)
    for _ in range(50):
        dec = None
        while dec is None:
            m = rand_matrix(rng)
            try:
                dec = qmat2.diagonalize(m)
            except DefectiveMatrixError:
                continue
        u1 = rand_quaternion(rng)
        u1 = u1 / u1.norm()
        u2 = rand_quaternion(rng)
        u2 = u2 / u2.norm()
        cols = [tuple(c * u for c in col)
                for col, u in zip(dec.eigenvectors, (u1, u2))]
        s = Matrix2H.from_columns(*cols)
        d = Matrix2H.diagonal(
            u1.conjugate() * Quaternion.from_complex(dec.eigenvalues[0]) * u1,
            u2.conjugate() * Quaternion.from_complex(dec.eigenvalues[1]) * u2)
        rebuilt = s @ d @ s.inverse()
        assert (rebuilt - m).norm() < 1e-9 * (1.0 + m.norm())


# -- Jordan form -------------------------------------------------------------


def test_jordanize_worked_example_exact():
    dec = qmat2.jordanize(APPC)
    assert abs(dec.eigenvalues[0] - 1j) < 1e-9
    j = dec.transform
    assert (j[0, 0] - ONE).norm() < 1e-12
    assert (j[0, 1] - K / 2).norm() < 1e-12
    assert (j[1, 0] - I).norm() < 1e-12
    assert (j[1, 1] - (ONE + J / 2)).norm() < 1e-12
    blk = Matrix2H([[dec.eigenvalues[0], 1], [0, dec.eigenvalues[0]]])
    assert (dec.transform @ blk @ dec.transform_inv - APPC).norm() < 1e-10


def test_jordanize_of_jordan_block_is_identity():
    z = 0.7 + 1.3j
    m = Matrix2H([[z, 1], [0, z]])
    dec = qmat2.jordanize(m)
    assert (dec.transform - Matrix2H.identity()).norm() < 1e-9


def test_jordanize_roundtrip_random():
    rng = np.random.default_rng(47)
    for _ in range(50):
        j = rand_matrix(rng)
        if dieudonne(j) < 0.3:
            continue
        z = complex(rng.standard_normal(), abs(rng.standard_normal()) + 0.2)
        m = j @ Matrix2H([[z, 1], [0, z]]) @ j.inverse()
        dec = qmat2.jordanize(m)
        assert abs(dec.eigenvalues[0] - z) < 1e-6 * (1.0 + abs(z))
        blk = Matrix2H([[dec.eigenvalues[0], 1], [0, dec.eigenvalues[0]]])
        rebuilt = dec.transform @ blk @ dec.transform_inv
        assert (rebuilt - m).norm() < 1e-8 * (1.0 + m.norm())


def test_jordanize_rejects_diagonalizable():
    with pytest.raises(ValueError):
        qmat2.jordanize(S1)


# -- ODE solutions through the matrix route ----------------------------------


def test_ode_via_matrix_jordan_example():
    from quatode.quatcore import exp as qexp
    sol = qmat2.solve_ode_via_matrix(K - I, -J, K / 2, ONE + J / 2)
    for x in np.linspace(0.0, 1.4, 8):
        expected = (x + K / 2) * qexp(I * x)
        assert (sol.value(x) - expected).norm() < 1e-11


def test_ode_via_matrix_cosine():
    sol = qmat2.solve_ode_via_matrix(Quaternion(), ONE, ONE, Quaternion())
    for x in (0.0, 0.5, 2.0):
        assert (sol.value(x) - Quaternion(math.cos(x))).norm() < 1e-12
        assert (sol.derivative(x) - Quaternion(-math.sin(x))).norm() < 1e-12


def test_ode_via_matrix_agrees_with_hode():
    rng = np.random.default_rng(48)
    for _ in range(100):
        a, b = rand_quaternion(rng), rand_quaternion(rng)
        phi0, dphi0 = rand_quaternion(rng), rand_quaternion(rng)
        m_sol = qmat2.solve_ode_via_matrix(a, b, phi0, dphi0)
        h_sol = hode.solve_ivp(a, b, phi0, dphi0)
        for x in np.linspace(0.0, 1.0, 7):
            assert (m_sol.value(x) - h_sol.value(x)).norm() < 1e-9


def _samples_agree(sol, ref, tol=1e-12):
    for x in np.linspace(0.0, 1.5, 7):
        scale = term_scale(ref, x)
        assert (sol.value(x) - ref.value(x)).norm() <= tol * scale
        assert (sol.derivative(x) - ref.derivative(x)).norm() <= tol * (
            scale * (1.0 + max(abs(t.z) for t in ref.terms)))


def test_eig_route_matches_svd_route_on_random_ivps(monkeypatch):
    # eig's own eigenvectors against eigvals + one SVD nullspace per eigenvalue
    rng = np.random.default_rng(52)
    for _ in range(200):
        a, b = rand_quaternion(rng, 1.5), rand_quaternion(rng, 1.5)
        phi0, dphi0 = rand_quaternion(rng), rand_quaternion(rng)
        sol = qmat2.solve_ode_via_matrix(a, b, phi0, dphi0)
        with monkeypatch.context() as patch:
            patch.setattr(qmat2, "right_eigenpairs", svd_right_eigenpairs)
            ref = qmat2.solve_ode_via_matrix(a, b, phi0, dphi0)
        dec, rdec = sol.decomposition, ref.decomposition
        assert (dec.form, dec.defective) == (rdec.form, rdec.defective)
        for z, rz in zip(dec.eigenvalues, rdec.eigenvalues):
            assert abs(z - rz) <= 1e-12 * (1.0 + abs(rz))
        _samples_agree(sol, ref)


def test_eig_route_matches_svd_route_with_real_eigenvalues():
    # a real canonical eigenvalue pairs with itself: both routes take the SVD
    rng = np.random.default_rng(53)
    checked = 0
    while checked < 60:
        s = rand_matrix(rng)
        if dieudonne(s) < 0.1:
            continue
        z2 = complex(rng.uniform(-2.0, 2.0), 0.0 if checked % 2 else rng.uniform(0.3, 2.0))
        m = s @ Matrix2H.diagonal(Quaternion(rng.uniform(-2.0, 2.0)),
                                  Quaternion.from_complex(z2)) @ s.inverse()
        dec, ref = qmat2.right_eigenpairs(m), svd_right_eigenpairs(m)
        assert (dec.form, dec.defective) == (ref.form, ref.defective) == ("diagonal", False)
        for z, rz in zip(dec.eigenvalues, ref.eigenvalues):
            assert abs(z - rz) <= 1e-12 * (1.0 + abs(rz))
        for v, rv in zip(dec.eigenvectors, ref.eigenvectors):
            assert vec_close(v, rv, tol=1e-12)
        checked += 1
    # two real roots: phi'' - 3 phi' + 2 phi = 0, roots 1 and 2
    sol = qmat2.solve_ode_via_matrix(Quaternion(-3.0), Quaternion(2.0), ONE + J, K)
    for x in (0.0, 0.4, 1.1):
        want = (ONE + J) * (2.0 * math.exp(x) - math.exp(2.0 * x)) + K * (
            math.exp(2.0 * x) - math.exp(x))
        assert (sol.value(x) - want).norm() < 1e-12 * want.norm()


def test_one_eig_and_no_svd_per_generic_solve(monkeypatch):
    calls = spy_eigen_calls(monkeypatch)
    sol = qmat2.solve_ode_via_matrix(0.3 + I - 0.2 * K, 0.7 * J + 0.4 * I, ONE, K)
    assert sol.decomposition.form == "diagonal"
    assert calls == ["eig"]


@pytest.mark.parametrize("scale", [1e5, 1e100, 1e300])
def test_diagonalize_is_scale_free(scale):
    # unit eigenvectors decide independence whatever |M|; at 1e300 a plain
    # Frobenius norm of the counterpart overflows
    m = Matrix2H([[e * scale for e in row] for row in S1.m])
    dec = qmat2.diagonalize(m)
    assert abs(dec.eigenvalues[0] / scale - 2j) < 1e-12
    assert abs(dec.eigenvalues[1] / scale - 4j) < 1e-12
    for v, rv in zip(dec.eigenvectors, qmat2.diagonalize(S1).eigenvectors):
        # the same complex ray; the phase rule ties on equal components
        overlap = rv[0].conjugate() * v[0] + rv[1].conjugate() * v[1]
        assert abs(overlap.norm() - 1.0) < 1e-12


@pytest.mark.parametrize("scale", [1e11, 1e12, 1e50, 1e150])
def test_jordanize_is_scale_free(scale):
    # the generalized eigenvector shrinks like 1/|M|: independence is judged
    # on unit columns, and J^-1 comes without the |J|^2 singularity rule
    m = Matrix2H([[e * scale for e in row] for row in APPC.m])
    dec = qmat2.jordanize(m)
    assert abs(dec.eigenvalues[0] / scale - 1j) < 1e-9
    blk = Matrix2H([[dec.eigenvalues[0], 1], [0, dec.eigenvalues[0]]])
    assert (dec.transform @ blk @ dec.transform_inv - m).norm() <= 1e-12 * m.norm()


def test_closed_form_solve_matches_counterpart_solve():
    # block elimination against one complex solve on the 4x4 counterpart: the
    # same singular verdict everywhere, the same solution and inverse elsewhere
    rng = np.random.default_rng(54)
    kinds = ("regular", "m00_zero", "m00_small", "rank_one", "near_singular")
    for n in range(600):
        kind = kinds[n % len(kinds)]
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        rows = [[rand_quaternion(rng, scale) for _ in range(2)] for _ in range(2)]
        if kind == "m00_zero":
            rows[0][0] = Quaternion()
        elif kind == "m00_small":     # the pivot row is the second one
            rows[0][0] = rand_quaternion(rng, 1e-3 * scale)
        elif kind != "regular":       # row 2 = q row 1, then 1e-6 from it
            q = rand_quaternion(rng)
            rows[1] = [q * e + (rand_quaternion(rng, 1e-6 * scale)
                                if kind == "near_singular" else ZERO) for e in rows[0]]
        m = Matrix2H(rows)
        rhs = (rand_quaternion(rng), rand_quaternion(rng))
        ref = counterpart_solve(m, rhs)
        assert (ref is None) == (kind == "rank_one"), kind
        if ref is None:
            for call in (lambda: m.solve(rhs), m.inverse):
                with pytest.raises(ValueError, match="singular"):
                    call()
            continue
        # two backward-stable solves differ by up to the condition number
        # times their rounding: ~1e7 for the near-singular matrices
        tol = 1e-12 * (np.linalg.cond(per_entry_counterpart(m)) if kind == "near_singular" else 1.0)
        got = m.solve(rhs)
        size = math.hypot(*(r.norm() for r in ref))
        assert math.hypot(*((g - r).norm() for g, r in zip(got, ref))) <= tol * size, kind
        inv = m.inverse()
        for col, e in zip(zip(*inv.m), ((ONE, ZERO), (ZERO, ONE))):
            want = counterpart_solve(m, e)
            size = math.hypot(*(w.norm() for w in want))
            assert math.hypot(*((g - w).norm() for g, w in zip(col, want))) <= tol * size, kind


def _branch_ivp(rng, branch):
    """(a, b, phi0, phi0') of phi'' + a phi' + b phi = 0 on one solver branch."""
    if branch == "generic":
        a, b = rand_quaternion(rng, 1.5), rand_quaternion(rng, 1.5)
    elif branch == "real_pair":            # two real roots
        r1, r2 = rng.uniform(-2.0, 2.0, 2)
        a, b = Quaternion(-(r1 + r2)), Quaternion(r1 * r2)
    elif branch == "one_real":             # q = r is a root
        r, a = rng.uniform(-2.0, 2.0), rand_quaternion(rng)
        b = -(Quaternion(r * r) + a * r)
    elif branch == "sphere":               # a sphere of roots: a double z
        a = Quaternion(rng.uniform(-2.0, 2.0))
        b = Quaternion(rng.uniform(1.0, 3.0) + a.w * a.w / 4.0)
    elif branch == "real_double":          # one real root twice
        r = rng.uniform(-2.0, 2.0)
        a, b = Quaternion(-2.0 * r), Quaternion(r * r)
    else:                                  # orthogonal vectors, delta = 0
        u, v = rng.standard_normal(3), rng.standard_normal(3)
        u /= np.linalg.norm(u)
        w = np.cross(u, v) / np.linalg.norm(np.cross(u, v))
        an, cn, a0 = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), rng.uniform(-2.0, 2.0)
        c0 = cn * cn / (an * an) - an * an / 4.0
        a = Quaternion(a0, *(an * u))
        b = Quaternion(c0 + a0 * a0 / 4.0, *(cn * w + a0 / 2.0 * an * u))
    return a, b, rand_quaternion(rng), rand_quaternion(rng)


def test_ivp_solvers_agree_on_every_branch():
    # hode (quadratic roots), qmat2 (eigenpairs of the 2x2 companion) and
    # clode (the 4x4 counterpart) share no solve.  A quaternionic Jordan block
    # is two Jordan blocks of the counterpart, one chain per null vector
    rng = np.random.default_rng(55)
    branches = ("generic", "real_pair", "one_real", "sphere", "real_double", "repeated")
    seen = set()
    for n in range(200):
        a, b, phi0, dphi0 = _branch_ivp(rng, branches[n % len(branches)])
        ref = hode.solve_ivp(a, b, phi0, dphi0)
        sols = [qmat2.solve_ode_via_matrix(a, b, phi0, dphi0),
                clode.solve_clinear_ops(RightLinearScalarOp(a, ZERO),
                                        RightLinearScalarOp(b, ZERO), phi0, dphi0)]
        dec = sols[0].decomposition
        seen.add((ref.roots.kind.value, dec.form, len(set(dec.eigenvalues)),
                  min(abs(z.imag) for z in dec.eigenvalues) < 1e-9, len(sols)))
        rate = 1.0 + max(abs(t.z) for t in ref.terms)
        for x in np.linspace(0.0, 1.5, 5):
            scale = term_scale(ref, x)
            for sol in sols:
                assert (sol.value(x) - ref.value(x)).norm() <= 1e-11 * scale
                assert (sol.derivative(x) - ref.derivative(x)).norm() <= 1e-11 * scale * rate
    # diagonal with complex and with real eigenvalues (the SVD nullspace), a
    # double eigenvalue with two eigenvectors, and the Jordan form
    assert {("distinct", "diagonal", 2, False, 2), ("real_pair", "diagonal", 2, True, 2),
            ("distinct", "diagonal", 2, True, 2), ("sphere", "diagonal", 1, False, 2),
            ("repeated", "jordan", 1, False, 2), ("repeated", "jordan", 1, True, 2)} <= seen


# -- anti-hermitian spectral decomposition -----------------------------------


def test_spectral_decomposition_worked_example():
    lam, vecs, h = qmat2.spectral_decompose_antihermitian(S1)
    assert lam == [2.0, 4.0] or (abs(lam[0] - 2) < 1e-12 and abs(lam[1] - 4) < 1e-12)
    expected_h = Matrix2H([[3, K], [-K, 3]])
    assert (h - expected_h).norm() < 1e-12
    rebuilt = reconstruct_antihermitian(lam, vecs)
    assert (rebuilt - S1).norm() < 1e-11


def test_spectral_decomposition_scalar_i():
    lam, vecs, h = qmat2.spectral_decompose_antihermitian(
        Matrix2H.diagonal(I, I))
    assert max(abs(v - 1.0) for v in lam) < 1e-12
    assert (h - Matrix2H.identity()).norm() < 1e-10


def test_spectral_decomposition_random_reconstruction():
    rng = np.random.default_rng(49)
    for _ in range(100):
        m = rand_matrix(rng)
        a = m - m.dagger()   # anti-hermitian
        a = Matrix2H([[e / 2 for e in row] for row in a.m])
        lam, vecs, h = qmat2.spectral_decompose_antihermitian(a)
        rebuilt = reconstruct_antihermitian(lam, vecs)
        assert (rebuilt - a).norm() < 1e-11 * (1.0 + a.norm())
        for z, v in zip(lam, vecs):
            hv = h.matvec(v)
            assert vec_close(hv, (v[0] * z, v[1] * z), tol=1e-9 * (1 + abs(z)))


def test_h_with_right_i_reproduces_eigenvalue_equation():
    lam, vecs, h = qmat2.spectral_decompose_antihermitian(S1)
    for z, v in zip(lam, vecs):
        hri = h.matvec((v[0] * I, v[1] * I))
        target = (v[0] * Quaternion(0, z), v[1] * Quaternion(0, z))
        assert vec_close(hri, target, tol=1e-10)


def test_spectral_decomposition_rejects_non_antihermitian():
    with pytest.raises(ValueError):
        qmat2.spectral_decompose_antihermitian(Matrix2H([[1, 0], [0, 1]]))


def test_inverse_roundtrip_random():
    rng = np.random.default_rng(51)
    ident = Matrix2H.identity()
    for _ in range(100):
        m = rand_matrix(rng)
        if dieudonne(m) < 0.1:
            continue
        assert (m @ m.inverse() - ident).norm() < 1e-10
        assert (m.inverse() @ m - ident).norm() < 1e-10


def test_inverse_of_singular_matrix_raises():
    # second row = first row times K from the left: quaternionically dependent
    m = Matrix2H([[ONE, I], [K, K * I]])
    with pytest.raises(ValueError, match="singular"):
        m.inverse()
    with pytest.raises(ValueError, match="singular"):
        Matrix2H([[0, 0], [0, 0]]).inverse()


def test_singularity_test_is_scale_free():
    # 2^k I: det of the counterpart (2^4k) and |M|^2 (2^(2k+1)) leave the float
    # range from |k| ~ 256, but the verdict has degree 2 on both sides
    q = Quaternion(0.3, -1.1, 0.7, 0.2)
    for k in range(-530, 531):
        f, inv = math.ldexp(1.0, k), math.ldexp(1.0, -k)
        m = Matrix2H([[f, 0], [0, f]])
        got = m.inverse()
        for r in range(2):
            for c in range(2):
                assert got.m[r][c] == Quaternion(inv if r == c else 0.0), (k, r, c)
        assert m.solve((ONE, Quaternion())) == (Quaternion(inv), Quaternion())
        assert m.solve((Quaternion(), ONE)) == (Quaternion(), Quaternion(inv))
        singular = Matrix2H([[q * f, q * f], [q * f, q * f]])
        with pytest.raises(ValueError, match="singular"):
            singular.inverse()
        with pytest.raises(ValueError, match="singular"):
            singular.solve((ONE, ONE))


def test_dieudonne_multiplicative():
    rng = np.random.default_rng(50)
    for _ in range(100):
        m, n = rand_matrix(rng), rand_matrix(rng)
        lhs = dieudonne(m @ n)
        rhs = dieudonne(m) * dieudonne(n)
        assert abs(lhs - rhs) < 1e-9 * (1.0 + rhs)
