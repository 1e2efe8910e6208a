import math

import numpy as np
import pytest

from quatode import quadsolve
from quatode.quadsolve import CaseTag, RootKind
from quatode.quatcore import Quaternion

from helpers import as_tuple, companion_cubic_resolvent

S2 = math.sqrt(2.0)


def roots_sorted(rs):
    return sorted(as_tuple(r) for r in rs.roots)


def residuals(coeffs, rs):
    return [quadsolve.residual(coeffs, r) for r in rs.all_roots()]


# -- golden quadratics ------------------------------------------------------


def test_golden_parallel():
    # p^2 + sqrt2(i+j) p - 1 - 2 sqrt2 (i+j) = 0
    c = quadsolve.QuadraticCoeffs(0, [S2, S2, 0], -1, [-2 * S2, -2 * S2, 0])
    rs = quadsolve.solve(c)
    assert rs.case is CaseTag.PARALLEL and rs.kind is RootKind.DISTINCT
    e1 = (S2, -(1 - S2) / S2, -(1 - S2) / S2, 0.0)
    e2 = (-S2, -(1 + S2) / S2, -(1 + S2) / S2, 0.0)
    got = roots_sorted(rs)
    for g, e in zip(got, sorted((e1, e2))):
        assert max(abs(a - b) for a, b in zip(g, e)) < 1e-12
    assert max(residuals(c, rs)) < 1e-12


def test_golden_orthogonal_repeated():
    # p^2 + i p + k/2 = 0, repeated root -(i+j)/2
    c = quadsolve.QuadraticCoeffs(0, [1, 0, 0], 0, [0, 0, 0.5])
    rs = quadsolve.solve(c)
    assert rs.kind is RootKind.REPEATED
    assert max(abs(a - b) for a, b in
               zip(as_tuple(rs.roots[0]), (0, -0.5, -0.5, 0))) < 1e-12
    assert max(residuals(c, rs)) < 1e-12


def test_golden_orthogonal_delta_positive():
    # p^2 + j p + 1 - k = 0 -> {-i, -(i+j)}
    c = quadsolve.QuadraticCoeffs(0, [0, 1, 0], 1, [0, 0, -1])
    rs = quadsolve.solve(c)
    assert rs.case is CaseTag.ORTHOGONAL and rs.kind is RootKind.DISTINCT
    got = roots_sorted(rs)
    expected = sorted([(0, -1, 0, 0), (0, -1, -1, 0)])
    for g, e in zip(got, expected):
        assert max(abs(a - b) for a, b in zip(g, e)) < 1e-12
    assert max(residuals(c, rs)) < 1e-12


def test_golden_orthogonal_delta_negative():
    # p^2 + k p + j = 0 -> (+-1 - i -+ j - k)/2
    c = quadsolve.QuadraticCoeffs(0, [0, 0, 1], 0, [0, 1, 0])
    rs = quadsolve.solve(c)
    assert rs.kind is RootKind.DISTINCT
    got = roots_sorted(rs)
    expected = sorted([(0.5, -0.5, -0.5, -0.5), (-0.5, -0.5, 0.5, -0.5)])
    for g, e in zip(got, expected):
        assert max(abs(a - b) for a, b in zip(g, e)) < 1e-12
    assert max(residuals(c, rs)) < 1e-12


def test_golden_generic():
    # p^2 + i p + 1 + i + k = 0
    c = quadsolve.QuadraticCoeffs(0, [1, 0, 0], 1, [1, 0, 1])
    rs = quadsolve.solve(c)
    assert rs.case is CaseTag.GENERIC
    got = roots_sorted(rs)
    expected = sorted([(0.5, -1.5, -0.5, -0.5), (-0.5, 0.5, -0.5, 0.5)])
    for g, e in zip(got, expected):
        assert max(abs(a - b) for a, b in zip(g, e)) < 1e-12
    assert max(residuals(c, rs)) < 1e-12


def test_golden_sphere():
    c = quadsolve.QuadraticCoeffs(0, [0, 0, 0], 1, [0, 0, 0])
    rs = quadsolve.solve(c)
    assert rs.kind is RootKind.SPHERE
    assert abs(rs.alpha - 1.0) < 1e-15 and rs.center == 0.0
    assert max(residuals(c, rs)) < 1e-12


# -- normalization and classification --------------------------------------


def test_normalize_identity_when_a0_zero():
    c = quadsolve.QuadraticCoeffs(0, [1, 2, 3], 4, [5, 6, 7])
    assert c.c0 == 4 and np.array_equal(c.c_vec, [5, 6, 7])


def test_normalize_real_shift():
    c = quadsolve.QuadraticCoeffs(2, [0, 0, 0], 1, [0, 0, 0])
    assert c.c0 == 0.0


def test_normalize_ode_characteristic_pairing():
    # phi'' + (1+i) phi' + (1+2i+2k)/4 phi reduces to p^2 + i p + k/2
    c = quadsolve.QuadraticCoeffs(1, [1, 0, 0], 0.25, [0.5, 0, 0.5])
    assert abs(c.c0) < 1e-15
    assert np.allclose(c.c_vec, [0, 0, 0.5])
    assert c.shift == 0.5


def test_derived_quantities_self_consistent():
    rng = np.random.default_rng(20)
    for _ in range(200):
        a0, b0 = rng.standard_normal(2)
        av, bv = rng.standard_normal(3), rng.standard_normal(3)
        c = quadsolve.QuadraticCoeffs(a0, av, b0, bv)
        assert abs(c.c0 - (b0 - a0 ** 2 / 4)) < 1e-14
        assert np.allclose(c.c_vec, bv - a0 / 2 * av)
        an2 = av @ av
        assert abs(c.d0 - (av @ c.c_vec) / an2) < 1e-12
        # d is orthogonal to a
        scale = np.linalg.norm(av) * max(1.0, np.linalg.norm(c.d_vec))
        assert abs(av @ c.d_vec) < 1e-13 * scale


def test_classify_examples():
    mk = lambda av, cv: quadsolve.QuadraticCoeffs(0, av, 0, cv)
    assert quadsolve.classify(mk([S2, S2, 0], [-2 * S2, -2 * S2, 0])) is CaseTag.PARALLEL
    assert quadsolve.classify(mk([1, 0, 0], [0, 0, 0.5])) is CaseTag.ORTHOGONAL
    assert quadsolve.classify(mk([1, 0, 0], [1, 0, 1])) is CaseTag.GENERIC
    assert quadsolve.classify(mk([0, 0, 0], [1, 0, 0])) is CaseTag.A_ZERO
    assert quadsolve.classify(mk([1, 0, 0], [0, 0, 0])) is CaseTag.C_ZERO
    assert quadsolve.classify(mk([0, 0, 0], [0, 0, 0])) is CaseTag.BOTH_ZERO


@pytest.mark.parametrize("lam", [1e-30, 1e-13, 1e-5, 1.0, 1e10, 1e13, 1e16])
def test_classify_is_scale_invariant(lam):
    # q^2 + lam a q + lam^2 b: the roots scale with lam, the branch must not
    a = np.array([0.3, 1.0, 0.2, -0.5])
    b = np.array([0.7, 0.4, -1.1, 0.3])
    c = quadsolve.QuadraticCoeffs(lam * a[0], lam * a[1:], lam ** 2 * b[0], lam ** 2 * b[1:])
    assert quadsolve.classify(c) is CaseTag.GENERIC
    assert max(residuals(c, quadsolve.solve(c))) <= 1e-12 * lam ** 2


# -- cubic resolvent --------------------------------------------------------


def test_cubic_resolvent_golden():
    c = quadsolve.QuadraticCoeffs(0, [1, 0, 0], 1, [1, 0, 1])
    w = quadsolve.cubic_resolvent(c)
    assert abs(w - 0.25) < 1e-13


def test_cubic_resolvent_matches_companion_oracle():
    rng = np.random.default_rng(21)
    count = 0
    while count < 100:
        c = quadsolve.QuadraticCoeffs(rng.standard_normal(), rng.standard_normal(3),
                                      rng.standard_normal(), rng.standard_normal(3))
        if quadsolve.classify(c) is not CaseTag.GENERIC:
            continue
        count += 1
        an2 = np.dot(c.a_vec, c.a_vec)
        dn2 = np.dot(c.d_vec, c.d_vec)
        coeffs = [16.0,
                  8.0 * (an2 + 2.0 * c.c0),
                  4.0 * (an2 * (c.c0 - c.d0 ** 2) + an2 ** 2 / 4.0 - dn2),
                  -c.d0 ** 2 * an2 ** 2]
        pos = [r.real for r in np.roots(coeffs)
               if abs(r.imag) < 1e-8 and r.real > 0]
        assert len(pos) == 1
        assert abs(quadsolve.cubic_resolvent(c) - pos[0]) < 1e-12 * max(1.0, pos[0])


def _resolvent_inputs(rng):
    """Generic reduced equations p^2 + a p + c0 + c = 0 in three families."""
    def unit(v):
        return v / np.linalg.norm(v)

    for family in ("ratio", "d0", "switch"):
        count = 0
        while count < 700:
            u = unit(rng.standard_normal(3))
            w = unit(np.cross(u, rng.standard_normal(3)))
            an = 10.0 ** rng.uniform(-2, 2)
            if family == "ratio":        # |c| / |a| over 1e-4 .. 1e4
                cn = an * 10.0 ** rng.uniform(-4, 4)
                ang = rng.uniform(0.05, math.pi - 0.05)
                c_vec = cn * (math.cos(ang) * u + math.sin(ang) * w)
                c0 = rng.standard_normal() * max(an, cn) ** 2 * 10.0 ** rng.uniform(-2, 1)
            elif family == "d0":         # d0 = a.c / |a|^2 down to 1e-8
                d0 = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-8, -1)
                c_vec = d0 * an * u + an * 10.0 ** rng.uniform(-1, 1) * w
                c0 = 3.0 * rng.standard_normal() * an * an
            else:
                # one root far larger than the other two: the discriminant of
                # the depressed cubic is roundoff around 0, so the
                # trigonometric and Cardano forms both occur
                cn = an * 10.0 ** rng.uniform(3, 5)
                ang = rng.uniform(0.05, math.pi - 0.05)
                c_vec = cn * (math.cos(ang) * u + math.sin(ang) * w)
                c0 = -rng.uniform(0.5, 10.0) * cn * cn
            a0 = rng.uniform(-2, 2)
            c = quadsolve.QuadraticCoeffs(a0, an * u, c0 + a0 * a0 / 4,
                                          c_vec + a0 / 2 * an * u)
            if quadsolve.classify(c) is CaseTag.GENERIC:
                count += 1
                yield family, c


def _depressed_discriminant(c):
    an2, dn2 = np.dot(c.a_vec, c.a_vec), np.dot(c.d_vec, c.d_vec)
    k2 = (an2 + 2.0 * c.c0) / 2.0
    k1 = (an2 * (c.c0 - c.d0 ** 2) + an2 ** 2 / 4.0 - dn2) / 4.0
    k0 = -c.d0 ** 2 * an2 ** 2 / 16.0
    p, q = k1 - k2 ** 2 / 3.0, 2.0 * k2 ** 3 / 27.0 - k2 * k1 / 3.0 + k0
    return (q / 2.0) ** 2 + (p / 3.0) ** 3


def test_cubic_resolvent_matches_companion_matrix_reference():
    # the closed forms against the companion-matrix eigenvalues they replaced
    signs = set()
    for family, c in _resolvent_inputs(np.random.default_rng(25)):
        ref = companion_cubic_resolvent(c)
        assert abs(quadsolve.cubic_resolvent(c) - ref) <= 1e-13 * ref, family
        if family == "switch":
            signs.add(_depressed_discriminant(c) >= 0.0)
    assert signs == {False, True}


def test_scalar_path_calls_no_numpy_vector_routines(monkeypatch):
    def banned(*args, **kwargs):
        raise AssertionError("numpy routine called on the scalar path")

    for owner, name in ((np, "cross"), (np.linalg, "eigvals"), (np.linalg, "norm")):
        monkeypatch.setattr(owner, name, banned)
    for a, b, case in (([0, 1, 0, 0], [1, 1, 0, 1], CaseTag.GENERIC),
                       ([0, 1, 0, 0], [1, 0, 0, 1], CaseTag.ORTHOGONAL),
                       ([0.5, 1, 0, 0], [1, 2, 0, 0], CaseTag.PARALLEL),
                       ([0, 0, 0, 0], [1, 0, 0, 0], CaseTag.BOTH_ZERO)):
        rs = quadsolve.solve_coeffs(a[0], a[1:], b[0], b[1:])
        assert rs.case is case
        assert rs.all_roots()


def test_cubic_resolvent_degenerates_with_d0():
    # shrinking the parallel component sends the real part to zero and the
    # roots to the orthogonal-case values
    base = quadsolve.QuadraticCoeffs(0, [0, 1, 0], 1, [0, 0, -1])   # orthogonal
    ortho = quadsolve.solve(base)
    last = math.inf
    for eps in (1e-2, 1e-4, 1e-6):
        c = quadsolve.QuadraticCoeffs(0, [0, 1, 0], 1, [0, eps, -1])
        assert quadsolve.classify(c) is CaseTag.GENERIC
        w = quadsolve.cubic_resolvent(c)
        assert w < last
        last = w
        rs = quadsolve.solve(c)
        if eps == 1e-6:
            assert w < 1e-11
            worst = max(min((g - e).norm() for e in ortho.roots)
                        for g in rs.roots)
            assert worst < 1e-5


# -- solver properties ------------------------------------------------------


def _random_coeffs(rng, case=None):
    while True:
        c = quadsolve.QuadraticCoeffs(rng.standard_normal(), rng.standard_normal(3),
                                      rng.standard_normal(), rng.standard_normal(3))
        if case is None or quadsolve.classify(c) is case:
            return c


def test_residuals_all_branches():
    rng = np.random.default_rng(22)
    for case in (CaseTag.GENERIC, CaseTag.ORTHOGONAL, CaseTag.PARALLEL,
                 CaseTag.A_ZERO, CaseTag.C_ZERO):
        for _ in range(60):
            if case is CaseTag.ORTHOGONAL:
                av = rng.standard_normal(3)
                cv = np.cross(av, rng.standard_normal(3))
                c = quadsolve.QuadraticCoeffs(0, av, rng.standard_normal(), cv)
            elif case is CaseTag.PARALLEL:
                av = rng.standard_normal(3)
                c = quadsolve.QuadraticCoeffs(0, av, rng.standard_normal(),
                                              rng.standard_normal() * av)
            elif case is CaseTag.A_ZERO:
                c = quadsolve.QuadraticCoeffs(0, [0, 0, 0], rng.standard_normal(),
                                              rng.standard_normal(3))
            elif case is CaseTag.C_ZERO:
                av = rng.standard_normal(3)
                a0 = rng.standard_normal()
                c = quadsolve.QuadraticCoeffs(a0, av, rng.standard_normal(),
                                              (a0 / 2) * av)
            else:
                c = _random_coeffs(rng, CaseTag.GENERIC)
            rs = quadsolve.solve(c)
            an = np.linalg.norm(c.a_vec)
            cn = np.linalg.norm(c.c_vec)
            bound = 1e-10 * (1.0 + cn + abs(c.c0) + an ** 2)
            assert max(residuals(c, rs)) < bound, (case, rs)


def test_sphere_samples_satisfy_equation():
    c = quadsolve.QuadraticCoeffs(0, [0, 0, 0], 4.0, [0, 0, 0])
    rs = quadsolve.solve(c)
    assert rs.alpha == 2.0
    assert len(rs.sphere_samples(16)) == 16
    assert max(residuals(c, rs)) < 1e-12


def test_sphere_with_real_shift():
    # q^2 + 2q + 2 = 0: sphere of radius 1 centered at -1
    c = quadsolve.QuadraticCoeffs(2, [0, 0, 0], 2, [0, 0, 0])
    rs = quadsolve.solve(c)
    assert rs.kind is RootKind.SPHERE
    assert abs(rs.alpha - 1.0) < 1e-15 and abs(rs.center + 1.0) < 1e-15
    assert max(residuals(c, rs)) < 1e-12


def test_real_pair():
    c = quadsolve.QuadraticCoeffs(0, [0, 0, 0], -4.0, [0, 0, 0])
    rs = quadsolve.solve(c)
    assert rs.kind is RootKind.REAL_PAIR
    assert [r.w for r in rs.roots] == [2.0, -2.0]


def test_repeated_from_c_zero():
    av = np.array([0.0, 3.0, 4.0])
    c = quadsolve.QuadraticCoeffs(0, av, -(av @ av) / 4.0, [0, 0, 0])
    rs = quadsolve.solve(c)
    assert rs.kind is RootKind.REPEATED
    expected = Quaternion.from_vector(-av / 2.0)
    assert (rs.roots[0] - expected).norm() < 1e-12


def test_delta_zero_continuity():
    # perturb c0 of a delta = 0 instance in both directions
    av, cv = np.array([1.0, 0, 0]), np.array([0, 0, 0.5])
    base = quadsolve.QuadraticCoeffs(0, av, 0.0, cv)
    assert abs(base.delta) < 1e-15
    target = quadsolve.solve(base).roots[0]
    for eps in (1e-6, 1e-10):
        for sign in (+1.0, -1.0):
            c = quadsolve.QuadraticCoeffs(0, av, sign * eps, cv)
            rs = quadsolve.solve(c)
            assert rs.kind is RootKind.DISTINCT
            worst = max((g - target).norm() for g in rs.roots)
            assert worst < 5.0 * math.sqrt(eps)


def test_root_ordering_deterministic():
    c = quadsolve.QuadraticCoeffs(0, [0, 1, 0], 1, [0, 0, -1])
    rs = quadsolve.solve(c)
    # descending by real part, then by imaginary norm
    assert rs.roots[0].w >= rs.roots[1].w
    assert np.linalg.norm(rs.roots[0].vector()) >= np.linalg.norm(
        rs.roots[1].vector()) or rs.roots[0].w > rs.roots[1].w


def test_against_newton_multistart():
    rng = np.random.default_rng(23)
    solved = 0
    while solved < 40:
        c = quadsolve.QuadraticCoeffs(rng.standard_normal(), rng.standard_normal(3),
                                      rng.standard_normal(), rng.standard_normal(3))
        rs = quadsolve.solve(c)
        if rs.kind is not RootKind.DISTINCT:
            continue
        solved += 1
        a = Quaternion(c.a0, *c.a_vec)
        b = Quaternion(c.b0, *c.b_vec)

        def f(v):
            q = Quaternion.from_array(v)
            return (q * q + a * q + b).to_array()

        def jac(v):
            q = Quaternion.from_array(v)
            return q.left_matrix() + q.right_matrix() + a.left_matrix()

        found = []
        for _ in range(60):
            v = rng.standard_normal(4) * 2.0
            for _ in range(80):
                try:
                    step = np.linalg.solve(jac(v), f(v))
                except np.linalg.LinAlgError:
                    break
                v = v - step
                if np.linalg.norm(step) < 1e-13:
                    break
            if np.linalg.norm(f(v)) < 1e-9:
                if not any(np.linalg.norm(v - u) < 1e-6 for u in found):
                    found.append(v)
        assert found, "newton found no roots"
        for v in found:
            best = min((Quaternion.from_array(v) - r).norm() for r in rs.roots)
            assert best < 1e-8


def test_cubic_resolvent_rejects_degenerate_input():
    c = quadsolve.QuadraticCoeffs(0, [1, 0, 0], 1, [0, 0, 1])  # orthogonal: d0 = 0
    with pytest.raises(ArithmeticError):
        quadsolve.cubic_resolvent(c)
