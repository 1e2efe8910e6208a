import math

import numpy as np
import pytest

from quatode import hode, oracle, qmat2, quadsolve
from quatode.qmat2 import _canonical_pairs
from quatode.quatcore import I, J, K, ONE, ExpSum, Quaternion, exp_term

from helpers import (QI, QJ, QK, as_tuple, branch_coefficients, exponential_wronskian,
                     expm_series, matrix2h_ivp, qadd, qdist, qexp_series, qmul, qscale,
                     rand_quaternion, repeated_root_cancellation, term_scale,
                     wronskian_all_forms)

S2 = math.sqrt(2.0)
SAMPLE_XS = (0.0, 0.25, 0.5, 1.0)


def tuple_eval(terms, x):
    """Sum of exp-series terms (prefactor_tuple, exponent_tuple, coeff_tuple)."""
    total = (0.0, 0.0, 0.0, 0.0)
    for pre, expo, coeff in terms:
        val = qmul(pre, qmul(qexp_series(qscale(x, expo)), coeff))
        total = qadd(total, val)
    return total


def check_golden(a, b, phi0, dphi0, expected_fn, tol=1e-11):
    sol = hode.solve_ivp(a, b, phi0, dphi0)
    for x in SAMPLE_XS:
        assert qdist(sol.value(x), expected_fn(x)) < tol
        assert hode.residual(sol, a, b, x) < 1e-10
    assert (sol.value(0.0) - phi0).norm() < 1e-13
    assert (sol.derivative(0.0) - dphi0).norm() < 1e-13
    return sol


# -- golden initial value problems ------------------------------------------


def test_golden_parallel_cosh_form():
    a = S2 * (I + J)
    b = Quaternion(-1) - 2 * S2 * (I + J)
    # exp(-(i+j)/sqrt2 x) cosh((sqrt2 + i + j) x) i, all inside C((i+j)/sqrt2)
    iu = qscale(1 / S2, qadd(QI, QJ))

    def expected(x):
        import cmath
        f = cmath.exp(-1j * x) * cmath.cosh((S2 + S2 * 1j) * x)
        base = qadd((f.real, 0, 0, 0), qscale(f.imag, iu))
        return qmul(base, QI)

    check_golden(a, b, I, (ONE + K) / S2, expected)


def test_golden_orthogonal_distinct():
    a = Quaternion(2, 0, 1, 0)
    b = Quaternion(2, 0, 1, -1)
    c1 = (0.5 * (3 * ONE - I - 2 * J))
    c2 = J - ONE

    def expected(x):
        terms = [((math.exp(-x), 0, 0, 0), (0, -1, 0, 0), as_tuple(c1)),
                 ((math.exp(-x), 0, 0, 0), (0, -1, -1, 0), as_tuple(c2))]
        return tuple_eval(terms, x)

    check_golden(a, b, (ONE - I) / 2, J, expected)


def test_golden_orthogonal_delta_negative():
    a, b = K, J
    p1 = (0.5, -0.5, -0.5, -0.5)
    p2 = (-0.5, -0.5, 0.5, -0.5)
    coeff = qscale(0.5, qadd(QI, QK))

    def expected(x):
        return tuple_eval([((1, 0, 0, 0), p1, coeff),
                           ((1, 0, 0, 0), p2, coeff)], x)

    check_golden(a, b, I + K, ONE, expected)


def test_golden_generic():
    a = I - 2 * ONE
    b = 2 * ONE + K
    q1 = (1.5, -1.5, -0.5, -0.5)
    q2 = (0.5, 0.5, -0.5, 0.5)
    coeff = qscale(1.0 / 6.0, (0, -1, 1, 2))

    def expected(x):
        return tuple_eval([((1, 0, 0, 0), q1, coeff),
                           ((1, 0, 0, 0), q2, qscale(-1.0, coeff))], x)

    check_golden(a, b, Quaternion(), J, expected)


def test_golden_repeated_with_affine_prefactor():
    a = ONE + I
    b = (Quaternion(1) + 2 * I + 2 * K) / 4
    q = qscale(-0.5, (1, 1, 1, 0))
    s = qscale(0.25, (0, 1, -1, 2))

    def expected(x):
        e = qexp_series(qscale(x, q))
        part1 = qmul(e, s)
        part2 = qmul(qadd((x, 0, 0, 0), QI), qmul(e, qmul(QI, s)))
        return qadd(part1, part2)

    sol = check_golden(a, b, Quaternion(), -(ONE + I + J) / 2, expected)
    assert sol.basis[1].terms[0].px is not None  # affine prefactor


# -- basis structure ---------------------------------------------------------


def test_sphere_case_canonical_basis():
    alpha = 1.5
    sol = hode.general_solution(Quaternion(), Quaternion(alpha ** 2))
    # exp(q x) has derivative q at 0
    exps = sorted(as_tuple(b.derivative(0.0)) for b in sol.basis)
    assert exps == [(0.0, -alpha, 0.0, 0.0), (0.0, alpha, 0.0, 0.0)]


def test_zero_coefficients_basis_is_one_and_x():
    sol = hode.general_solution(Quaternion(), Quaternion())
    b1, b2 = sol.basis
    # b1 = exp(0 x); b2 = (x + kappa) exp(0 x) with kappa = b2(0) = 0
    assert b1.terms[0].px is None and as_tuple(b1.derivative(0.0)) == (0, 0, 0, 0)
    assert b2.terms[0].px is not None and b2.value(0.0).norm() == 0.0
    got = b1 * ONE + b2 * Quaternion(2)
    assert (got.value(3.0) - Quaternion(7)).norm() < 1e-15


def test_repeated_root_affine_kappa():
    sol = hode.general_solution(K - I, -J)
    assert (sol.basis[0].derivative(0.0) - I).norm() < 1e-12  # exponent
    # basis[1] = (x + kappa) exp(q x), so kappa = basis[1](0)
    assert sol.basis[1].terms[0].px is not None
    kappa = sol.basis[1].value(0.0)
    assert (kappa - (K - I) / 2).norm() < 1e-12


def test_unset_coefficients_rejected():
    sol = hode.general_solution(Quaternion(), Quaternion(1))
    with pytest.raises(ValueError):
        sol.value(0.3)


# -- solver properties -------------------------------------------------------


def _random_ivp(rng):
    a = rand_quaternion(rng)
    b = rand_quaternion(rng)
    phi0 = rand_quaternion(rng)
    dphi0 = rand_quaternion(rng)
    return a, b, phi0, dphi0


def test_residual_bulk_random():
    rng = np.random.default_rng(30)
    xs = np.linspace(-1.0, 1.0, 32)
    for _ in range(100):
        a, b, phi0, dphi0 = _random_ivp(rng)
        sol = hode.solve_ivp(a, b, phi0, dphi0)
        for x in xs:
            growth = 1.0 + sol.value(x).norm() + sol.derivative(x).norm() \
                + sol.second(x).norm()
            assert hode.residual(sol, a, b, x) < 1e-10 * growth


def test_residual_repeated_family():
    rng = np.random.default_rng(31)
    xs = np.linspace(0.0, 1.0, 16)
    for _ in range(50):
        av = rng.standard_normal(3)
        cv = np.cross(av, rng.standard_normal(3))
        an2, cn2 = av @ av, cv @ cv
        c0 = cn2 / an2 - an2 / 4.0   # forces the repeated branch
        a0 = rng.standard_normal()
        b0 = c0 + a0 ** 2 / 4.0
        bv = cv + a0 / 2.0 * av
        a = Quaternion(a0, *av)
        b = Quaternion(b0, *bv)
        assert quadsolve.solve_quaternion(a, b).kind is quadsolve.RootKind.REPEATED
        sol = hode.solve_ivp(a, b, rand_quaternion(rng), rand_quaternion(rng))
        for x in xs:
            growth = 1.0 + sol.value(x).norm() + sol.second(x).norm()
            assert hode.residual(sol, a, b, x) < 1e-9 * growth


def test_repeated_root_cancellation_identity():
    rng = np.random.default_rng(32)
    for _ in range(100):
        av = rng.standard_normal(3)
        bv = rng.standard_normal(3)
        a = Quaternion(rng.standard_normal(), *av)
        b = Quaternion(rng.standard_normal(), *bv)
        assert repeated_root_cancellation(a, b) < 1e-12 * (
            1.0 + a.norm() + b.norm())


def test_ivp_uniqueness_on_overlap():
    rng = np.random.default_rng(33)
    a, b, phi0, dphi0 = _random_ivp(rng)
    sol = hode.solve_ivp(a, b, phi0, dphi0)
    x0 = 0.3
    sol2 = hode.solve_ivp(a, b, sol.value(x0), sol.derivative(x0))
    for x in np.linspace(0.0, 0.7, 11):
        assert (sol2.value(x) - sol.value(x + x0)).norm() < 1e-10


def test_basis_wronskian_positive():
    rng = np.random.default_rng(34)
    for _ in range(100):
        a, b, _, _ = _random_ivp(rng)
        sol = hode.general_solution(a, b)
        b1, b2 = sol.basis
        w = hode.wronskian(b1.value(0.0), b2.value(0.0),
                           b1.derivative(0.0), b2.derivative(0.0))
        assert w > 1e-12


def test_ivp_builds_its_basis_on_first_read(monkeypatch):
    # solve_ivp makes only its two terms; the first read of basis builds the
    # sums of general_solution, bit for bit, and later reads return them
    built = []
    monkeypatch.setattr(hode, "exp_term",
                        lambda *args, **kw: built.append(args) or exp_term(*args, **kw))
    rng = np.random.default_rng(36)
    for n in range(90):
        a, b = branch_coefficients(rng, list(BRANCHES)[n % len(BRANCHES)])
        built.clear()
        sol = hode.solve_ivp(a, b, rand_quaternion(rng), rand_quaternion(rng))
        assert len(built) == 2
        basis = sol.basis
        assert len(built) == 4 and sol.basis is basis
        assert ([repr(f.terms) for f in basis]
                == [repr(f.terms) for f in hode.general_solution(a, b).basis])


def test_evaluate_vs_rk4():
    rng = np.random.default_rng(35)
    for _ in range(10):
        a, b, phi0, dphi0 = _random_ivp(rng)
        sol = hode.solve_ivp(a, b, phi0, dphi0)
        traj = oracle.rk4_integrate(oracle.qlinear_rhs(a, b), phi0, dphi0,
                                    0.0, 1.0, 2048)
        for n in range(0, 2049, 256):
            x = traj.xs[n]
            assert (traj.phi(n) - sol.value(x)).norm() < 1e-6


def test_degenerate_real_pair_basis_error():
    # real roots +-1e-13: the basis columns (1, +-1e-13) agree to well below
    # the 1e-12 singularity rule, and the general elimination says so too
    a, b = Quaternion(), Quaternion(-1e-26)
    roots = quadsolve.solve_quaternion(a, b)
    assert roots.kind is quadsolve.RootKind.REAL_PAIR
    assert [q.w for q in roots.roots] == [1e-13, -1e-13]
    with pytest.raises(hode.DegenerateBasisError):
        hode.solve_ivp(a, b, ONE, ONE)
    with pytest.raises(ValueError):
        matrix2h_ivp(a, b, ONE, ONE)


def test_degenerate_basis_rule_matches_the_general_elimination():
    # the closed form's rule |d| <= 1e-12 |M|^2 against Matrix2H.solve of the
    # basis at 0, on IVPs around the rule's boundary:
    # - 600 nearly repeated roots -R/2 +- s u (a = R real, b = R^2/4 + s^2 u:
    #   the a_zero branch, whose reduction p = q + R/2 is exact), 1e-15..1e-9
    #   apart relative to R, R log-uniform in 1e-2..1e2 (closer than 1e-14
    #   absolute, quadsolve returns one repeated root, whose basis is regular);
    # - 600 two-root equations of every branch scaled (a -> l a, b -> l^2 b)
    #   so that their roots are 1e-15..1e-9 apart and smaller than 1
    rng = np.random.default_rng(40)
    raised = 0
    branches = ("generic", "parallel", "orthogonal", "sphere", "real_pair", "a_zero", "c_zero")
    for n in range(1200):
        gap = 10.0 ** rng.uniform(-15.0, -9.0)
        if n < 600:
            r = 10.0 ** rng.uniform(-2.0, 2.0)
            s = gap * r / 4.0
            u = rng.standard_normal(3)
            a, b = Quaternion(r), Quaternion(r * r / 4.0, *(s * s * u / np.linalg.norm(u)))
        else:
            a, b = branch_coefficients(rng, branches[n % len(branches)])
            roots = quadsolve.solve_quaternion(a, b)
            q1, q2 = roots.roots or (Quaternion(0.0, roots.alpha), Quaternion(0.0, -roots.alpha))
            scale = gap / (q1 - q2).norm()
            a, b = a * scale, b * (scale * scale)
        phi0, dphi0 = rand_quaternion(rng), rand_quaternion(rng)
        try:
            matrix2h_ivp(a, b, phi0, dphi0)
        except ValueError:
            raised += 1
            with pytest.raises(hode.DegenerateBasisError):
                hode.solve_ivp(a, b, phi0, dphi0)
        else:
            hode.solve_ivp(a, b, phi0, dphi0)
    assert 300 < raised < 900


def test_degenerate_sphere_basis_error():
    # sphere roots +-1e-13 i: the basis columns (1, +-1e-13 i) agree to well
    # below the 1e-12 singularity rule of the 2x2 solve
    roots = quadsolve.solve_quaternion(Quaternion(), Quaternion(1e-26))
    assert roots.kind is quadsolve.RootKind.SPHERE
    with pytest.raises(hode.DegenerateBasisError):
        hode.solve_ivp(Quaternion(), Quaternion(1e-26), ONE, ONE)


# -- the closed-form fit ------------------------------------------------------

BRANCHES = {
    "generic": (quadsolve.RootKind.DISTINCT, quadsolve.CaseTag.GENERIC),
    "parallel": (quadsolve.RootKind.DISTINCT, quadsolve.CaseTag.PARALLEL),
    "orthogonal": (quadsolve.RootKind.DISTINCT, quadsolve.CaseTag.ORTHOGONAL),
    "orthogonal_repeated": (quadsolve.RootKind.REPEATED, quadsolve.CaseTag.ORTHOGONAL),
    "sphere": (quadsolve.RootKind.SPHERE, quadsolve.CaseTag.BOTH_ZERO),
    "real_pair": (quadsolve.RootKind.REAL_PAIR, quadsolve.CaseTag.BOTH_ZERO),
    "both_zero_repeated": (quadsolve.RootKind.REPEATED, quadsolve.CaseTag.BOTH_ZERO),
    "a_zero": (quadsolve.RootKind.DISTINCT, quadsolve.CaseTag.A_ZERO),
    "c_zero": (quadsolve.RootKind.DISTINCT, quadsolve.CaseTag.C_ZERO),
}


def _derivative_scale(sol) -> float:
    """Sum of the norms of sol's terms' derivatives at 0."""
    return sum(ExpSum((t,)).derivative(0.0).norm() for t in sol.terms)


@pytest.mark.parametrize("branch", BRANCHES)
def test_closed_form_fit_matches_the_references(branch):
    # 70 seeded IVPs per branch (630 in all), |a| and |b| log-uniform in
    # 1e-3..1e3 where the branch leaves them free (helpers.branch_coefficients),
    # at x max(|a|, sqrt|b|) in {0, 0.5, 1}.  Errors are relative to the sum of
    # the terms' norms (term_scale), the size of what value() sums: on the
    # sphere and real pairs with |a| >> sqrt|b| the basis matrix has a
    # condition number up to 3e4, and there the references and the closed
    # form differ by up to 1e-12 of max(1, |phi|), 2e-14 of the terms.
    # The references:
    # - the Matrix2H fit of the same basis;
    # - the matrix exponential of the companion counterpart (expm_series);
    # - qmat2.solve_ode_via_matrix where right_eigenpairs takes its simple
    #   path: canonical eigenvalues farther than its merge tolerance from each
    #   other and from the real axis.  Nearer, it decides by that tolerance
    #   and errs by up to 2e-5 of the terms on this family (c_zero with a
    #   root near the real axis), which the stiff-family item of the ROADMAP
    #   covers.
    rng = np.random.default_rng(41 + list(BRANCHES).index(branch))
    compared = 0
    for _ in range(70):
        a, b = branch_coefficients(rng, branch)
        roots = quadsolve.solve_quaternion(a, b)
        assert (roots.kind, roots.case) == BRANCHES[branch]
        phi0, dphi0 = rand_quaternion(rng), rand_quaternion(rng)
        sol = hode.solve_ivp(a, b, phi0, dphi0)
        assert (sol.value(0.0) - phi0).norm() <= 1e-13 * term_scale(sol, 0.0)
        assert (sol.derivative(0.0) - dphi0).norm() <= 1e-13 * _derivative_scale(sol)
        refs = [matrix2h_ivp(a, b, phi0, dphi0).value]
        c = qmat2.companion_matrix(a, b).counterpart()
        y0 = qmat2.svec((phi0, dphi0))
        refs.append(lambda x: qmat2.lift(expm_series(c * x) @ y0)[0])
        z1, z2 = (z for z, _ in _canonical_pairs(np.linalg.eigvals(c)))
        if min(abs(z1 - z2), z1.imag, z2.imag) > qmat2._MERGE_TOL * qmat2._scale(c):
            refs.append(qmat2.solve_ode_via_matrix(a, b, phi0, dphi0).value)
            compared += 1
        rate = max(a.norm(), math.sqrt(b.norm()))
        for x in (0.0, 0.5 / rate, 1.0 / rate):
            for ref in refs:
                assert (sol.value(x) - ref(x)).norm() <= 1e-12 * term_scale(sol, x)
    if branch in ("generic", "parallel", "orthogonal", "a_zero", "c_zero"):
        assert compared >= 50


def test_solve_ivp_cost(monkeypatch):
    # one quadsolve.solve per IVP, no general 2x2 elimination and no
    # evaluation of the basis, on every branch
    calls = []
    for module, name in ((quadsolve, "solve"), (qmat2, "_eliminate"), (ExpSum, "_eval")):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, _f=original, _n=name:
                            calls.append(_n) or _f(*args))
    rng = np.random.default_rng(50)
    for branch in BRANCHES:
        a, b = branch_coefficients(rng, branch)
        calls.clear()
        hode.solve_ivp(a, b, rand_quaternion(rng), rand_quaternion(rng))
        assert calls == ["solve"]


# -- Wronskian functional ----------------------------------------------------


def test_wronskian_identity_matrix():
    assert hode.wronskian(ONE, Quaternion(), Quaternion(), ONE) == 1.0


def test_wronskian_exponential_closed_form():
    rng = np.random.default_rng(36)
    for _ in range(50):
        a, b, _, _ = _random_ivp(rng)
        roots = quadsolve.solve_quaternion(a, b)
        if roots.kind is not quadsolve.RootKind.DISTINCT:
            continue
        q1, q2 = roots.roots
        c = quadsolve.QuadraticCoeffs(a.w, a.vector(), b.w, b.vector())
        p1, p2 = q1 + c.shift, q2 + c.shift
        from quatode.quatcore import exp as qexp
        for x in (0.0, 0.4, 1.1):
            f1, f2 = qexp(q1 * x), qexp(q2 * x)
            w = hode.wronskian(f1, f2, q1 * f1, q2 * f2)
            closed = exponential_wronskian(p1, p2, q1, q2, x)
            assert abs(w - closed) < 1e-11 * max(1.0, closed)


def test_wronskian_four_factorizations_agree():
    rng = np.random.default_rng(37)
    for _ in range(1000):
        vals = [rand_quaternion(rng) for _ in range(4)]
        forms = wronskian_all_forms(*vals)
        assert max(forms) - min(forms) < 1e-12 * (1.0 + max(forms))


def test_wronskian_matches_counterpart_determinant():
    # the counterpart determinant against the Schur factorization
    # |phi1| |dphi2 - dphi1 phi1^-1 phi2|
    from quatode.qmat2 import Matrix2H
    rng = np.random.default_rng(38)
    for _ in range(200):
        p1, p2, d1, d2 = (rand_quaternion(rng) for _ in range(4))
        w = hode.wronskian(p1, p2, d1, d2)
        det = np.linalg.det(Matrix2H([[p1, p2], [d1, d2]]).counterpart())
        assert abs(det.imag) < 1e-10 * (1.0 + abs(det))
        schur = wronskian_all_forms(p1, p2, d1, d2)[0]
        assert abs(w - schur) < 1e-12 * (1.0 + w)


def test_wronskian_fallback_on_vanishing_leads():
    # leading entry zero exercises the alternative factorizations
    w = hode.wronskian(Quaternion(), ONE, I, Quaternion())
    assert abs(w - 1.0) < 1e-15
    assert hode.wronskian(Quaternion(), Quaternion(), Quaternion(), Quaternion()) == 0.0
