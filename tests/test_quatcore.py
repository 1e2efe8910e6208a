import math

import numpy as np
import pytest

from quatode.quatcore import (
    I, J, K, ONE, ExpSum, Quaternion, RightLinearScalarOp,
    exp, exp_term, rebase_sphere_exponential,
)
from quatode.qmat2 import Matrix2H

from helpers import as_tuple, qdist, qexp_series, qmul, rand_quaternion


def test_defining_relations():
    assert (I * J - K).norm() == 0.0
    assert (J * K - I).norm() == 0.0
    assert (K * I - J).norm() == 0.0
    for unit in (I, J, K):
        assert (unit * unit + ONE).norm() == 0.0
    assert (I * J * K + ONE).norm() == 0.0


def test_distributivity_example():
    got = Quaternion(1, 1, 0, 0) * Quaternion(1, 0, 1, 0)
    assert as_tuple(got) == (1.0, 1.0, 1.0, 1.0)


def test_inverse_matches_conjugate_formula():
    q = Quaternion(2, 1, -3, 0)
    inv = q.inverse()
    expected = q.conjugate() / q.norm2()
    assert (inv - expected).norm() == 0.0
    assert (q * inv - ONE).norm() < 1e-15
    assert (inv * q - ONE).norm() < 1e-15


def test_norm_multiplicativity_bulk():
    rng = np.random.default_rng(7)
    for _ in range(10_000):
        p = rand_quaternion(rng)
        q = rand_quaternion(rng)
        assert abs((p * q).norm() - p.norm() * q.norm()) < 1e-12 * (
            1.0 + p.norm() * q.norm())


def test_mul_against_tuple_oracle():
    rng = np.random.default_rng(8)
    for _ in range(200):
        p = rand_quaternion(rng, 2.0)
        q = rand_quaternion(rng, 2.0)
        assert qdist(p * q, qmul(as_tuple(p), as_tuple(q))) < 1e-14


def test_exp_zero():
    assert as_tuple(exp(Quaternion())) == (1.0, 0.0, 0.0, 0.0)


def test_exp_euler_on_k_axis():
    got = exp(K * (math.pi / 2.0))
    assert (got - K).norm() < 1e-15


def test_exp_against_series_oracle():
    rng = np.random.default_rng(9)
    for q in [I + J] + [rand_quaternion(rng) for _ in range(50)]:
        assert qdist(exp(q), qexp_series(as_tuple(q))) < 1e-12


def test_exp_small_imaginary_part_series_branch():
    for eps in (1e-7, 1e-9, 1e-12, 0.0):
        q = Quaternion(0.3, eps, 0.0, 0.0)
        assert qdist(exp(q), qexp_series(as_tuple(q))) < 1e-14


def test_exp_addition_on_commuting_arguments():
    rng = np.random.default_rng(10)
    for _ in range(50):
        q = rand_quaternion(rng)
        s, t = rng.standard_normal(2)
        lhs = exp((s + t) * q)
        rhs = exp(s * q) * exp(t * q)
        assert (lhs - rhs).norm() < 1e-12 * (1.0 + lhs.norm())


def test_symplectic_roundtrip_exact():
    rng = np.random.default_rng(11)
    for _ in range(200):
        q = rand_quaternion(rng, 3.0)
        z1, z2 = q.symplectic()
        back = Quaternion.from_symplectic(z1, z2)
        assert as_tuple(back) == as_tuple(q)


def test_symplectic_i_multiplication_rules():
    rng = np.random.default_rng(12)
    for _ in range(100):
        q = rand_quaternion(rng)
        z1, z2 = q.symplectic()
        r1, r2 = (q * I).symplectic()
        assert abs(r1 - 1j * z1) < 1e-15 and abs(r2 - 1j * z2) < 1e-15
        l1, l2 = (I * q).symplectic()
        assert abs(l1 - 1j * z1) < 1e-15 and abs(l2 + 1j * z2) < 1e-15


def test_counterpart_functor():
    rng = np.random.default_rng(13)
    for _ in range(300):
        p = rand_quaternion(rng)
        q = rand_quaternion(rng)
        lhs = (p * q).counterpart()
        rhs = p.counterpart() @ q.counterpart()
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * (1.0 + p.norm() * q.norm())


def test_counterpart_acts_like_left_multiplication():
    rng = np.random.default_rng(14)
    for _ in range(100):
        p = rand_quaternion(rng)
        q = rand_quaternion(rng)
        v = np.array(q.symplectic())
        got = p.counterpart() @ v
        z1, z2 = (p * q).symplectic()
        assert abs(got[0] - z1) + abs(got[1] - z2) < 1e-13


def test_right_linear_op_identity_and_pure_right_i():
    assert as_tuple(RightLinearScalarOp(ONE, Quaternion())(J)) \
        == (0.0, 0.0, 1.0, 0.0)
    got = RightLinearScalarOp(Quaternion(), ONE)(J)
    assert (got + K).norm() == 0.0  # j i = -k


def test_right_linear_op_mixed_example():
    # i(1+k) + j(1+k)i expanded by the product table: -1 + i - j - k
    op = RightLinearScalarOp(I, J)
    got = op(ONE + K)
    assert as_tuple(got) == (-1.0, 1.0, -1.0, -1.0)


def test_right_linear_op_commutes_with_right_complex():
    rng = np.random.default_rng(15)
    for _ in range(100):
        op = RightLinearScalarOp(rand_quaternion(rng), rand_quaternion(rng))
        psi = rand_quaternion(rng)
        z = complex(*rng.standard_normal(2))
        lhs = op(psi * Quaternion.from_complex(z))
        rhs = op(psi) * Quaternion.from_complex(z)
        assert (lhs - rhs).norm() < 1e-12 * (1.0 + lhs.norm())


def test_right_linear_op_counterpart_and_matrix4():
    rng = np.random.default_rng(16)
    for _ in range(50):
        op = RightLinearScalarOp(rand_quaternion(rng), rand_quaternion(rng))
        psi = rand_quaternion(rng)
        out = op(psi)
        v = np.array(psi.symplectic())
        got = op.counterpart() @ v
        z1, z2 = out.symplectic()
        assert abs(got[0] - z1) + abs(got[1] - z2) < 1e-13
        got4 = op.matrix4() @ psi.to_array()
        assert np.max(np.abs(got4 - out.to_array())) < 1e-13


def test_rebase_on_i_axis_is_trivial():
    c_plus, c_minus = rebase_sphere_exponential([2.5, 0, 0])
    assert (c_plus - ONE).norm() < 1e-15
    assert c_minus.norm() < 1e-15


def test_rebase_k_axis_quarter_turn():
    alpha = 1.7
    c_plus, c_minus = rebase_sphere_exponential([0, 0, alpha])
    x = math.pi / (2.0 * alpha)
    lhs = exp(Quaternion(0, 0, 0, alpha) * x)
    rhs = Quaternion.from_complex(np.exp(1j * alpha * x)) * c_plus \
        + Quaternion.from_complex(np.exp(-1j * alpha * x)) * c_minus
    assert (lhs - K).norm() < 1e-14
    assert (rhs - K).norm() < 1e-14


def test_rebase_identity_random_axes():
    rng = np.random.default_rng(17)
    for _ in range(200):
        v = rng.standard_normal(3)
        v *= rng.uniform(0.2, 3.0) / np.linalg.norm(v)
        alpha = np.linalg.norm(v)
        c_plus, c_minus = rebase_sphere_exponential(v)
        for x in (0.3, 1.7):
            lhs = exp(Quaternion.from_vector(v) * x)
            rhs = Quaternion.from_complex(np.exp(1j * alpha * x)) * c_plus \
                + Quaternion.from_complex(np.exp(-1j * alpha * x)) * c_minus
            assert (lhs - rhs).norm() < 1e-13


def test_rebase_zero_axis_rejected():
    with pytest.raises(ValueError):
        rebase_sphere_exponential([0.0, 0.0, 0.0])


def test_solve_linear_system_random():
    rng = np.random.default_rng(18)
    for _ in range(100):
        rows = [[rand_quaternion(rng) for _ in range(2)] for _ in range(2)]
        c = [rand_quaternion(rng), rand_quaternion(rng)]
        rhs = [rows[0][0] * c[0] + rows[0][1] * c[1],
               rows[1][0] * c[0] + rows[1][1] * c[1]]
        got = Matrix2H(rows).solve(rhs)
        assert (got[0] - c[0]).norm() < 1e-10
        assert (got[1] - c[1]).norm() < 1e-10


def test_solve_linear_system_singular():
    rows = [[ONE, I], [ONE, I]]
    with pytest.raises(ValueError):
        Matrix2H(rows).solve([ONE, J])


def test_package_all_names_resolve():
    import quatode
    missing = [name for name in quatode.__all__ if not hasattr(quatode, name)]
    assert missing == []


def test_division_restricted_to_reals():
    q = Quaternion(1, 2, 3, 4)
    assert as_tuple(q / 2.0) == (0.5, 1.0, 1.5, 2.0)
    with pytest.raises(TypeError):
        q / I  # noqa: B018 - evaluating for the exception


def test_complex_embedding_arithmetic():
    q = Quaternion(0, 0, 1, 0)
    assert as_tuple(q * 1j) == (0.0, 0.0, 0.0, -1.0)   # j i = -k
    assert as_tuple(1j * q) == (0.0, 0.0, 0.0, 1.0)    # i j = k


# -- ExpSum: sums of (L + x Lx) exp(q x) R -------------------------------------


def _as_quaternion(q):
    return q if isinstance(q, Quaternion) else Quaternion.from_complex(q)


def _exp_sum(spec):
    return ExpSum(exp_term(L, q, R, Lx) for L, Lx, q, R in spec)


def _pieces(spec, x):
    """Explicit products making up the value, derivative and second derivative."""
    out = ([], [], [])
    for L, Lx, q, R in spec:
        q = _as_quaternion(q)
        lead = L if Lx is None else L + x * Lx
        e = exp(q * x)
        out[0].append(lead * e * R)
        out[1].append(lead * q * e * R)
        out[2].append(lead * q * q * e * R)
        if Lx is not None:
            out[1].append(Lx * e * R)
            out[2].append(2.0 * (Lx * q * e * R))
    return out


def _check_exp_sum(s, spec):
    for x in (-0.7, 0.0, 0.4, 1.3):
        got = (s.value(x), s.derivative(x), s.second(x))
        for g, pieces in zip(got, _pieces(spec, x)):
            want = sum(pieces, Quaternion())
            assert (g - want).norm() <= 1e-13 * sum(p.norm() for p in pieces)


def _exponents(rng):
    """General, real, complex, complex-plane quaternion and -i-axis exponents."""
    w, b = rng.standard_normal(2)
    return (rand_quaternion(rng), Quaternion(w), complex(w, b),
            Quaternion(w, abs(b)), Quaternion(w, -abs(b) - 0.1))


def test_exp_sum_terms_match_explicit_products():
    rng = np.random.default_rng(19)
    for _ in range(40):
        for q in _exponents(rng):
            L, Lx, R = (rand_quaternion(rng) for _ in range(3))
            for spec in ([(L, None, q, R)], [(L, Lx, q, R)]):
                _check_exp_sum(_exp_sum(spec), spec)


def test_exp_sum_products_and_sums():
    rng = np.random.default_rng(20)
    for _ in range(40):
        qs = _exponents(rng)
        L, Lx, R = (rand_quaternion(rng) for _ in range(3))
        spec_s = [(rand_quaternion(rng), None, qs[0], rand_quaternion(rng)),
                  (L, Lx, qs[4], R)]
        spec_t = [(rand_quaternion(rng), rand_quaternion(rng), q, rand_quaternion(rng))
                  for q in qs[1:4]]
        s, t = _exp_sum(spec_s), _exp_sum(spec_t)
        c = rand_quaternion(rng)
        _check_exp_sum(c * s, [(c * L, None if Lx is None else c * Lx, q, R)
                               for L, Lx, q, R in spec_s])
        _check_exp_sum(s * c, [(L, Lx, q, R * c) for L, Lx, q, R in spec_s])
        _check_exp_sum(s + t, spec_s + spec_t)
        rates = [_as_quaternion(q).norm() for _, _, q, _ in spec_t]
        assert abs(t.max_rate() - max(rates)) <= 1e-15 * max(rates)
