import cmath
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from quatode import scatter, well
from quatode.clode import schrodinger_mode_arrays
from quatode.quatcore import Quaternion, RightLinearScalarOp
from quatode.scatter import (PhysicalParams, Regime, current_kernel,
                             current_residual, find_bound_states, schrodinger_modes,
                             solve_barrier, solve_rows, solve_step)

from helpers import (barrier_transmission, bound_certificate, bound_matrices, current_samples,
                     current_spread_per_region, brent_bound_states, golden_bound_states,
                     probability_current, scattering_row, seeded_rows, stationary_b_op,
                     step_reflection, wave_current_residual, well_bound_energies, well_matrix)

ZERO_OP = RightLinearScalarOp(Quaternion(), Quaternion())


def corrected_step_relation(params, res):
    """LHS of the continuity-equation relation; equals 1 above threshold."""
    sigma = math.sqrt(params.E ** 2 - abs(params.W) ** 2)
    bracket = 1.0 - (abs(params.W) / (params.E + sigma)) ** 2
    flux = math.sqrt((sigma - params.V) / params.E)
    return abs(res.r) ** 2 + flux * bracket * abs(res.t) ** 2


# -- potential step -----------------------------------------------------------


def test_step_free_particle():
    res = solve_step(PhysicalParams(E=1.0, V=0.0, W=0.0))
    assert abs(res.r) < 1e-12 and abs(res.t - 1.0) < 1e-12
    assert res.R < 1e-12 and abs(res.T - 1.0) < 1e-12


def test_step_requires_positive_energy():
    with pytest.raises(ValueError):
        solve_step(PhysicalParams(E=-1.0, V=1.0))


def test_step_below_threshold_total_reflection():
    for E, V, w in ((1.0, 2.0, 0.3 + 0.1j), (0.4, 1.0, 0.8j),
                    (0.2, 0.5, 0.4 + 0.3j)):
        params = PhysicalParams(E=E, V=V, W=w)
        res = solve_step(params)
        assert res.regime in (Regime.EVANESCENT, Regime.SUBW)
        assert abs(abs(res.r) ** 2 - 1.0) < 1e-10
        assert res.T == 0.0


def test_step_complex_limit_reflection():
    for E_over_V in (1.5, 2.0, 3.0):
        V = 1.3
        params = PhysicalParams(E=E_over_V * V, V=V, W=0.0)
        res = solve_step(params)
        assert abs(res.R - step_reflection(params.E, V)) < 1e-10
        assert abs(res.r_tilde) < 1e-12 and abs(res.t_tilde) < 1e-12


def test_step_relation_above_threshold():
    for E in (3.0, 5.0, 9.0):
        for w in (0.0, 0.5, 1.2 + 0.9j):
            params = PhysicalParams(E=E, V=2.0, W=w)
            if params.E <= params.threshold:
                continue
            res = solve_step(params)
            assert res.regime is Regime.ABOVE_THRESHOLD
            assert abs(corrected_step_relation(params, res) - 1.0) < 1e-10
            assert abs(res.R + res.T - 1.0) < 1e-10


def test_step_current_values():
    params = PhysicalParams(E=4.0, V=1.5, W=1.0 + 0.3j)
    res = solve_step(params)
    p = params.momentum
    left = res.wave.regions[0]
    x = -0.7
    j_left = probability_current(left.value(x), left.derivative(x), params)
    assert abs(j_left - (p / params.m) * (1.0 - abs(res.r) ** 2)) < 1e-10
    sigma = math.sqrt(params.E ** 2 - abs(params.W) ** 2)
    bracket = 1.0 - (abs(params.W) / (params.E + sigma)) ** 2
    j_plus_expected = math.sqrt(2.0 * (sigma - params.V) / params.m) \
        * bracket * abs(res.t) ** 2
    right = res.wave.regions[1]
    j_right = probability_current(right.value(0.4), right.derivative(0.4), params)
    assert abs(j_right - j_plus_expected) < 1e-10


def test_plane_wave_current():
    params = PhysicalParams(E=2.0, V=0.0)
    kin = params.momentum / params.hbar
    psi = Quaternion.from_complex(cmath.exp(1j * kin * 0.3))
    dpsi = Quaternion.from_complex(1j * kin * cmath.exp(1j * kin * 0.3))
    assert abs(probability_current(psi, dpsi, params)
               - params.momentum / params.m) < 1e-13


def test_current_bracket_is_real():
    rng = np.random.default_rng(70)
    params = PhysicalParams(E=1.0, V=0.0)
    for _ in range(100):
        psi = Quaternion(*rng.standard_normal(4))
        dpsi = Quaternion(*rng.standard_normal(4))
        i = Quaternion(0, 1, 0, 0)
        bracket = dpsi.conjugate() * i * psi - psi.conjugate() * i * dpsi
        assert np.max(np.abs(bracket.vector())) < 1e-13 * (1 + bracket.norm())


def test_step_current_independent_of_x():
    rng = np.random.default_rng(71)
    for _ in range(200):
        params = PhysicalParams(E=rng.uniform(0.2, 6.0), V=rng.uniform(0.0, 3.0),
                                W=complex(*rng.standard_normal(2)))
        res = solve_step(params)
        scale = max(1.0, params.momentum / params.m)
        assert wave_current_residual(res.wave, params) < 1e-10 * scale


def test_step_scale_invariance():
    base = PhysicalParams(E=3.0, V=1.2, W=0.7 + 0.2j)
    res0 = solve_step(base)
    for lam in (0.5, 2.0, 7.0):
        scaled = PhysicalParams(E=lam * base.E, V=lam * base.V, W=lam * base.W)
        res1 = solve_step(scaled)
        assert abs(res0.R - res1.R) < 1e-10
        assert abs(res0.T - res1.T) < 1e-10


def test_step_w_to_zero_limit():
    base = PhysicalParams(E=3.0, V=1.0, W=0.0)
    res0 = solve_step(base)
    res1 = solve_step(PhysicalParams(E=3.0, V=1.0, W=1e-9))
    assert abs(res0.R - res1.R) < 1e-7
    assert abs(res0.T - res1.T) < 1e-7


def test_step_exactly_at_threshold_is_nudged():
    params = PhysicalParams(E=math.hypot(1.2, 0.9), V=1.2, W=0.9)
    res = solve_step(params)
    assert res.regime is Regime.ABOVE_THRESHOLD
    assert abs(res.R + res.T - 1.0) < 1e-6


def test_step_solution_satisfies_ode():
    params = PhysicalParams(E=4.0, V=1.5, W=1.0 - 0.6j)
    res = solve_step(params)
    for reg, xs in ((res.wave.regions[0], (-1.0, -0.3)),
                    (res.wave.regions[1], (0.2, 0.8))):
        b_op = stationary_b_op(reg.V, reg.W, params.E, params.hbar, params.m)
        for x in xs:
            r = reg.second(x) + b_op(reg.value(x))
            assert r.norm() < 1e-9 * (1.0 + reg.second(x).norm())


# -- rectangular barrier --------------------------------------------------------


def test_barrier_free_particle():
    res = solve_barrier(PhysicalParams(E=1.5, V=0.0, W=0.0, a=2.0))
    assert abs(res.t - 1.0) < 1e-12 and res.R < 1e-12


def test_barrier_unitarity_grid():
    V = 2.0
    for e_ratio in np.linspace(0.25, 2.95, 8):
        for w_ratio in (0.0, 0.4, 1.0):
            params = PhysicalParams(E=e_ratio * V, V=V, W=w_ratio * V, a=1.0)
            res = solve_barrier(params)
            assert abs(res.R + res.T - 1.0) < 1e-10


def test_barrier_tunneling_matches_textbook():
    for E, V, a in ((1.0, 2.0, 1.0), (0.5, 2.0, 0.7), (3.0, 2.0, 1.3)):
        res = solve_barrier(PhysicalParams(E=E, V=V, W=0.0, a=a))
        assert abs(res.T - barrier_transmission(E, V, a)) < 1e-9


def test_barrier_current_independent_of_x():
    rng = np.random.default_rng(72)
    for _ in range(100):
        params = PhysicalParams(E=rng.uniform(0.3, 5.0), V=rng.uniform(0.1, 2.5),
                                W=complex(*rng.standard_normal(2)) * 0.8,
                                a=rng.uniform(0.3, 2.0))
        res = solve_barrier(params)
        scale = max(1.0, params.momentum / params.m)
        assert wave_current_residual(res.wave, params) < 1e-9 * scale


def test_barrier_solution_satisfies_ode():
    params = PhysicalParams(E=2.0, V=1.1, W=0.8 + 0.5j, a=1.4)
    res = solve_barrier(params)
    for reg, xs in ((res.wave.regions[0], (-0.8,)),
                    (res.wave.regions[1], (0.3, 1.1)),
                    (res.wave.regions[2], (1.9,))):
        b_op = stationary_b_op(reg.V, reg.W, params.E, params.hbar, params.m)
        for x in xs:
            r = reg.second(x) + b_op(reg.value(x))
            assert r.norm() < 1e-9 * (1.0 + reg.second(x).norm())


def test_barrier_ratio_invariance():
    base = PhysicalParams(E=1.4, V=2.0, W=1.1 + 0.4j, a=1.0)
    res0 = solve_barrier(base)
    for lam in (0.25, 4.0):
        # widths rescale along 1/sqrt(lam) to keep the phase advances fixed
        scaled = PhysicalParams(E=lam * base.E, V=lam * base.V, W=lam * base.W,
                                a=base.a / math.sqrt(lam))
        res1 = solve_barrier(scaled)
        assert abs(res0.R - res1.R) < 1e-10
        assert abs(res0.T - res1.T) < 1e-10


# -- stacked rows ---------------------------------------------------------------


def close(got, want, tol=1e-12):
    return abs(got - want) <= tol * max(1.0, abs(want))


@pytest.mark.parametrize("kind", ["step", "barrier"])
def test_stacked_rows_match_single_solves(kind):
    rows = seeded_rows(np.random.default_rng(80 if kind == "step" else 81), kind, 72)
    E, V, W, a = (np.array(col) for col in zip(*rows))
    got = solve_rows(kind, E, V, W, a)
    assert got.errors == (None,) * len(rows)
    assert {got.regimes[n] for n in range(len(rows))} == set(Regime)
    single = solve_step if kind == "step" else solve_barrier
    for n, (e, v, w, width) in enumerate(rows):
        params = PhysicalParams(E=e, V=v, W=w, a=width)
        res = single(params)
        assert got.regimes[n] is res.regime
        stacked = (got.r[n], got.r_tilde[n], got.t[n], got.t_tilde[n],
                   got.R[n], got.T[n])
        one = (res.r, res.r_tilde, res.t, res.t_tilde, res.R, res.T)
        loop = scattering_row(kind, e, v, w, width)
        for x, y, z in zip(stacked, one, loop):
            assert close(x, y) and close(x, z)
        scale = max(1.0, params.momentum / params.m)
        assert got.current_spread[n] < 1e-10 * scale
        assert current_residual(res) == res.current_spread
        assert res.current_spread == got.current_spread[n]    # bit for bit
        wave_spread = wave_current_residual(res.wave, params)
        assert abs(got.current_spread[n] - wave_spread) < 1e-13 * scale


@pytest.mark.parametrize("kind", ["step", "barrier"])
def test_current_spread_matches_per_region_reference(monkeypatch, kind):
    # bit for bit: the layout's sample points and the one exp over each
    # term's own samples change no digit of the current check
    calls = []
    real = scatter._current_spread

    def spy(*args):
        calls.append((*args, real(*args)))
        return calls[-1][-1]

    monkeypatch.setattr(scatter, "_current_spread", spy)
    rows = seeded_rows(np.random.default_rng(85 if kind == "step" else 86), kind, 1000)
    rows += [(1.5, 4.0, 1.0, 400.0), (-1.0, 2.0, 0.5, 1.0)]
    E, V, W, a = (np.array(col) for col in zip(*rows))
    got = solve_rows(kind, E, V, W, a, hbar=0.8, m=1.3)
    assert sum(err is not None for err in got.errors) == 1 + (kind == "barrier")
    layout, terms, amp, x, hbar, m, spread = calls[0]
    n = len(amp)
    mask = layout.region == np.arange(len(layout.first))[:, None]
    inf = np.full(n, np.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        want = current_spread_per_region(mask, terms, amp,
                                         (-inf, np.zeros(n), *x.T, inf), hbar, m)
    assert spread.tobytes() == want.tobytes()
    ok = [err is None for err in got.errors]
    assert got.current_spread[ok].tobytes() == want[ok].tobytes()


def test_stacked_rows_keep_failures_per_row():
    E = np.array([1.3, -1.0, 1.5, 1.5, 2.0])
    a = np.array([1.1, 1.0, 400.0, 0.0, 0.9])
    got = solve_rows("barrier", E, 2.0, 0.8, a)
    assert [type(e).__name__ if e else None for e in got.errors] == \
        [None, "ValueError", "OverflowError", "ValueError", None]
    assert got.regimes[1] is None and math.isnan(got.R[2])
    for n in (0, 4):
        res = solve_barrier(PhysicalParams(E=E[n], V=2.0, W=0.8, a=a[n]))
        assert (got.r[n], got.t[n], got.R[n], got.T[n]) == (res.r, res.t, res.R, res.T)


@pytest.mark.parametrize("kind", ["step", "barrier"])
def test_stacked_rows_take_empty_arrays(kind):
    got = solve_rows(kind, np.array([]), 2.0, 0.8, 1.1)
    assert got.errors == () and got.R.shape == (0,)
    assert got.amplitudes.shape == (0, 4 if kind == "step" else 8)


def test_singular_row_is_found_row_by_row(monkeypatch):
    # stand-in for an exactly singular system: numpy refuses the row with E = 2.2
    E = np.array([1.3, 2.2, 0.7])
    ref = solve_rows("barrier", E, 2.0, 0.8, 1.1)
    real_solve = np.linalg.solve

    def solve(mat, rhs):
        slope = rhs[..., 2, 0] if rhs.ndim == 3 else rhs[2]
        if np.any(slope == -1j * math.sqrt(4.4)):
            raise np.linalg.LinAlgError("Singular matrix")
        return real_solve(mat, rhs)

    monkeypatch.setattr(np.linalg, "solve", solve)
    got = solve_rows("barrier", E, 2.0, 0.8, 1.1)
    assert got.errors[0] is None and got.errors[2] is None
    assert isinstance(got.errors[1], scatter.DegenerateConfigurationError)
    assert math.isnan(got.R[1]) and got.regimes[1] is None
    for n in (0, 2):
        for name in ("r", "r_tilde", "t", "t_tilde", "R", "T", "current_spread"):
            assert close(getattr(got, name)[n], getattr(ref, name)[n], 1e-15)


def test_current_kernel_matches_quaternion_reference():
    rng = np.random.default_rng(82)
    params = PhysicalParams(E=1.0, V=0.0, hbar=0.7, m=1.9)
    for _ in range(200):
        psi = Quaternion(*rng.standard_normal(4))
        dpsi = Quaternion(*rng.standard_normal(4))
        got = current_kernel(*psi.symplectic(), *dpsi.symplectic(),
                             params.hbar, params.m)
        scale = params.hbar / params.m * psi.norm() * dpsi.norm()
        assert abs(got - probability_current(psi, dpsi, params)) <= 1e-14 * scale
    params = PhysicalParams(E=2.0, V=1.1, W=0.8 + 0.5j, a=1.4)
    wave = solve_barrier(params).wave
    samples = current_samples(wave, params)
    assert len(samples) == 9
    for reg in wave.regions:
        for x, j in samples:
            if not reg.lo <= x <= reg.hi:
                continue
            psi, dpsi = reg.value(x), reg.derivative(x)
            scale = params.hbar / params.m * psi.norm() * dpsi.norm()
            assert abs(j - probability_current(psi, dpsi, params)) <= 1e-14 * scale


# -- arg W is a gauge ------------------------------------------------------------


def _gauge_rows(rows):
    return (rows.R, rows.T, rows.r, rows.t, rows.current_spread)


@pytest.mark.parametrize("kind", ["step", "barrier"])
def test_arg_w_turns_only_the_j_amplitudes(kind):
    # conjugating psi by exp(-i phi/2) turns jW into jW exp(i phi): arg W
    # leaves every row's R, T, r, t, current, regime and error as at W = |W|,
    # bit for bit, and multiplies r~ and t~ by exp(i arg W).  600 seeded rows
    # in all regimes, a tenth of them at W = 0, each at 8 seeded arg W
    rng = np.random.default_rng(110 if kind == "step" else 111)
    n = 600
    E, V = rng.uniform(0.05, 9.0, n), rng.uniform(-6.0, 6.0, n)
    wabs = np.where(rng.uniform(size=n) < 0.1, 0.0, rng.uniform(0.0, 2.5, n))
    a = rng.uniform(0.1, 5.0, n)
    for warg in rng.uniform(-math.pi, math.pi, 8):
        W = wabs * cmath.exp(1j * warg)
        got = solve_rows(kind, E, V, W, a)
        want = solve_rows(kind, E, V, np.hypot(W.real, W.imag), a)
        for x, y in zip(_gauge_rows(got), _gauge_rows(want)):
            assert x.tobytes() == y.tobytes()
        assert got.regimes == want.regimes
        assert [repr(e) for e in got.errors] == [repr(e) for e in want.errors]
        turn = np.exp(1j * np.angle(W))
        for x, y in ((got.r_tilde, want.r_tilde), (got.t_tilde, want.t_tilde)):
            y = turn * y
            ok = np.isfinite(y)
            assert np.all(np.abs(x[ok] - y[ok]) <= 2e-15 * np.maximum(1.0, np.abs(y[ok])))
            assert np.array_equal(np.isnan(x), np.isnan(y))


def test_arg_w_leaves_well_spectra_alone():
    # 24 seeded wells, |W| from 1e-6 to 2, each at 3 seeded arg W: energies
    # and residuals bit for bit those of W = |W|
    rng = np.random.default_rng(112)
    for _ in range(24):
        V, a = rng.uniform(0.5, 30.0), rng.uniform(0.2, 4.0)
        wabs = 10.0 ** rng.uniform(-6.0, math.log10(2.0))
        for warg in rng.uniform(-math.pi, math.pi, 3):
            W = wabs * cmath.exp(1j * warg)
            got = find_bound_states(PhysicalParams(E=1.0, V=V, W=W, a=a), grid=400)
            want = find_bound_states(PhysicalParams(E=1.0, V=V, W=abs(W), a=a), grid=400)
            assert got.energies == want.energies and got.residuals == want.residuals
            assert got.regimes == want.regimes


# -- bound states ----------------------------------------------------------------


def test_bound_states_match_textbook():
    params = PhysicalParams(E=1.0, V=10.0, W=0.0, a=2.0)
    got = find_bound_states(params, grid=2000)
    expected = well_bound_energies(10.0, 2.0)
    assert len(got.energies) == len(expected)
    for g, e in zip(got.energies, expected):
        assert abs(g - e) < 1e-9
    assert all(r < 1e-8 for r in got.residuals)
    assert all(t is Regime.EVANESCENT for t in got.regimes)


def test_bound_states_single_state_well():
    params = PhysicalParams(E=1.0, V=1.0, W=0.0, a=1.0)
    got = find_bound_states(params, grid=1500)
    assert len(got.energies) == 1
    expected = well_bound_energies(1.0, 1.0)
    assert abs(got.energies[0] - expected[0]) < 1e-9


def test_bound_states_small_w_continuation():
    base = find_bound_states(PhysicalParams(E=1.0, V=10.0, W=0.0, a=2.0),
                             grid=1500)
    pert = find_bound_states(PhysicalParams(E=1.0, V=10.0, W=1e-4, a=2.0),
                             grid=1500)
    assert len(pert.energies) == len(base.energies)
    for g, e in zip(pert.energies, base.energies):
        assert abs(g - e) < 1e-4


def test_bound_states_empty_for_strong_w():
    # the j-channel radiates at real energies once |W| is sizable, so no
    # exact eigenvalue survives the 1e-8 acceptance
    got = find_bound_states(PhysicalParams(E=1.0, V=10.0, W=0.4, a=2.0),
                            grid=800)
    assert got.energies == ()


@pytest.mark.parametrize("W", [0.0, 1e-6, 1.3 * cmath.exp(0.7j)])
def test_bound_interior_null_vectors_solve_coupling(W):
    # interior of the well -V + jW: effective potential v - jw with v = -V, w = -W
    V = 10.0
    params = PhysicalParams(E=1.0, V=V, W=W, a=2.0)
    es = np.linspace(-params.threshold, 0.0, 2001)[1:-1]
    mat = bound_matrices(es, params)
    v, w = -V, -complex(W)
    for col in (2, 3, 4, 5):
        # the column is (u1, u2, g u1, g u2) exp(g x) at x = 0: its own rate g
        u = mat[:, :2, col] / np.linalg.norm(mat[:, :2, col], axis=1, keepdims=True)
        g = np.sum(np.conj(mat[:, :2, col]) * mat[:, 2:4, col], axis=1) \
            / np.sum(np.abs(mat[:, :2, col]) ** 2, axis=1)
        z2 = g * g / 2.0        # the spatial rate is sqrt(2 m) / hbar z
        row1 = (z2 - (v - es)) * u[:, 0] - np.conj(w) * u[:, 1]
        row2 = w * u[:, 0] + (z2 - (v + es)) * u[:, 1]
        assert np.max(np.hypot(np.abs(row1), np.abs(row2))) < 1e-13


@pytest.mark.parametrize("W", [0.0, 1e-6, 1.3 * cmath.exp(0.7j)])
def test_bound_matrices_match_hand_built_reference(W):
    params = PhysicalParams(E=1.0, V=10.0, W=W, a=2.0)
    es = np.linspace(-params.threshold, 0.0, 402)[1:-1]
    got = np.linalg.svd(bound_matrices(es, params), compute_uv=False)[:, -1]
    want = [np.linalg.svd(well_matrix(e, params.V, params.W, params.a),
                          compute_uv=False)[-1] for e in es.tolist()]
    assert np.max(np.abs(got - want)) < 1e-13


def test_bound_stacked_matches_single_energy_systems():
    params = PhysicalParams(E=1.0, V=6.0, W=0.7 - 0.9j, a=1.7)
    es = np.linspace(-params.threshold, 0.0, 52)[1:-1]
    stacked = np.linalg.svd(bound_matrices(es, params), compute_uv=False)[:, -1]
    single = [np.linalg.svd(bound_matrices(es[n:n + 1], params),
                            compute_uv=False)[0, -1] for n in range(es.size)]
    assert np.max(np.abs(stacked - single)) < 1e-15


def test_bound_states_ten_state_well_at_coarse_grid():
    V, a = 36.76473671903387, 3.5392552744385
    expected = well_bound_energies(V, a)
    assert len(expected) == 10
    for grid in (250, 400):
        got = find_bound_states(PhysicalParams(E=1.0, V=V, W=0.0, a=a), grid=grid)
        assert len(got.energies) == len(expected), grid
        for g, e in zip(got.energies, expected):
            assert abs(g - e) < 1e-9


def test_bound_states_of_a_thick_well():
    # exp(g a) reaches 1e194 across this well, and the squared norms of the
    # unfolded 8x8 system's columns overflow; the kernel's unit-size columns
    # do not.  The grid limits how many of its 143 states are found: 141.
    got = find_bound_states(PhysicalParams(E=1.0, V=10.0, W=0.0, a=100.0), grid=2000)
    expected = well_bound_energies(10.0, 100.0)
    assert got.energies
    for e in got.energies:
        assert min(abs(e - w) for w in expected) <= 1e-9
    assert all(r < 1e-8 for r in got.residuals)


def seeded_well(rng, wabs, states=10, depth=50.0):
    """A well -V + jW whose W = 0 count of states is k, drawn in 1..states,
    with V drawn in 0.5..depth."""
    k, V = int(rng.integers(1, states + 1)), rng.uniform(0.5, depth)
    a = math.pi * (k - 1 + rng.uniform(0.2, 0.9)) / math.sqrt(2.0 * V)
    W = wabs * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
    return k, PhysicalParams(E=1.0, V=V, W=W, a=a)


def unmatched(states, energies, tol):
    """The (energy, residual) states with no energy of `energies` within tol."""
    return [(e, r) for e, r in states if not any(abs(e - g) <= tol for g in energies)]


@pytest.mark.parametrize("wclass", ["zero", "small", "sizable"])
def test_bound_refinement_matches_golden_reference(wclass):
    # 50 wells per class, alternately at grids 400 and 2000, against the
    # golden-section refinement with the plain residual.  That residual also
    # accepted a state at E = -|W|, where the interior columns turn parallel.
    # And the two residuals are the smallest singular values of two column
    # scalings of one system, about 10 % apart at a state, so a near-state
    # with a residual close to `accept` may be in one list only.
    rng = np.random.default_rng({"zero": 87, "small": 88, "sizable": 89}[wclass])
    wells = []
    for n in range(50):
        wabs = {"zero": 0.0, "small": 10.0 ** rng.uniform(-6.0, -5.0),
                "sizable": rng.uniform(0.5, 2.5)}[wclass]
        wells.append((seeded_well(rng, wabs)[1], (400, 2000)[n % 2]))
    if wclass == "sizable":
        # plain residual 9.6e-9, orthonormal-basis one 1.06e-8; the
        # transfer-matrix system of perfbench/reference.py gives 2.1e-8
        W = 0.9110894852822884 * cmath.exp(1.3772483980045642j)
        wells.append((PhysicalParams(E=1.0, V=37.35231914638898, W=W,
                                     a=1.973974288561503), 400))
    for params, grid in wells:
        scale, wabs = max(1.0, params.threshold), abs(params.W)
        want = golden_bound_states(params, grid)
        got = find_bound_states(params, grid=grid)
        near = 1e-9 * scale     # energies this close are one state
        assert np.all(np.diff(got.energies) >= near), (params, grid, got.energies)
        assert all(abs(g - e) <= 1e-11 * scale for g in got.energies for e, _ in want
                   if abs(g - e) < near)
        gone = unmatched(want, got.energies, near)
        new = unmatched(zip(got.energies, got.residuals), [e for e, _ in want], near)
        assert all(abs(e + wabs) < near or r >= 5e-9 for e, r in gone), (params, grid, gone)
        assert all(r >= 5e-9 for _, r in new), (params, grid, new)
        assert all(r < 1e-8 for r in got.residuals)


@pytest.mark.parametrize("hbar, m", [(1.0, 1.0), (0.1, 1.0), (0.3, 2.0), (3.0, 0.5)])
def test_bound_refinement_matches_brent_reference(hbar, m):
    # 25 wells per (hbar, m), |W| zero, small and sizable, against lock-step
    # Brent minimisation of the residual from each minimum on the same scan
    # grid, with the same certificate.  The secant searches every sign change
    # of either parity determinant, so it may find a state that the one
    # minimisation at a scan minimum missed; it loses none.
    # The W = 0 well below has a state at a steep residual (sigma = 2.3e-6 at
    # 2e5 xtol from it).
    rng = np.random.default_rng(round(91 + 10 * hbar + m))
    wells = []
    for n in range(25):
        wabs = (0.0, 10.0 ** rng.uniform(-6.0, -2.0), rng.uniform(0.5, 2.5))[n % 3]
        wells.append((replace(seeded_well(rng, wabs)[1], hbar=hbar, m=m),
                      (400, 400, 400, 400, 2000)[n % 5]))
    if (hbar, m) == (0.3, 2.0):
        wells.append((PhysicalParams(E=1.0, V=2.9488610177271397, W=0.0,
                                     a=12.398374598593811, hbar=0.3, m=2.0), 2000))
    for params, grid in wells:
        scale = max(1.0, params.threshold)
        want = brent_bound_states(params, grid)
        got = find_bound_states(params, grid=grid)
        near = 1e-9 * scale     # energies this close are one state
        assert np.all(np.diff(got.energies) >= near), (params, grid, got.energies)
        for e, _ in want:
            assert min((abs(g - e) for g in got.energies), default=math.inf) <= 1e-11 * scale, (
                params, grid, e)
        new = unmatched(zip(got.energies, got.residuals), [e for e, _ in want], near)
        energies = np.array([e for e, _ in new])
        assert np.all(bound_certificate(energies, params) < 1e-8), (params, grid, new)


@pytest.mark.parametrize("V, W, a, hbar, m, grid, state", [
    (44.65350354954876, 0.0019035439830805254 - 0.0013875658543416418j, 14.579755601401732,
     1.0, 1.0, 2000, -44.63094820308668),
    (48.0097833633813, 1.1702884150408957e-06 + 1.0278831781345047e-07j, 14.001669077074073,
     1.0, 1.0, 2000, -47.98532997845315),
    (7.952491560148022, 0.0, 727.7209789800988, 16.083150425460005, 0.03181942905245352,
     400, -7.885354838923361)], ids=["ground-small-w", "ground-tiny-w", "under-resolved"])
def test_bound_states_that_naive_secants_lose(V, W, a, hbar, m, grid, state):
    # the first two are ground states near E = -V, where a stop on an
    # off-axis secant step of det A dropped them; in the third well the scan
    # is coarse and det A far from linear between scan points
    params = PhysicalParams(E=1.0, V=V, W=W, a=a, hbar=hbar, m=m)
    got = find_bound_states(params, grid=grid)
    assert min(abs(e - state) for e in got.energies) <= 1e-11 * max(1.0, params.threshold)


@pytest.mark.parametrize("V, W, a", [(36.76473671903387, 0.0, 3.5392552744385),
                                     (10.0, 0.4, 2.0), (20.0, 1.5, 1.0)])
def test_bound_refinement_call_count(monkeypatch, V, W, a):
    # grid 400: one array call of the parity determinants scans the grid,
    # each bracket's search takes at most _MAX_STEPS - 1 scalar evaluations
    # on Python floats (its last iterate is not evaluated), and the
    # closed-form residual certifies the sorted refined energies in one
    # call; no numpy.linalg routine runs at all
    scans, scalars, certified, roots, linalg = [], [], [], [], []
    objective, scan, scalar, refine = (well._folded_residual, well._parity_determinants,
                                       well._parity_determinant, well._secant_roots)

    def counted(es, params):
        certified.append(es.copy())
        return objective(es, params)

    def counted_scan(es, params):
        scans.append(es.copy())
        return scan(es, params)

    def counted_scalar(e, *args):
        value = scalar(e, *args)
        scalars.append((type(e), type(value)))
        return value

    def counted_roots(es, f, parity, n, xtol, params):
        for k in range(n.size):
            before = len(scalars)
            roots.append(refine(es, f, parity[k:k + 1], n[k:k + 1], xtol, params)[0])
            assert len(scalars) - before <= well._MAX_STEPS - 1
        return np.array(roots)

    def counted_linalg(name, fn):
        def wrapper(*args, **kwargs):
            linalg.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(well, "_folded_residual", counted)
    monkeypatch.setattr(well, "_parity_determinants", counted_scan)
    monkeypatch.setattr(well, "_parity_determinant", counted_scalar)
    monkeypatch.setattr(well, "_secant_roots", counted_roots)
    for name in np.linalg.__all__:
        fn = getattr(np.linalg, name)
        if callable(fn) and not isinstance(fn, type):
            monkeypatch.setattr(np.linalg, name, counted_linalg(name, fn))
    params = PhysicalParams(E=1.0, V=V, W=W, a=a)
    vmax = params.threshold
    find_bound_states(params, grid=400)
    assert len(scans) == 1
    assert np.array_equal(scans[0], np.linspace(-vmax + 1e-6 * vmax, -1e-6 * vmax, 400))
    assert roots and set(scalars) <= {(float, complex)}
    assert len(certified) == 1 and np.array_equal(certified[0], np.sort(roots))
    assert linalg == []


def test_bound_scalar_determinant_matches_array_form():
    # the searches' scalar entry against the scan's array form on the scan
    # grid of 102 seeded wells (|W| zero, small and sizable, hbar in
    # 1e-3..1e3, 1-40 states), the thick well a = 500 and a well so shallow
    # that E * E underflows.  They round differently (numpy's complex
    # products may fuse a multiply-add), so they agree to rounding of the
    # scan's scale, not of each entry: an entry 1e-5 of the scan maximum is
    # 1e5 times worse conditioned.  Within 1e-3 max(1, |W|) of E = -|W| both
    # lose digits to the cancellation in 1 - wfrac^2 (1.5e-9 against a
    # 60-digit value at the thick well's last scan energy); there the scalar
    # entry is only finite.
    rng = np.random.default_rng(230)
    wells = []
    for n in range(102):
        wabs = (0.0, 10.0 ** rng.uniform(-6.0, -2.0), rng.uniform(0.5, 2.5))[n % 3]
        hbar = 10.0 ** rng.uniform(-3.0, 3.0)
        params = seeded_well(rng, wabs, states=40, depth=80.0)[1]
        wells.append(replace(params, a=hbar * params.a, hbar=hbar))
    wells += [PhysicalParams(E=1.0, V=10.0, W=W, a=500.0) for W in (0.0, 1e-5, 10.0)]
    wells.append(PhysicalParams(E=1.0, V=1e-155, W=3e-156, a=3e78))
    for params in wells:
        vmax, wabs = params.threshold, abs(params.W)
        za = math.sqrt(2.0 * params.m) * params.a / params.hbar
        es = np.linspace(-vmax + 1e-6 * vmax, -1e-6 * vmax, 400)
        want = well._parity_determinants(es, params)
        got = np.array([[well._parity_determinant(e, odd, params.V, wabs, za)
                         for e in es.tolist()] for odd in (False, True)])
        assert np.all(np.isfinite(got)), params
        far = np.abs(es + wabs) >= 1e-3 * max(1.0, wabs)
        scale = np.abs(want).max(axis=1, keepdims=True)
        assert np.all(np.abs(got - want)[:, far] <= 1e-14 * scale), params


@pytest.mark.parametrize("V, W, a", [(6.0, 0.7 - 0.9j, 1.7), (10.0, 10.0, 500.0),
                                     (36.76473671903387, 0.0, 3.5392552744385)])
def test_bound_scalar_determinant_at_singular_points(V, W, a):
    # at E = -|W| exactly 1 - wfrac^2 = 0, where Python's complex division
    # raises and the array form is not finite: the scalar entry is nan.  At
    # the scan ends both forms are finite and agree.
    params = PhysicalParams(E=1.0, V=V, W=W, a=a)
    vmax, wabs = params.threshold, abs(params.W)
    za = math.sqrt(2.0 * params.m) * params.a / params.hbar
    ends = np.array([-vmax + 1e-6 * vmax, -1e-6 * vmax])
    want = well._parity_determinants(ends, params)
    for odd in (False, True):
        if wabs:
            with np.errstate(all="ignore"):
                edge = well._parity_determinants(np.array([-wabs]), params)[int(odd), 0]
            assert not np.isfinite(edge)
            assert cmath.isnan(well._parity_determinant(-wabs, odd, V, wabs, za))
        got = [well._parity_determinant(e, odd, V, wabs, za) for e in ends.tolist()]
        assert np.allclose(got, want[int(odd)], rtol=1e-13, atol=0.0)


def test_bound_search_ignores_non_finite_values(monkeypatch):
    # an iterate whose value is not finite moves neither end of the sign
    # bracket: the search's next step is nan, so it stops at the middle of
    # the scan bracket
    params = PhysicalParams(E=1.0, V=36.76473671903387, W=0.0, a=3.5392552744385)
    vmax = params.threshold
    es = np.linspace(-vmax + 1e-6 * vmax, -1e-6 * vmax, 400)
    f = well._parity_determinants(es, params)
    sign = np.signbit(f.real)
    parity, n = np.nonzero(sign[:, :-1] != sign[:, 1:])
    monkeypatch.setattr(well, "_parity_determinant", lambda *args: complex(math.nan, math.nan))
    got = well._secant_roots(es, f, parity, n, 1e-12 * vmax, params)
    assert np.array_equal(got, 0.5 * (es[n] + es[n + 1]))


def test_bound_states_where_a_secant_leaves_the_sign_change():
    # W = 0 and 39 states at grid 250: the ground state's search evaluates a
    # first iterate of the sign of the bracket's upper end, and the secant
    # through two points of one sign leaves the scan bracket; it bisects the
    # sign bracket instead of walking toward the upper end
    V, a = 16.467135098975135, 21.073241599084962
    expected = well_bound_energies(V, a)
    assert len(expected) == 39
    got = find_bound_states(PhysicalParams(E=1.0, V=V, W=0.0, a=a), grid=250)
    assert len(got.energies) == 39
    for g, e in zip(got.energies, expected):
        assert abs(g - e) < 1e-9


def test_bound_state_count_of_dense_wells_at_a_coarse_grid():
    # 150 seeded W = 0 wells of 25-40 states at grid 250, where some states
    # of one parity lie in neighbouring scan steps
    rng = np.random.default_rng(66)
    for _ in range(150):
        k, V = int(rng.integers(25, 41)), rng.uniform(0.5, 80.0)
        a = math.pi * (k - 1 + rng.uniform(0.2, 0.9)) / math.sqrt(2.0 * V)
        params = PhysicalParams(E=1.0, V=V, W=0.0, a=a)
        assert math.ceil(a * math.sqrt(2.0 * V) / math.pi) == k
        assert len(find_bound_states(params, grid=250).energies) == k, params


@pytest.mark.parametrize("V, W, a, where", [(6.0, 0.7 - 0.9j, 1.7, "wabs"),
                                            (2.8076495272615762, 0.4 + 0.5j, 1.93, "wabs"),
                                            (10.0, 0.4, 2.0, "depth"),
                                            (36.76473671903387, 0.0, 3.5392552744385, "depth")])
def test_bound_secant_function_has_no_spurious_zero(V, W, a, where):
    # det A vanishes like sqrt|E + |W|| at E = -|W|, where the interior pairs
    # coincide, and its odd column like z- at E = -V_max; both factors are
    # taken out, so the function keeps its size across those points
    params = PhysicalParams(E=1.0, V=V, W=W, a=a)
    edge = -abs(W) if where == "wabs" else -params.threshold
    side = (-1.0, 1.0) if where == "wabs" else (1.0,)
    es = edge + np.array([s * d for s in side for d in (1e-3, 1e-6, 1e-9, 1e-12)])
    f = np.abs(well._parity_determinants(es, params))
    assert np.all(np.isfinite(f))
    assert np.all(f.min(axis=1) >= 0.5 * f.max(axis=1)), f


@pytest.mark.parametrize("grid", [400, 2000])
@pytest.mark.parametrize("V, a, wabs, warg", [
    (16.522987482791073, 0.1417499841944505, 2.1838127032618453, 2.2537636247604382),
    (6.906180277444374, 1.5296913177746458, 2.3833143584525365, -1.7049448436783115),
    (2.8076495272615762, 1.9303434086278226, 0.6837317967800727, 2.1867305379901936)])
def test_bound_no_state_where_interior_modes_coincide(V, a, wabs, warg, grid):
    # at E = -|W| the interior mode pairs coincide and the smallest singular
    # value of the column-normalised system falls like sqrt|E + |W||; a
    # transfer-matrix scan of these wells finds no state anywhere
    params = PhysicalParams(E=1.0, V=V, W=wabs * cmath.exp(1j * warg), a=a)
    assert find_bound_states(params, grid=grid).energies == ()


@pytest.mark.parametrize("V, W, a", [
    (6.0, 0.7 - 0.9j, 1.7),
    (16.522987482791073, 2.1838127032618453 * cmath.exp(2.2537636247604382j), 0.1417499841944505),
    (6.906180277444374, 2.3833143584525365 * cmath.exp(-1.7049448436783115j), 1.5296913177746458),
    (2.8076495272615762, 0.6837317967800727 * cmath.exp(2.1867305379901936j), 1.9303434086278226)],
    ids=["V6", "V16.5", "V6.9", "V2.8"])
def test_bound_residual_stays_up_where_interior_modes_coincide(V, W, a):
    # at E = -|W| the two interior pairs coincide; the u+ column is
    # orthonormalised against the u- one as a 4-vector, not through two
    # vanishing determinants, so the residual keeps its size there, as the
    # QR of the 8x8 reference does
    params = PhysicalParams(E=1.0, V=V, W=W, a=a)
    edge = -abs(params.W)
    es = [edge]
    for _ in range(4):
        es = [np.nextafter(es[0], -math.inf), *es, np.nextafter(es[-1], math.inf)]
    es = np.array(es)
    assert np.all(bound_certificate(es, params) >= 1e-4)
    assert np.all(well._folded_residual(es, params) >= 1e-4)


@pytest.mark.parametrize("hbar, m", [(1.0, 1.0), (0.1, 1.0), (0.3, 2.0), (3.0, 0.5)])
def test_bound_folded_residual_matches_certificate(hbar, m):
    # the parity-folded closed form against QR and SVD of the unfolded system,
    # 12 seeded wells per (hbar, m) with |W| zero, small and sizable, on the
    # scan grid; near E = -|W| the interior columns turn parallel and both
    # computations lose digits to the cancellation
    rng = np.random.default_rng(round(95 + 10 * hbar + m))
    for n in range(12):
        wabs = (0.0, 10.0 ** rng.uniform(-6.0, -2.0), rng.uniform(0.5, 2.5))[n % 3]
        params = replace(seeded_well(rng, wabs)[1], hbar=hbar, m=m)
        vmax = params.threshold
        es = np.linspace(-vmax + 1e-6 * vmax, -1e-6 * vmax, 400)
        want = bound_certificate(es, params)
        diff = np.abs(well._folded_residual(es, params) - want)
        assert np.max(diff[want < 1e-2], initial=0.0) <= 1e-14, params
        far = np.abs(es + wabs) >= 1e-3 * max(1.0, wabs)
        assert np.max(diff[far]) <= 1e-10, params


@pytest.mark.parametrize("hbar", [1e-3, 0.1, 1.0, 1e20, 1e150, 1e300])
@pytest.mark.parametrize("V, W, a", [(5.0, 0.0, 1.0), (5.0, 0.8 - 1.1j, 1.0),
                                     (10.0, 10.0, 500.0)])
def test_bound_folded_residual_is_scale_free(V, W, a, hbar):
    # columns are scaled to unit size before the angle is taken, and the
    # secant's function is in units of sqrt(2 m) / hbar, so no hbar or
    # width over- or underflows
    params = PhysicalParams(E=1.0, V=V, W=W, a=a, hbar=hbar)
    vmax = params.threshold
    es = np.linspace(-vmax + 1e-6 * vmax, -1e-6 * vmax, 400)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = well._folded_residual(es, params)
        det = well._parity_determinants(es, params)
    assert np.all((got >= 0.0) & (got <= 1.0))
    assert np.all(np.isfinite(det))


@pytest.mark.parametrize("hbar", [1e20, 1e150, 1e300])
def test_bound_no_spurious_states_at_huge_hbar(hbar):
    # a huge hbar flattens the well: its one state lies within the first scan
    # step of E = 0, and the residual is ~ kappa everywhere.  The residual of
    # the unit-size columns used to be singular to rounding at every energy,
    # and 125-133 scan minima passed the absolute acceptance.
    got = find_bound_states(PhysicalParams(E=1.0, V=5.0, W=0.0, a=1.0, hbar=hbar), grid=400)
    assert len(got.energies) <= 1
    for e in got.energies:
        assert any(abs(e - w) <= 1e-9 for w in well_bound_energies(5.0, 1.0, hbar=hbar))


def test_bound_state_count_at_zero_w():
    # at W = 0 the well holds ceil(a sqrt(2 m V) / (pi hbar)) states, and
    # each changes the sign of its parity's determinant once, so the scan
    # grid does not decide the count: 100 seeded wells of 1-10 states and
    # 200 dense ones of 1-40 states with V in 0.5-80, at grids 400 and 2000
    rng = np.random.default_rng(90)
    wells = [seeded_well(rng, 0.0) for _ in range(100)]
    wells += [seeded_well(rng, 0.0, states=40, depth=80.0) for _ in range(200)]
    for k, params in wells:
        count = math.ceil(params.a * math.sqrt(2.0 * params.m * params.V)
                          / (math.pi * params.hbar))
        assert count == k
        for grid in (400, 2000):
            assert len(find_bound_states(params, grid=grid).energies) == count, (params, grid)
    # and four wells with two states a few steps of a 400-point grid apart,
    # where one minimum of the residual holds both
    for V, a, count in ((40.75108040556594, 5.131634629044028, 15),
                        (33.10069832918325, 2.7061896993881773, 8),
                        (43.1596244060708, 5.7693685568062145, 18),
                        (30.81339368615535, 5.086959614934046, 13)):
        got = find_bound_states(PhysicalParams(E=1.0, V=V, W=0.0, a=a), grid=400)
        assert len(got.energies) == count, (V, a)


def test_bound_states_need_well_geometry():
    with pytest.raises(ValueError):
        find_bound_states(PhysicalParams(E=1.0, V=-1.0, W=0.0, a=1.0))
    with pytest.raises(ValueError):
        find_bound_states(PhysicalParams(E=1.0, V=1.0, W=0.0, a=0.0))
    nan, inf = math.nan, math.inf
    for V, W, a in [(nan, 0.0, 1.0), (inf, 0.0, 1.0), (1.0, 0.0, inf), (1.0, 0.0, nan),
                    (1.0, nan, 1.0), (1.0, complex(0.0, inf), 1.0), (1.0, inf, 1.0)]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                find_bound_states(PhysicalParams(E=1.0, V=V, W=W, a=a))


@pytest.mark.parametrize("V, W, a, hbar, scale", [
    (1e308, 0.0, 1.0, 1.0, "depth"), (1.0, complex(1e308, 1e308), 1.0, 1.0, "depth"),
    (2e154, 0.0, 1.0, 1.0, "depth"), (1.0, 0.0, 1e308, 1.0, "phase"),
    (1.0, 0.0, 1.0, 1e-308, "phase")])
def test_bound_states_reject_overflowing_scales(V, W, a, hbar, scale):
    # finite inputs whose modes or interior phase leave the float range fail
    # before any numpy work, with the scale named
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"well {scale} .* overflows"):
            find_bound_states(PhysicalParams(E=1.0, V=V, W=W, a=a, hbar=hbar), grid=10)


def test_bound_states_need_three_scan_energies():
    with pytest.raises(ValueError):
        find_bound_states(PhysicalParams(E=1.0, V=1.0, W=0.0, a=1.0), grid=2)


def test_params_validation():
    with pytest.raises(ValueError):
        PhysicalParams(E=1.0, V=0.0, hbar=0.0)
    with pytest.raises(ValueError):
        PhysicalParams(E=1.0, V=0.0, m=-1.0)


@pytest.mark.parametrize("hbar, m", [(math.inf, 1.0), (math.nan, 1.0),
                                     (1.0, math.inf), (1.0, math.nan)])
def test_non_finite_constants_are_rejected(hbar, m):
    with pytest.raises(ValueError):
        PhysicalParams(E=1.0, V=5.0, a=1.0, hbar=hbar, m=m)
    with pytest.raises(ValueError):
        solve_rows("barrier", 1.0, 5.0, 0.0, 1.0, hbar=hbar, m=m)
    with pytest.raises(ValueError):
        schrodinger_modes(1.0, 5.0, 0.0, hbar=hbar, m=m)


@pytest.mark.parametrize("E", [1e-170, 1e-200, 1e-300])
def test_tiny_energy_free_step_transmits(E):
    # E * E underflows below about 1e-160: sigma is formed on E and |W|
    # scaled by a power of two, so a step with no potential transmits all
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = solve_rows("step", E, 0.0, 0.0)
        modes = schrodinger_mode_arrays(E, 0.0, 0.5 * E)
    assert got.errors[0] is None
    assert abs(got.R[0]) <= 1e-12 and abs(got.T[0] - 1.0) <= 1e-12
    assert abs(modes.sigma - E * math.sqrt(0.75)) <= 1e-15 * E


def test_subnormal_energy_solves_without_warnings():
    # w / (E + sigma) with w = 0 is exactly 0, where numpy's complex
    # division would form 1 / (E + sigma) first, which overflows: a free
    # step transmits all, and a step with V > 0 reflects all
    for E, V, W, R in ((1e-320, 0.0, 0.0, 0.0), (1e-310, 1.0, 0.5, 1.0)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = solve_rows("step", E, V, W)
        assert got.errors[0] is None, (E, V, W)
        assert abs(got.R[0] - R) <= 1e-12 and abs(got.T[0] - (1.0 - R)) <= 1e-12, (E, V, W)


@pytest.mark.parametrize("W, want", [(complex(1e308, 1e308), OverflowError),
                                     (complex(1.5e308, 1.5e308), ValueError)])
def test_overflowing_w_fails_without_warnings(W, want):
    # |W| = 1.4e308 overflows the modes, an OverflowError row; |W| = 2.1e308
    # is not a float, a ValueError row.  No numpy warning reaches the caller
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kind in ("step", "barrier"):
            got = solve_rows(kind, 1.0, 1.0, W, 1.0)
            assert type(got.errors[0]) is want, got.errors[0]
        with pytest.raises(ValueError):
            find_bound_states(PhysicalParams(E=1.0, V=1.0, W=W, a=1.0))
