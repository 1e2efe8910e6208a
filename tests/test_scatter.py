import cmath
import math
import warnings

import numpy as np
import pytest

from quatode import scatter, well
from quatode.quatcore import Quaternion, RightLinearScalarOp
from quatode.scatter import (PhysicalParams, Regime, current_kernel,
                             current_residual, find_bound_states, schrodinger_modes,
                             solve_barrier, solve_rows, solve_step)

from helpers import (barrier_transmission, current_samples, current_spread_per_region,
                     golden_bound_states, probability_current, scattering_row,
                     seeded_rows, stationary_b_op, step_reflection,
                     wave_current_residual, well_bound_energies, well_matrix)

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
    mat = well._bound_matrices(es, params)
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
    got = np.linalg.svd(well._bound_matrices(es, params), compute_uv=False)[:, -1]
    want = [np.linalg.svd(well_matrix(e, params.V, params.W, params.a),
                          compute_uv=False)[-1] for e in es.tolist()]
    assert np.max(np.abs(got - want)) < 1e-13


def test_bound_stacked_matches_single_energy_systems():
    params = PhysicalParams(E=1.0, V=6.0, W=0.7 - 0.9j, a=1.7)
    es = np.linspace(-params.threshold, 0.0, 52)[1:-1]
    stacked = np.linalg.svd(well._bound_matrices(es, params), compute_uv=False)[:, -1]
    single = [np.linalg.svd(well._bound_matrices(es[n:n + 1], params),
                            compute_uv=False)[0, -1] for n in range(es.size)]
    assert np.max(np.abs(stacked - single)) < 1e-15


def test_bound_states_ten_state_well_at_coarse_grid():
    V, a = 36.76473671903387, 3.5392552744385
    got = find_bound_states(PhysicalParams(E=1.0, V=V, W=0.0, a=a), grid=400)
    expected = well_bound_energies(V, a)
    assert len(expected) == 10
    assert len(got.energies) == len(expected)
    for g, e in zip(got.energies, expected):
        assert abs(g - e) < 1e-9


def seeded_well(rng, wabs):
    """A well -V + jW whose W = 0 count of states is k, drawn in 1..10."""
    k, V = int(rng.integers(1, 11)), rng.uniform(0.5, 50.0)
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
        merge = 1e-9 * scale    # find_bound_states' merge distance
        assert all(abs(g - e) <= 1e-11 * scale for g in got.energies for e, _ in want
                   if abs(g - e) < merge)
        gone = unmatched(want, got.energies, merge)
        new = unmatched(zip(got.energies, got.residuals), [e for e, _ in want], merge)
        assert all(abs(e + wabs) < merge or r >= 5e-9 for e, r in gone), (params, grid, gone)
        assert all(r >= 5e-9 for _, r in new), (params, grid, new)
        assert all(r < 1e-8 for r in got.residuals)


@pytest.mark.parametrize("V, W, a", [(36.76473671903387, 0.0, 3.5392552744385),
                                     (10.0, 0.4, 2.0)])
def test_bound_refinement_call_count(monkeypatch, V, W, a):
    # grid 400 is 7 scan blocks and 1 acceptance call; with the golden-section
    # refinement these wells made 56 calls in all
    calls = []
    build = well._bound_matrices

    def counted(es, params):
        calls.append(es.size)
        return build(es, params)

    monkeypatch.setattr(well, "_bound_matrices", counted)
    find_bound_states(PhysicalParams(E=1.0, V=V, W=W, a=a), grid=400)
    assert len(calls) <= 40


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


def test_bound_state_count_at_zero_w():
    # at W = 0 the well holds ceil(a sqrt(2 m V) / (pi hbar)) states
    rng = np.random.default_rng(90)
    for _ in range(100):
        k, params = seeded_well(rng, 0.0)
        count = math.ceil(params.a * math.sqrt(2.0 * params.m * params.V)
                          / (math.pi * params.hbar))
        assert count == k
        assert len(find_bound_states(params, grid=400).energies) == count, params
        assert len(find_bound_states(params).energies) == count, params


def test_bound_states_need_well_geometry():
    with pytest.raises(ValueError):
        find_bound_states(PhysicalParams(E=1.0, V=-1.0, W=0.0, a=1.0))
    with pytest.raises(ValueError):
        find_bound_states(PhysicalParams(E=1.0, V=1.0, W=0.0, a=0.0))


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


def test_subnormal_energy_fails_without_warnings():
    # the row is reported as OverflowError; no numpy warning may reach stderr
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = solve_rows("step", 1e-320, 0.0, 0.0)
    assert isinstance(got.errors[0], OverflowError)
