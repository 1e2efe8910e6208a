"""1D scattering and bound states on quaternionic constant potentials.

Potentials are piecewise constant with value V - jW (real V, complex W).
Wavefunctions are sums of modes u * exp(g x) * k with a quaternion u, a
complex spatial rate g, and a complex coefficient k; matching the value and
slope of the wavefunction at each discontinuity turns into an ordinary
complex linear system through the symplectic split (one quaternionic
equation = two complex equations).

Transmission and reflection come from the conserved probability current
J = (hbar/2m) [(dPsi/dx)~ i Psi - Psi~ i dPsi/dx], whose fixed i-placement
is what survives non-commutativity.  Above the threshold E = sqrt(V^2+|W|^2)
the transmitted current carries the flux factor
sqrt((sqrt(E^2-|W|^2) - V)/E) * (1 - |W/(E + sqrt(E^2-|W|^2))|^2), so
R + T = 1 holds exactly; below threshold T = 0 and |r| = 1.
"""

from __future__ import annotations

import cmath
import enum
import logging
import math
from dataclasses import dataclass

import numpy as np

from .clode import SchrodingerModes, schrodinger_modes
from .quatcore import ExpSum, Quaternion, RightLinearScalarOp, exp_term

log = logging.getLogger(__name__)

_J = Quaternion(0, 0, 1, 0)
_ONE = Quaternion(1.0)


class UnitarityError(ArithmeticError):
    """R + T drifted from 1 beyond numerical conditioning limits."""


class DegenerateConfigurationError(ArithmeticError):
    """The matching system is singular for these parameters."""


class Regime(enum.Enum):
    ABOVE_THRESHOLD = "AboveThreshold"
    EVANESCENT = "Evanescent"
    SUBW = "SubW"


@dataclass(frozen=True)
class PhysicalParams:
    """Energy, potential and geometry; hbar = m = 1 by default."""

    E: float
    V: float
    W: complex = 0.0
    a: float = 0.0
    hbar: float = 1.0
    m: float = 1.0

    def __post_init__(self):
        if self.hbar <= 0.0 or self.m <= 0.0:
            raise ValueError("hbar and m must be positive")
        object.__setattr__(self, "W", complex(self.W))

    @property
    def threshold(self) -> float:
        return math.hypot(self.V, abs(self.W))

    @property
    def momentum(self) -> float:
        return math.sqrt(2.0 * self.m * self.E)


class Region(ExpSum):
    """The wave on lo < x < hi, where the potential is V - jW."""

    __slots__ = ("lo", "hi", "V", "W")

    def __init__(self, lo: float, hi: float, terms, V: float, W: complex):
        super().__init__(terms)
        self.lo, self.hi, self.V, self.W = lo, hi, V, W


@dataclass(frozen=True)
class PiecewiseWave:
    regions: tuple[Region, ...]


@dataclass(frozen=True)
class ScatteringResult:
    r: complex
    r_tilde: complex
    t: complex
    t_tilde: complex
    R: float
    T: float
    regime: Regime
    wave: PiecewiseWave
    params: PhysicalParams


@dataclass(frozen=True)
class BoundStateSet:
    energies: tuple[float, ...]
    residuals: tuple[float, ...]
    regimes: tuple[Regime, ...]
    params: PhysicalParams


def classify_regime(params: PhysicalParams) -> Regime:
    if params.E > params.threshold:
        return Regime.ABOVE_THRESHOLD
    if params.E < abs(params.W):
        return Regime.SUBW
    return Regime.EVANESCENT


def _nudge_off_threshold(params: PhysicalParams) -> PhysicalParams:
    # regime formulas are singular exactly at E = sqrt(V^2+|W|^2), and the
    # exponential mode basis degenerates at E = |W| (coincident exponents)
    for boundary in (params.threshold, abs(params.W)):
        scale = max(1.0, boundary)
        if boundary > 0.0 and abs(params.E - boundary) < 1e-12 * scale:
            log.info("energy within 1e-12 of a regime boundary; nudging above")
            return PhysicalParams(E=boundary + 1e-12 * scale, V=params.V,
                                  W=params.W, a=params.a,
                                  hbar=params.hbar, m=params.m)
    return params


def _solve_or_degenerate(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError as exc:
        raise DegenerateConfigurationError(str(exc)) from exc


def _column(mode_u: Quaternion, g: complex, x: float) -> np.ndarray:
    """Value and slope of u exp(g x) in symplectic coordinates."""
    z1, z2 = mode_u.symplectic()
    e = cmath.exp(g * x)
    return np.array([z1 * e, z2 * e, g * z1 * e, g * z2 * e])


def stationary_b_op(V: float, W: complex, E: float,
                    hbar: float = 1.0, m: float = 1.0) -> RightLinearScalarOp:
    """Zeroth-order coefficient of psi'' + b(psi) = 0 for potential V - jW.

    Useful for residual cross-checks of matched scattering solutions.
    """
    f = 2.0 * m / hbar ** 2
    a_part = Quaternion(-f * V) + _J * Quaternion.from_complex(f * W)
    b_part = Quaternion(0.0, -f * E, 0.0, 0.0)
    return RightLinearScalarOp(a_part, b_part)


def _transmission_flux(modes: SchrodingerModes) -> float:
    """Current per |t|^2 of the propagating transmitted mode over p/m."""
    sigma = math.sqrt(modes.E ** 2 - abs(modes.W) ** 2)
    wfrac2 = abs(modes.u_minus.symplectic()[1]) ** 2
    return math.sqrt((sigma - modes.V) / modes.E) * (1.0 - wfrac2)


def _incident_side(kin: float, r: complex, rt: complex) -> Region:
    """Incident wave, reflected r and evanescent r~ j on x < 0."""
    return Region(-math.inf, 0.0, (exp_term(_ONE, 1j * kin),
                                   exp_term(_ONE, -1j * kin, r),
                                   exp_term(_J, kin, rt)), V=0.0, W=0.0)


def solve_step(params: PhysicalParams) -> ScatteringResult:
    """Match the quaternionic plane-wave basis across a potential step at 0.

    Incident wave exp(i p x / hbar) from the left; unknown amplitudes are the
    reflected r, the evanescent-reflection r~ (on j), the transmitted t on
    the propagating/least-decaying mode and t~ on the decaying one.
    """
    if params.E <= 0.0:
        raise ValueError("scattering needs E > 0")
    params = _nudge_off_threshold(params)
    regime = classify_regime(params)
    modes = schrodinger_modes(params.E, params.V, params.W, params.hbar, params.m)
    kin = params.momentum / params.hbar
    s = modes.spatial_scale
    gm, gp = s * modes.z_minus, s * modes.z_plus
    g_t = gm if regime is Regime.ABOVE_THRESHOLD else -gm
    cols = [
        _column(_ONE, -1j * kin, 0.0),      # r
        _column(_J, kin, 0.0),              # r~
        -_column(modes.u_minus, g_t, 0.0),  # t
        -_column(modes.u_plus, -gp, 0.0),   # t~
    ]
    rhs = -_column(_ONE, 1j * kin, 0.0)
    r, rt, t, tt = _solve_or_degenerate(np.column_stack(cols), rhs)
    big_r = abs(r) ** 2
    big_t = _transmission_flux(modes) * abs(t) ** 2 \
        if regime is Regime.ABOVE_THRESHOLD else 0.0
    wave = PiecewiseWave(regions=(
        _incident_side(kin, r, rt),
        Region(0.0, math.inf, (exp_term(modes.u_minus, g_t, t),
                               exp_term(modes.u_plus, -gp, tt)),
               V=params.V, W=params.W),
    ))
    return ScatteringResult(r=r, r_tilde=rt, t=t, t_tilde=tt,
                            R=big_r, T=big_t, regime=regime,
                            wave=wave, params=params)


def solve_barrier(params: PhysicalParams) -> ScatteringResult:
    """Rectangular barrier on (0, a): match value and slope at both edges."""
    if params.E <= 0.0:
        raise ValueError("scattering needs E > 0")
    if params.a <= 0.0:
        raise ValueError("barrier needs a > 0")
    params = _nudge_off_threshold(params)
    regime = classify_regime(params)
    modes = schrodinger_modes(params.E, params.V, params.W, params.hbar, params.m)
    kin = params.momentum / params.hbar
    s = modes.spatial_scale
    a = params.a
    inner = [(modes.u_minus, s * modes.z_minus), (modes.u_minus, -s * modes.z_minus),
             (modes.u_plus, s * modes.z_plus), (modes.u_plus, -s * modes.z_plus)]
    mat = np.zeros((8, 8), dtype=complex)
    rhs = np.zeros(8, dtype=complex)
    mat[:4, 0] = _column(_ONE, -1j * kin, 0.0)   # r
    mat[:4, 1] = _column(_J, kin, 0.0)           # r~
    for n, (u, g) in enumerate(inner):
        mat[:4, 2 + n] = -_column(u, g, 0.0)
        mat[4:, 2 + n] = _column(u, g, a)
    mat[4:, 6] = -_column(_ONE, 1j * kin, a)     # t
    mat[4:, 7] = -_column(_J, -kin, a)           # t~
    rhs[:4] = -_column(_ONE, 1j * kin, 0.0)
    sol = _solve_or_degenerate(mat, rhs)
    r, rt = sol[0], sol[1]
    ks = sol[2:6]
    t, tt = sol[6], sol[7]
    big_r, big_t = abs(r) ** 2, abs(t) ** 2
    if abs(big_r + big_t - 1.0) > 1e-6:
        raise UnitarityError(f"R + T = {big_r + big_t!r}: matching ill-conditioned")
    wave = PiecewiseWave(regions=(
        _incident_side(kin, r, rt),
        Region(0.0, a, (exp_term(u, g, k) for (u, g), k in zip(inner, ks)),
               V=params.V, W=params.W),
        Region(a, math.inf, (exp_term(_ONE, 1j * kin, t), exp_term(_J, -kin, tt)),
               V=0.0, W=0.0),
    ))
    return ScatteringResult(r=r, r_tilde=rt, t=t, t_tilde=tt,
                            R=big_r, T=big_t, regime=regime,
                            wave=wave, params=params)


def probability_current(psi: Quaternion, dpsi: Quaternion,
                        params: PhysicalParams) -> float:
    """Scalar part of (hbar/2m)[(dpsi)~ i psi - psi~ i dpsi].

    The bracket is conjugation-invariant, hence real for any inputs; for
    stationary solutions it is also independent of x.
    """
    i = Quaternion(0, 1, 0, 0)
    bracket = dpsi.conjugate() * i * psi - psi.conjugate() * i * dpsi
    return params.hbar / (2.0 * params.m) * bracket.w


def current_samples(wave: PiecewiseWave, params: PhysicalParams,
                    per_region: int = 3) -> list[tuple[float, float]]:
    """Probability current at a few interior points of every region."""
    out = []
    for reg in wave.regions:
        step = 1.0 / (1.0 + reg.max_rate())
        if math.isinf(reg.lo):
            xs = [reg.hi - step * (k + 0.5) for k in range(per_region)]
        elif math.isinf(reg.hi):
            xs = [reg.lo + step * (k + 0.5) for k in range(per_region)]
        else:
            xs = [reg.lo + (reg.hi - reg.lo) * (k + 1.0) / (per_region + 1.0)
                  for k in range(per_region)]
        for x in xs:
            out.append((x, probability_current(reg.value(x), reg.derivative(x),
                                               params)))
    return out


def current_residual(wave: PiecewiseWave, params: PhysicalParams) -> float:
    js = [j for _, j in current_samples(wave, params)]
    return max(js) - min(js)


_SCAN_BLOCK = 64    # energies per stacked SVD; bounds the scan's working memory
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
# column signs in the rows at 0, and from column 2 on in the rows at a
_SIGN_AT_0 = np.array([1.0, 1.0, -1.0, -1.0, -1.0, -1.0, 0.0, 0.0])
_SIGN_AT_A = np.array([1.0, 1.0, 1.0, 1.0, -1.0, -1.0])


def _bound_matrices(es: np.ndarray, params: PhysicalParams) -> np.ndarray:
    """Homogeneous matching systems for the well -V + jW on (0, a): (n, 8, 8).

    One system per energy, with unit-norm columns: the exterior modes c1, c4
    decaying to the left, the interior modes u- exp(+-g- x) and
    u+ exp(+-g+ x), and the exterior modes d2, d3 decaying to the right.
    Rows hold value and slope in symplectic coordinates at 0, then at a.
    Each interior u spans the null space of the singular coupling
    [[p, q], [r, s]], which is (-q, p) or (s, -r); the one of larger norm
    stays finite as W -> 0.  It is then brought to unit norm with a real
    largest symplectic component.
    """
    es = np.asarray(es, dtype=float)
    n = es.size
    v, w = -params.V, -params.W
    kappa = np.sqrt(2.0 * params.m * np.abs(es)) / params.hbar
    sigma = np.sqrt((es * es - abs(w) ** 2).astype(complex))
    z2 = np.stack([v - sigma, v + sigma], axis=-1)
    p, s = z2 - (v - es)[:, None], z2 - (v + es)[:, None]
    first = np.abs(p) >= np.abs(s)      # |(-q, p)| >= |(s, -r)|
    zu = np.where(first, np.conj(w), s)
    zt = np.where(first, p, -w)
    big = np.where(np.abs(zu) >= np.abs(zt), zu, zt)
    gauge = np.conj(big) / (np.abs(big) * np.sqrt(np.abs(zu) ** 2 + np.abs(zt) ** 2))
    g = math.sqrt(2.0 * params.m) / params.hbar * np.sqrt(z2)
    # each column is (u1 + j u2) exp(rate x)
    u1 = np.zeros((n, 8), dtype=complex)
    u2 = np.zeros((n, 8), dtype=complex)
    u1[:, [0, 6]] = 1.0
    u2[:, [1, 7]] = 1.0
    u1[:, 2:6] = np.repeat(zu * gauge, 2, axis=1)
    u2[:, 2:6] = np.repeat(zt * gauge, 2, axis=1)
    rate = np.stack([kappa, -1j * kappa, g[:, 0], -g[:, 0], g[:, 1], -g[:, 1],
                     -kappa, 1j * kappa], axis=-1)
    unit = np.stack([u1, u2, rate * u1, rate * u2], axis=1)
    at_a = np.zeros((n, 8), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        at_a[:, 2:] = np.exp(rate[:, 2:] * params.a) * _SIGN_AT_A
        mat = np.concatenate([unit * _SIGN_AT_0, unit * at_a[:, None, :]], axis=1)
        norms = np.linalg.norm(mat, axis=1, keepdims=True)
    if not np.all(np.isfinite(norms)):
        raise OverflowError("well matching system overflows at this width")
    return mat / norms


def _smallest_singular_values(es: np.ndarray, params: PhysicalParams) -> np.ndarray:
    """Smallest singular value of each energy's matching system."""
    out = np.empty(len(es))
    for lo in range(0, len(es), _SCAN_BLOCK):
        block = _bound_matrices(es[lo:lo + _SCAN_BLOCK], params)
        out[lo:lo + _SCAN_BLOCK] = np.linalg.svd(block, compute_uv=False)[:, -1]
    return out


def _golden_minima(lo: np.ndarray, hi: np.ndarray, xtol: float,
                   params: PhysicalParams) -> np.ndarray:
    """Golden-section minima of the smallest singular value, all brackets at once.

    Every open bracket takes the scalar golden-section step; the new points
    of one step are evaluated together.  Narrows lo and hi in place.
    """
    x1 = hi - _INVPHI * (hi - lo)
    x2 = lo + _INVPHI * (hi - lo)
    f1, f2 = np.split(_smallest_singular_values(np.concatenate([x1, x2]), params), 2)
    active = hi - lo > xtol
    while active.any():
        left = active & (f1 <= f2)
        right = active & ~left
        hi[left], x2[left], f2[left] = x2[left], x1[left], f1[left]
        x1[left] = hi[left] - _INVPHI * (hi[left] - lo[left])
        lo[right], x1[right], f1[right] = x1[right], x2[right], f2[right]
        x2[right] = lo[right] + _INVPHI * (hi[right] - lo[right])
        f = _smallest_singular_values(np.where(left, x1, x2)[active], params)
        f1[left] = f[left[active]]
        f2[right] = f[right[active]]
        active = hi - lo > xtol
    return 0.5 * (lo + hi)


def find_bound_states(params: PhysicalParams, grid: int = 2000,
                      accept: float = 1e-8) -> BoundStateSet:
    """Scan E in (-sqrt(V^2+|W|^2), 0) for singular matching systems.

    Local minima of the smallest singular value are refined by golden
    section; energies whose refined minimum is below `accept` are returned
    in ascending order.
    """
    if params.V <= 0.0 or params.a <= 0.0:
        raise ValueError("well needs V > 0 and a > 0")
    vmax = params.threshold
    margin = 1e-6 * vmax
    es = np.linspace(-vmax + margin, -margin, grid)
    sv = _smallest_singular_values(es, params)
    # refine every local minimum; acceptance happens after refinement
    n = 1 + np.flatnonzero((sv[1:-1] <= sv[:-2]) & (sv[1:-1] <= sv[2:]))
    e_star = _golden_minima(es[n - 1], es[n + 1], 1e-12 * max(1.0, vmax), params)
    res = _smallest_singular_values(e_star, params)
    keep = res < accept
    found = list(zip(e_star[keep].tolist(), res[keep].tolist()))
    # merge refinements that converged to the same energy
    found.sort()
    merged: list[tuple[float, float]] = []
    for e, res in found:
        if merged and abs(e - merged[-1][0]) < 1e-9 * max(1.0, vmax):
            if res < merged[-1][1]:
                merged[-1] = (e, res)
        else:
            merged.append((e, res))
    energies = tuple(e for e, _ in merged)
    residuals = tuple(res for _, res in merged)
    regimes = tuple(Regime.SUBW if abs(e) < abs(params.W) else Regime.EVANESCENT
                    for e in energies)
    return BoundStateSet(energies=energies, residuals=residuals,
                         regimes=regimes, params=params)
