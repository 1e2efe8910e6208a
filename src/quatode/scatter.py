"""1D scattering on quaternionic constant potentials (bound states: .well).

Potentials are piecewise constant with value V - jW (real V, complex W).
Wavefunctions are sums of modes u * exp(g x) * k with a quaternion u, a
complex spatial rate g, and a complex coefficient k; matching the value and
slope of the wavefunction at each discontinuity turns into an ordinary
complex linear system through the symplectic split (one quaternionic
equation = two complex equations).  Step and barrier are solved for many
rows at once: solve_rows stacks the matching systems of all rows and solves
them in one call, and solve_step / solve_barrier are its one-row case.

Transmission and reflection come from the conserved probability current
J = (hbar/2m) [(dPsi/dx)~ i Psi - Psi~ i dPsi/dx] = (hbar/m) <dPsi/dx, i Psi>,
whose fixed i-placement is what survives non-commutativity.  Above the
threshold E = sqrt(V^2+|W|^2) the transmitted current carries the flux factor
sqrt((sqrt(E^2-|W|^2) - V)/E) * (1 - |W/(E + sqrt(E^2-|W|^2))|^2), so
R + T = 1 holds exactly; below threshold T = 0 and |r| = 1.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .clode import schrodinger_mode_arrays
from .clode import schrodinger_modes  # noqa: F401  re-exported: the one-row modes
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


# The unknown amplitudes, each multiplying a mode (u1 + j u2) exp(g x), by
# region from left to right; the incident exp(i k x) belongs to the first
# region.  step: (r, r~) | (t, t~); barrier: (r, r~) | (k1..k4) | (t, t~).
_REGION_COLUMNS = {"step": ((0, 1), (2, 3)),
                   "barrier": ((0, 1), (2, 3, 4, 5), (6, 7))}
_REGIMES = (Regime.ABOVE_THRESHOLD, Regime.EVANESCENT, Regime.SUBW)


def _edge_entries(regions) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(edge, unknown, sign) of every block of a matching system.

    At the edge between regions k and k+1 the value and slope of both sides
    agree: the modes of region k enter with +1, those of region k+1 with -1.
    """
    edge, col, sign = zip(*[(k, c, s) for k in range(len(regions) - 1)
                            for cols, s in ((regions[k], 1.0), (regions[k + 1], -1.0))
                            for c in cols])
    return np.array(edge), np.array(col), np.array(sign)


def _region_terms(regions) -> np.ndarray:
    """(regions, 1 + unknowns) mask of the terms of each region's wave; term 0
    is the incident wave and term 1 + c the unknown c."""
    mask = np.zeros((len(regions), 1 + sum(map(len, regions))), dtype=bool)
    mask[0, 0] = True
    for k, cols in enumerate(regions):
        mask[k, [1 + c for c in cols]] = True
    return mask


_EDGE_ENTRIES = {kind: _edge_entries(r) for kind, r in _REGION_COLUMNS.items()}
_REGION_TERMS = {kind: _region_terms(r) for kind, r in _REGION_COLUMNS.items()}


@dataclass(frozen=True)
class ScatteringRows:
    """The results of solve_rows: arrays with one entry per row.

    A row whose `errors` entry is not None failed with that exception; its
    numbers are nan and its regime is None.  E holds the energies after the
    boundary nudge and kin the wave number outside the potential.  u1, u2, g
    and amplitudes, of shape (n, unknowns), give each unknown's mode
    (u1 + j u2) exp(g x) and amplitude, so the wave of a row can be rebuilt;
    the unknowns are (r, r~, t, t~) for the step and (r, r~, k1..k4, t, t~)
    for the barrier.
    """

    kind: str
    E: np.ndarray
    kin: np.ndarray
    r: np.ndarray
    r_tilde: np.ndarray
    t: np.ndarray
    t_tilde: np.ndarray
    R: np.ndarray
    T: np.ndarray
    regimes: tuple
    current_spread: np.ndarray
    errors: tuple
    u1: np.ndarray
    u2: np.ndarray
    g: np.ndarray
    amplitudes: np.ndarray


def _nudge_off_threshold(E: np.ndarray, threshold: np.ndarray,
                         wabs: np.ndarray) -> np.ndarray:
    """Energies within 1e-12 (relative) of a regime boundary, moved above it.

    The regime formulas are singular exactly at E = sqrt(V^2+|W|^2), and the
    exponential mode basis degenerates at E = |W| (coincident exponents).
    A row near both boundaries moves above the threshold.
    """
    out = E
    for boundary in (wabs, threshold):
        scale = np.maximum(1.0, boundary)
        near = (boundary > 0.0) & (np.abs(E - boundary) < 1e-12 * scale)
        if near.any():
            log.info("%d energies within 1e-12 of a regime boundary; nudging above",
                     int(near.sum()))
            out = np.where(near, boundary + 1e-12 * scale, out)
    return out


def _mode_values(u1, u2, g, x) -> np.ndarray:
    """Value and slope of the modes (u1 + j u2) exp(g x) in symplectic
    coordinates: (n, 4, modes) from (n, modes) arrays."""
    e = np.exp(g * x)
    gu1, gu2 = g * u1, g * u2
    return np.stack([u1 * e, u2 * e, gu1 * e, gu2 * e], axis=1)


def _sample_xs(lo: np.ndarray, hi: np.ndarray, rate: np.ndarray,
               per_region: int) -> np.ndarray:
    """per_region points inside each row's (lo, hi): shape (n, per_region).

    On a half-line the points lie 1/(1 + rate) apart from the finite end, so
    a mode of spatial rate `rate` changes by O(1) among them.  Every row's
    region is unbounded on the same side.
    """
    k = np.arange(per_region)
    if np.isinf(lo).any():
        return hi[:, None] - (1.0 / (1.0 + rate))[:, None] * (k + 0.5)
    if np.isinf(hi).any():
        return lo[:, None] + (1.0 / (1.0 + rate))[:, None] * (k + 0.5)
    return lo[:, None] + (hi - lo)[:, None] * (k + 1.0) / (per_region + 1.0)


def current_kernel(psi1, psi2, dpsi1, dpsi2, hbar: float = 1.0, m: float = 1.0):
    """Probability current (hbar/m) <psi', i psi> in symplectic coordinates.

    <p, q> is the real inner product Re(p~ q).  With psi = psi1 + j psi2,
    i psi = i psi1 + j (-i psi2), so <psi', i psi> equals
    Im(psi1' conj(psi1)) - Im(psi2' conj(psi2)).  This is the closed form of
    probability_current for any psi, psi'; it takes scalars or arrays.
    """
    return hbar / m * (np.imag(dpsi1 * np.conj(psi1)) - np.imag(dpsi2 * np.conj(psi2)))


def _current_spread(kind: str, kin, u1, u2, g, amp, bounds, hbar: float, m: float,
                    per_region: int = 3) -> np.ndarray:
    """max - min of the current at the points current_samples picks, row by row."""
    mask = _REGION_TERMS[kind]
    one = np.ones((kin.size, 1))
    rates = np.hstack([1j * kin[:, None], g])
    coef = np.stack([np.hstack([one, u1 * amp]), np.hstack([0.0 * one, u2 * amp])],
                    axis=1)
    size = np.hypot(rates.real, rates.imag)
    widest = np.where(mask, size[:, None, :], 0.0).max(axis=2)
    xs = np.stack([_sample_xs(bounds[k], bounds[k + 1], widest[:, k], per_region)
                   for k in range(len(mask))], axis=1)
    # e[n, region, term, sample]; terms outside a region are zero there
    e = np.where(mask[:, :, None],
                 np.exp(rates[:, None, :, None] * xs[:, :, None, :]), 0.0)
    psi = np.einsum("nct,nrts->ncrs", coef, e)
    dpsi = np.einsum("nct,nrts->ncrs", coef, rates[:, None, :, None] * e)
    j = current_kernel(psi[:, 0], psi[:, 1], dpsi[:, 0], dpsi[:, 1], hbar, m)
    return j.max(axis=(1, 2)) - j.min(axis=(1, 2))


def solve_rows(kind: str, E, V, W, a=0.0, hbar: float = 1.0,
               m: float = 1.0) -> ScatteringRows:
    """Step or barrier scattering for arrays of E, V, W and a, in one pass.

    Incident wave exp(i p x / hbar) from the left.  The step at 0 has the
    unknowns r, r~ (reflected, and evanescent on j) and t, t~ (on the
    propagating or least-decaying mode and on the decaying one).  The
    barrier on (0, a) has r, r~, four interior amplitudes, and t, t~ on
    exp(i k x) and j exp(-k x).  Matching value and slope at each edge gives
    one (n, 4, 4) or (n, 8, 8) complex system, solved by one stacked
    np.linalg.solve; if one system is singular the rows are solved one at a
    time to find it.  current_spread is max - min of the probability current
    at the points current_samples picks.

    Errors are per row: ValueError for E <= 0, a <= 0 (barrier) or a
    non-finite input; OverflowError when the matching system is not finite
    (a thick barrier); DegenerateConfigurationError for a singular system;
    UnitarityError when |R + T - 1| > 1e-6 on a barrier.
    """
    if kind not in _REGION_COLUMNS:
        raise ValueError(f"unknown scattering geometry {kind!r}")
    if not (hbar > 0.0 and m > 0.0):
        raise ValueError("hbar and m must be positive")
    barrier = kind == "barrier"
    E, V, W, a = [np.asarray(x, dtype=t) for x, t in
                  ((E, float), (V, float), (W, complex), (a, float))]
    shape = np.broadcast_shapes(E.shape, V.shape, W.shape, a.shape, (1,))
    if len(shape) != 1:
        raise ValueError("solve_rows takes scalars and 1-D arrays")
    E, V, W, a = [np.broadcast_to(x, shape) for x in (E, V, W, a)]
    n = E.size
    bad_e = ~(E > 0.0)
    bad_a = ~(a > 0.0) & barrier
    finite = (np.isfinite(E) & np.isfinite(V) & np.isfinite(W)
              & (np.isfinite(a) | (not barrier)))
    invalid = bad_e | bad_a | ~finite
    errors = [None] * n
    for i in np.flatnonzero(invalid).tolist():
        errors[i] = ValueError("scattering needs E > 0" if bad_e[i] else
                               "barrier needs a > 0" if bad_a[i] else
                               "E, V, W and a must be finite")
    # invalid rows are solved on harmless stand-in values, then discarded
    E, V = np.where(invalid, 1.0, E), np.where(invalid, 0.0, V)
    W, a = np.where(invalid, 0.0, W), np.where(invalid, 1.0, a)

    wabs = np.hypot(W.real, W.imag)     # bit for bit abs(complex)
    threshold = np.hypot(V, wabs)
    E = _nudge_off_threshold(E, threshold, wabs)
    above = E > threshold
    modes = schrodinger_mode_arrays(E, V, W)
    kin = np.sqrt(2.0 * m * E) / hbar
    s = math.sqrt(2.0 * m) / hbar
    gm, gp = s * modes.z_minus, s * modes.z_plus
    one, zero, inf = np.ones(n), np.zeros(n), np.full(n, np.inf)
    wf, wb = modes.wfrac, modes.wbar
    if barrier:
        cols = [(one, zero, -1j * kin), (zero, one, kin),
                (one, wf, gm), (one, wf, -gm), (wb, one, gp), (wb, one, -gp),
                (one, zero, 1j * kin), (zero, one, -kin)]
        bounds = (-inf, zero, a, inf)
    else:
        cols = [(one, zero, -1j * kin), (zero, one, kin),
                (one, wf, np.where(above, gm, -gm)), (wb, one, -gp)]
        bounds = (-inf, zero, inf)
    u1, u2, g = [np.stack(c, axis=1).astype(complex) for c in zip(*cols)]

    edge, col, sign = _EDGE_ENTRIES[kind]
    edges = len(bounds) - 2
    size = 4 * edges
    mat = np.zeros((n, edges, 4, size), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        at = np.stack(bounds[1:-1], axis=1)[:, edge]
        mat[:, edge, :, col] = (_mode_values(u1[:, col], u2[:, col], g[:, col], at)
                                * sign).transpose(2, 0, 1)
    mat = mat.reshape(n, size, size)
    rhs = np.zeros((n, size), dtype=complex)
    rhs[:, 0], rhs[:, 2] = -1.0, -1j * kin     # the incident exp(i k x) at 0
    overflow = ~invalid & ~np.isfinite(mat).all(axis=(1, 2))
    for i in np.flatnonzero(overflow).tolist():
        errors[i] = OverflowError("matching system is not finite: its modes overflow")

    sol = np.full((n, size), complex(math.nan, math.nan))
    good = np.flatnonzero(~invalid & ~overflow)
    try:
        sol[good] = np.linalg.solve(mat[good], rhs[good, :, None])[..., 0]
    except np.linalg.LinAlgError:
        for i in good.tolist():
            try:
                sol[i] = np.linalg.solve(mat[i], rhs[i])
            except np.linalg.LinAlgError as exc:
                errors[i] = DegenerateConfigurationError(str(exc))
    r, rt, t, tt = sol[:, 0], sol[:, 1], sol[:, -2], sol[:, -1]
    big_r, big_t = np.abs(r) ** 2, np.abs(t) ** 2
    if barrier:
        for i in np.flatnonzero(~(np.abs(big_r + big_t - 1.0) <= 1e-6)).tolist():
            if errors[i] is None:
                errors[i] = UnitarityError(f"R + T = {float(big_r[i] + big_t[i])!r}: "
                                           "matching ill-conditioned")
    else:
        # current per |t|^2 of the propagating transmitted mode over p/m
        with np.errstate(invalid="ignore"):
            flux = np.sqrt((modes.sigma.real - V) / E) * (1.0 - np.abs(wf) ** 2)
        big_t = np.where(above, flux * big_t, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        spread = _current_spread(kind, kin, u1, u2, g, sol, bounds, hbar, m)

    failed = np.array([err is not None for err in errors])
    r, rt, t, tt, big_r, big_t, spread = [np.where(failed, math.nan, x) for x in
                                          (r, rt, t, tt, big_r, big_t, spread)]
    codes = np.where(above, 0, np.where(E < wabs, 2, 1)).tolist()
    return ScatteringRows(
        kind=kind, E=E, kin=kin, r=r, r_tilde=rt, t=t, t_tilde=tt, R=big_r, T=big_t,
        regimes=tuple([None if err else _REGIMES[c] for err, c in zip(errors, codes)]),
        current_spread=spread, errors=tuple(errors),
        u1=u1, u2=u2, g=g, amplitudes=sol)


def _wave(rows: ScatteringRows, params: PhysicalParams) -> PiecewiseWave:
    """The wave of the single row of `rows` as ExpSum regions."""
    if rows.kind == "barrier":
        bounds = (-math.inf, 0.0, params.a, math.inf)
        potentials = ((0.0, 0.0), (params.V, params.W), (0.0, 0.0))
    else:
        bounds = (-math.inf, 0.0, math.inf)
        potentials = ((0.0, 0.0), (params.V, params.W))
    regions = []
    for k, cols in enumerate(_REGION_COLUMNS[rows.kind]):
        terms = [exp_term(Quaternion.from_symplectic(rows.u1[0, c], rows.u2[0, c]),
                          complex(rows.g[0, c]), complex(rows.amplitudes[0, c]))
                 for c in cols]
        if k == 0:
            terms.insert(0, exp_term(_ONE, 1j * float(rows.kin[0])))
        regions.append(Region(bounds[k], bounds[k + 1], terms, *potentials[k]))
    return PiecewiseWave(regions=tuple(regions))


def _solve_single(kind: str, params: PhysicalParams) -> ScatteringResult:
    rows = solve_rows(kind, params.E, params.V, params.W, params.a,
                      params.hbar, params.m)
    if rows.errors[0] is not None:
        raise rows.errors[0]
    params = replace(params, E=float(rows.E[0]))
    return ScatteringResult(r=complex(rows.r[0]), r_tilde=complex(rows.r_tilde[0]),
                            t=complex(rows.t[0]), t_tilde=complex(rows.t_tilde[0]),
                            R=float(rows.R[0]), T=float(rows.T[0]),
                            regime=rows.regimes[0], wave=_wave(rows, params),
                            params=params)


def stationary_b_op(V: float, W: complex, E: float,
                    hbar: float = 1.0, m: float = 1.0) -> RightLinearScalarOp:
    """Zeroth-order coefficient of psi'' + b(psi) = 0 for potential V - jW.

    Useful for residual cross-checks of matched scattering solutions.
    """
    f = 2.0 * m / hbar ** 2
    a_part = Quaternion(-f * V) + _J * Quaternion.from_complex(f * W)
    b_part = Quaternion(0.0, -f * E, 0.0, 0.0)
    return RightLinearScalarOp(a_part, b_part)


def solve_step(params: PhysicalParams) -> ScatteringResult:
    """Match the quaternionic plane-wave basis across a potential step at 0.

    One row of solve_rows("step", ...), with its wave built as ExpSum
    regions; the row's error, if any, is raised.
    """
    return _solve_single("step", params)


def solve_barrier(params: PhysicalParams) -> ScatteringResult:
    """Rectangular barrier on (0, a): one row of solve_rows("barrier", ...)."""
    return _solve_single("barrier", params)


def probability_current(psi: Quaternion, dpsi: Quaternion,
                        params: PhysicalParams) -> float:
    """Scalar part of (hbar/2m)[(dpsi)~ i psi - psi~ i dpsi].

    The bracket is conjugation-invariant, hence real for any inputs; for
    stationary solutions it is also independent of x.  The quaternion-product
    reference for current_kernel.
    """
    i = Quaternion(0, 1, 0, 0)
    bracket = dpsi.conjugate() * i * psi - psi.conjugate() * i * dpsi
    return params.hbar / (2.0 * params.m) * bracket.w


def current_samples(wave: PiecewiseWave, params: PhysicalParams,
                    per_region: int = 3) -> list[tuple[float, float]]:
    """Probability current at a few interior points of every region."""
    out = []
    for reg in wave.regions:
        xs = _sample_xs(np.array([reg.lo]), np.array([reg.hi]),
                        np.array([reg.max_rate()]), per_region)[0]
        for x in xs.tolist():
            psi1, psi2 = reg.value(x).symplectic()
            dpsi1, dpsi2 = reg.derivative(x).symplectic()
            out.append((x, float(current_kernel(psi1, psi2, dpsi1, dpsi2,
                                                params.hbar, params.m))))
    return out


def current_residual(wave: PiecewiseWave, params: PhysicalParams) -> float:
    js = [j for _, j in current_samples(wave, params)]
    return max(js) - min(js)


# the bound states of the well -V + jW, found through this module as well
from .well import BoundStateSet, find_bound_states  # noqa: E402,F401
