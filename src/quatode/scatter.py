"""1D scattering on quaternionic constant potentials (bound states: .well).

Potentials are piecewise constant with value V - jW (real V, complex W).
arg W is a gauge (conjugation by exp(-i arg W/2) takes the equation of |W|
to that of W), so rows are solved at |W| and r~, t~ turn by exp(i arg W).
Wavefunctions are sums of modes u * exp(g x) * k with a quaternion u, a
complex spatial rate g, and a complex coefficient k; matching the value and
slope of the wavefunction at each discontinuity turns into an ordinary
complex linear system through the symplectic split (one quaternionic
equation = two complex equations).  One engine, _matching, builds these
systems for the step and the barrier (the well has its own fold kernel, see
.well); solve_rows solves the systems of many rows in one call and
solve_step / solve_barrier are its one-row case.

Transmission and reflection come from the conserved probability current
J = (hbar/2m) [(dPsi/dx)~ i Psi - Psi~ i dPsi/dx] = (hbar/m) <dPsi/dx, i Psi>,
whose fixed i-placement is what survives non-commutativity.  Above the
threshold E = sqrt(V^2+|W|^2) the transmitted current carries the flux factor
sqrt((sqrt(E^2-|W|^2) - V)/E) * (1 - |W/(E + sqrt(E^2-|W|^2))|^2), so
R + T = 1 holds exactly; below threshold T = 0 and |r| = 1.  The check of a
solved row is current_spread, max - min of J at three points per region.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .clode import schrodinger_mode_arrays
from .clode import schrodinger_modes  # noqa: F401  re-exported: the one-row modes
from .quatcore import ExpSum, Quaternion, exp_term

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
        if not (0.0 < self.hbar < math.inf and 0.0 < self.m < math.inf):
            raise ValueError("hbar and m must be positive and finite")
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
    current_spread: float
    regime: Regime
    params: PhysicalParams
    _rows: ScatteringRows = field(repr=False, compare=False)

    @cached_property
    def wave(self) -> PiecewiseWave:    # built from the row on first access
        return _wave(self._rows, self.params)


_REGIMES = (Regime.ABOVE_THRESHOLD, Regime.EVANESCENT, Regime.SUBW)
_REGIONS = {"step": 2, "barrier": 3}    # 0 | V - jW and 0 | V - jW | 0
_SAMPLES = 3    # current samples per region


@dataclass(frozen=True)
class _Layout:
    """Where terms enter a matching system and the current check (see _layout)."""

    columns: np.ndarray  # (3, terms) columns of g, u1, u2 of each term
    region: np.ndarray   # (terms,) the region of each term, ascending
    entries: np.ndarray  # (3, entries) columns of each (edge, term) entry
    sign: np.ndarray     # (entries,) +1 left of the edge, -1 right of it
    flat: np.ndarray     # (4 entries,) places of value and slope in the system
    at0: int             # entries at the first edge, x = 0; they come first
    later: np.ndarray    # (entries - at0,) column in x of each later edge
    first: np.ndarray    # (regions,) the first term of each region
    cell: np.ndarray     # (samples, terms) place of each term's samples in a
                         # (regions, samples, terms) table
    steps: np.ndarray    # (samples, regions), parts (1, regions): current samples at
    parts: np.ndarray    # lo + reach * steps / parts, steps < 0 on the left half-line


def _layout(regions: int) -> _Layout:
    """The layout of 0 | V - jW (two regions) or 0 | V - jW | 0 (three).

    Term 0 is the incident wave, region 0's rightward u-; term 1 + c is the
    unknown c: the leftward u-, u+ of region 0, u- exp(+-g- x), u+ exp(+-g+ x)
    of each inner region (g-+ the principal rates), the rightward u-, u+ of
    the last region.  The mode table holds the rightward, leftward, principal
    and negated principal rates (blocks 0..3), each as z-, z+ (root 0, 1) of
    the free medium and the potential (medium 0, 1), then wfrac, 1.
    _current_spread samples each region at lo + reach * steps / parts.
    """
    last = regions - 1
    region, block, root = np.array(
        [(0, 0, 0), (0, 1, 0), (0, 1, 1)]
        + [(k, b, r) for k in range(1, last) for r in (0, 1) for b in (2, 3)]
        + [(last, 0, 0), (last, 0, 1)]).T
    med = np.array((0, 1, 0))[region]       # a third region is free again
    columns = np.array([4 * block + 2 * root + med, np.where(root == 0, 18, 16 + med),
                        np.where(root == 0, 16 + med, 18)])
    term, edge = np.array([(t, e) for e in range(last)
                           for t in range(region.size) if region[t] in (e, e + 1)]).T
    row = 4 * edge + np.arange(4)[:, None]
    k, n = np.arange(regions), np.arange(_SAMPLES)
    inner = ((k > 0) & (k < last))[:, None]
    return _Layout(columns=columns, region=region,
                   entries=columns[:, term], sign=1.0 - 2.0 * (region[term] > edge),
                   flat=(row * region.size + term).ravel(),
                   at0=int(np.sum(edge == 0)), later=edge[edge > 0] - 1,
                   first=np.searchsorted(region, k),
                   cell=(region * _SAMPLES + n[:, None]) * region.size + np.arange(region.size),
                   steps=np.where(inner, n + 1.0, np.sign(k - 0.5)[:, None] * (n + 0.5)).T,
                   parts=np.where(inner, _SAMPLES + 1.0, 1.0).T)


_LAYOUTS = {regions: _layout(regions) for regions in set(_REGIONS.values())}


def _matching(E, V, w, x, hbar: float, m: float):
    """The matching systems of piecewise-constant potentials V - jw at a real w.

    E is an (n,) array; V and w are real (n, 2) tables of the free medium
    (zeros) and the potential, w = |W| since arg W is a gauge, x the
    (n, regions - 2) edges after the first, at 0.  Returns the modes (ModeArrays
    over the table), the layout, the mode table (table[:, layout.columns]
    holds g, u1, u2 of every term) and the (n, 4 edges, terms) systems of
    value and slope in symplectic coordinates at each edge, mat @ (1, c) = 0
    for the unknowns c.  Exponentials may overflow to inf.
    """
    modes = schrodinger_mode_arrays(E[:, None], V, w)
    n = modes.sigma.shape[0]
    layout = _LAYOUTS[2 + x.shape[1]]
    z = np.concatenate([modes.z_minus, modes.z_plus], 1) * (math.sqrt(2.0 * m) / hbar)
    # the free medium: exactly sqrt(-+2 m E) / hbar, each part divided as a real
    k = np.sqrt(np.multiply.outer(2.0 * m * E, (-1.0, 1.0)), dtype=complex)
    z[:, ::2] = (k.view(float) / hbar).view(complex)
    # the rightward member of +-g decays (Re g < 0) or moves (Re g = 0, Im g > 0)
    # to the right; numpy orders complex numbers by real, then imaginary part
    left = -z
    right = np.conj(z) < 0.0
    table = np.concatenate([np.where(right, z, left), np.where(right, left, z), z,
                            left, modes.wfrac, np.ones((n, 1))], axis=1)
    gu = table[:, layout.entries]
    g, u = gu[:, :1], gu[:, 1:] * layout.sign
    values = np.concatenate([u, g * u], axis=1)     # (n, 4, entries)
    with np.errstate(over="ignore", invalid="ignore"):
        later = slice(layout.at0, None)
        values[:, :, later] *= np.exp(g[:, :, later] * x[:, None, layout.later])
    rows, terms = 4 * x.shape[1] + 4, layout.region.size
    mat = np.zeros((n, rows, terms), dtype=complex)
    mat.reshape(n, rows * terms)[:, layout.flat] = values.reshape(n, layout.flat.size)
    return modes, layout, table, mat


@dataclass(frozen=True)
class ScatteringRows:
    """The results of solve_rows: arrays with one entry per row.

    A row whose `errors` entry is not None failed with that exception; its
    numbers are nan and its regime is None.  E holds the energies after the
    boundary nudge and kin the wave number outside the potential.  u1, u2, g
    and amplitudes, of shape (n, unknowns), give each unknown's mode
    (u1 + j u2) exp(g x) and amplitude at |W| (u2 W / |W| for u2 at W), so
    the wave of a row can be rebuilt; the unknowns are (r, r~, t, t~) for the
    step and (r, r~, k1..k4, t, t~) for the barrier, where k1..k4 multiply
    u- exp(+-g- x), u+ exp(+-g+ x) inside it, g-+ the principal rates.
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


def _nudge_off_threshold(E: np.ndarray, boundaries: np.ndarray) -> np.ndarray:
    """Energies within 1e-12 (relative) of a regime boundary, moved above it.

    boundaries is the (2, n) table of |W| and sqrt(V^2+|W|^2), tested in one
    pass.  The regime formulas are singular exactly at E = sqrt(V^2+|W|^2),
    and the exponential mode basis degenerates at E = |W| (coincident
    exponents).  A row near both boundaries moves above the threshold.
    """
    scale = np.maximum(1.0, boundaries)
    near = np.abs(E - boundaries) < 1e-12 * scale
    if not near.any():
        return E
    near &= boundaries > 0.0
    import logging     # here, not at import: few runs reach this
    log = logging.getLogger(__name__)
    for count in near.sum(axis=1).tolist():
        if count:
            log.info("%d energies within 1e-12 of a regime boundary; nudging above",
                     count)
    above = boundaries + 1e-12 * scale
    return np.where(near[1], above[1], np.where(near[0], above[0], E))


def current_kernel(psi1, psi2, dpsi1, dpsi2, hbar: float = 1.0, m: float = 1.0):
    """Probability current (hbar/m) <psi', i psi> in symplectic coordinates.

    <p, q> is the real inner product Re(p~ q).  With psi = psi1 + j psi2,
    i psi = i psi1 + j (-i psi2), so <psi', i psi> equals
    Im(psi1' conj(psi1)) - Im(psi2' conj(psi2)) for any psi, psi'; it takes
    scalars or arrays.
    """
    return hbar / m * (np.imag(dpsi1 * np.conj(psi1)) - np.imag(dpsi2 * np.conj(psi2)))


def _current_spread(layout: _Layout, terms, amp, x, hbar: float, m: float) -> np.ndarray:
    """max - min of the current at three points per region, row by row.

    terms is the (n, 3, terms) g, u1, u2 of _matching, amp the (n, terms)
    amplitudes and x the (n, regions - 2) edges after the one at 0.  Each
    term is evaluated at its own region's samples only, in one exp.
    """
    n, regions, size = len(amp), len(layout.first), layout.region.size
    g = terms[:, 0]
    coef = terms[:, 1:] * amp[:, None, :]
    widest = np.maximum.reduceat(np.hypot(g.real, g.imag), layout.first, axis=1)
    # a half-line reaches 1 / (1 + rate) from its edge, rate its largest |g|, so
    # each mode changes by O(1) among the samples; an inner region reaches hi - lo
    lo = np.zeros((n, regions))
    lo[:, 2:] = x
    reach = 1.0 / (1.0 + widest)
    reach[:, 1:-1] = lo[:, 2:] - lo[:, 1:-1]
    xs = lo[:, None, :] + reach[:, None, :] * layout.steps / layout.parts
    # e[n, region, sample, term]; terms outside a region are zero there.  The
    # contraction runs over contiguous terms, in the same order as over
    # strided ones, so it is the same sum, in half the time
    e = np.zeros((n, regions, _SAMPLES, size), dtype=complex)
    e.reshape(n, regions * _SAMPLES * size)[:, layout.cell] = np.exp(
        g[:, None, :] * xs[:, :, layout.region])
    psi = np.einsum("nct,nrst->ncrs", coef, e)
    dpsi = np.einsum("nct,nrst->ncrs", coef, g[:, None, None, :] * e)
    j = current_kernel(psi[:, 0], psi[:, 1], dpsi[:, 0], dpsi[:, 1], hbar, m)
    return j.max(axis=(1, 2)) - j.min(axis=(1, 2))


def solve_rows(kind: str, E, V, W, a=0.0, hbar: float = 1.0,
               m: float = 1.0) -> ScatteringRows:
    """Step or barrier scattering for arrays of E, V, W and a, in one pass.

    Incident wave exp(i p x / hbar) from the left on the regions 0 | V - jW
    (step at 0) or 0 | V - jW | 0 (barrier on (0, a)).  The unknowns are r,
    r~ (reflected, and evanescent on j), the barrier's four interior
    amplitudes, and t, t~ on the last region's rightward modes u- and u+.
    _matching gives one (n, 4, 4) or (n, 8, 8) complex system at |W|, solved
    by one stacked np.linalg.solve; if one system is singular the rows are
    solved one at a time to find it.  current_spread is max - min of the
    probability current at three points per region (_current_spread).

    Errors are per row: ValueError for E <= 0, a <= 0 (barrier) or a
    non-finite input or |W|; OverflowError when the matching system is not
    finite (a thick barrier); DegenerateConfigurationError for a singular
    system; UnitarityError when |R + T - 1| > 1e-6 on a barrier.
    """
    if kind not in _REGIONS:
        raise ValueError(f"unknown scattering geometry {kind!r}")
    if not (0.0 < hbar < math.inf and 0.0 < m < math.inf):
        raise ValueError("hbar and m must be positive and finite")
    barrier = kind == "barrier"
    E, V, W, a = [np.asarray(x, dtype=t) for x, t in
                  ((E, float), (V, float), (W, complex), (a, float))]
    with np.errstate(over="ignore"):
        wabs = np.hypot(W.real, W.imag)     # bit for bit abs(complex), or inf
        threshold = np.hypot(V, wabs)
    # one mask over every input; a step ignores a but takes its shape
    valid = ((E > 0.0) & np.isfinite(E) & np.isfinite(V) & np.isfinite(wabs)
             & ((a > 0.0) & np.isfinite(a) | (not barrier)))
    if valid.ndim > 1:
        raise ValueError("solve_rows takes scalars and 1-D arrays")
    valid = valid.reshape(-1)
    n = valid.size
    errors = [None] * n
    if valid.all():
        E = np.full(n, E)
    else:
        invalid = ~valid
        bad_e, bad_a = np.broadcast_to(~(E > 0.0), n), np.broadcast_to(~(a > 0.0), n)
        for i in np.flatnonzero(invalid).tolist():
            errors[i] = ValueError("scattering needs E > 0" if bad_e[i] else
                                   "barrier needs a > 0" if barrier and bad_a[i] else
                                   "E, V, |W| and a must be finite")
        # invalid rows are solved on harmless stand-in values, then discarded
        E, a = np.where(invalid, 1.0, E), np.where(invalid, 1.0, a)
        V, W, wabs, threshold = [np.where(invalid, 0.0, x) for x in (V, W, wabs, threshold)]

    boundaries = np.empty((2, n))
    boundaries[0], boundaries[1] = wabs, threshold
    E = _nudge_off_threshold(E, boundaries)
    above = E > threshold
    pot_v, pot_w = np.zeros((n, 2)), np.zeros((n, 2))
    pot_v[:, 1], pot_w[:, 1] = V, wabs
    x = np.full((n, 1), a[..., None]) if barrier else np.empty((n, 0))
    with np.errstate(over="ignore", invalid="ignore"):
        modes, layout, table, mat = _matching(E, pot_v, pot_w, x, hbar, m)
    terms = table[:, layout.columns]
    # 0 - v, not -v: zeros stay +0, so a W = 0 row prints r~ as 0, not -0
    rhs, mat = 0.0 - mat[:, :, 0], mat[:, :, 1:]
    good = valid & np.isfinite(mat).all(axis=(1, 2))
    clean = good.all()
    if not clean:
        for i in np.flatnonzero(valid & ~good).tolist():
            errors[i] = OverflowError("matching system is not finite: its modes overflow")

    # amplitudes of every term: the incident wave has amplitude 1
    amp = np.full((n, terms.shape[2]), complex(math.nan, math.nan))
    amp[:, 0] = 1.0
    pick = slice(None) if clean else np.flatnonzero(good)    # no copy if clean
    try:
        amp[pick, 1:] = np.linalg.solve(mat[pick], rhs[pick, :, None])[..., 0]
    except np.linalg.LinAlgError:
        for i in np.flatnonzero(good).tolist():
            try:
                amp[i, 1:] = np.linalg.solve(mat[i], rhs[i])
            except np.linalg.LinAlgError as exc:
                errors[i] = DegenerateConfigurationError(str(exc))
    r, rt, t, tt = amp[:, 1], amp[:, 2], amp[:, -2], amp[:, -1]
    turned = W != wabs      # arg W != 0: r~ and t~ turn by exp(i arg W) = W / |W|
    if turned.any():
        turn = W / np.where(turned, wabs, 1.0)
        rt, tt = np.where(turned, rt * turn, rt), np.where(turned, tt * turn, tt)
    big_r, big_t = np.abs(r) ** 2, np.abs(t) ** 2
    if barrier:
        for i in np.flatnonzero(~(np.abs(big_r + big_t - 1.0) <= 1e-6)).tolist():
            if errors[i] is None:
                errors[i] = UnitarityError(f"R + T = {float(big_r[i] + big_t[i])!r}: "
                                           "matching ill-conditioned")
    else:
        # current per |t|^2 of the propagating transmitted mode over p/m; a
        # row below threshold (its value unused) may overflow at a subnormal E
        with np.errstate(over="ignore", invalid="ignore"):
            flux = (np.sqrt((modes.sigma[:, 1].real - V) / E)
                    * (1.0 - np.abs(modes.wfrac[:, 1]) ** 2))
        big_t = np.where(above, flux * big_t, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        spread = _current_spread(layout, terms, amp, x, hbar, m)

    if errors.count(None) < n:
        failed = np.array([err is not None for err in errors])
        r, rt, t, tt, big_r, big_t, spread = [np.where(failed, math.nan, x) for x in
                                              (r, rt, t, tt, big_r, big_t, spread)]
    codes = np.where(above, 0, np.where(E < wabs, 2, 1)).tolist()
    return ScatteringRows(
        kind=kind, E=E, kin=terms[:, 0, 0].imag, r=r, r_tilde=rt, t=t, t_tilde=tt,
        R=big_r, T=big_t,
        regimes=tuple([None if err else _REGIMES[c] for err, c in zip(errors, codes)]),
        current_spread=spread, errors=tuple(errors), g=terms[:, 0, 1:],
        u1=terms[:, 1, 1:], u2=terms[:, 2, 1:], amplitudes=amp[:, 1:])


def _wave(rows: ScatteringRows, params: PhysicalParams) -> PiecewiseWave:
    """The wave of the single row of `rows` as ExpSum regions, u2 turned by W / |W|."""
    layout = _LAYOUTS[_REGIONS[rows.kind]]
    edges = (0.0, params.a)[:len(layout.first) - 1]
    bounds = (-math.inf, *edges, math.inf)
    potentials = ((0.0, 0.0), (params.V, params.W), (0.0, 0.0))
    turn = params.W / abs(params.W) if params.W else 1.0
    regions = []
    for k in range(len(layout.first)):
        terms = [exp_term(Quaternion.from_symplectic(rows.u1[0, c], rows.u2[0, c] * turn),
                          complex(rows.g[0, c]), complex(rows.amplitudes[0, c]))
                 for c in np.flatnonzero(layout.region[1:] == k).tolist()]
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
                            current_spread=float(rows.current_spread[0]),
                            regime=rows.regimes[0], params=params, _rows=rows)


def solve_step(params: PhysicalParams) -> ScatteringResult:
    """Match the quaternionic plane-wave basis across a potential step at 0.

    One row of solve_rows("step", ...), whose wave is built as ExpSum
    regions when first read; the row's error, if any, is raised.
    """
    return _solve_single("step", params)


def solve_barrier(params: PhysicalParams) -> ScatteringResult:
    """Rectangular barrier on (0, a): one row of solve_rows("barrier", ...)."""
    return _solve_single("barrier", params)


# perfbench's tracer wraps this name: keep it
def current_residual(result: ScatteringResult) -> float:
    """max - min of the probability current at the row's sample points."""
    return result.current_spread


# the bound states of the well -V + jW, found through this module as well
from .well import BoundStateSet, find_bound_states  # noqa: E402,F401
