"""Bound states of the rectangular well -V + jW on (0, a).

A bound state is an energy in (-sqrt(V^2 + |W|^2), 0) at which the
homogeneous 8x8 matching system of the four decaying exterior modes and the
four interior modes is singular: scatter's barrier system at E < 0, without
its incident wave.  Its residual is the smallest singular value after an
orthonormal basis of the interior columns' span takes their place, so the
coinciding interior modes at E = -|W| give no state.  find_bound_states scans
that residual over a grid of energies in closed form, by the mirror symmetry
of the well (_folded_residual, elementwise numpy).  At each local minimum it
then searches both parity blocks for a real root of a determinant
(_parity_determinants) by a secant, all searches in lock step
(_secant_roots); one QR and SVD of the unfolded systems (_certificate) then
certifies each refined energy and alone decides acceptance.  A secant step
that would leave the scan bracket goes halfway from the current point to the
end it crossed.  A search stops when its step is within xtol, after two
consecutive such exits, when the step's zero lies far off the real axis
(a near miss, not a root), or after _MAX_STEPS steps.  The scattering module
re-exports find_bound_states and BoundStateSet.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .clode import schrodinger_mode_arrays
from .scatter import PhysicalParams, Regime, _matching


@dataclass(frozen=True)
class BoundStateSet:
    energies: tuple[float, ...]
    residuals: tuple[float, ...]
    regimes: tuple[Regime, ...]
    params: PhysicalParams


# At most this many secant steps per search.  On 3164 wells (the 80
# benchmark spectra, the tests' 104, 2080 seeded regular and 800 dense ones,
# 100 unit wells; 121,552 searches) one search reached it, and found no state.
_MAX_STEPS = 12
# A search stops as a near miss when its complex secant step s has
# |Im s| > 10 |Re s| and |Im s| > _OFF_AXIS xtol: the zero of the secant line
# is then off the real axis by more than 1e-6 max(1, V_max), and the real
# part of the step is within a tenth of that distance of its foot, where the
# search stops.  On the wells above this rule stopped 8914 searches, 2 of
# them at states the certificate then accepted, and lost none; the 80
# benchmark spectra took 309 calls of the function instead of 522.
_OFF_AXIS = 1e6


def _bound_matrices(es: np.ndarray, params: PhysicalParams) -> np.ndarray:
    """Homogeneous matching systems for the well -V + jW on (0, a): (n, 8, 8).

    The barrier system of scatter._matching at E < 0 on 0 | -V + jW | 0,
    without its right-hand side and with unit-norm columns: the two modes
    decaying to the left, the four interior ones, the two decaying to the
    right; rows hold value and slope in symplectic coordinates at 0, at a.
    """
    es = np.asarray(es, dtype=float)
    mat = np.ascontiguousarray(_matching(
        es, np.array([[0.0, -params.V]]), np.array([[0.0, -params.W]]),
        np.array([[params.a]]), params.hbar, params.m)[3][:, :, 1:])
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.linalg.norm(mat, axis=1, keepdims=True)
    # a column that overflows, or underflows to zero, leaves the float range
    if not np.all(np.isfinite(norms) & (norms > 0.0)):
        raise OverflowError("well matching system overflows at this width")
    return np.divide(mat, norms, out=mat)


def _certificate(es: np.ndarray, params: PhysicalParams) -> np.ndarray:
    """The acceptance residual of each energy, by QR and SVD of _bound_matrices.

    The smallest singular value of the system after an orthonormal basis of
    the interior columns' span takes their place: a state stays singular, but
    the residual does not fall like sqrt|E + |W|| at E = -|W|, where those
    columns turn parallel.
    """
    mat = _bound_matrices(es, params)
    mat[:, :, 2:6] = np.linalg.qr(mat[:, :, 2:6])[0]
    return np.linalg.svd(mat, compute_uv=False)[:, -1]


def _folded_residual(es: np.ndarray, params: PhysicalParams) -> np.ndarray:
    """_certificate's residual in closed form, elementwise: (n,), in [0, 1].

    Both column sets of the certified system are orthonormal, so its smallest
    singular value is sqrt(1 - cos theta), theta the smallest principal angle
    between the exterior and the interior span.  The mirror x -> a - x splits
    the system: the rows at 0 plus or minus diag(-1, -1, 1, 1) times the rows
    at a give an even and an odd 4x4 block.  Both blocks have the exterior
    columns (1, 0, kappa, 0) and (0, 1, 0, -i kappa), whose complement N is
    spanned by (-kappa, 0, 1, 0) and (0, -i kappa, 0, 1).  Each interior pair
    u exp(+-g x) gives one column (u (1 +- e), g u (1 -+ e)), e = exp(g a) with
    Re g <= 0.  For these two columns C, sin^2 theta is the smaller root
    lambda of det(A^H A - lambda C^H C) = 0 with A = N^H C; columns and A are
    scaled to unit size first, so no scale of hbar or a over- or underflows.
    The residual sqrt(lambda / (1 + sqrt(1 - lambda))) is the smaller of the
    two blocks'.
    """
    modes = schrodinger_mode_arrays(es[:, None], -params.V, -params.W)
    g = np.concatenate([modes.z_minus, modes.z_plus], 1) * (-math.sqrt(2.0 * params.m)
                                                             / params.hbar)
    em = np.expm1(g * params.a)
    # (parity, n, pair): value and slope factors of the even and the odd column
    alpha, beta = np.array((2.0 + em, -em)), np.array((-em, 2.0 + em)) * g
    scale = np.hypot(np.abs(alpha), np.abs(beta))
    alpha, beta = alpha / scale, beta / scale
    kappa = np.sqrt(-2.0 * params.m * es)[:, None] / params.hbar
    hyp = np.hypot(1.0, kappa)
    slope, value = beta / hyp, alpha * (kappa / hyp)
    # (row, parity, n, pair): A for u- = (1, wfrac), u+ = (wbar, 1), each of
    # squared length 1 + |wfrac|^2
    ones = np.ones_like(modes.wfrac)
    mat = np.array((np.concatenate([ones, modes.wbar], 1) * (slope - value),
                    np.concatenate([modes.wfrac, ones], 1) * (slope + 1j * value)))
    length2 = 1.0 + np.abs(modes.wfrac[:, 0]) ** 2
    gram = ((modes.wbar[:, 0] + np.conj(modes.wfrac[:, 0])) / length2
            * (np.conj(alpha[..., 0]) * alpha[..., 1] + np.conj(beta[..., 0]) * beta[..., 1]))
    size = np.abs(mat).max(axis=(0, 3))
    with np.errstate(divide="ignore", invalid="ignore"):
        mat /= size[:, :, None]
        det = np.abs(mat[0, ..., 0] * mat[1, ..., 1] - mat[0, ..., 1] * mat[1, ..., 0])
        cross = (np.conj(mat[..., 0]) * mat[..., 1]).sum(0)
        b = np.square(np.abs(mat)).sum(axis=(0, 3)) - 2.0 * (cross * np.conj(gram)).real
        root = b + np.sqrt(np.maximum(b * b - 4.0 * (1.0 - np.abs(gram) ** 2) * det * det, 0.0))
        # nan, so 1, where root = 0: there the interior columns coincide
        sin_theta = np.fmin(size / np.sqrt(length2) * det * np.sqrt(2.0 / root), 1.0)
    sin_theta = np.where(size > 0.0, sin_theta, 0.0).min(0)
    return sin_theta / np.sqrt(1.0 + np.sqrt(1.0 - sin_theta ** 2))


def _parity_determinants(es: np.ndarray, params: PhysicalParams) -> np.ndarray:
    """det A of each parity block over factors without real zeros: (parity, n).

    In _folded_residual's notation, the block is singular where det A = 0,
    A = N^H C the 2x2 matrix of the two interior columns C (u- and u+)
    against the complement N of the exterior span.  This returns the Schur
    complement A00 - A01 A10 / A11 = det A / A11; A11 = u+'s row of
    (beta + i kappa alpha) has no zero below E = -|W|.  At W = 0 the
    complement is u-'s factor alone: det A is that times A11, whose modulus
    swings by a decade within a scan step wherever the u+ pair's phase
    passes a multiple of 2 pi, and there the secant on det A lost states.
    Rates are in units of sqrt(2 m) / hbar and the columns are not scaled,
    so no scale of hbar over- or underflows; scaled to unit size, the
    function turned steep where cos(g a / 2) = 0.  Factors without real
    zeros are taken out:
    - the u- column's phase exp(i Im(g) a / 2), so that at W = 0 the even
      block is real and the odd one imaginary;
    - the odd column's factor z, so it does not vanish at E = -V_max
      (there z- = 0 and the column is 0, or 0/0 at unit size);
    - 1 - wbar wfrac = 2 sigma / (E + sigma), the spurious zero at
      E = -|W| where the two interior pairs coincide.
    """
    modes = schrodinger_mode_arrays(es, -params.V, -params.W)
    z = np.array((modes.z_minus, modes.z_plus))
    za = math.sqrt(2.0 * params.m) * params.a / params.hbar     # g a = -za z
    em = np.expm1(z * -za)
    p, q = 2.0 + em, -em
    alpha, beta = np.array((p, q / z)), np.array((q * -z, -p))
    kalpha = np.sqrt(-es) * alpha
    x, y = beta - kalpha, beta + 1j * kalpha
    t = modes.wbar * modes.wfrac
    with np.errstate(divide="ignore", invalid="ignore"):
        schur = x[:, 0] - t * x[:, 1] * y[:, 0] / y[:, 1]
        return schur * (np.exp(0.5j * za * z[0].imag) / (1.0 - t))


def _secant_roots(es: np.ndarray, sv: np.ndarray, n: np.ndarray, xtol: float,
                  params: PhysicalParams) -> np.ndarray:
    """One secant search per parity block at each scan minimum es[k], k in n.

    A search starts from es[k] and the neighbour beyond which
    _parity_determinants changes sign, or else the lower-residual neighbour,
    and stays in [es[k-1], es[k+1]].  Each step is the real part of the
    complex secant step; see the module docstring for the bracket rule and
    the stop rules.  All live searches are evaluated in one call per step.
    Returns the last iterate of each search, even parities first: (2 len(n),).
    """
    m = n.size
    xs = es[n + np.array([[-1], [0], [1]])]
    lo, mid, hi = np.tile(xs, 2)
    f_lo, f_mid, f_hi = (_parity_determinants(xs.ravel(), params)
                         .reshape(2, 3, m).swapaxes(0, 1).reshape(3, 2 * m))
    pick = (np.repeat((0, 1), m), np.arange(2 * m))
    with np.errstate(all="ignore"):
        # a sign change: the values at least a right angle apart
        low, high = (f_lo * f_mid.conj()).real <= 0.0, (f_mid * f_hi.conj()).real <= 0.0
        left = np.where(low ^ high, low, np.tile(sv[n - 1] <= sv[n + 1], 2))
        x0, f0 = np.where(left, lo, hi), np.where(left, f_lo, f_hi)
        x1, f1 = mid, f_mid
        out, live = mid, np.ones(2 * m, dtype=bool)
        exits = np.zeros(2 * m, dtype=int)
        for _ in range(_MAX_STEPS):
            s = f1 * ((x1 - x0) / (f1 - f0))
            x2 = x1 - s.real
            inside = (lo <= x2) & (x2 <= hi)
            x2 = np.where(inside, x2, 0.5 * (x1 + np.where(x2 < lo, lo, hi)))
            exits = np.where(inside, 0, exits + 1)
            out = np.where(live, x2, out)
            live &= ((np.abs(x2 - x1) > xtol) & (exits < 2)
                     & (np.abs(s.imag) <= np.maximum(10.0 * np.abs(s.real), _OFF_AXIS * xtol)))
            if not live.any():
                break
            x0, f0, x1, f1 = x1, f1, x2, _parity_determinants(x2, params)[pick]
    return out


def find_bound_states(params: PhysicalParams, grid: int = 2000,
                      accept: float = 1e-8) -> BoundStateSet:
    """Scan E in (-sqrt(V^2+|W|^2), 0) for singular matching systems.

    Each local minimum of the residual is refined by _secant_roots, once per
    parity; energies whose residual (_certificate) is below `accept` are
    returned in ascending order.
    """
    if not (0.0 < params.V < math.inf and 0.0 < params.a < math.inf
            and cmath.isfinite(params.W) and grid >= 3):
        raise ValueError("well needs finite V > 0, a > 0 and W, and the scan grid >= 3")
    try:
        vmax = params.threshold
    except OverflowError:       # abs(W) is not a float
        vmax = math.inf
    # the modes take E^2 - |W|^2 for |E| up to V_max, and the interior rates
    # sqrt(2 m) z / hbar have |z|^2 <= 2 V_max
    if not vmax * vmax < math.inf:
        raise ValueError(f"well depth sqrt(V^2 + |W|^2) = {vmax:g}: its square overflows")
    if not 2.0 * params.a * math.sqrt(params.m * vmax) / params.hbar < math.inf:
        raise ValueError("well phase 2 a sqrt(m sqrt(V^2 + |W|^2)) / hbar overflows")
    margin = 1e-6 * vmax
    es = np.linspace(-vmax + margin, -margin, grid)
    sv = _folded_residual(es, params)
    # refine every local minimum; acceptance happens after refinement
    n = 1 + np.flatnonzero((sv[1:-1] <= sv[:-2]) & (sv[1:-1] <= sv[2:]))
    e_star = _secant_roots(es, sv, n, 1e-12 * max(1.0, vmax), params)
    res = _certificate(e_star, params)
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
