"""Bound states of the rectangular well -V + jW on (0, a).

A bound state is an energy in (-sqrt(V^2 + |W|^2), 0) at which the
homogeneous 8x8 matching system of the four decaying exterior modes and the
four interior modes is singular: scatter's barrier system at E < 0, without
its incident wave.  Its residual is the smallest singular value after an
orthonormal basis of the interior columns' span takes their place, so the
coinciding interior modes at E = -|W| give no state.  find_bound_states scans
that residual over a grid of energies in closed form, by the mirror symmetry
of the well (_folded_residual, elementwise numpy), and refines all local
minima together by Brent's method on the same function; one QR and SVD of
the unfolded systems (_certificate) then certifies each refined energy.  The
objective is the residual, so a Brent bracket narrower than 1e6 xtol closes
early when the residual at its best point exceeds 100 accept by a tenth of
the steepest secant of the residual times the bracket's width: near a root
the residual is ~ s |E - E*|, and the best point is by then much closer to
the root than that.  The scattering module re-exports find_bound_states and
BoundStateSet.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Generator
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


_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0    # golden-section fraction of a bracket
# A bracket narrower than 1e6 xtol closes early when the residual at x exceeds
# the floor by this fraction of the steepest secant of the residual times the
# width.  Near a root the residual is ~ s |E - E*|.  On 960 seeded wells (hbar,
# m from 0.1 to 3), with the smallest singular value as the objective, Brent's
# best point x was within 0.0033 widths of every accepted root at that width,
# and a floor with no secant term lost one root in about 320 wells; with the
# residual itself, every accepted bracket had its best point below the floor
# by then (2919 brackets on 240 seeded wells).
_ROOT_FRACTION = 0.1


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


def _brent_search(a: float, x: float, b: float, fa: float, fx: float, fb: float,
                  xtol: float, floor: float) -> Generator[float, float, float]:
    """One bracket's Brent search for a minimum of r^2, r the residual, on floats.

    Yields each trial energy and is sent r^2 there; returns the minimum,
    or stops early as _brent_minima describes, with floor = 100 accept.
    """
    w, v = (a, b) if fa <= fb else (b, a)
    fw, fv = (fa, fb) if fa <= fb else (fb, fa)
    d = e = b - a
    tol1 = 0.5 * xtol
    while True:
        xm = 0.5 * (a + b)
        if abs(x - xm) <= 2.0 * tol1 - 0.5 * (b - a):
            return x
        if b - a <= 1e6 * xtol:
            sx, sw, sv = math.sqrt(fx), math.sqrt(fw), math.sqrt(fv)
            slope = max(abs(sx - sw) / abs(x - w) if x != w else 0.0,
                        abs(sx - sv) / abs(x - v) if x != v else 0.0,
                        abs(sw - sv) / abs(w - v) if w != v else 0.0)
            if sx > floor + _ROOT_FRACTION * slope * (b - a):
                return x
        r, q = (x - w) * (fx - fv), (x - v) * (fx - fw)
        p, q = (x - v) * q - (x - w) * r, 2.0 * (q - r)
        if q > 0.0:
            p = -p
        q = abs(q)
        if abs(e) > tol1 and abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
            e, d = d, p / q
            if x + d - a < 2.0 * tol1 or b - x - d < 2.0 * tol1:
                d = math.copysign(tol1, xm - x)
        else:
            e = a - x if x >= xm else b - x
            d = _CGOLD * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        fu = yield u
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u >= x:
                b = u
            else:
                a = u
            if fu <= fw:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv:
                v, fv = u, fu


def _brent_minima(es: np.ndarray, sv: np.ndarray, n: np.ndarray, xtol: float,
                  accept: float, params: PhysicalParams) -> np.ndarray:
    """Brent minima of the residual r (_folded_residual), brackets in lock step.

    The scan triples es[n-1:n+2], sv[n-1:n+2] seed the brackets and first
    parabolas.  Parabolas fit r^2, which near a simple root is
    s^2 (E - E*)^2, so the vertex lands on the root.  Golden-section fallback
    and minimum step tol1 = xtol / 2 as in R. P. Brent, Algorithms for
    Minimization without Derivatives (1973), ch. 5.  A bracket closes when
    all of it is within xtol of its best point x.  It closes early when it is
    narrower than 1e6 xtol and r(x) > 100 accept + _ROOT_FRACTION s (b - a),
    with s the steepest secant of r through x, w and v: x is then never
    accepted, and by the secant no root lies within a tenth of the width of
    x.  Open brackets take the same steps as without the early closure.  Each
    bracket steps on Python floats; each lock step evaluates the trial points
    of all open brackets in one call.
    """
    f, e = (sv ** 2).tolist(), es.tolist()
    searches = [_brent_search(e[k - 1], e[k], e[k + 1], f[k - 1], f[k], f[k + 1],
                              xtol, 100.0 * accept) for k in n.tolist()]
    out = np.empty(len(searches))
    live, fus = range(len(searches)), [None] * len(searches)
    while live:
        still, us = [], []
        for i, fu in zip(live, fus):
            try:
                us.append(searches[i].send(fu))
                still.append(i)
            except StopIteration as stop:
                out[i] = stop.value
        live = still
        if us:
            fus = (_folded_residual(np.array(us), params) ** 2).tolist()
    return out


def find_bound_states(params: PhysicalParams, grid: int = 2000,
                      accept: float = 1e-8) -> BoundStateSet:
    """Scan E in (-sqrt(V^2+|W|^2), 0) for singular matching systems.

    Local minima of the residual are refined by Brent's method; energies
    whose residual (_certificate) is below `accept` are returned in
    ascending order.
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
    e_star = _brent_minima(es, sv, n, 1e-12 * max(1.0, vmax), accept, params)
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
