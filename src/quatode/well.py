"""Bound states of the rectangular well -V + jW on (0, a).

A bound state is an energy in (-sqrt(V^2 + |W|^2), 0) at which the
homogeneous 8x8 matching system of the four decaying exterior modes and the
four interior modes is singular: scatter's barrier system at E < 0, without
its incident wave.  find_bound_states scans the smallest singular value of
that system over a grid of energies, in stacked SVDs, and refines all local
minima together by Brent's method; the acceptance residual takes an
orthonormal basis of the interior columns.  The scattering module re-exports
find_bound_states and BoundStateSet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scatter import PhysicalParams, Regime, _matching


@dataclass(frozen=True)
class BoundStateSet:
    energies: tuple[float, ...]
    residuals: tuple[float, ...]
    regimes: tuple[Regime, ...]
    params: PhysicalParams


_SCAN_BLOCK = 64    # energies per stacked SVD; bounds the scan's working memory
_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0    # golden-section fraction of a bracket


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


def _smallest_singular_values(es: np.ndarray, params: PhysicalParams,
                              span_interior: bool = False) -> np.ndarray:
    """Smallest singular value of each energy's matching system.

    span_interior puts an orthonormal basis of the interior columns' span in
    their place: a state stays singular, but sigma no longer falls like
    sqrt|E + |W|| at E = -|W|, where those columns turn parallel.
    """
    out = np.empty(len(es))
    for lo in range(0, len(es), _SCAN_BLOCK):
        block = _bound_matrices(es[lo:lo + _SCAN_BLOCK], params)
        if span_interior:
            block[:, :, 2:6] = np.linalg.qr(block[:, :, 2:6])[0]
        out[lo:lo + _SCAN_BLOCK] = np.linalg.svd(block, compute_uv=False)[:, -1]
    return out


def _brent_minima(es: np.ndarray, sv: np.ndarray, n: np.ndarray, xtol: float,
                  params: PhysicalParams) -> np.ndarray:
    """Brent minima of the smallest singular value, all brackets at once.

    The scan triples es[n-1:n+2], sv[n-1:n+2] seed the brackets and first
    parabolas.  Parabolas fit sigma^2, which near a simple root is
    s^2 (E - E*)^2, so the vertex lands on the root.  Golden-section fallback
    and minimum step tol1 = xtol / 2 as in R. P. Brent, Algorithms for
    Minimization without Derivatives (1973), ch. 5.  A bracket closes when
    all of it is within xtol of its best point; each step evaluates the
    trial points of all open brackets in one call.
    """
    a, x, b = es[n - 1], es[n], es[n + 1]
    fa, fx, fb = sv[n - 1] ** 2, sv[n] ** 2, sv[n + 1] ** 2
    w, v = np.where(fa <= fb, a, b), np.where(fa <= fb, b, a)
    fw, fv = np.minimum(fa, fb), np.maximum(fa, fb)
    d = e = b - a
    tol1 = 0.5 * xtol
    out, idx = np.empty_like(x), np.arange(x.size)
    while True:
        done = np.abs(x - 0.5 * (a + b)) <= 2.0 * tol1 - 0.5 * (b - a)
        out[idx[done]] = x[done]
        if done.all():
            return out
        idx, a, b, x, w, v, fx, fw, fv, d, e = (
            s[~done] for s in (idx, a, b, x, w, v, fx, fw, fv, d, e))
        xm = 0.5 * (a + b)
        r, q = (x - w) * (fx - fv), (x - v) * (fx - fw)
        p, q = (x - v) * q - (x - w) * r, 2.0 * (q - r)
        p, q = np.where(q > 0.0, -p, p), np.abs(q)
        parabolic = ((np.abs(e) > tol1) & (np.abs(p) < np.abs(0.5 * q * e))
                     & (p > q * (a - x)) & (p < q * (b - x)))
        e = np.where(parabolic, d, np.where(x >= xm, a - x, b - x))
        with np.errstate(divide="ignore", invalid="ignore"):
            d = np.where(parabolic, p / q, _CGOLD * e)
        edge = parabolic & ((x + d - a < 2.0 * tol1) | (b - x - d < 2.0 * tol1))
        d = np.where(edge, np.copysign(tol1, xm - x), d)
        u = x + np.where(np.abs(d) >= tol1, d, np.copysign(tol1, d))
        fu = _smallest_singular_values(u, params) ** 2
        better, right = fu <= fx, u >= x
        a = np.where(better & right, x, np.where(~better & ~right, u, a))
        b = np.where(better & ~right, x, np.where(~better & right, u, b))
        to_w = ~better & (fu <= fw)
        to_v = ~better & ~to_w & (fu <= fv)
        v, fv = (np.where(better | to_w, w, np.where(to_v, u, v)),
                 np.where(better | to_w, fw, np.where(to_v, fu, fv)))
        w, fw = (np.where(better, x, np.where(to_w, u, w)),
                 np.where(better, fx, np.where(to_w, fu, fw)))
        x, fx = np.where(better, u, x), np.where(better, fu, fx)


def find_bound_states(params: PhysicalParams, grid: int = 2000,
                      accept: float = 1e-8) -> BoundStateSet:
    """Scan E in (-sqrt(V^2+|W|^2), 0) for singular matching systems.

    Local minima of the smallest singular value are refined by Brent's
    method; energies whose residual (span_interior in _smallest_singular_values)
    is below `accept` are returned in ascending order.
    """
    if params.V <= 0.0 or params.a <= 0.0 or grid < 3:
        raise ValueError("well needs V > 0 and a > 0, and the scan grid >= 3")
    vmax = params.threshold
    margin = 1e-6 * vmax
    es = np.linspace(-vmax + margin, -margin, grid)
    sv = _smallest_singular_values(es, params)
    # refine every local minimum; acceptance happens after refinement
    n = 1 + np.flatnonzero((sv[1:-1] <= sv[:-2]) & (sv[1:-1] <= sv[2:]))
    e_star = _brent_minima(es, sv, n, 1e-12 * max(1.0, vmax), params)
    res = _smallest_singular_values(e_star, params, span_interior=True)
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
