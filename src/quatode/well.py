"""Bound states of the rectangular well -V + jW on (0, a).

A bound state is an energy in (-sqrt(V^2 + |W|^2), 0) at which the
homogeneous 8x8 matching system of the four decaying exterior modes and the
four interior modes is singular: scatter's barrier system at E < 0, without
its incident wave.  find_bound_states scans the smallest singular value of
that system over a grid of energies, in stacked SVDs, and refines all local
minima together by Brent's method; the acceptance residual takes an
orthonormal basis of the interior columns.  That basis is B R^-1 for the
interior columns B, and |R| = |B| <= |B|_F = 2 for four unit columns, so the
residual is at least sigma / 2: an energy with sigma > 2 accept is never
accepted.  A Brent bracket narrower than 1e6 xtol therefore closes early when
sigma at its best point exceeds 100 accept by a tenth of the steepest secant
of sigma times the bracket's width; near a root sigma ~ s |E - E*|, and the
best point is by then much closer to the root than that.  The scattering
module re-exports find_bound_states and BoundStateSet.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Generator
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
# A bracket narrower than 1e6 xtol closes early when sigma(x) exceeds the floor
# by this fraction of the steepest secant of sigma times the width.  Near a
# root sigma ~ s |E - E*|; at that width Brent's best point x was within
# 0.0033 widths of every accepted root on 960 seeded wells (hbar, m from 0.1
# to 3), and a floor with no secant term lost one root in about 320 wells.
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


def _brent_search(a: float, x: float, b: float, fa: float, fx: float, fb: float,
                  xtol: float, floor: float) -> Generator[float, float, float]:
    """One bracket's Brent search for a minimum of sigma^2, on Python floats.

    Yields each trial energy and is sent sigma^2 there; returns the minimum,
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
    """Brent minima of the smallest singular value, all brackets in lock step.

    The scan triples es[n-1:n+2], sv[n-1:n+2] seed the brackets and first
    parabolas.  Parabolas fit sigma^2, which near a simple root is
    s^2 (E - E*)^2, so the vertex lands on the root.  Golden-section fallback
    and minimum step tol1 = xtol / 2 as in R. P. Brent, Algorithms for
    Minimization without Derivatives (1973), ch. 5.  A bracket closes when
    all of it is within xtol of its best point x.  It closes early when it is
    narrower than 1e6 xtol and sigma(x) > 100 accept + _ROOT_FRACTION s (b - a),
    with s the steepest secant of sigma through x, w and v.  The acceptance
    residual at x, at least sigma(x) / 2, is then above 50 accept, and by the
    secant no root lies within a tenth of the width of x.  Open brackets take
    the same steps as without the early closure.  Each bracket steps on
    Python floats; each lock step evaluates the trial points of all open
    brackets in one call.
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
            fus = (_smallest_singular_values(np.array(us), params) ** 2).tolist()
    return out


def find_bound_states(params: PhysicalParams, grid: int = 2000,
                      accept: float = 1e-8) -> BoundStateSet:
    """Scan E in (-sqrt(V^2+|W|^2), 0) for singular matching systems.

    Local minima of the smallest singular value are refined by Brent's
    method; energies whose residual (span_interior in _smallest_singular_values)
    is below `accept` are returned in ascending order.
    """
    if not (0.0 < params.V < math.inf and 0.0 < params.a < math.inf
            and cmath.isfinite(params.W) and grid >= 3):
        raise ValueError("well needs finite V > 0, a > 0 and W, and the scan grid >= 3")
    vmax = params.threshold
    margin = 1e-6 * vmax
    es = np.linspace(-vmax + margin, -margin, grid)
    sv = _smallest_singular_values(es, params)
    # refine every local minimum; acceptance happens after refinement
    n = 1 + np.flatnonzero((sv[1:-1] <= sv[:-2]) & (sv[1:-1] <= sv[2:]))
    e_star = _brent_minima(es, sv, n, 1e-12 * max(1.0, vmax), accept, params)
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
