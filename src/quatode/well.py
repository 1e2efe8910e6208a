"""Bound states of the rectangular well -V + jW on (0, a).

A bound state is an energy in (-sqrt(V^2 + |W|^2), 0) at which the
homogeneous 8x8 matching system of the four decaying exterior modes and the
four interior modes is singular: scatter's barrier system at E < 0, without
its incident wave.  find_bound_states scans the smallest singular value of
that system over a grid of energies, in stacked SVDs, and refines all local
minima together by golden section.  The scattering module re-exports
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
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


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
    if params.V <= 0.0 or params.a <= 0.0 or grid < 3:
        raise ValueError("well needs V > 0 and a > 0, and the scan grid >= 3")
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
