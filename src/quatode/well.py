"""Bound states of the rectangular well -V + jW on (0, a).

A bound state is an energy in (-sqrt(V^2 + |W|^2), 0) at which the
homogeneous 8x8 matching system of the four decaying exterior modes and the
four interior modes is singular.  find_bound_states scans the smallest
singular value of that system over a grid of energies, in stacked SVDs, and
refines all local minima together by golden section.  The scattering module
re-exports find_bound_states and BoundStateSet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scatter import PhysicalParams, Regime


@dataclass(frozen=True)
class BoundStateSet:
    energies: tuple[float, ...]
    residuals: tuple[float, ...]
    regimes: tuple[Regime, ...]
    params: PhysicalParams


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
