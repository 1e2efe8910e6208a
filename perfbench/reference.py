"""Reference computations that share no code path with the quatode solvers.

Quaternions are plain (w, x, y, z) tuples, the W = 0 scattering amplitudes
and well energies come from textbook formulas and bisection, W != 0
scattering and wells are matched region by region through the symplectic
split psi = z1 + j z2, and IVPs are propagated with a Taylor matrix
exponential of the 8x8 real first-order system.  Nothing here imports
quatode.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

# -- quaternions as tuples ---------------------------------------------------

Q1 = (1.0, 0.0, 0.0, 0.0)
QI = (0.0, 1.0, 0.0, 0.0)
QJ = (0.0, 0.0, 1.0, 0.0)
QK = (0.0, 0.0, 0.0, 1.0)


def qmul(a, b):
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw)


def qadd(*qs):
    return tuple(sum(parts) for parts in zip(*qs))


def qsub(a, b):
    return tuple(u - v for u, v in zip(a, b))


def qconj(a):
    return (a[0], -a[1], -a[2], -a[3])


def qnorm(a):
    return math.sqrt(sum(u * u for u in a))


def from_pair(z1: complex, z2: complex):
    """The quaternion z1 + j z2 (j z2 = y + z k with z2 = y - i z)."""
    return (z1.real, z1.imag, z2.real, -z2.imag)


def quadratic_residual(q, a, b) -> float:
    """|q^2 + a q + b| with left coefficients a, b."""
    return qnorm(qadd(qmul(q, q), qmul(a, q), b))


def left_matrix(q) -> np.ndarray:
    """4x4 real matrix of p -> q p, built column by column from qmul."""
    return np.array([qmul(q, e) for e in (Q1, QI, QJ, QK)]).T


def right_i_matrix() -> np.ndarray:
    """4x4 real matrix of p -> p i."""
    return np.array([qmul(e, QI) for e in (Q1, QI, QJ, QK)]).T


def system_matrix(a_left, a_right_i, b_left, b_right_i) -> np.ndarray:
    """K of y' = K y for phi'' + (A1 + B1 R_i) phi' + (A0 + B0 R_i) phi = 0."""
    ri = right_i_matrix()
    op_a = left_matrix(a_left) + left_matrix(a_right_i) @ ri
    op_b = left_matrix(b_left) + left_matrix(b_right_i) @ ri
    k = np.zeros((8, 8))
    k[:4, 4:] = np.eye(4)
    k[4:, :4] = -op_b
    k[4:, 4:] = -op_a
    return k


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of one matrix or a stack: scaling, Taylor, squaring."""
    norm = float(np.abs(a).sum(axis=-2).max())
    squarings = max(0, int(math.ceil(math.log2(norm / 0.25)))) if norm > 0.25 else 0
    b = a / (2.0 ** squarings)
    term = np.broadcast_to(np.eye(a.shape[-1]), a.shape).astype(a.dtype)
    total = term.copy()
    for n in range(1, 24):
        term = term @ b / n
        total = total + term
    for _ in range(squarings):
        total = total @ total
    return total


def rk4_step_matrix(k: np.ndarray, h: float) -> np.ndarray:
    """One classical RK4 step on y' = K y is the matrix polynomial P(hK)."""
    a = h * k
    a2 = a @ a
    a3 = a2 @ a
    return np.eye(k.shape[0]) + a + a2 / 2.0 + a3 / 6.0 + a2 @ a2 / 24.0


def rk4_endpoint(k: np.ndarray, y0: np.ndarray, x: float, steps: int) -> np.ndarray:
    """State after `steps` RK4 steps from 0 to x: P(hK)^steps y0."""
    return np.linalg.matrix_power(rk4_step_matrix(k, x / steps), steps) @ y0


# -- W = 0 textbook scattering ----------------------------------------------


def textbook_step(E: float, V: float):
    """(r, T) of the complex step for incident exp(i k x), hbar = m = 1."""
    k = math.sqrt(2.0 * E)
    if E > V:
        q = math.sqrt(2.0 * (E - V))
        return (k - q) / (k + q), 4.0 * k * q / (k + q) ** 2
    kap = math.sqrt(2.0 * (V - E))
    return (k - 1j * kap) / (k + 1j * kap), 0.0


def textbook_barrier_T(E: float, V: float, a: float) -> float:
    if E > V:
        q = math.sqrt(2.0 * (E - V))
        return 1.0 / (1.0 + V * V * math.sin(q * a) ** 2 / (4.0 * E * (E - V)))
    kap = math.sqrt(2.0 * (V - E))
    return 1.0 / (1.0 + V * V * math.sinh(kap * a) ** 2 / (4.0 * E * (V - E)))


# -- symplectic split: psi = z1 + j z2 -----------------------------------------
#
# With hbar = m = 1 the stationary equation on a region of constant potential
# V - jW becomes (z1, z2)'' = 2 M (z1, z2) with M = [[V - E, conj W], [-W, V + E]],
# so each region is a 2x2 complex linear system with modes v exp(g x), g^2 = 2 lam.


def region_modes(E: float, V: float, W: complex):
    """[(v, g)] for the four modes of one region, from numpy's 2x2 eig."""
    m = np.array([[V - E, np.conj(W)], [-W, V + E]], dtype=complex)
    lams, vecs = np.linalg.eig(2.0 * m)
    out = []
    for n in range(2):
        g = cmath.sqrt(complex(lams[n]))
        v = vecs[:, n]
        out.append((v, g))
        out.append((v, -g))
    return out


def column(v, g: complex, x: float) -> np.ndarray:
    """(z1, z2, z1', z2') of v exp(g x)."""
    e = cmath.exp(g * x)
    return np.array([v[0] * e, v[1] * e, g * v[0] * e, g * v[1] * e])


_E1 = np.array([1.0, 0.0], dtype=complex)
_E2 = np.array([0.0, 1.0], dtype=complex)


def current(z1: complex, z2: complex, d1: complex, d2: complex) -> float:
    """Scalar part of (1/2)[(psi')~ i psi - psi~ i psi'] in tuple arithmetic."""
    psi, dpsi = from_pair(z1, z2), from_pair(d1, d2)
    bracket = qsub(qmul(qmul(qconj(dpsi), QI), psi),
                   qmul(qmul(qconj(psi), QI), dpsi))
    return 0.5 * bracket[0]


def _mode_current(v, g: complex) -> float:
    c = column(v, g, 0.0)
    return current(c[0], c[1], c[2], c[3])


def _gauge(v, lam_minus: bool):
    """Scale a mode vector to unit z1 (minus mode) or unit z2 (plus mode)."""
    return v / (v[0] if lam_minus else v[1])


def _transmitted_pair(E: float, V: float, W: complex):
    """The two x > 0 modes of a step: decaying, or propagating to the right.

    Returned in the order (minus-branch mode, plus-branch mode), each in the
    gauge with unit z1 (minus) or unit z2 (plus), lam = V -+ sqrt(E^2 - |W|^2).
    """
    sigma = cmath.sqrt(complex(E * E - abs(W) ** 2))
    picked = []
    for minus, target in ((True, V - sigma), (False, V + sigma)):
        cands = [(v, g) for v, g in region_modes(E, V, W)
                 if abs(g * g / 2.0 - target) <= 1e-9 * (1.0 + abs(target))]
        prop = [(v, g) for v, g in cands if abs(g.real) <= 1e-12 * (1.0 + abs(g))]
        if prop:
            v, g = max(prop, key=lambda vg: _mode_current(*vg))
        else:
            v, g = min(cands, key=lambda vg: vg[1].real)
        picked.append((_gauge(v, minus), g))
    return picked


def split_step(E: float, V: float, W: complex):
    """(r, r~, t, t~, T) of the step on x > 0 from the symplectic split."""
    k = math.sqrt(2.0 * E)
    (vm, gm), (vp, gp) = _transmitted_pair(E, V, W)
    cols = [column(_E1, -1j * k, 0.0), column(_E2, k, 0.0),
            -column(vm, gm, 0.0), -column(vp, gp, 0.0)]
    r, rt, t, tt = np.linalg.solve(np.column_stack(cols), -column(_E1, 1j * k, 0.0))
    psi = t * column(vm, gm, 0.0) + tt * column(vp, gp, 0.0)
    return complex(r), complex(rt), complex(t), complex(tt), current(*psi) / k


def split_barrier(E: float, V: float, W: complex, a: float):
    """(r, r~, t, t~) of the barrier on (0, a) from the symplectic split."""
    k = math.sqrt(2.0 * E)
    mat = np.zeros((8, 8), dtype=complex)
    mat[:4, 0] = column(_E1, -1j * k, 0.0)
    mat[:4, 1] = column(_E2, k, 0.0)
    for n, (v, g) in enumerate(region_modes(E, V, W)):
        mat[:4, 2 + n] = -column(v, g, 0.0)
        mat[4:, 2 + n] = column(v, g, a)
    mat[4:, 6] = -column(_E1, 1j * k, a)
    mat[4:, 7] = -column(_E2, -k, a)
    rhs = np.zeros(8, dtype=complex)
    rhs[:4] = -column(_E1, 1j * k, 0.0)
    sol = np.linalg.solve(mat, rhs)
    return complex(sol[0]), complex(sol[1]), complex(sol[6]), complex(sol[7])


# -- wells -------------------------------------------------------------------


def well_energies_w0(V: float, a: float) -> list[float]:
    """Energies of the W = 0 well of depth V on (0, a) by bisection.

    With t = k a / 2 and t0 = a sqrt(2V) / 2 the even states solve
    t sin t = sqrt(t0^2 - t^2) cos t and the odd states
    t cos t = -sqrt(t0^2 - t^2) sin t; both forms are free of poles.
    """
    t0 = a * math.sqrt(2.0 * V) / 2.0

    def even(t):
        return t * math.sin(t) - math.sqrt(max(t0 * t0 - t * t, 0.0)) * math.cos(t)

    def odd(t):
        return t * math.cos(t) + math.sqrt(max(t0 * t0 - t * t, 0.0)) * math.sin(t)

    roots = []
    grid = np.linspace(1e-12 * t0, t0 * (1.0 - 1e-15), 4001)
    for f in (even, odd):
        vals = [f(float(t)) for t in grid]
        for n in range(len(grid) - 1):
            if vals[n] == 0.0 or vals[n] * vals[n + 1] < 0.0:
                lo, hi, flo = float(grid[n]), float(grid[n + 1]), vals[n]
                for _ in range(200):
                    mid = 0.5 * (lo + hi)
                    fm = f(mid)
                    if flo * fm <= 0.0:
                        hi = mid
                    else:
                        lo, flo = mid, fm
                t = 0.5 * (lo + hi)
                roots.append((2.0 * t / a) ** 2 / 2.0 - V)
    return sorted(roots)


def _well_columns(E, V: float, W: complex, a: float) -> np.ndarray:
    """Column-normalized (N, 4, 4) matching systems of the well -V + jW.

    The well is crossed with the transfer matrix expm(a [[0, I], [2 M, 0]])
    of the symplectic system, so no mode basis is involved.  Outside, the
    1-channel decays and the j-channel is the outgoing wave:
    exp(kap x) and j exp(-i kap x) on the left, exp(-kap x) and
    j exp(i kap x) on the right, kap = sqrt(-2E) (principal branch).
    """
    E = np.atleast_1d(np.asarray(E, dtype=complex))
    n = E.size
    gen = np.zeros((n, 4, 4), dtype=complex)
    gen[:, 0, 2] = gen[:, 1, 3] = 1.0
    gen[:, 2, 0] = 2.0 * (-V - E)
    gen[:, 2, 1] = -2.0 * np.conj(W)
    gen[:, 3, 0] = 2.0 * W
    gen[:, 3, 1] = 2.0 * (-V + E)
    trans = expm(a * gen)
    kap = np.sqrt(-2.0 * E)
    zero, one = np.zeros(n), np.ones(n)
    left1 = np.stack([one, zero, kap, zero], axis=-1)
    left2 = np.stack([zero, one, zero, -1j * kap], axis=-1)
    right1 = np.stack([one, zero, -kap, zero], axis=-1)
    right2 = np.stack([zero, one, zero, 1j * kap], axis=-1)
    mat = np.stack([np.einsum("nij,nj->ni", trans, left1),
                    np.einsum("nij,nj->ni", trans, left2),
                    -right1, -right2], axis=-1)
    return mat / np.linalg.norm(mat, axis=1, keepdims=True)


def well_singular(energies, V: float, W: complex, a: float) -> np.ndarray:
    """Smallest singular value of the well matching system at each energy."""
    return np.linalg.svd(_well_columns(energies, V, W, a), compute_uv=False)[:, -1]


def well_root_distance(E: float, V: float, W: complex, a: float) -> float:
    """|det / det'| at E: the Newton estimate of the distance to a root."""
    h = 1e-6 * max(1.0, abs(E))
    d = np.linalg.det(_well_columns([E - h, E, E + h], V, W, a))
    return float(abs(d[1]) / abs((d[2] - d[0]) / (2.0 * h)))


def well_scan_minimum(V: float, W: complex, a: float, grid: int = 1500) -> float:
    """Least smallest-singular-value over (-sqrt(V^2+|W|^2), 0).

    A stacked scan, then a ternary refinement around every local minimum.
    """
    vmax = math.hypot(V, abs(W))
    es = np.linspace(-vmax * (1.0 - 1e-6), -vmax * 1e-6, grid)
    sv = well_singular(es, V, W, a)
    best = float(sv.min())
    for n in range(1, grid - 1):
        if sv[n] <= sv[n - 1] and sv[n] <= sv[n + 1]:
            lo, hi = float(es[n - 1]), float(es[n + 1])
            for _ in range(60):
                m1, m2 = lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0
                f1, f2 = well_singular([m1, m2], V, W, a)
                if f1 <= f2:
                    hi = m2
                else:
                    lo = m1
            best = min(best, float(well_singular([0.5 * (lo + hi)], V, W, a)[0]))
    return best
