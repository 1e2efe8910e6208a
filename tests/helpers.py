"""Independent mini-oracles for the test suite.

The oracles are deliberately hand-rolled (tuple arithmetic, series
summation, bisection) so expected values never flow through the code paths
under test.  The last section holds identities and residuals written with
quatode's Quaternion arithmetic, but not with the solvers they check.
"""

from __future__ import annotations

import cmath
import math
import sys

import numpy as np

from quatode.clode import SchrodingerModes
from quatode.quadsolve import QuadraticCoeffs
from quatode.qmat2 import Matrix2H, _outer_sum
from quatode.quatcore import Quaternion, RightLinearScalarOp
from quatode.scatter import PhysicalParams, current_kernel
from quatode.well import _smallest_singular_values

# quaternions as plain (w, x, y, z) tuples --------------------------------

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


def qadd(a, b):
    return tuple(u + v for u, v in zip(a, b))


def qscale(s, a):
    return tuple(s * u for u in a)


def qconj(a):
    return (a[0], -a[1], -a[2], -a[3])


def qnorm(a):
    return math.sqrt(sum(u * u for u in a))


def qexp_series(a, terms=80):
    """exp by plain power-series summation."""
    total = (1.0, 0.0, 0.0, 0.0)
    term = (1.0, 0.0, 0.0, 0.0)
    for n in range(1, terms):
        term = qscale(1.0 / n, qmul(term, a))
        total = qadd(total, term)
    return total


def as_tuple(q):
    return (q.w, q.x, q.y, q.z)


def qdist(q, t):
    """Distance between a package Quaternion and a plain tuple."""
    return qnorm(tuple(u - v for u, v in zip(as_tuple(q), t)))


def rand_quaternion(rng, scale=1.0):
    from quatode.quatcore import Quaternion
    return Quaternion(*(scale * rng.standard_normal(4)))


# independent textbook scattering formulas --------------------------------


def step_reflection(E, V, m=1.0, hbar=1.0):
    """Reflection coefficient of the complex step, E > V > 0."""
    p = math.sqrt(2.0 * m * E)
    pp = math.sqrt(2.0 * m * (E - V))
    return ((p - pp) / (p + pp)) ** 2


def barrier_transmission(E, V, a, m=1.0, hbar=1.0):
    """Transmission through the complex rectangular barrier."""
    if E < V:
        kap = math.sqrt(2.0 * m * (V - E)) / hbar
        return 1.0 / (1.0 + V * V * math.sinh(kap * a) ** 2 / (4.0 * E * (V - E)))
    if E > V:
        k2 = math.sqrt(2.0 * m * (E - V)) / hbar
        return 1.0 / (1.0 + V * V * math.sin(k2 * a) ** 2 / (4.0 * E * (E - V)))
    return 1.0 / (1.0 + m * E * a * a / (2.0 * hbar * hbar))


def well_bound_energies(V, a, m=1.0, hbar=1.0):
    """Finite-well energies by bisection on the even/odd matching conditions."""

    def even(E):
        el = math.sqrt(2.0 * m * (V - abs(E))) / hbar
        k = math.sqrt(2.0 * m * abs(E)) / hbar
        return el * math.tan(el * a / 2.0) - k

    def odd(E):
        el = math.sqrt(2.0 * m * (V - abs(E))) / hbar
        k = math.sqrt(2.0 * m * abs(E)) / hbar
        t = math.tan(el * a / 2.0)
        if t == 0.0:
            return math.inf
        return -el / t - k

    roots = []
    for f in (even, odd):
        grid = np.linspace(-V * (1.0 - 1e-12), -V * 1e-12, 40001)
        vals = []
        for e in grid:
            try:
                vals.append(f(float(e)))
            except ValueError:
                vals.append(math.nan)
        for n in range(len(grid) - 1):
            v0, v1 = vals[n], vals[n + 1]
            if not (math.isfinite(v0) and math.isfinite(v1)) or v0 * v1 > 0:
                continue
            lo, hi, flo = float(grid[n]), float(grid[n + 1]), v0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                fm = f(mid)
                if flo * fm <= 0:
                    hi = mid
                else:
                    lo, flo = mid, fm
            mid = 0.5 * (lo + hi)
            # discard tan-pole sign flips
            if abs(f(mid)) < 1e-4 * (1.0 + 2.0 * m * V / hbar ** 2):
                roots.append(mid)
    return sorted(roots)


def rk4_stage_loop(rhs, y0, x0, x1, steps):
    """Classical RK4, one step of four stages at a time: (steps + 1, 8)."""
    h = (x1 - x0) / steps
    y = np.asarray(y0, dtype=float)
    out = [y]
    for n in range(steps):
        x = x0 + n * h
        k1 = rhs(x, y)
        k2 = rhs(x + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(x + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(x + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(y)
    return np.array(out)


def scattering_row(kind, E, V, W, a=0.0, hbar=1.0, m=1.0):
    """(r, r~, t, t~, R, T) of one step or barrier row, matched on its own.

    The per-row reference for scatter.solve_rows: every matching column is
    built with cmath from the modes u- = 1 + j W/(E + sigma) and
    u+ = conj(W)/(E + sigma) + j with sigma = sqrt(E^2 - |W|^2), and the 4x4
    or 8x8 system is solved alone.  No boundary nudge: keep rows off
    E = |W| and E = sqrt(V^2 + |W|^2).
    """
    W = complex(W)
    sigma = cmath.sqrt(E * E - abs(W) ** 2)
    wf, wb = W / (E + sigma), W.conjugate() / (E + sigma)
    s = math.sqrt(2.0 * m) / hbar
    gm, gp = s * cmath.sqrt(V - sigma), s * cmath.sqrt(V + sigma)
    k = math.sqrt(2.0 * m * E) / hbar
    above = E > math.hypot(V, abs(W))

    def col(u1, u2, g, x, sign=1.0):
        e = cmath.exp(g * x)
        return [sign * u1 * e, sign * u2 * e, sign * g * u1 * e, sign * g * u2 * e]

    if kind == "step":
        mat = np.array([col(1, 0, -1j * k, 0), col(0, 1, k, 0),
                        col(1, wf, gm if above else -gm, 0, -1),
                        col(wb, 1, -gp, 0, -1)]).T
        rhs = np.array(col(1, 0, 1j * k, 0, -1))
    else:
        mat = np.zeros((8, 8), dtype=complex)
        mat[:4, 0], mat[:4, 1] = col(1, 0, -1j * k, 0), col(0, 1, k, 0)
        for n, (u1, u2, g) in enumerate(((1, wf, gm), (1, wf, -gm),
                                         (wb, 1, gp), (wb, 1, -gp))):
            mat[:4, 2 + n], mat[4:, 2 + n] = col(u1, u2, g, 0, -1), col(u1, u2, g, a)
        mat[4:, 6], mat[4:, 7] = col(1, 0, 1j * k, a, -1), col(0, 1, -k, a, -1)
        rhs = np.zeros(8, dtype=complex)
        rhs[:4] = col(1, 0, 1j * k, 0, -1)
    sol = np.linalg.solve(mat, rhs)
    r, rt, t, tt = sol[0], sol[1], sol[-2], sol[-1]
    if kind == "barrier":
        big_t = abs(t) ** 2
    elif above:
        big_t = math.sqrt((sigma.real - V) / E) * (1.0 - abs(wf) ** 2) * abs(t) ** 2
    else:
        big_t = 0.0
    return r, rt, t, tt, abs(r) ** 2, big_t


def seeded_rows(rng, kind, count):
    """(E, V, W, a) in all three regimes and with W zero, real, imaginary and
    complex; every E keeps 1 % away from |W| and from sqrt(V^2 + |W|^2)."""
    rows = []
    for n in range(count):
        regime, phase = n % 3, (n // 3) % 4
        wabs = 0.0 if phase == 0 else rng.uniform(0.3, 2.5)
        W = wabs * [1.0, rng.choice((1.0, -1.0)), rng.choice((1j, -1j)),
                    cmath.exp(1j * rng.uniform(0.3, 1.2))][phase]
        V = rng.uniform(0.5, 4.0)
        # an Evanescent row needs room between |W| and the threshold
        while regime == 1 and 1.02 * wabs + 0.05 >= 0.98 * math.hypot(V, wabs):
            V = rng.uniform(0.5, 4.0)
        thr = math.hypot(V, wabs)
        if regime == 0 or (regime == 2 and wabs == 0.0):
            E = thr * rng.uniform(1.05, 3.0)
        elif regime == 1:
            E = rng.uniform(1.02 * wabs + 0.05, 0.98 * thr)
        else:
            E = wabs * rng.uniform(0.05, 0.97)
        rows.append((E, V, W, rng.uniform(0.2, 3.0) if kind == "barrier" else 0.0))
    return rows


def well_matrix(E, V, W, a, hbar=1.0, m=1.0):
    """The 8x8 matching system of the well -V + jW on (0, a) at one E < 0.

    The per-energy reference for well._bound_matrices, built with cmath.
    Columns, each scaled to unit norm: (1, 0) exp(kappa x) and
    j exp(-i kappa x) decaying to the left; the interior modes
    u exp(+-g x), where u spans the null space of the singular coupling
    [[p, q], [r, s]] of z^2 = v -+ sqrt(E^2 - |w|^2) (v = -V, w = -W) and is
    (-q, p) or (s, -r), whichever is longer; (1, 0) exp(-kappa x) and
    j exp(i kappa x) decaying to the right.  Rows hold value and slope in
    symplectic coordinates at 0, then at a.
    """
    v, w = -V, -complex(W)
    kappa = math.sqrt(2.0 * m * abs(E)) / hbar
    sigma = cmath.sqrt(E * E - abs(w) ** 2)
    scale = math.sqrt(2.0 * m) / hbar

    def col(u1, u2, g, at0, ata):
        head = [at0 * u1, at0 * u2, at0 * g * u1, at0 * g * u2]
        e = ata * cmath.exp(g * a)
        return head + [e * u1, e * u2, e * g * u1, e * g * u2]

    cols = [col(1, 0, kappa, 1, 0), col(0, 1, -1j * kappa, 1, 0)]
    for z2 in (v - sigma, v + sigma):
        p, q, r, s = z2 - (v - E), -w.conjugate(), w, z2 - (v + E)
        u = (-q, p) if abs(p) >= abs(s) else (s, -r)
        g = scale * cmath.sqrt(z2)
        cols += [col(*u, g, -1, 1), col(*u, -g, -1, 1)]
    cols += [col(1, 0, -kappa, 0, -1), col(0, 1, 1j * kappa, 0, -1)]
    mat = np.array(cols, dtype=complex).T
    return mat / np.linalg.norm(mat, axis=0)


# identities and residuals on quatode's Quaternion arithmetic ----------------
#
# These check the solvers through defining equations (the characteristic
# quartic, the mode equation, Schur factorizations).


def wronskian_all_forms(phi1, phi2, dphi1, dphi2) -> list[float]:
    """All four factorizations; they agree whenever every entry is invertible."""
    return [
        phi1.norm() * (dphi2 - dphi1 * phi1.inverse() * phi2).norm(),
        phi2.norm() * (dphi1 - dphi2 * phi2.inverse() * phi1).norm(),
        dphi1.norm() * (phi2 - phi1 * dphi1.inverse() * dphi2).norm(),
        dphi2.norm() * (phi1 - phi2 * dphi2.inverse() * dphi1).norm(),
    ]


def repeated_root_cancellation(a: Quaternion, b: Quaternion) -> float:
    """Norm of 2q + a + [b, h.a/|a|^2] at the repeated characteristic root.

    This combination is what multiplies exp(q x) when the affine-prefactor
    solution is substituted into the equation; it must vanish identically.
    """
    a_vec = a.vector()
    an2 = float(a_vec @ a_vec)
    if an2 == 0.0:
        raise ValueError("needs a nonzero linear coefficient vector")
    cross = np.cross(a_vec, b.vector())
    p = Quaternion.from_vector(cross / an2 - a_vec / 2.0)
    q = p - a.w / 2.0
    kappa = Quaternion.from_vector(a_vec / an2)
    comm = b * kappa - kappa * b
    return (2.0 * q + a + comm).norm()


def exponential_wronskian(p1: Quaternion, p2: Quaternion,
                          q1: Quaternion, q2: Quaternion, x: float) -> float:
    """Closed form |p1 - p2| |exp(q1 x)| |exp(q2 x)| for an exponential basis."""
    return (p1 - p2).norm() * math.exp(q1.w * x) * math.exp(q2.w * x)


def mode_quartic_residual(modes: SchrodingerModes, z: complex) -> float:
    """|z^4 - 2 V z^2 + V^2 + |W|^2 - E^2| for a claimed exponent z."""
    v, w2, e = modes.V, abs(modes.W) ** 2, modes.E
    return abs(z ** 4 - 2.0 * v * z ** 2 + v * v + w2 - e * e)


def mode_equation_residual(modes: SchrodingerModes, u: Quaternion, z: complex) -> float:
    """|u z^2 - (V - jW) u - i E u i| for a claimed mode pair (u, z)."""
    i = Quaternion(0, 1, 0, 0)
    pot = Quaternion(modes.V) - Quaternion(0, 0, 1, 0) * Quaternion.from_complex(modes.W)
    r = (u * Quaternion.from_complex(z * z) - pot * u
         - modes.E * (i * u * i))
    return r.norm()


def stationary_b_op(V: float, W: complex, E: float,
                    hbar: float = 1.0, m: float = 1.0) -> RightLinearScalarOp:
    """Zeroth-order coefficient of psi'' + b(psi) = 0 for potential V - jW.

    Useful for residual cross-checks of matched scattering solutions.
    """
    f = 2.0 * m / hbar ** 2
    a_part = Quaternion(-f * V) + Quaternion(0, 0, 1, 0) * Quaternion.from_complex(f * W)
    b_part = Quaternion(0.0, -f * E, 0.0, 0.0)
    return RightLinearScalarOp(a_part, b_part)


def reconstruct_antihermitian(lambdas, vecs) -> Matrix2H:
    """A = sum Psi_r (lambda_r i) Psi_r^dagger."""
    return _outer_sum([Quaternion(0.0, lam) for lam in lambdas], vecs)


# the closed-form solvers' earlier numpy implementations ----------------------


def companion_cubic_resolvent(c: QuadraticCoeffs) -> float:
    """Unique positive root w = p0**2 of the generic-case resolvent cubic.

    Solved through companion-matrix eigenvalues plus one Newton polish; by
    Descartes' rule the cubic has exactly one positive real root, so failing
    to find one signals a misclassified input.
    """
    an2 = float(c.a_vec @ c.a_vec)
    dn2 = float(c.d_vec @ c.d_vec)
    c0, d0 = c.c0, c.d0
    coeffs = np.array([
        16.0,
        8.0 * (an2 + 2.0 * c0),
        4.0 * (an2 * (c0 - d0 * d0) + an2 * an2 / 4.0 - dn2),
        -d0 * d0 * an2 * an2,
    ])
    # scaled companion matrix; numpy's eig balances internally
    m = np.zeros((3, 3))
    m[0, :] = -coeffs[1:] / coeffs[0]
    m[1, 0] = 1.0
    m[2, 1] = 1.0
    ws = np.linalg.eigvals(m)
    real_pos = [w.real for w in ws
                if w.real > 0.0 and abs(w.imag) <= 1e-8 * max(1.0, abs(w))]
    if not real_pos:
        raise ArithmeticError(
            "no positive real resolvent root: inconsistent classification")
    w = max(real_pos)
    # one Newton step to polish against eigenvalue roundoff
    poly = np.polynomial.Polynomial(coeffs[::-1])
    dw = poly.deriv()(w)
    if dw != 0.0:
        w -= poly(w) / dw
    if w <= 0.0:
        raise ArithmeticError("resolvent root polished to non-positive value")
    return float(w)


def per_entry_counterpart(m) -> np.ndarray:
    """4x4 counterpart of a Matrix2H or Matrix2CL: one 2x2 array per entry,
    numpy sums, strided slice assignment."""

    def block(e):
        if isinstance(e, RightLinearScalarOp):
            # right multiplication by i is the scalar i on both symplectic slots
            return block(e.A) + 1j * block(e.B)
        z1, z2 = e.symplectic()
        return np.array([[z1, -np.conj(z2)], [z2, np.conj(z1)]])

    c = np.empty((4, 4), dtype=complex)
    for r in range(2):
        for k in range(2):
            c[r::2, k::2] = block(m.m[r][k])
    return c


# the scattering CLI's earlier row formatter and current check ----------------


def csv_lines_per_number(kind, rows, E, V, W, a) -> list[str]:
    """The CSV lines of solved rows, one f-string per number.

    The reference for cli._csv_lines: the row builder it replaced, unchanged.
    A failed row's cause goes to stderr.
    """
    E, V, W, a = [np.broadcast_to(x, rows.E.shape) for x in (E, V, W, a)]
    wabs = np.hypot(W.real, W.imag)     # bit for bit abs(complex)
    heads = np.column_stack([E, V, wabs, np.where(wabs != 0.0, np.angle(W), 0.0), a])
    numbers = np.column_stack([rows.R, rows.T, rows.r.real, rows.r.imag,
                               rows.r_tilde.real, rows.r_tilde.imag,
                               rows.t.real, rows.t.imag,
                               rows.t_tilde.real, rows.t_tilde.imag,
                               rows.current_spread])
    lines = []
    for head, values, regime, exc in zip(heads.tolist(), numbers.tolist(),
                                         rows.regimes, rows.errors):
        head = [_fmt(v) for v in head]
        if exc is None:
            lines.append(",".join(head + [regime.value] + [_fmt(v) for v in values]))
            continue
        names = ("E", "V", "Wabs", "Warg", "a")
        where = " ".join(f"{n}={v}" for n, v in zip(names, head))
        cause = f"{type(exc).__name__}: {exc}".replace("\n", " ")
        print(f"quatode {kind} {where}: {cause}", file=sys.stderr)
        lines.append(",".join(head + ["ERROR"] + [_fmt(math.nan)] * 11))
    return lines


def _fmt(x: float) -> str:
    return f"{x:.17g}"


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


def current_samples(wave, params: PhysicalParams,
                    per_region: int = 3) -> list[tuple[float, float]]:
    """Probability current at a few interior points of every region.

    The reference for scatter._current_spread: the ExpSum regions of a
    solved row's .wave, evaluated one point at a time.
    """
    out = []
    for reg in wave.regions:
        xs = _sample_xs(np.array([reg.lo]), np.array([reg.hi]),
                        np.array([max(abs(t.z) for t in reg.terms)]), per_region)[0]
        for x in xs.tolist():
            psi1, psi2 = reg.value(x).symplectic()
            dpsi1, dpsi2 = reg.derivative(x).symplectic()
            out.append((x, float(current_kernel(psi1, psi2, dpsi1, dpsi2,
                                                params.hbar, params.m))))
    return out


def wave_current_residual(wave, params: PhysicalParams) -> float:
    """max - min of current_samples: the row's current check, re-sampled."""
    js = [j for _, j in current_samples(wave, params)]
    return max(js) - min(js)


def current_spread_per_region(mask, terms, amp, bounds, hbar: float, m: float,
                              per_region: int = 3) -> np.ndarray:
    """max - min of the current at the points current_samples picks, row by row.

    The reference for scatter._current_spread, as it was before the layout
    placed the samples: one _sample_xs call per region, and every term's
    exponential at every region's samples, masked.  mask is the
    (regions, terms) mask of each region's terms, terms the (n, 3, terms)
    g, u1, u2 of _matching, amp the (n, terms) amplitudes and bounds the
    regions' edges, -inf to inf.
    """
    g = terms[:, 0]
    coef = terms[:, 1:] * amp[:, None, :]
    size = np.hypot(g.real, g.imag)
    widest = np.where(mask, size[:, None, :], 0.0).max(axis=2)
    xs = np.stack([_sample_xs(bounds[k], bounds[k + 1], widest[:, k], per_region)
                   for k in range(len(mask))], axis=1)
    # e[n, region, term, sample]; terms outside a region are zero there
    e = np.where(mask[:, :, None], np.exp(g[:, None, :, None] * xs[:, :, None, :]), 0.0)
    psi = np.einsum("nct,nrts->ncrs", coef, e)
    dpsi = np.einsum("nct,nrts->ncrs", coef, g[:, None, :, None] * e)
    j = current_kernel(psi[:, 0], psi[:, 1], dpsi[:, 0], dpsi[:, 1], hbar, m)
    return j.max(axis=(1, 2)) - j.min(axis=(1, 2))


# the bound-state refinement's earlier golden-section search ----------------

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_minima(lo: np.ndarray, hi: np.ndarray, xtol: float,
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


def golden_bound_states(params: PhysicalParams, grid: int,
                        accept: float = 1e-8) -> list[tuple[float, float]]:
    """(energy, residual) of each state as well.find_bound_states found them
    by golden section: the same scan, minima, acceptance and merge, with the
    plain smallest singular value as the residual.

    The reference for well._brent_minima and the acceptance residual.
    """
    vmax = params.threshold
    es = np.linspace(-vmax + 1e-6 * vmax, -1e-6 * vmax, grid)
    sv = _smallest_singular_values(es, params)
    n = 1 + np.flatnonzero((sv[1:-1] <= sv[:-2]) & (sv[1:-1] <= sv[2:]))
    e_star = golden_minima(es[n - 1], es[n + 1], 1e-12 * max(1.0, vmax), params)
    res = _smallest_singular_values(e_star, params)
    merged: list[tuple[float, float]] = []
    for e, r in sorted(zip(e_star[res < accept].tolist(), res[res < accept].tolist())):
        if merged and abs(e - merged[-1][0]) < 1e-9 * max(1.0, vmax):
            merged[-1] = min(merged[-1], (e, r), key=lambda state: state[1])
        else:
            merged.append((e, r))
    return merged
