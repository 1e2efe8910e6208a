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

from quatode.clode import CLSolution, SchrodingerModes, UnsupportedStructureError, _cluster
from quatode.quadsolve import QuadraticCoeffs
from quatode.qmat2 import (_INDEP_TOL, _RANK_TOL, EigenDecomposition, Matrix2H,
                           _canonical_pairs, _nullspaces, _outer_sum,
                           dieudonne, lift, svec)
from quatode.quatcore import ExpSum, Quaternion, RightLinearScalarOp, exp_term
from quatode.scatter import PhysicalParams, current_kernel
from quatode.well import _folded_residual

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
    """Finite-well energies by bisection on the even/odd matching conditions.

    With t = k a / 2 for the interior wave number k, t0 = a sqrt(2 m V) /
    (2 hbar) and kappa a / 2 = sqrt(t0^2 - t^2), the conditions
    k tan(k a / 2) = kappa (even) and -k cot(k a / 2) = kappa (odd) take the
    pole-free forms t sin t = sqrt(t0^2 - t^2) cos t and
    t cos t = -sqrt(t0^2 - t^2) sin t.  Their roots are about pi apart in t,
    so a grid uniform in t brackets each one, at the bottom of a dense well
    as well as at its top.
    """
    t0 = a * math.sqrt(2.0 * m * V) / (2.0 * hbar)

    def even(t):
        return t * math.sin(t) - math.sqrt((t0 - t) * (t0 + t)) * math.cos(t)

    def odd(t):
        return t * math.cos(t) + math.sqrt((t0 - t) * (t0 + t)) * math.sin(t)

    # E from -V (1 - 1e-12) to -V 1e-12
    grid = np.linspace(1e-6 * t0, t0 * math.sqrt(1.0 - 1e-12), 40001).tolist()
    roots = []
    for f in (even, odd):
        vals = [f(t) for t in grid]
        for n in range(len(grid) - 1):
            if (vals[n] > 0.0) == (vals[n + 1] > 0.0):
                continue
            lo, hi, flo = grid[n], grid[n + 1], vals[n]
            mid = 0.5 * (lo + hi)
            while lo < mid < hi:
                if (flo > 0.0) == (f(mid) > 0.0):
                    lo = mid
                else:
                    hi = mid
                mid = 0.5 * (lo + hi)
            roots.append((2.0 * hbar * mid / a) ** 2 / (2.0 * m) - V)
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

    The per-energy reference for bound_matrices, built with cmath.
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
    an2 = float(np.dot(c.a_vec, c.a_vec))
    dn2 = float(np.dot(c.d_vec, c.d_vec))
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


def counterpart_solve(m: Matrix2H, rhs):
    """Matrix2H.solve as one complex solve on the 4x4 counterpart, or None
    where sqrt(det) of the counterpart is at most 1e-12 |M|^2; both sides of
    that test are taken at the power of two that takes the largest modulus
    into [0.5, 1), where |c|^2 = 2 |M|^2."""
    c = per_entry_counterpart(m)
    s = c * math.ldexp(1.0, -math.frexp(np.abs(c).max())[1])
    if math.sqrt(max(np.linalg.det(s).real, 0.0)) <= 1e-12 * np.vdot(s, s).real / 2.0:
        return None
    x = np.linalg.solve(c, np.array([q.symplectic()[k] for k in range(2) for q in rhs]))
    return Quaternion.from_symplectic(x[0], x[2]), Quaternion.from_symplectic(x[1], x[3])


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


# the well's unfolded 8x8 matching systems ----------------------------------


def bound_matrices(es: np.ndarray, params: PhysicalParams) -> np.ndarray:
    """Homogeneous matching systems for the well -V + jW on (0, a): (n, 8, 8).

    well_matrix at every energy at once, at the complex W: the same columns
    in the same order, the interior u the null vector (-q, p) or (s, -r) of
    the coupling, whichever is longer, and each column scaled to unit norm.
    exp(g a) is formed only for the columns that reach x = a.
    """
    es = np.asarray(es, dtype=float)[:, None]
    v, w = -params.V, -complex(params.W)
    kappa = np.sqrt(2.0 * params.m * np.abs(es)) / params.hbar
    z2 = v + np.sqrt(es * es - abs(w) ** 2, dtype=complex) * np.array((-1.0, 1.0))
    p, s = z2 - (v - es), z2 - (v + es)
    longer = np.abs(p) >= np.abs(s)
    # (n, 4): u exp(+-g x) of each interior pair
    u1 = np.repeat(np.where(longer, np.conj(w), s), 2, axis=1)
    u2 = np.repeat(np.where(longer, p, -w), 2, axis=1)
    g = np.repeat(math.sqrt(2.0 * params.m) / params.hbar * np.sqrt(z2), 2, axis=1)
    g[:, 1::2] *= -1.0
    one, zero = np.ones_like(kappa), np.zeros_like(kappa)
    ext1, ext2 = np.concatenate([one, zero], 1), np.concatenate([zero, one], 1)

    def rows(c1, c2, rate, x):
        """(n, 4, columns): value and slope of (c1 + j c2) exp(rate x)."""
        e = np.exp(rate * x) if x else 1.0
        return np.stack([c1 * e, c2 * e, rate * c1 * e, rate * c2 * e], axis=1)

    mat = np.zeros((es.shape[0], 8, 8), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        # left of 0: (1, 0) exp(kappa x), j exp(-i kappa x); right of a the
        # mirror rates; the interior enters both edges, with opposite signs
        mat[:, :4, :2] = rows(ext1, ext2, np.concatenate([kappa, -1j * kappa], 1), 0.0)
        mat[:, :4, 2:6] = -rows(u1, u2, g, 0.0)
        mat[:, 4:, 2:6] = rows(u1, u2, g, params.a)
        mat[:, 4:, 6:] = -rows(ext1, ext2, np.concatenate([-kappa, 1j * kappa], 1), params.a)
        norms = np.linalg.norm(mat, axis=1, keepdims=True)
    # a column that overflows, or underflows to zero, leaves the float range
    if not np.all(np.isfinite(norms) & (norms > 0.0)):
        raise OverflowError("well matching system overflows at this width")
    return np.divide(mat, norms, out=mat)


def bound_certificate(es: np.ndarray, params: PhysicalParams) -> np.ndarray:
    """The acceptance residual of each energy, by QR and SVD of bound_matrices.

    The smallest singular value of the system after an orthonormal basis of
    the interior columns' span takes their place: a state stays singular, but
    the residual does not fall like sqrt|E + |W|| at E = -|W|, where those
    columns turn parallel.  The reference for well._folded_residual.
    """
    mat = bound_matrices(es, params)
    mat[:, :, 2:6] = np.linalg.qr(mat[:, :, 2:6])[0]
    return np.linalg.svd(mat, compute_uv=False)[:, -1]


# the bound-state refinement's earlier golden-section search ----------------

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def smallest_singular_values(es: np.ndarray, params: PhysicalParams) -> np.ndarray:
    """The plain residual: the smallest singular value of bound_matrices."""
    return np.linalg.svd(bound_matrices(es, params), compute_uv=False)[:, -1]


def golden_minima(lo: np.ndarray, hi: np.ndarray, xtol: float,
                  params: PhysicalParams) -> np.ndarray:
    """Golden-section minima of the smallest singular value, all brackets at once.

    Every open bracket takes the scalar golden-section step; the new points
    of one step are evaluated together.  Narrows lo and hi in place.
    """
    x1 = hi - _INVPHI * (hi - lo)
    x2 = lo + _INVPHI * (hi - lo)
    f1, f2 = np.split(smallest_singular_values(np.concatenate([x1, x2]), params), 2)
    active = hi - lo > xtol
    while active.any():
        left = active & (f1 <= f2)
        right = active & ~left
        hi[left], x2[left], f2[left] = x2[left], x1[left], f1[left]
        x1[left] = hi[left] - _INVPHI * (hi[left] - lo[left])
        lo[right], x1[right], f1[right] = x1[right], x2[right], f2[right]
        x2[right] = lo[right] + _INVPHI * (hi[right] - lo[right])
        f = smallest_singular_values(np.where(left, x1, x2)[active], params)
        f1[left] = f[left[active]]
        f2[right] = f[right[active]]
        active = hi - lo > xtol
    return 0.5 * (lo + hi)


def _merged_states(e_star: np.ndarray, res: np.ndarray, accept: float,
                   vmax: float) -> list[tuple[float, float]]:
    """The acceptance of refined energies, and the merge of those within
    1e-9 max(1, V_max), of the residual-minimum searches below."""
    merged: list[tuple[float, float]] = []
    for e, r in sorted(zip(e_star[res < accept].tolist(), res[res < accept].tolist())):
        if merged and abs(e - merged[-1][0]) < 1e-9 * max(1.0, vmax):
            merged[-1] = min(merged[-1], (e, r), key=lambda state: state[1])
        else:
            merged.append((e, r))
    return merged


def golden_bound_states(params: PhysicalParams, grid: int,
                        accept: float = 1e-8) -> list[tuple[float, float]]:
    """(energy, residual) of each state as an earlier well.find_bound_states
    found them: golden section from each minimum of the residual on the same
    scan grid, with the plain smallest singular value as the residual.

    The reference for well._folded_residual and the acceptance residual.
    """
    vmax = params.threshold
    es = np.linspace(-vmax + 1e-6 * vmax, -1e-6 * vmax, grid)
    sv = smallest_singular_values(es, params)
    n = 1 + np.flatnonzero((sv[1:-1] <= sv[:-2]) & (sv[1:-1] <= sv[2:]))
    e_star = golden_minima(es[n - 1], es[n + 1], 1e-12 * max(1.0, vmax), params)
    return _merged_states(e_star, smallest_singular_values(e_star, params), accept, vmax)


# the bound-state refinement's earlier lock-step Brent minimisation ---------

_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0


def lockstep_brent_minima(es: np.ndarray, sv: np.ndarray, n: np.ndarray, xtol: float,
                          params: PhysicalParams) -> np.ndarray:
    """Brent minima of well._folded_residual r, all brackets at once.

    The scan triples es[n-1:n+2], sv[n-1:n+2] seed the brackets and first
    parabolas.  Parabolas fit r^2, which near a simple root is
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
        fu = _folded_residual(u, params) ** 2
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


def brent_bound_states(params: PhysicalParams, grid: int,
                       accept: float = 1e-8) -> list[tuple[float, float]]:
    """(energy, residual) of each state as an earlier well.find_bound_states
    found them: Brent minimisation from each minimum of the residual on the
    same scan grid, with the same certificate.

    The reference for well._secant_roots.
    """
    vmax = params.threshold
    es = np.linspace(-vmax + 1e-6 * vmax, -1e-6 * vmax, grid)
    sv = _folded_residual(es, params)
    n = 1 + np.flatnonzero((sv[1:-1] <= sv[:-2]) & (sv[1:-1] <= sv[2:]))
    e_star = lockstep_brent_minima(es, sv, n, 1e-12 * max(1.0, vmax), params)
    return _merged_states(e_star, bound_certificate(e_star, params), accept, vmax)


# the eigenvalue routes before eig's own eigenvectors: eigvals, then one SVD
# nullspace per eigenvalue ------------------------------------------------------


def _normalize_phase(v: np.ndarray) -> np.ndarray:
    v = v / np.linalg.norm(v)
    k = int(np.argmax(np.abs(v)))
    ph = v[k] / abs(v[k])
    return v * np.conj(ph)


def svd_right_eigenpairs(m: Matrix2H) -> EigenDecomposition:
    """qmat2.right_eigenpairs with every eigenvector from an SVD nullspace."""
    c = m.counterpart()
    scale = 1.0 + np.linalg.norm(c)
    tol = _RANK_TOL * scale
    merge_tol = 1e-6 * scale
    lam = np.linalg.eigvals(c)
    (z1, _), (z2, _) = _canonical_pairs(lam)
    if abs(z1 - z2) > merge_tol:
        vecs = tuple(lift(_normalize_phase(ns[:, 0]))
                     for ns in _nullspaces(c, (z1, z2), (tol, tol)))
        return EigenDecomposition((z1, z2), vecs, form="diagonal")
    z = complex((z1.real + z2.real) / 2.0, (z1.imag + z2.imag) / 2.0)
    rank_tol = max(tol, 2.0 * abs(z1 - z2))
    ns, = _nullspaces(c, (z,), (rank_tol,))
    needed = 4 if abs(z.imag) <= merge_tol else 2
    if ns.shape[1] >= needed:
        cands = [lift(_normalize_phase(ns[:, k])) for k in range(ns.shape[1])]
        first = cands[0]
        for other in cands[1:]:
            s = Matrix2H.from_columns(first, other)
            if dieudonne(s) > _INDEP_TOL * max(1.0, m.norm()) ** 2:
                return EigenDecomposition((z, z), (first, other), form="diagonal")
    psi = lift(_normalize_phase(ns[:, 0]))
    return EigenDecomposition((z, z), (psi,), form="jordan", defective=True)


def svd_solve_clinear(c: np.ndarray, phi0: Quaternion,
                      dphi0: Quaternion) -> tuple[CLSolution, int]:
    """clode._solve_counterpart on the counterpart c, with every basis column
    from an SVD nullspace; returns the solution and the number of
    eigenvalue clusters."""
    scale = 1.0 + np.linalg.norm(c)
    lam = np.linalg.eigvals(c)
    clusters = _cluster(lam, 1e-6 * scale)
    tols = [max(_RANK_TOL * scale, 2.0 * max(abs(w - z) for w in lam
                                             if abs(w - z) <= 1e-6 * scale))
            for z, _ in clusters]
    columns, specs = [], []
    for (z, alg), rank_tol, ns in zip(
            clusters, tols, _nullspaces(c, [z for z, _ in clusters], tols)):
        geo = min(ns.shape[1], alg)
        if geo == alg:
            for k in range(alg):
                specs.append((lift(ns[:, k])[0], z, None))
                columns.append(ns[:, k])
        elif alg == 2 * geo:
            # one Jordan chain of length 2 per null vector
            for k in range(geo):
                v = ns[:, k]
                w, *_ = np.linalg.lstsq(c - z * np.eye(4), v, rcond=None)
                if np.linalg.norm((c - z * np.eye(4)) @ w - v) > 1e3 * rank_tol:
                    raise UnsupportedStructureError("broken Jordan chain")
                u = lift(v)[0]
                specs += [(u, z, None), (lift(w)[0], z, u)]
                columns += [v, w]
        else:
            raise UnsupportedStructureError(
                f"eigenvalue {z}: algebraic {alg}, geometric {geo}")
    coeff = np.linalg.solve(np.column_stack(columns), svec((phi0, dphi0)))
    sol = CLSolution(exp_term(L, z, k, Lx) for (L, z, Lx), k in zip(specs, coeff))
    return sol, len(clusters)


def expm_series(a: np.ndarray) -> np.ndarray:
    """exp(a) of a small complex matrix: Taylor series on a / 2^s, squared s times."""
    s = max(0, int(math.ceil(math.log2(max(np.linalg.norm(a), 1e-300)))) + 2)
    b = a / 2.0 ** s
    term = total = np.eye(len(a), dtype=complex)
    for n in range(1, 30):
        term = term @ b / n
        total = total + term
    for _ in range(s):
        total = total @ total
    return total


def term_scale(sol, x: float) -> float:
    """Sum of the norms of sol's terms at x: the size of what sol.value sums,
    against which its rounding error is measured."""
    return sum(ExpSum((t,)).value(x).norm() for t in sol.terms)


def spy_eigen_calls(monkeypatch) -> list[str]:
    """Record, in order, the names of the np.linalg eig, eigvals and svd calls."""
    calls = []
    for name in ("eig", "eigvals", "svd"):
        func = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda *args, _f=func, _n=name: calls.append(_n) or _f(*args))
    return calls


def matrix2h_ivp(a: Quaternion, b: Quaternion, phi0: Quaternion, dphi0: Quaternion):
    """The IVP fitted by the general 2x2 elimination: hode.general_solution's
    basis evaluated at 0, solved by Matrix2H.solve (ValueError when its
    singularity rule holds), and the coefficients applied to the basis."""
    from quatode import hode
    f1, f2 = hode.general_solution(a, b).basis
    c1, c2 = Matrix2H([[f1.value(0.0), f2.value(0.0)],
                       [f1.derivative(0.0), f2.derivative(0.0)]]).solve((phi0, dphi0))
    return f1 * c1 + f2 * c2


def _unit(rng, n: int = 3) -> np.ndarray:
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def branch_coefficients(rng, branch: str) -> tuple[Quaternion, Quaternion]:
    """(a, b) of q^2 + a q + b = 0 on one quadsolve branch, with sizes A and
    B log-uniform in 1e-3..1e3.

    Built from the reduced form p = q + a0/2: c0 = b0 - a0^2/4 and
    c = b_vec - (a0/2) a_vec.  a is A times a random unit quaternion, or +-A
    on the branches with a_vec = 0 (sphere, real_pair, both_zero_repeated,
    a_zero).  Where c is free (generic, a_zero), b is B times a random unit
    quaternion; parallel has b = B (cos t + sin t a_vec / |a_vec|).
    Otherwise B sizes the reduced form: c0 = B, -B, 0 and +-B with c = 0 for
    sphere, real_pair, both_zero_repeated and c_zero; c = B w with w a unit
    vector orthogonal to a_vec and c0 = B^2/|a_vec|^2 - |a_vec|^2/4 (delta
    = 0) for orthogonal_repeated, and c0 moved off that by 0.2-1.5 |a_vec|^2
    for orthogonal.  The orthogonal branches take |a0| <= B / |a_vec|: the
    rounding of b_vec - (a0/2) a_vec then keeps c orthogonal to a_vec within
    quadsolve's 1e-12 classification gate.
    """
    size_a, size_b = 10.0 ** rng.uniform(-3.0, 3.0, 2)
    a0, *a_vec = size_a * _unit(rng, 4)
    a_vec = np.array(a_vec)
    an = float(np.linalg.norm(a_vec))
    if branch in ("sphere", "real_pair", "both_zero_repeated", "a_zero"):
        a0, a_vec = math.copysign(size_a, a0), np.zeros(3)
    if branch in ("generic", "a_zero"):
        return Quaternion(a0, *a_vec), Quaternion(*(size_b * _unit(rng, 4)))
    if branch == "parallel":
        t = rng.uniform(0.0, 2.0 * math.pi)
        return (Quaternion(a0, *a_vec),
                Quaternion(size_b * math.cos(t), *(size_b * math.sin(t) / an * a_vec)))
    c_vec = np.zeros(3)
    if branch in ("orthogonal", "orthogonal_repeated"):
        scale = math.sqrt(size_b)
        a0, an, cn = scale * rng.uniform(-2.0, 2.0), scale * rng.uniform(0.5, 2.0), size_b * rng.uniform(0.5, 2.0)
        a_vec = an * _unit(rng)
        w = np.cross(a_vec, _unit(rng))
        c_vec = cn * w / np.linalg.norm(w)
        c0 = cn * cn / (an * an) - an * an / 4.0
        if branch == "orthogonal":
            c0 += rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 1.5) * an * an
    else:
        c0 = {"sphere": size_b, "real_pair": -size_b, "both_zero_repeated": 0.0,
              "c_zero": rng.choice((-1.0, 1.0)) * size_b}[branch]
    return Quaternion(a0, *a_vec), Quaternion(c0 + a0 * a0 / 4.0, *(c_vec + a0 / 2.0 * a_vec))
