"""Complex-linear quaternionic ODEs and the stationary Schrodinger reduction.

Operators containing the right-acting unit R_i cannot be solved by
quaternionic exponentials: the basis functions are u_n exp(z_n x) with a
quaternion u_n on the left, a complex exponential, and right complex
coefficients.  The four complex eigenvalues z_n come from the 4x4 complex
counterpart of the companion matrix.  The stationary Schrodinger equation
with constant potential V - jW is the worked special case: its exponents
solve a real-coefficient quartic and the two mode quaternions u-+ are pinned
to the gauge with unit complex part.

Branch convention: sigma = sqrt(E^2 - |W|^2) takes the sign of E, keeping the
gauge finite at E != 0; all other complex square roots are principal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .qmat2 import (_MERGE_TOL, _RANK_TOL, _companion_counterpart, _nullspaces, _scale,
                    lift, svec)
from .quatcore import ExpSum, Quaternion, RightLinearScalarOp, Term, exp_term
from .quatcore import exp as qexp


class UnsupportedStructureError(ValueError):
    """Counterpart defect beyond Jordan chains of length 2."""


class ModeNormalizationError(ZeroDivisionError):
    """The unit-complex-part mode gauge is singular: E = 0 and W = 0."""


class CLSolution(ExpSum):
    """Sum of u exp(z x) k and (u x + u~) exp(z x) k with right complex k."""

    __slots__ = ()


def _cluster(lams, tol):
    clusters: list[list[complex]] = []
    for z in sorted(lams, key=lambda w: (w.imag, w.real)):
        for cl in clusters:
            if abs(z - sum(cl) / len(cl)) <= tol:
                cl.append(z)
                break
        else:
            clusters.append([z])
    return [(sum(cl) / len(cl), len(cl)) for cl in clusters]


def _column_term(v: list, z: complex, r: complex) -> Term:
    """exp_term(lift(v)[0], z, r) for a counterpart column v and a complex r,
    in direct arithmetic: L (1 - I i) r = (v0 r, -I v0 r, v2 r, I v2 r)."""
    pw, py = v[0] * r, v[2] * r
    return Term(z, (pw, complex(pw.imag, -pw.real), py, complex(-py.imag, py.real)), None)


def _solve_counterpart(c: np.ndarray, phi0: Quaternion, dphi0: Quaternion) -> CLSolution:
    """Closed-form solution of the first-order system with 4x4 counterpart c.

    The counterpart spectrum gives four complex exponents; the quaternions
    u_n are lifted from counterpart eigenvectors and the complex coefficients
    solve the 4x4 initial-condition system in symplectic coordinates.  Four
    simple eigenvalues take eig's columns as they are, on Python complex;
    only a cluster of merged eigenvalues decides its eigenspace dimension
    from an SVD.  A cluster of algebraic multiplicity 2g and geometric g
    gets g Jordan chains of length 2, each adding one (u x + u_tilde) basis
    function.
    """
    scale = _scale(c)
    lam, vec = np.linalg.eig(c)
    tol = _MERGE_TOL * scale
    z0, z1, z2, z3 = lams = lam.tolist()
    # four simple eigenvalues, exactly when _cluster finds four clusters
    if not (abs(z0 - z1) <= tol or abs(z0 - z2) <= tol or abs(z0 - z3) <= tol
            or abs(z1 - z2) <= tol or abs(z1 - z3) <= tol or abs(z2 - z3) <= tol):
        order = sorted(range(4), key=lambda k: (lams[k].imag, lams[k].real))
        basis = vec.take(order, 1)
        coeff = np.linalg.solve(basis, svec((phi0, dphi0))).tolist()
        return CLSolution([_column_term(v, lams[k], r)
                           for v, k, r in zip(basis.T.tolist(), order, coeff)])
    clusters = _cluster(lam, tol)
    tols = [max(_RANK_TOL * scale, 2.0 * max(abs(w - z) for w in lam
                                             if abs(w - z) <= tol))
            for z, _ in clusters]
    columns = []
    specs = []  # (L, z, Lx) of the term on each column: (L + x Lx) exp(z x)
    for (z, alg), rank_tol, ns in zip(
            clusters, tols, _nullspaces(c, [z for z, _ in clusters], tols)):
        geo = min(ns.shape[1], alg)
        if geo == alg:
            for k in range(alg):
                specs.append((lift(ns[:, k])[0], z, None))
                columns.append(ns[:, k])
        elif alg == 2 * geo:
            shifted = c - z * np.eye(4)
            for v in ns.T:
                w, *_ = np.linalg.lstsq(shifted, v, rcond=None)
                if np.linalg.norm(shifted @ w - v) > 1e3 * rank_tol:
                    raise UnsupportedStructureError("broken Jordan chain")
                u = lift(v)[0]
                specs += [(u, z, None), (lift(w)[0], z, u)]
                columns += [v, w]
        else:
            raise UnsupportedStructureError(
                f"eigenvalue {z}: algebraic {alg}, geometric {geo}")
    coeff = np.linalg.solve(np.column_stack(columns), svec((phi0, dphi0)))
    return CLSolution(exp_term(L, z, k, Lx) for (L, z, Lx), k in zip(specs, coeff))


def solve_clinear_ops(a_op: RightLinearScalarOp, b_op: RightLinearScalarOp,
                      phi0: Quaternion, dphi0: Quaternion) -> CLSolution:
    """Solve phi'' + a_op(phi') + b_op(phi) = 0 with given initial data."""
    return _solve_counterpart(_companion_counterpart(a_op, b_op), phi0, dphi0)


def residual(sol: CLSolution, a_op: Callable[[Quaternion], Quaternion],
             b_op: Callable[[Quaternion], Quaternion], x: float) -> float:
    return (sol.second(x) + a_op(sol.derivative(x)) + b_op(sol.value(x))).norm()


# -- stationary Schrodinger specialization ---------------------------------


@dataclass(frozen=True)
class SchrodingerModes:
    """Wave exponents z-+ and mode quaternions u-+ for potential V - jW.

    The spatial solutions are u_-+ exp(+-sqrt(2m)/hbar * z_-+ * x); z values
    are kept in the energy-like convention, so spatial exponents carry the
    extra factor spatial_scale.
    """

    E: float
    V: float
    W: complex
    hbar: float
    m: float
    z_minus: complex
    z_plus: complex
    u_minus: Quaternion
    u_plus: Quaternion

    @property
    def spatial_scale(self) -> float:
        return math.sqrt(2.0 * self.m) / self.hbar

    @property
    def threshold(self) -> float:
        return math.hypot(self.V, abs(self.W))


class ModeArrays(NamedTuple):
    """Stationary modes for arrays of (E, V, w) at a real w, one row per entry.

    sigma = +-sqrt(E^2 - w^2) with the sign of E and z-+ = sqrt(V -+ sigma);
    u_- = 1 + j wfrac and u_+ = wfrac + j, with wfrac = w / (E + sigma).
    """

    sigma: np.ndarray
    z_minus: np.ndarray
    z_plus: np.ndarray
    wfrac: np.ndarray


def schrodinger_mode_arrays(E, V, w) -> ModeArrays:
    """Exponents and mode components of the stationary equation, row by row.

    E, V and w (all real) broadcast together; the solvers pass w = +-|W|,
    since arg W is a gauge.  sigma has the sign of E, the other roots are
    principal.  Rows with w = 0 have wfrac = 0, also where E + sigma is 0 or
    subnormal; schrodinger_modes turns E = 0 = W into ModeNormalizationError.
    """
    E = np.asarray(E, dtype=float)
    V = np.asarray(V, dtype=float)
    w = np.asarray(w, dtype=float)
    sign = np.where(E < 0.0, -1.0, 1.0)
    tiny = E.size > 0 and np.abs(E).min() < 1e-150
    if not tiny:
        sigma = np.sqrt(E * E - w * w, dtype=complex) * sign
    else:  # E * E underflows: divide E and w by p = +-2^e > max(|E|, |w|)
        p = np.ldexp(sign, np.frexp(np.maximum(np.abs(E), np.abs(w)))[1])
        e_s, w_s = E / p, w / p
        sigma = np.sqrt(e_s * e_s - w_s * w_s, dtype=complex) * p
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        wfrac = w / (E + sigma)
    if tiny:    # numpy's complex division forms 1 / (E + sigma): it overflows at a subnormal E
        wfrac = np.where(w == 0.0, 0j, wfrac)
    return ModeArrays(sigma, np.sqrt(V - sigma), np.sqrt(V + sigma), wfrac)


def schrodinger_modes(E: float, V: float, W: complex,
                      hbar: float = 1.0, m: float = 1.0) -> SchrodingerModes:
    """Exponents and modes of the constant-potential stationary equation.

    z-+ = sqrt(V -+ sigma) with sigma = +-sqrt(E^2 - |W|^2) of the sign of E;
    u_- = 1 + j W / (E + sigma), u_+ = conj(W) / (E + sigma) + j.  The row
    of schrodinger_mode_arrays at |W|, its j-parts turned by t = W / |W|.
    """
    if not (0.0 < hbar < math.inf and 0.0 < m < math.inf):
        raise ValueError("hbar and m must be positive and finite")
    W = complex(W)
    w = float(np.hypot(W.real, W.imag))     # bit for bit the solvers' |W|
    modes = schrodinger_mode_arrays(E, V, w)
    sigma, wfrac = complex(modes.sigma), complex(modes.wfrac)
    if abs(E + sigma) <= 1e-15 * (abs(E) + abs(sigma) + 1e-300):
        raise ModeNormalizationError(
            "E = 0 and W = 0: mode gauge is singular")
    turn = W / w if W else 1.0
    return SchrodingerModes(E=E, V=V, W=W, hbar=hbar, m=m,
                            z_minus=complex(modes.z_minus),
                            z_plus=complex(modes.z_plus),
                            u_minus=Quaternion.from_symplectic(1.0, wfrac * turn),
                            u_plus=Quaternion.from_symplectic(wfrac * turn.conjugate(), 1.0))


def time_reversal_map(solution: CLSolution, W: complex) -> CLSolution:
    """Left-multiply by j exp(i theta), theta = arg W mod pi in [-pi/2, pi/2).

    The result solves the equation with the right-acting i flipped, for
    every W: j reverses time at W = |W|, and arg W is a gauge (see
    scatter).  The factor is j for real W and k for imaginary W.  A
    non-finite W is a ValueError.
    """
    if not (math.isfinite(W.real) and math.isfinite(W.imag)):
        raise ValueError(f"time reversal needs a finite W, not {W!r}")
    # by a power of two, so that abs(W) neither overflows nor goes subnormal
    e = math.frexp(max(abs(W.real), abs(W.imag)))[1]
    W = complex(math.ldexp(W.real, -e), math.ldexp(W.imag, -e))
    turn = W / abs(W) if W else 1.0     # exp(i arg W), exact on the axes
    if turn.real < 0.0 or turn.real == 0.0 and turn.imag > 0.0:
        turn = -turn
    factor = Quaternion(0.0, 0.0, turn.real, -turn.imag)     # j exp(i theta)
    return CLSolution((factor * solution).terms)


def stationary_phase(E: float, hbar: float, zeta0: Quaternion) -> Callable[[float], Quaternion]:
    """Unit time factor t -> exp(-i E t / hbar) * zeta0, zeta0 on the right."""
    if not (math.isfinite(E) and 0.0 < hbar < math.inf):
        raise ValueError("E must be finite, hbar positive and finite")
    if not abs(zeta0.norm() - 1.0) <= 1e-12:
        raise ValueError("zeta(0) must be a unit quaternion")

    def zeta(t: float) -> Quaternion:
        return qexp(Quaternion(0.0, -E * t / hbar, 0.0, 0.0)) * zeta0

    return zeta
