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

from .qmat2 import _RANK_TOL, Matrix2CL, _nullspaces, lift, svec
from .quatcore import ExpSum, Quaternion, RightLinearScalarOp, exp_term
from .quatcore import exp as qexp

_MERGE_TOL = 1e-6


class UnsupportedStructureError(ValueError):
    """Counterpart defect beyond a single 2x2 Jordan block."""


class TViolatingError(ValueError):
    """Time reversal has no quaternionic implementation for this potential."""


class ModeNormalizationError(ZeroDivisionError):
    """The unit-complex-part mode gauge is singular: E = 0 and W = 0."""


class CLSolution(ExpSum):
    """Sum of u exp(z x) k and (u x + u~) exp(z x) k with right complex k.

    Right-multiplying by a complex scalar rescales it complex-linearly.
    """

    __slots__ = ()

    def scaled(self, factor: complex) -> "CLSolution":
        return CLSolution((self * factor).terms)


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


def solve_clinear(m_cl: Matrix2CL, phi0: Quaternion, dphi0: Quaternion) -> CLSolution:
    """Closed-form solution of the first-order system carried by m_cl.

    The counterpart spectrum gives four complex exponents; the quaternions
    u_n are lifted from counterpart eigenvectors and the complex coefficients
    solve the 4x4 initial-condition system in symplectic coordinates.  The
    only defect handled is a single 2x2 Jordan block, which adds one
    (u x + u_tilde) basis function.
    """
    c = m_cl.counterpart()
    scale = 1.0 + np.linalg.norm(c)
    lam = np.linalg.eigvals(c)
    clusters = _cluster(lam, _MERGE_TOL * scale)
    tols = [max(_RANK_TOL * scale, 2.0 * max(abs(w - z) for w in lam
                                             if abs(w - z) <= _MERGE_TOL * scale))
            for z, _ in clusters]
    columns = []
    specs = []  # (L, z, Lx) of the term on each column: (L + x Lx) exp(z x)
    deficient = 0
    for (z, alg), rank_tol, ns in zip(
            clusters, tols, _nullspaces(c, [z for z, _ in clusters], tols)):
        geo = min(ns.shape[1], alg)
        if geo == alg:
            for k in range(alg):
                specs.append((lift(ns[:, k])[0], z, None))
                columns.append(ns[:, k])
        elif alg == 2 and geo == 1:
            deficient += 1
            v = ns[:, 0]
            w, *_ = np.linalg.lstsq(c - z * np.eye(4), v, rcond=None)
            if np.linalg.norm((c - z * np.eye(4)) @ w - v) > 1e3 * rank_tol:
                raise UnsupportedStructureError("broken Jordan chain")
            u = lift(v)[0]
            specs += [(u, z, None), (lift(w)[0], z, u)]
            columns += [v, w]
        else:
            raise UnsupportedStructureError(
                f"eigenvalue {z}: algebraic {alg}, geometric {geo}")
    if deficient > 1:
        raise UnsupportedStructureError("more than one Jordan block")
    coeff = np.linalg.solve(np.column_stack(columns), svec((phi0, dphi0)))
    return CLSolution(exp_term(L, z, k, Lx) for (L, z, Lx), k in zip(specs, coeff))


def solve_clinear_ops(a_op: RightLinearScalarOp, b_op: RightLinearScalarOp,
                      phi0: Quaternion, dphi0: Quaternion) -> CLSolution:
    """Solve phi'' + a_op(phi') + b_op(phi) = 0 with given initial data."""
    return solve_clinear(Matrix2CL.companion(a_op, b_op), phi0, dphi0)


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
    """Stationary modes for arrays of (E, V, W), one row per entry.

    sigma = +-sqrt(E^2 - |W|^2) with the sign of E, denom = E + sigma and
    z-+ = sqrt(V -+ sigma); u_- = 1 + j wfrac and u_+ = wbar + j, with
    wfrac = W / denom and wbar = conj(W) / denom.
    """

    sigma: np.ndarray
    denom: np.ndarray
    z_minus: np.ndarray
    z_plus: np.ndarray
    wfrac: np.ndarray
    wbar: np.ndarray


def schrodinger_mode_arrays(E, V, W) -> ModeArrays:
    """Exponents and mode components of the stationary equation, row by row.

    E, V (real) and W (complex) broadcast together.  sigma has the sign of
    E, the other roots are principal.  Rows with E = 0 = W come out
    non-finite; schrodinger_modes turns that into ModeNormalizationError.
    """
    E = np.asarray(E, dtype=float)
    V = np.asarray(V, dtype=float)
    W = np.asarray(W, dtype=complex)
    sigma = (np.sqrt(E * E - np.hypot(W.real, W.imag) ** 2, dtype=complex)
             * np.where(E < 0.0, -1.0, 1.0))
    denom = E + sigma
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        wfrac, wbar = W / denom, np.conj(W) / denom
    return ModeArrays(sigma, denom, np.sqrt(V - sigma), np.sqrt(V + sigma), wfrac, wbar)


def schrodinger_modes(E: float, V: float, W: complex,
                      hbar: float = 1.0, m: float = 1.0) -> SchrodingerModes:
    """Exponents and modes of the constant-potential stationary equation.

    z-+ = sqrt(V -+ sigma) with sigma = +-sqrt(E^2 - |W|^2) of the sign of E;
    u_- = 1 + j W / (E + sigma), u_+ = conj(W) / (E + sigma) + j.
    One row of schrodinger_mode_arrays.
    """
    if not (0.0 < hbar < math.inf and 0.0 < m < math.inf):
        raise ValueError("hbar and m must be positive and finite")
    W = complex(W)
    modes = schrodinger_mode_arrays(E, V, W)
    sigma, denom = complex(modes.sigma), complex(modes.denom)
    if abs(denom) <= 1e-15 * (abs(E) + abs(sigma) + 1e-300):
        raise ModeNormalizationError(
            "E = 0 and W = 0: mode gauge is singular")
    return SchrodingerModes(E=E, V=V, W=W, hbar=hbar, m=m,
                            z_minus=complex(modes.z_minus),
                            z_plus=complex(modes.z_plus),
                            u_minus=Quaternion.from_symplectic(1.0, modes.wfrac),
                            u_plus=Quaternion.from_symplectic(modes.wbar, 1.0))


def time_reversal_map(solution: CLSolution, W: complex) -> CLSolution:
    """Left-multiply by j (real W) or k (imaginary W) to reverse time.

    The result solves the equation with the sign of the right-acting i
    flipped.  A fully complex W admits no such map: the physics is
    T-violating.
    """
    W = complex(W)
    mag = abs(W)
    tol = 1e-12 * (mag + 1.0)
    if abs(W.imag) <= tol:
        factor = Quaternion(0, 0, 1, 0)
    elif abs(W.real) <= tol:
        factor = Quaternion(0, 0, 0, 1)
    else:
        raise TViolatingError(
            "W has both real and imaginary parts: T-violating potential")
    return CLSolution((factor * solution).terms)


def stationary_phase(E: float, hbar: float, zeta0: Quaternion) -> Callable[[float], Quaternion]:
    """Unit time factor t -> exp(-i E t / hbar) * zeta0, zeta0 on the right."""
    if hbar <= 0.0:
        raise ValueError("hbar must be positive")
    if abs(zeta0.norm() - 1.0) > 1e-12:
        raise ValueError("zeta(0) must be a unit quaternion")

    def zeta(t: float) -> Quaternion:
        return qexp(Quaternion(0.0, -E * t / hbar, 0.0, 0.0)) * zeta0

    return zeta
