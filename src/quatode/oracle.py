"""Brute-force verification tools: RK4 integration of the ODEs' first-order forms.

Everything here is deliberately independent of the closed-form solvers so it
can act as a cross-check.  States are carried as flat 8-vectors holding the
four real components of (phi, dphi); right-i actions enter the derivative
callbacks as exact 4x4 matrices, never approximated.  The equations have
constant coefficients, so RK4 runs as its one-step propagator: the fixed 8x8
matrix that one classical step applies to the state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .quatcore import Quaternion, RightLinearScalarOp


class DivergenceError(RuntimeError):
    """Raised when an integration produces a non-finite state."""

    def __init__(self, x: float):
        super().__init__(f"non-finite state at x = {x}")
        self.x = x


@dataclass
class Trajectory:
    """Uniform-grid integration output; states[n] = (phi, dphi) as 8 reals."""

    xs: np.ndarray
    states: np.ndarray

    def phi(self, n: int) -> Quaternion:
        return Quaternion.from_array(self.states[n, :4])

    def dphi(self, n: int) -> Quaternion:
        return Quaternion.from_array(self.states[n, 4:])

    @property
    def step_size(self) -> float:
        return float(self.xs[1] - self.xs[0])


def pack_state(phi: Quaternion, dphi: Quaternion) -> np.ndarray:
    return np.concatenate([phi.to_array(), dphi.to_array()])


def rk4_step_matrix(rhs: Callable[[float, np.ndarray], np.ndarray],
                    x0: float, h: float) -> np.ndarray:
    """The 8x8 matrix P with P y = one classical RK4 step of size h from x0.

    `rhs(x, y)` must be linear in y with constant coefficients and must map
    the columns of an (8, m) array of states, or a stack of them, as the
    callbacks made by `qlinear_rhs` and `clinear_rhs` do; the four stages
    are then applied once, through `rhs`, to the identity.  h may be an
    array of shape (p, 1, 1): the result is then the (p, 8, 8) stack.
    """
    eye = np.eye(8)
    k1 = rhs(x0, eye)
    k2 = rhs(x0 + 0.5 * h, eye + 0.5 * h * k1)
    k3 = rhs(x0 + 0.5 * h, eye + 0.5 * h * k2)
    k4 = rhs(x0 + h, eye + h * k3)
    return eye + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_integrate(rhs: Callable[[float, np.ndarray], np.ndarray],
                  phi0: Quaternion, dphi0: Quaternion,
                  x0: float, x1: float, steps: int) -> Trajectory:
    """Classical fixed-step RK4 on the 8-real state (phi, dphi).

    The trajectory is y_{n+1} = P y_n with P = rk4_step_matrix(rhs, x0, h),
    h = (x1 - x0) / steps.  Raises DivergenceError at the first grid point
    whose state is not finite.
    """
    if steps < 16:
        raise ValueError("need at least 16 steps")
    xs = np.linspace(x0, x1, steps + 1)
    step = rk4_step_matrix(rhs, x0, (x1 - x0) / steps)
    states = np.empty((steps + 1, 8))
    states[0] = pack_state(phi0, dphi0)
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(steps):
            np.matmul(step, states[n], out=states[n + 1])
    finite = np.isfinite(states).all(axis=1)
    if not finite.all():
        raise DivergenceError(float(xs[np.argmin(finite)]))
    return Trajectory(xs=xs, states=states)


def rk4_endpoint(rhs: Callable[[float, np.ndarray], np.ndarray],
                 phi0: Quaternion, dphi0: Quaternion,
                 x0: float, x1, steps: int) -> np.ndarray:
    """The last state of rk4_integrate(...), as P^steps y0 by matrix powers.

    Same step size and step matrix as rk4_integrate; only the rounding of
    the product differs.  x1 may be a 1-D array of end points: every step
    matrix is then built at once and raised by one stacked matrix_power, and
    the result is (len(x1), 8).  Raises DivergenceError at the first end
    point, in the order given, whose state is not finite.
    """
    if steps < 16:
        raise ValueError("need at least 16 steps")
    ends = np.asarray(x1, dtype=float)
    step = rk4_step_matrix(rhs, x0, (ends.reshape(-1, 1, 1) - x0) / steps)
    with np.errstate(over="ignore", invalid="ignore"):
        states = np.linalg.matrix_power(step, steps) @ pack_state(phi0, dphi0)
    finite = np.isfinite(states).all(axis=1)
    if not finite.all():
        raise DivergenceError(float(ends.reshape(-1)[np.argmin(finite)]))
    return states.reshape(ends.shape + (8,))


def qlinear_rhs(a: Quaternion, b: Quaternion) -> Callable[[float, np.ndarray], np.ndarray]:
    """Derivative callback for phi'' + a phi' + b phi = 0 (left coefficients)."""
    k = np.zeros((8, 8))
    k[:4, 4:] = np.eye(4)
    k[4:, :4] = -b.left_matrix()
    k[4:, 4:] = -a.left_matrix()
    return lambda x, y: k @ y


def clinear_rhs(a_op: RightLinearScalarOp, b_op: RightLinearScalarOp
                ) -> Callable[[float, np.ndarray], np.ndarray]:
    """Derivative callback for phi'' + a_op(phi') + b_op(phi) = 0."""
    k = np.zeros((8, 8))
    k[:4, 4:] = np.eye(4)
    k[4:, :4] = -b_op.matrix4()
    k[4:, 4:] = -a_op.matrix4()
    return lambda x, y: k @ y
