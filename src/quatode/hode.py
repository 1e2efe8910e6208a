"""General solutions and IVPs for phi'' + a phi' + b phi = 0 over quaternions.

Coefficients a, b multiply from the left and are constant; solutions are
f1 c1 + f2 c2, a basis of (prefactor * quaternion-exponential) functions with
constants applied from the right.  Distinct characteristic roots q1, q2 give
e^{q1 x}, e^{q2 x}; a repeated root q gets e^{q x}, (x + kappa) e^{q x}; the
vector-free degenerate equation (whole sphere of characteristic roots) is
spanned by the canonical i-axis exponentials, q1,2 = center +- i alpha; other
axes are reachable through quatcore.rebase_sphere_exponential.  solve_ivp fits
c2 = d^-1 (phi0' - q1 phi0) and c1 = phi0 - f2(0) c2 in closed form, with
d = q2 - q1 for two roots (q1 the one of smaller modulus) and
d = 1 + kappa q - q kappa, f2(0) = kappa, for a repeated root q.  |d| is the
Dieudonne determinant of the basis matrix at 0; DegenerateBasisError when
|d| <= 1e-12 times its squared column norms' sum, the rule of Matrix2H.solve.
"""

from __future__ import annotations

import math
from typing import Optional

from . import quadsolve
from .qmat2 import Matrix2H, dieudonne
from .quatcore import ONE, ZERO, ExpSum, Quaternion, _hamilton, exp_term


class DegenerateBasisError(ValueError):
    """Initial conditions cannot be matched: basis matrix is singular."""


class GeneralSolution(ExpSum):
    """Two one-term basis sums; the terms are basis[0] c1 + basis[1] c2.

    exponents are (q1, q2, u, lx) of the basis e^{q1 x}, (u + x lx) e^{q2 x}
    (_exponents), which is built the first time basis is read.
    general_solution leaves the coefficients, and with them the terms, unset.
    """

    __slots__ = ("roots", "_exponents", "_basis")

    def __init__(self, exponents: tuple, roots: Optional[quadsolve.RootSet] = None,
                 terms=None):
        super().__init__(terms)
        self.roots = roots
        self._exponents = exponents
        self._basis = None

    @property
    def basis(self) -> tuple[ExpSum, ExpSum]:
        if self._basis is None:
            q1, q2, u, lx = self._exponents
            self._basis = (ExpSum([exp_term(ONE, q1)]), ExpSum([exp_term(u, q2, Lx=lx)]))
        return self._basis


def _exponents(a: Quaternion, b: Quaternion):
    """The roots, q1, q2 and (u, lx) of the basis e^{q1 x}, (u + x lx) e^{q2 x}:
    u = 1, lx None and |q1| <= |q2| for two roots (c1 = phi0 - c2 then errs
    little against the terms' slopes at 0); u = kappa, lx = 1 at a repeated root."""
    roots = quadsolve.solve_quaternion(a, b)
    if roots.kind is quadsolve.RootKind.SPHERE:
        return (roots, Quaternion(roots.center, roots.alpha),
                Quaternion(roots.center, -roots.alpha), ONE, None)
    if roots.kind is not quadsolve.RootKind.REPEATED:
        q1, q2 = sorted(roots.roots, key=Quaternion.norm2)
        return roots, q1, q2, ONE, None
    q, an2 = roots.roots[0], a.x * a.x + a.y * a.y + a.z * a.z
    if an2 > 0.0 and any(quadsolve._cross((a.x, a.y, a.z), (b.x, b.y, b.z))):
        return roots, q, q, Quaternion(0.0, a.x / an2, a.y / an2, a.z / an2), ONE
    return roots, q, q, ZERO, ONE    # the second solution is plain x exp(q x)


def general_solution(a: Quaternion, b: Quaternion) -> GeneralSolution:
    """Basis of the equation, coefficients left unset."""
    roots, *exponents = _exponents(a, b)
    return GeneralSolution(tuple(exponents), roots)


def solve_ivp(a: Quaternion, b: Quaternion,
              phi0: Quaternion, dphi0: Quaternion) -> GeneralSolution:
    """Fix the right coefficients from phi(0), phi'(0) in closed form (module
    docstring); the rule is |d| / |M| <= 1e-12 |M| on math.hypot's norms."""
    roots, q1, q2, u, lx = _exponents(a, b)
    v = q2 if lx is None else ONE + u * q1     # M = [[1, u], [q1, v]] = [[f1, f2], [f1', f2']](0)
    d = q2 - q1 if lx is None else v - q1 * u
    norm = math.hypot(1.0, q1.w, q1.x, q1.y, q1.z, u.w, u.x, u.y, u.z, v.w, v.x, v.y, v.z)
    h = math.hypot(d.w, d.x, d.y, d.z)
    if h / norm <= 1e-12 * norm:
        raise DegenerateBasisError("singular basis matrix at 0")
    r = dphi0 - q1 * phi0
    dinv = (d.w / h / h, -d.x / h / h, -d.y / h / h, -d.z / h / h)     # conj(d) / |d|^2
    c2 = Quaternion(*_hamilton(dinv, (r.w, r.x, r.y, r.z)))
    c1 = phi0 - c2 if lx is None else phi0 - u * c2
    return GeneralSolution((q1, q2, u, lx), roots,
                           (exp_term(ONE, q1, c1), exp_term(u, q2, c2, Lx=lx)))


def residual(sol: GeneralSolution, a: Quaternion, b: Quaternion, x: float) -> float:
    """|phi'' + a phi' + b phi| at x."""
    return (sol.second(x) + a * sol.derivative(x) + b * sol.value(x)).norm()


def wronskian(phi1: Quaternion, phi2: Quaternion,
              dphi1: Quaternion, dphi2: Quaternion) -> float:
    """Non-negative Dieudonne/Study determinant of [[phi1, phi2], [dphi1, dphi2]].

    qmat2.dieudonne; equals |phi1| |dphi2 - dphi1 phi1^-1 phi2| when phi1 != 0.
    """
    return dieudonne(Matrix2H([[phi1, phi2], [dphi1, dphi2]]))
