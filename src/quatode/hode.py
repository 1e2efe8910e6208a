"""General solutions and IVPs for phi'' + a phi' + b phi = 0 over quaternions.

Coefficients a, b multiply from the left and are constant; solutions combine
a basis of (prefactor * quaternion-exponential) functions with constants
applied from the right.  Distinct characteristic roots give two exponentials,
a repeated root gets an affine prefactor, and the vector-free degenerate
equation (whole sphere of characteristic roots) is spanned by the two
canonical i-axis exponentials; other axes are reachable through
quatcore.rebase_sphere_exponential.
"""

from __future__ import annotations

from typing import Optional

from . import quadsolve, quatcore
from .qmat2 import Matrix2H, dieudonne
from .quatcore import ONE, ExpSum, Quaternion, exp_term


class DegenerateBasisError(ValueError):
    """Initial conditions cannot be matched: basis matrix is singular."""


class GeneralSolution(ExpSum):
    """Two one-term basis sums; the terms are basis[0] c1 + basis[1] c2.

    general_solution leaves the coefficients, and with them the terms, unset.
    """

    __slots__ = ("basis", "roots")

    def __init__(self, basis: tuple[ExpSum, ExpSum],
                 roots: Optional[quadsolve.RootSet] = None, terms=None):
        super().__init__(terms)
        self.basis = basis
        self.roots = roots

    def with_coefficients(self, c1: Quaternion, c2: Quaternion) -> "GeneralSolution":
        combined = self.basis[0] * c1 + self.basis[1] * c2
        return GeneralSolution(self.basis, self.roots, combined.terms)


def general_solution(a: Quaternion, b: Quaternion) -> GeneralSolution:
    """Basis of the equation, coefficients left unset."""
    roots = quadsolve.solve_quaternion(a, b)
    if roots.kind is quadsolve.RootKind.SPHERE:
        terms = (exp_term(ONE, complex(roots.center, roots.alpha)),
                 exp_term(ONE, complex(roots.center, -roots.alpha)))
    elif roots.kind is quadsolve.RootKind.REPEATED:
        q = roots.roots[0]
        an2 = a.x * a.x + a.y * a.y + a.z * a.z
        if an2 > 0.0 and any(quadsolve._cross((a.x, a.y, a.z), (b.x, b.y, b.z))):
            kappa = Quaternion(0.0, a.x / an2, a.y / an2, a.z / an2)
        else:
            # second independent solution is plain x * exp(q x)
            kappa = quatcore.ZERO
        # (x + kappa) exp(q x)
        terms = (exp_term(ONE, q), exp_term(kappa, q, Lx=ONE))
    else:
        terms = tuple(exp_term(ONE, q) for q in roots.roots)
    return GeneralSolution(tuple(ExpSum([t]) for t in terms), roots)


def solve_ivp(a: Quaternion, b: Quaternion,
              phi0: Quaternion, dphi0: Quaternion) -> GeneralSolution:
    """Fix the right coefficients from phi(0), phi'(0)."""
    sol = general_solution(a, b)
    rows = [[f.value(0.0) for f in sol.basis], [f.derivative(0.0) for f in sol.basis]]
    try:
        c1, c2 = Matrix2H(rows).solve((phi0, dphi0))
    except ValueError as exc:
        raise DegenerateBasisError(str(exc)) from exc
    return sol.with_coefficients(c1, c2)


def residual(sol: GeneralSolution, a: Quaternion, b: Quaternion, x: float) -> float:
    """|phi'' + a phi' + b phi| at x."""
    return (sol.second(x) + a * sol.derivative(x) + b * sol.value(x)).norm()


def wronskian(phi1: Quaternion, phi2: Quaternion,
              dphi1: Quaternion, dphi2: Quaternion) -> float:
    """Non-negative Dieudonne/Study determinant of [[phi1, phi2], [dphi1, dphi2]].

    qmat2.dieudonne; equals |phi1| |dphi2 - dphi1 phi1^-1 phi2| when phi1 != 0.
    """
    return dieudonne(Matrix2H([[phi1, phi2], [dphi1, dphi2]]))
