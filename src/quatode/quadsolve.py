"""Exact solver for left-coefficient quaternionic quadratics.

Solves q**2 + (a0 + h.aVec) q + b0 + h.bVec = 0 by removing the real part of
the linear coefficient (p = q + a0/2) and then branching on the geometry of
the two imaginary vectors of the reduced equation: parallel, orthogonal, or
generic, plus the degenerate vector-free cases.  The vector-free equation
p**2 + alpha**2 = 0 has a whole sphere of roots; everything else has at most
two, which this module returns in closed form.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

from .quatcore import Quaternion

# relative gate deciding parallel/orthogonal against generic
_CLASSIFY_EPS = 1e-12
# relative gate for the repeated-root branch of the orthogonal case
_DELTA_EPS = 1e-12


class CaseTag(enum.Enum):
    PARALLEL = "parallel"
    ORTHOGONAL = "orthogonal"
    GENERIC = "generic"
    A_ZERO = "a_zero"
    C_ZERO = "c_zero"
    BOTH_ZERO = "both_zero"


class RootKind(enum.Enum):
    DISTINCT = "distinct"
    REPEATED = "repeated"
    SPHERE = "sphere"
    REAL_PAIR = "real_pair"


def _dot(u, v) -> float:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _cross(u, v) -> tuple:
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


class QuadraticCoeffs:
    """Original coefficients plus the reduced-equation quantities.

    The reduced unknown is p = q + a0/2, satisfying
    p**2 + (h.a_vec) p + c0 + h.c_vec = 0; d_vec = c_vec - d0 a_vec is the
    part of c_vec orthogonal to a_vec.  Every vector is a float 3-tuple.
    OverflowError when c0, |a_vec|^2 or |c_vec|^2 is not finite.
    """

    __slots__ = ("a0", "b0", "c0", "d0", "delta", "a_vec", "b_vec", "c_vec", "d_vec")

    def __init__(self, a0: float, a_vec, b0: float, b_vec):
        self.a0, self.b0 = a0, b0 = float(a0), float(b0)
        self.a_vec, self.b_vec = a, b = tuple(map(float, a_vec)), tuple(map(float, b_vec))
        half = a0 / 2.0
        self.c0 = c0 = b0 - a0 * a0 / 4.0
        self.c_vec = c = (b[0] - half * a[0], b[1] - half * a[1], b[2] - half * a[2])
        an2, cn2 = _dot(a, a), _dot(c, c)
        if not math.isfinite(c0 + an2 + cn2):
            raise OverflowError("reduced coefficients overflow")
        self.d0, self.d_vec, self.delta = math.nan, (math.nan,) * 3, math.nan
        if an2 > 0.0:
            self.d0 = d0 = _dot(a, c) / an2
            self.d_vec = (c[0] - d0 * a[0], c[1] - d0 * a[1], c[2] - d0 * a[2])
            self.delta = 0.25 + (c0 - cn2 / an2) / an2

    @property
    def shift(self) -> float:
        """Real shift taking reduced roots back: q = p - shift."""
        return self.a0 / 2.0


@dataclass(frozen=True)
class RootSet:
    """Roots of the original (unshifted) quadratic; OverflowError unless finite."""

    kind: RootKind
    case: CaseTag
    roots: tuple[Quaternion, ...] = ()
    alpha: float = 0.0           # sphere radius (imaginary norm)
    center: float = 0.0          # real part of every sphere root

    def __post_init__(self):
        # x * 0.0 is 0.0 for a finite x and nan otherwise
        if sum(q.w * 0.0 + q.x * 0.0 + q.y * 0.0 + q.z * 0.0 for q in self.roots) != 0.0:
            raise OverflowError("a root overflows")

    def sphere_samples(self, count: int = 16) -> list[Quaternion]:
        """Deterministic sample of sphere roots center + h.(alpha * axis)."""
        if self.kind is not RootKind.SPHERE:
            raise ValueError("not a sphere root set")
        out = []
        golden = math.pi * (3.0 - math.sqrt(5.0))
        for n in range(count):
            ct = 1.0 - 2.0 * (n + 0.5) / count
            st = math.sqrt(max(0.0, 1.0 - ct * ct))
            ph = golden * n
            out.append(Quaternion(self.center, self.alpha * (st * math.cos(ph)),
                                  self.alpha * (st * math.sin(ph)), self.alpha * ct))
        return out

    def all_roots(self) -> list[Quaternion]:
        if self.kind is RootKind.SPHERE:
            return self.sphere_samples()
        return list(self.roots)


def classify(c: QuadraticCoeffs) -> CaseTag:
    """Decide which closed-form branch applies to the reduced equation."""
    an, cn = math.hypot(*c.a_vec), math.hypot(*c.c_vec)
    # the roots' scale: |a| scales like it, |c| and c0 like its square
    s = max(an, math.sqrt(cn), math.sqrt(abs(c.c0)), 1e-300)
    if an <= _CLASSIFY_EPS * s and cn <= _CLASSIFY_EPS * s * s:
        return CaseTag.BOTH_ZERO
    if an <= _CLASSIFY_EPS * s:
        return CaseTag.A_ZERO
    if cn <= _CLASSIFY_EPS * s * s:
        return CaseTag.C_ZERO
    cross = math.hypot(*_cross(c.a_vec, c.c_vec))
    dot = _dot(c.a_vec, c.c_vec)
    if cross <= _CLASSIFY_EPS * an * cn:
        return CaseTag.PARALLEL
    if abs(dot) <= _CLASSIFY_EPS * an * cn:
        return CaseTag.ORTHOGONAL
    return CaseTag.GENERIC


def residual(c: QuadraticCoeffs, q: Quaternion) -> float:
    """|q**2 + a q + b| for the original equation, finite up to the float range."""
    r = q * q + Quaternion(c.a0, *c.a_vec) * q + Quaternion(c.b0, *c.b_vec)
    return math.hypot(r.w, r.x, r.y, r.z)


def cubic_resolvent(c: QuadraticCoeffs) -> float:
    """Unique positive root w = p0**2 of the generic-case resolvent cubic.

    Closed form (trigonometric with three real roots, else Cardano) for the
    root largest in modulus; Vieta's relations, which do not cancel, for the
    positive root when that is another; then one Newton polish.  By
    Descartes' rule the cubic has exactly one positive real root, so failing
    to find one signals a misclassified input.
    """
    an2, dn2 = _dot(c.a_vec, c.a_vec), _dot(c.d_vec, c.d_vec)
    c0, d0 = c.c0, c.d0
    # monic: w^3 + k2 w^2 + k1 w + k0
    k2 = (an2 + 2.0 * c0) / 2.0
    k1 = (an2 * (c0 - d0 * d0) + an2 * an2 / 4.0 - dn2) / 4.0
    k0 = -d0 * d0 * an2 * an2 / 16.0
    if not math.isfinite(k2 + k1 + k0):
        raise OverflowError("resolvent coefficients overflow")
    # w = sigma x with sigma a power of two near the roots' size keeps the
    # sixth powers in disc finite; x = t - s gives t^3 + p t + q
    sigma = 2.0 ** math.frexp(max(abs(k2), math.sqrt(abs(k1)), abs(k0) ** (1 / 3)))[1]
    k2, k1, k0 = k2 / sigma, k1 / sigma / sigma, k0 / sigma / sigma / sigma
    s = k2 / 3.0
    p = k1 - k2 * s
    q = s * (2.0 * s * s - k1) + k0
    disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
    if disc < 0.0:
        # roots m cos((phi - 2 pi n) / 3) - s: n = 0 largest, n = 2 lowest
        m = 2.0 * math.sqrt(-p / 3.0)
        phi = math.acos(max(-1.0, min(1.0, 3.0 * q / (p * m))))
        top = m * math.cos(phi / 3.0) - s
        low = m * math.cos((phi - 4.0 * math.pi) / 3.0) - s
        w = top if abs(top) >= abs(low) else low
    else:
        # one real root u + v - s, and a pair of squared modulus mod2
        u = -math.copysign((abs(q) / 2.0 + math.sqrt(disc)) ** (1.0 / 3.0), q)
        v = -p / (3.0 * u) if u else 0.0
        w = u + v - s
        mod2 = (-(u + v) / 2.0 - s) ** 2 + 0.75 * (u - v) ** 2
        if w * w < mod2:
            w = -k0 / mod2          # the real root is the small one: Vieta
    if w < 0.0:
        # the positive root solves x^2 + beta x + gamma, the cubic over x - w
        beta, gamma = k2 + w, -k0 / w
        root = math.sqrt(max(0.0, beta * beta - 4.0 * gamma))
        w = -2.0 * gamma / (beta + root) if beta > 0.0 else (root - beta) / 2.0
    if not w > 0.0:
        raise ArithmeticError(
            "no positive real resolvent root: inconsistent classification")
    # one Newton step to polish against the roundoff of the closed form
    dw = k1 + w * (2.0 * k2 + 3.0 * w)
    if dw != 0.0:
        w -= (k0 + w * (k1 + w * (k2 + w))) / dw
    if w <= 0.0:
        raise ArithmeticError("resolvent root polished to non-positive value")
    return w * sigma


def _complex_pair_to_rootset(c: QuadraticCoeffs, case: CaseTag,
                             unit: tuple, z1: complex, z2: complex) -> RootSet:
    """Lift complex roots along the imaginary unit h.unit and undo the shift."""

    def lift(z: complex) -> Quaternion:
        return Quaternion(z.real - c.shift, *(z.imag * u for u in unit))

    if abs(z1 - z2) <= 1e-14 * max(1.0, abs(z1), abs(z2)):
        return RootSet(kind=RootKind.REPEATED, case=case, roots=(lift(z1),))
    return RootSet(kind=RootKind.DISTINCT, case=case,
                   roots=_order_roots((lift(z1), lift(z2))))


def _root_key(q: Quaternion):
    # deterministic output: real part, then imaginary norm, descending
    return (q.w, math.hypot(q.x, q.y, q.z))


def _order_roots(roots) -> tuple[Quaternion, ...]:
    return tuple(sorted(roots, key=_root_key, reverse=True))


def _root(p0: float, x: float, y: float, z: float, u: tuple, v: tuple,
          shift: float) -> Quaternion:
    """The root p - shift of the reduced root p = p0 + h.(x*u + y*v + z*(u x v))."""
    w = _cross(u, v)
    return Quaternion(p0 - shift, x * u[0] + y * v[0] + z * w[0],
                      x * u[1] + y * v[1] + z * w[1], x * u[2] + y * v[2] + z * w[2])


def _orthogonal_roots(c: QuadraticCoeffs) -> RootSet:
    # coordinates on u = a_vec and v = c_vec, which is orthogonal to it
    a, v = c.a_vec, c.c_vec
    an2, cn2 = _dot(a, a), _dot(v, v)
    scale = 1.0 + c.c0 ** 2 + an2 ** 2 + cn2
    if abs(c.delta) <= _DELTA_EPS * scale:
        return RootSet(kind=RootKind.REPEATED, case=CaseTag.ORTHOGONAL,
                       roots=(_root(0.0, -0.5, 0.0, 1.0 / an2, a, v, c.shift),))
    if c.delta > 0.0:
        s = math.sqrt(c.delta)
        roots = (_root(0.0, -0.5 + sgn * s, 0.0, 1.0 / an2, a, v, c.shift)
                 for sgn in (+1.0, -1.0))
    else:
        rad = 2.0 * (math.sqrt(c.c0 ** 2 + cn2) - c.c0) - an2
        if rad < 0.0:
            # provably >= 0 when delta <= 0; clamp rounding noise
            import logging     # here, not at import: few runs reach this
            logging.getLogger(__name__).info("clamping negative radicand %.3e to zero", rad)
            rad = 0.0
        p0 = 0.5 * math.sqrt(rad)
        roots = (_root(sgn * p0, -0.5, -2.0 * sgn * p0 / (4.0 * p0 * p0 + an2),
                       1.0 / (4.0 * p0 * p0 + an2), a, v, c.shift)
                 for sgn in (+1.0, -1.0))
    return RootSet(kind=RootKind.DISTINCT, case=CaseTag.ORTHOGONAL,
                   roots=_order_roots(roots))


def _generic_roots(c: QuadraticCoeffs) -> RootSet:
    # coordinates on u = a_vec and v = d_vec, c_vec's part orthogonal to it
    an2 = _dot(c.a_vec, c.a_vec)
    r = math.sqrt(cubic_resolvent(c))
    roots = (_root(p0, -(p0 + c.d0) / (2.0 * p0), -2.0 * p0 / (4.0 * p0 * p0 + an2),
                   1.0 / (4.0 * p0 * p0 + an2), c.a_vec, c.d_vec, c.shift)
             for p0 in (r, -r))
    return RootSet(kind=RootKind.DISTINCT, case=CaseTag.GENERIC,
                   roots=_order_roots(roots))


def solve(c: QuadraticCoeffs) -> RootSet:
    """All roots of the original quadratic, classified by branch."""
    case = classify(c)
    if case is CaseTag.BOTH_ZERO:
        if c.c0 > 0.0:
            return RootSet(kind=RootKind.SPHERE, case=case,
                           alpha=math.sqrt(c.c0), center=-c.shift)
        if c.c0 < 0.0:
            r = math.sqrt(-c.c0)
            return RootSet(kind=RootKind.REAL_PAIR, case=case,
                           roots=_order_roots((Quaternion(r - c.shift),
                                               Quaternion(-r - c.shift))))
        return RootSet(kind=RootKind.REPEATED, case=case,
                       roots=(Quaternion(-c.shift),))
    if case is CaseTag.ORTHOGONAL:
        return _orthogonal_roots(c)
    if case is CaseTag.GENERIC:
        return _generic_roots(c)
    # a and c lie on one imaginary unit h.unit, so p = z (h.unit) with
    # z^2 + i|a| z + c0 + i alpha = 0 in its complex plane, alpha = a.c / |a|
    # (alpha = |c| and unit = c / |c| at a = 0, alpha = 0 at c = 0)
    if case is CaseTag.A_ZERO:
        alpha = math.hypot(*c.c_vec)
        half_a, unit = 0.0, tuple(x / alpha for x in c.c_vec)
    else:
        an = math.hypot(*c.a_vec)
        half_a, unit = an / 2.0, tuple(x / an for x in c.a_vec)
        alpha = _dot(c.a_vec, c.c_vec) / an if case is CaseTag.PARALLEL else 0.0
    # the half form: -|a|^2 / 4 overflows later than -|a|^2 - 4 c0; 0.0 - alpha
    # is +0.0 at alpha = 0, so a repeated root keeps the root of the upper branch
    disc = cmath.sqrt(complex(-half_a * half_a - c.c0, 0.0 - alpha))
    return _complex_pair_to_rootset(c, case, unit, complex(0.0, -half_a) + disc,
                                    complex(0.0, -half_a) - disc)


def solve_coeffs(a0: float, a_vec, b0: float, b_vec) -> RootSet:
    return solve(QuadraticCoeffs(a0, a_vec, b0, b_vec))


def solve_quaternion(a: Quaternion, b: Quaternion) -> RootSet:
    """Roots of q**2 + a q + b = 0 with quaternionic a, b."""
    return solve(QuadraticCoeffs(a.w, (a.x, a.y, a.z), b.w, (b.x, b.y, b.z)))
