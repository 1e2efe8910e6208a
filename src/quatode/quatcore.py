"""Quaternion arithmetic and the symplectic complex representation.

Scalars are quaternions q = w + x*i + y*j + z*k, component order (1, i, j, k).
Writing q = z1 + j*z2 with complex z1, z2 turns every right-complex-linear map
on quaternions into a 2x2 complex matrix; all eigen machinery downstream is
built on that bridge.  Multiplication is the Hamilton product and is
non-commutative, so division is only provided through explicit inverses.
Every closed-form solution in the package is an ExpSum, a sum of terms
(L + x Lx) exp(q x) R.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

# below this imaginary norm, sin|v|/|v| is evaluated by series (removable 0/0)
_EXP_SERIES_CUTOFF = 1e-6


class Quaternion:
    """A real quaternion w + x*i + y*j + z*k."""

    __slots__ = ("w", "x", "y", "z")

    def __init__(self, w=0.0, x=0.0, y=0.0, z=0.0):
        self.w = float(w)
        self.x = float(x)
        self.y = float(y)
        self.z = float(z)

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_complex(cls, c) -> "Quaternion":
        """Embed a complex number onto the (1, i) plane."""
        c = complex(c)
        return cls(c.real, c.imag, 0.0, 0.0)

    @classmethod
    def from_vector(cls, v) -> "Quaternion":
        """Pure-imaginary quaternion from a real 3-vector (i, j, k parts)."""
        return cls(0.0, v[0], v[1], v[2])

    @classmethod
    def from_symplectic(cls, z1, z2) -> "Quaternion":
        """Build z1 + j*z2 from the complex pair (z1, z2)."""
        z1, z2 = complex(z1), complex(z2)
        return cls(z1.real, z1.imag, z2.real, -z2.imag)

    @classmethod
    def from_array(cls, a) -> "Quaternion":
        return cls(a[0], a[1], a[2], a[3])

    # -- views ------------------------------------------------------------

    def symplectic(self) -> tuple[complex, complex]:
        """Complex pair (z1, z2) with self = z1 + j*z2."""
        return complex(self.w, self.x), complex(self.y, -self.z)

    def to_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z])

    def vector(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    # -- algebra ----------------------------------------------------------

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm2(self) -> float:
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def norm(self) -> float:
        # hypot scales internally: a finite quaternion has a finite norm
        return math.hypot(self.w, self.x, self.y, self.z)

    def inverse(self) -> "Quaternion":
        # conj(p) / |p|^2 for p = q 2^-e, whose largest component is in
        # [1/2, 1), scaled by 2^-e again: the powers of two scale exactly, and
        # |p|^2 in [1/4, 4) cannot over- or underflow where 1/q is finite
        big = max(abs(self.w), abs(self.x), abs(self.y), abs(self.z))
        if big == 0.0:
            raise ZeroDivisionError("zero quaternion has no inverse")
        e = math.frexp(big)[1]
        w, x, y, z = (math.ldexp(c, -e) for c in (self.w, self.x, self.y, self.z))
        n2 = w * w + x * x + y * y + z * z
        return Quaternion(math.ldexp(w / n2, -e), math.ldexp(-x / n2, -e),
                          math.ldexp(-y / n2, -e), math.ldexp(-z / n2, -e))

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Quaternion(self.w - other.w, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        aw, ax, ay, az = self.w, self.x, self.y, self.z
        bw, bx, by, bz = other.w, other.x, other.y, other.z
        return Quaternion(
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        )

    def __rmul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other * self

    def __truediv__(self, other):
        # only real divisors are unambiguous; otherwise use .inverse() explicitly
        if isinstance(other, numbers.Real):
            return Quaternion(self.w / other, self.x / other,
                              self.y / other, self.z / other)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, Quaternion):
            return NotImplemented
        return (self.w, self.x, self.y, self.z) == (other.w, other.x, other.y, other.z)

    def __repr__(self):
        return f"Quaternion({self.w:g}, {self.x:g}, {self.y:g}, {self.z:g})"

    # -- matrix representations -------------------------------------------

    def left_matrix(self) -> np.ndarray:
        """4x4 real matrix of p -> self * p on (w, x, y, z) columns."""
        w, x, y, z = self.w, self.x, self.y, self.z
        return np.array([
            [w, -x, -y, -z],
            [x, w, -z, y],
            [y, z, w, -x],
            [z, -y, x, w],
        ])

    def right_matrix(self) -> np.ndarray:
        """4x4 real matrix of p -> p * self."""
        w, x, y, z = self.w, self.x, self.y, self.z
        return np.array([
            [w, -x, -y, -z],
            [x, w, z, -y],
            [y, -z, w, x],
            [z, y, -x, w],
        ])

    def counterpart(self) -> np.ndarray:
        """2x2 complex matrix of the right-complex-linear map p -> self * p."""
        return np.array(self._counterpart_rows())

    def _counterpart_rows(self) -> tuple:
        z1, z2 = self.symplectic()
        return ((z1, -z2.conjugate()), (z2, z1.conjugate()))


def _coerce(value):
    if isinstance(value, Quaternion):
        return value
    if isinstance(value, numbers.Real):
        return Quaternion(value)
    if isinstance(value, numbers.Complex):
        return Quaternion.from_complex(value)
    return None


ZERO = Quaternion()
ONE = Quaternion(1.0)
I = Quaternion(0.0, 1.0)
J = Quaternion(0.0, 0.0, 1.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)


def exp(q: Quaternion) -> Quaternion:
    """Quaternion exponential exp(w)(cos|v| + (v/|v|) sin|v|), v the imaginary part."""
    vn = math.sqrt(q.x * q.x + q.y * q.y + q.z * q.z)
    ew = math.exp(q.w)
    if vn < _EXP_SERIES_CUTOFF:
        v2 = vn * vn
        sinc = 1.0 - v2 / 6.0 + v2 * v2 / 120.0
    else:
        sinc = math.sin(vn) / vn
    f = ew * sinc
    return Quaternion(ew * math.cos(vn), f * q.x, f * q.y, f * q.z)


def _hamilton(a: tuple, b: tuple) -> tuple:
    """Hamilton product of 4-tuples whose components may be complex.

    The complex unit of the components commutes with i, j and k, so complex
    components make these biquaternions.
    """
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw)


def _components(q) -> tuple:
    """(w, x, y, z) of a quaternion, or of a real or complex number."""
    if isinstance(q, Quaternion):
        return (q.w, q.x, q.y, q.z)
    c = complex(q)
    return (c.real, c.imag, 0.0, 0.0)


class Term(NamedTuple):
    """One term Re(e^{z x} (p + x px)) of an ExpSum.

    p and px are biquaternions (complex 4-tuples), and Re takes the real part
    of each component.  px is None when the term has no affine part.
    """

    z: complex
    p: tuple
    px: Optional[tuple]


_AXIS_I = (1.0, -1j, 0.0, 0.0)    # 1 - I i


def exp_term(L, q, R=ONE, Lx=None) -> Term:
    """The term (L + x Lx) exp(q x) R; q is a quaternion or a complex a + b i,
    L and Lx are quaternions, R is a quaternion or a real or complex number.

    With q = w + v and u = v/|v| (u = i when v = 0), u^2 = -1 gives
    exp(q x) = Re(e^{zx}) + Im(e^{zx}) u for the complex z = w + i|v|.  So
    with the complex unit I of the biquaternions, the term is
    Re(e^{zx} (P + x Px)) with P = L (1 - I u) R and Px = Lx (1 - I u) R.
    A factor that is the constant ONE is not multiplied out.
    """
    if isinstance(q, Quaternion):
        vn = math.sqrt(q.x * q.x + q.y * q.y + q.z * q.z)
        z = complex(q.w, vn)
        axis = ((1.0, -1j * q.x / vn, -1j * q.y / vn, -1j * q.z / vn)
                if vn else _AXIS_I)
    else:
        z, axis = complex(q), _AXIS_I
    right = axis if R is ONE else _hamilton(axis, _components(R))
    px = (None if Lx is None else right if Lx is ONE
          else _hamilton((Lx.w, Lx.x, Lx.y, Lx.z), right))
    return Term(z, right if L is ONE else _hamilton((L.w, L.x, L.y, L.z), right), px)


class ExpSum:
    """Sum of terms (L + x Lx) exp(q x) R: every closed-form solution here.

    Each evaluation costs one cmath.exp and a few complex multiply-adds per
    term.  terms is None while the right coefficients are not fixed yet
    (hode.general_solution); evaluating such a sum raises ValueError.
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = None if terms is None else tuple(terms)

    def value(self, x: float) -> Quaternion:
        return self._eval(x, 0)

    def derivative(self, x: float) -> Quaternion:
        return self._eval(x, 1)

    def second(self, x: float) -> Quaternion:
        return self._eval(x, 2)

    def _eval(self, x: float, order: int) -> Quaternion:
        # d^n/dx^n of e^{zx} (p + x px) is en p + dn px with en = z^n e^{zx}
        # and dn = x en + n z^{n-1} e^{zx}
        if self.terms is None:
            raise ValueError("coefficients not set; solve an IVP first")
        w = i = j = k = 0j
        for z, p, px in self.terms:
            e = cmath.exp(z * x)
            if order == 0:
                en = e
            elif order == 1:
                en = z * e
            else:
                ze = z * e
                en = z * ze
            w += en * p[0]
            i += en * p[1]
            j += en * p[2]
            k += en * p[3]
            if px is not None:
                dn = x * e if order == 0 else x * en + e if order == 1 else x * en + 2.0 * ze
                w += dn * px[0]
                i += dn * px[1]
                j += dn * px[2]
                k += dn * px[3]
        return Quaternion(w.real, i.real, j.real, k.real)

    def _map(self, f) -> "ExpSum":
        return ExpSum(Term(z, f(p), None if px is None else f(px))
                      for z, p, px in self.terms)

    def __mul__(self, c) -> "ExpSum":
        """The sum times the constant quaternion c on the right."""
        c = _components(c)
        return self._map(lambda p: _hamilton(p, c))

    def __rmul__(self, c) -> "ExpSum":
        """The constant quaternion c times the sum, c on the left."""
        c = _components(c)
        return self._map(lambda p: _hamilton(c, p))

    def __add__(self, other: "ExpSum") -> "ExpSum":
        return ExpSum(self.terms + other.terms)


def rebase_sphere_exponential(alpha_vec) -> tuple[Quaternion, Quaternion]:
    """Constant quaternions (c+, c-) expanding an arbitrary-axis oscillation.

    For alpha_vec with norm alpha > 0, exp((h . alpha_vec) x) equals
    exp(i alpha x) c+ + exp(-i alpha x) c- for every real x, with
    c+- = (alpha -+ i (h . alpha_vec)) / (2 alpha).
    """
    v = np.asarray(alpha_vec, dtype=float)
    alpha = float(np.linalg.norm(v))
    if alpha == 0.0:
        raise ValueError("zero axis: no preferred complex unit to rebase onto")
    hv = Quaternion.from_vector(v)
    c_plus = (alpha - I * hv) / (2.0 * alpha)
    c_minus = (alpha + I * hv) / (2.0 * alpha)
    return c_plus, c_minus


@dataclass(frozen=True)
class RightLinearScalarOp:
    """Scalar operator psi -> A psi + B psi i.

    Commutes with right multiplication by complex numbers, so it has a 2x2
    complex matrix through the symplectic pair.
    """

    A: Quaternion
    B: Quaternion

    def __call__(self, psi: Quaternion) -> Quaternion:
        return self.A * psi + self.B * psi * I

    def counterpart(self) -> np.ndarray:
        return np.array(self._counterpart_rows())

    def _counterpart_rows(self) -> tuple:
        # A's rows plus i times B's: right multiplication by i is i on both slots
        a, b = self.A, self.B
        return ((complex(a.w - b.x, a.x + b.w), complex(b.z - a.y, -a.z - b.y)),
                (complex(a.y + b.z, b.y - a.z), complex(a.w + b.x, b.w - a.x)))

    def matrix4(self) -> np.ndarray:
        """4x4 real matrix of the action on (w, x, y, z)."""
        return self.A.left_matrix() + self.B.left_matrix() @ I.right_matrix()
