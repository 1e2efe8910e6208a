"""2x2 quaternionic and right-complex-linear matrices and their eigenstructure.

A quaternionic matrix acts on column 2-vectors with eigenvalues applied from
the right, M Psi = Psi z.  Splitting every entry into its symplectic pair
embeds the matrix as a 4x4 complex matrix (the complex counterpart) whose
spectrum comes in conjugate pairs {z, conj(z)}; one representative per pair
with non-negative imaginary part is the canonical eigenvalue.  Counterpart
coordinates of a 2-vector (psi1, psi2) are ordered (first symplectic
components, then second): (z1(psi1), z1(psi2), z2(psi1), z2(psi2)).  This
convention is pinned by the anti-hermitian worked example in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .quatcore import ExpSum, Quaternion, RightLinearScalarOp, exp_term

# rank decisions on the 4x4 counterpart
_RANK_TOL = 1e-9
# eigenvalues closer than this (times the scale) are one repeated eigenvalue:
# a defective pair splits its computed eigenvalues by O(sqrt(eps)), so the
# merge decision must be far looser than the rank tolerance
_MERGE_TOL = 1e-6
# numerical threshold deciding quaternionic linear independence of two unit
# columns: their dieudonne determinant lies in [0, 1] whatever the scale of M
_INDEP_TOL = 1e-10
# a linear system is singular when dieudonne(M) <= _SINGULAR_TOL |M|^2
_SINGULAR_TOL = 1e-12


class DefectiveMatrixError(ValueError):
    """Eigenvectors do not span; the matrix needs its Jordan form."""


def svec(v: Sequence[Quaternion]) -> np.ndarray:
    """Counterpart coordinates of a quaternionic 2-vector."""
    a1, a2 = v[0].symplectic()
    b1, b2 = v[1].symplectic()
    return np.array([a1, b1, a2, b2])


def lift(v: np.ndarray) -> tuple[Quaternion, Quaternion]:
    """Inverse of svec."""
    return (Quaternion.from_symplectic(v[0], v[2]),
            Quaternion.from_symplectic(v[1], v[3]))


class Matrix2H:
    """2x2 matrix of quaternions acting from the left."""

    def __init__(self, entries):
        self.m = tuple(tuple(_as_quaternion(e) for e in row) for row in entries)
        if len(self.m) != 2 or any(len(r) != 2 for r in self.m):
            raise ValueError("expected a 2x2 array of quaternions")

    @classmethod
    def identity(cls) -> "Matrix2H":
        return cls([[1, 0], [0, 1]])

    @classmethod
    def diagonal(cls, d1, d2) -> "Matrix2H":
        return cls([[d1, 0], [0, d2]])

    @classmethod
    def from_columns(cls, c1, c2) -> "Matrix2H":
        return cls([[c1[0], c2[0]], [c1[1], c2[1]]])

    def __getitem__(self, idx):
        return self.m[idx[0]][idx[1]]

    def __matmul__(self, other: "Matrix2H") -> "Matrix2H":
        a, b = self.m, other.m
        return Matrix2H([
            [a[0][0] * b[0][0] + a[0][1] * b[1][0],
             a[0][0] * b[0][1] + a[0][1] * b[1][1]],
            [a[1][0] * b[0][0] + a[1][1] * b[1][0],
             a[1][0] * b[0][1] + a[1][1] * b[1][1]],
        ])

    def __add__(self, other: "Matrix2H") -> "Matrix2H":
        return Matrix2H([[self.m[r][c] + other.m[r][c] for c in range(2)]
                         for r in range(2)])

    def __sub__(self, other: "Matrix2H") -> "Matrix2H":
        return Matrix2H([[self.m[r][c] - other.m[r][c] for c in range(2)]
                         for r in range(2)])

    def matvec(self, v) -> tuple[Quaternion, Quaternion]:
        return (self.m[0][0] * v[0] + self.m[0][1] * v[1],
                self.m[1][0] * v[0] + self.m[1][1] * v[1])

    def dagger(self) -> "Matrix2H":
        return Matrix2H([[self.m[0][0].conjugate(), self.m[1][0].conjugate()],
                         [self.m[0][1].conjugate(), self.m[1][1].conjugate()]])

    def norm(self) -> float:
        return float(np.sqrt(sum(e.norm2() for row in self.m for e in row)))

    def counterpart(self) -> np.ndarray:
        """4x4 complex matrix in the svec coordinates."""
        return _counterpart([[e._counterpart_rows() for e in row] for row in self.m])

    def solve(self, rhs) -> tuple[Quaternion, Quaternion]:
        """The 2-vector c with M c = rhs, by one complex solve on the counterpart.

        Raises ValueError when dieudonne(M) <= 1e-12 |M|^2.
        """
        return lift(np.linalg.solve(self._regular_counterpart(), svec(rhs)))

    def inverse(self) -> "Matrix2H":
        """M^-1, read back from the inverse of the counterpart."""
        return _lift_inverse(self._regular_counterpart())

    def _regular_counterpart(self) -> np.ndarray:
        c = self.counterpart()
        # an exact power of two takes the largest modulus into [0.5, 1): both
        # sides of the test have degree 2, so no verdict changes, but neither
        # over- nor underflows; |c|^2 = 2 |M|^2
        s = c * math.ldexp(1.0, -math.frexp(np.abs(c).max())[1])
        if _root_det(s) <= _SINGULAR_TOL * np.vdot(s, s).real / 2.0:
            raise ValueError("singular quaternionic system")
        return c

    def __repr__(self):
        return f"Matrix2H({self.m!r})"


class Matrix2CL:
    """2x2 matrix of right-complex-linear scalar operators."""

    def __init__(self, entries):
        self.m = tuple(tuple(_as_op(e) for e in row) for row in entries)
        if len(self.m) != 2 or any(len(r) != 2 for r in self.m):
            raise ValueError("expected a 2x2 array of scalar operators")

    def matvec(self, v) -> tuple[Quaternion, Quaternion]:
        return (self.m[0][0](v[0]) + self.m[0][1](v[1]),
                self.m[1][0](v[0]) + self.m[1][1](v[1]))

    def counterpart(self) -> np.ndarray:
        return _counterpart([[op._counterpart_rows() for op in row] for row in self.m])

    def __repr__(self):
        return f"Matrix2CL({self.m!r})"


def _counterpart(blocks) -> np.ndarray:
    """4x4 matrix in svec coordinates: blocks[r][k] holds the rows of entry
    (r, k)'s 2x2 counterpart, whose element (i, j) goes to (r + 2 i, k + 2 j)."""
    return np.array([[b0[i][0], b1[i][0], b0[i][1], b1[i][1]]
                     for i in range(2) for b0, b1 in blocks])


def _companion_counterpart(a, b) -> np.ndarray:
    """Counterpart of the matrix form [[0, 1], [-b, -a]] of
    phi'' + a(phi') + b(phi) = 0, for quaternions or scalar operators a and
    b, from their counterpart rows without building the 2x2 matrix."""
    (a00, a01), (a10, a11) = a._counterpart_rows()
    (b00, b01), (b10, b11) = b._counterpart_rows()
    return np.array([[0j, 1, 0j, 0j], [-b00, -a00, -b01, -a01],
                     [0j, 0j, 0j, 1], [-b10, -a10, -b11, -a11]])


def _lift_inverse(c: np.ndarray) -> "Matrix2H":
    ci = np.linalg.inv(c)
    return Matrix2H.from_columns(lift(ci[:, 0]), lift(ci[:, 1]))


def _as_quaternion(e) -> Quaternion:
    if isinstance(e, Quaternion):
        return e
    return Quaternion.from_complex(e) if isinstance(e, complex) else Quaternion(e)

def _as_op(e) -> RightLinearScalarOp:
    if isinstance(e, RightLinearScalarOp):
        return e
    return RightLinearScalarOp(_as_quaternion(e), Quaternion())


def dieudonne(m: Matrix2H) -> float:
    """Non-negative determinant functional sqrt(det of the counterpart)."""
    return _root_det(m.counterpart())


def _root_det(c: np.ndarray) -> float:
    return float(np.sqrt(max(np.linalg.det(c).real, 0.0)))


@dataclass(frozen=True)
class EigenDecomposition:
    """Canonical right eigenstructure of a 2x2 quaternionic matrix."""

    eigenvalues: tuple[complex, ...]
    eigenvectors: tuple[tuple[Quaternion, Quaternion], ...]
    form: str                       # "diagonal" or "jordan"
    defective: bool = False
    transform: Optional[Matrix2H] = None
    transform_inv: Optional[Matrix2H] = None


def _scale(c: np.ndarray) -> float:
    """1 + |c| (Frobenius) of a complex array: math.hypot scales internally,
    so entries near the float range do not overflow the norm."""
    return 1.0 + math.hypot(*c.ravel().view(float).tolist())


def _nullspaces(c: np.ndarray, zs, tols) -> list[np.ndarray]:
    """Orthonormal nullspace bases (columns) of c - z I for each z and its
    rank tolerance, from one stacked SVD; smallest singular directions.

    Used only where a rank has to be decided: at a real or merged canonical
    eigenvalue.  Otherwise each eigenspace is eig's column."""
    _, s, vh = np.linalg.svd(c - np.multiply.outer(zs, np.eye(4)))
    # an eigenvalue known only to roundoff keeps its best direction
    return [v[-max(1, int(np.sum(sv <= tol))):].conj().T
            for sv, v, tol in zip(s, vh, tols)]


def _normalize_phase(v: np.ndarray) -> np.ndarray:
    """The columns of v scaled to unit norm, each with its largest component
    real and positive."""
    v = v / np.linalg.norm(v, axis=0)
    top = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    return v * np.conj(top / np.abs(top))


def _canonical_pairs(lam: np.ndarray) -> list[tuple[complex, int]]:
    """Fold the conjugate-closed 4-spectrum into 2 canonical eigenvalues, each
    with the index in lam of its member of larger imaginary part."""
    remaining = list(enumerate(lam.tolist()))
    canon = []
    for _ in range(2):
        k = max(range(len(remaining)), key=lambda i: remaining[i][1].imag)
        idx, z = remaining.pop(k)
        kk = min(range(len(remaining)),
                 key=lambda i: abs(remaining[i][1] - z.conjugate()))
        zbar = remaining.pop(kk)[1]
        canon.append((complex((z.real + zbar.real) / 2.0,
                              (abs(z.imag) + abs(zbar.imag)) / 2.0), idx))
    canon.sort(key=lambda p: (p[0].imag, p[0].real))
    return canon


def right_eigenpairs(m: Matrix2H) -> EigenDecomposition:
    """Canonical eigenvalues (imaginary part >= 0) and lifted eigenvectors.

    A defective matrix (double eigenvalue, one-dimensional eigenspace) is
    returned with defective=True and the single eigenvector; jordanize then
    completes the similarity transform.
    """
    c = m.counterpart()
    scale = _scale(c)
    tol = _RANK_TOL * scale
    merge_tol = _MERGE_TOL * scale
    lam, vec = np.linalg.eig(c)
    (z1, k1), (z2, k2) = _canonical_pairs(lam)
    if abs(z1 - z2) > merge_tol:
        if z1.imag > merge_tol:
            # four simple counterpart eigenvalues: each eigenspace is eig's
            # column at the member of the pair with Im > 0
            cols = vec[:, [k1, k2]]
        else:
            # a real z pairs with itself: a two-dimensional eigenspace
            cols = np.column_stack([ns[:, 0] for ns in _nullspaces(c, (z1, z2), (tol, tol))])
        vecs = tuple(map(lift, _normalize_phase(cols).T))
        return EigenDecomposition((z1, z2), vecs, form="diagonal")
    # double canonical eigenvalue; the mean is eps-accurate even though the
    # individual values are not
    z = complex((z1.real + z2.real) / 2.0, (z1.imag + z2.imag) / 2.0)
    rank_tol = max(tol, 2.0 * abs(z1 - z2))
    ns, = _nullspaces(c, (z,), (rank_tol,))
    needed = 4 if abs(z.imag) <= merge_tol else 2  # real z pairs with itself
    first, *others = map(lift, _normalize_phase(ns).T)
    if ns.shape[1] >= needed:
        for other in others:
            s = Matrix2H.from_columns(first, other)
            if dieudonne(s) > _INDEP_TOL:
                return EigenDecomposition((z, z), (first, other), form="diagonal")
    return EigenDecomposition((z, z), (first,), form="jordan", defective=True)


def diagonalize(m: Matrix2H) -> EigenDecomposition:
    """Similarity transform S with M = S diag(z1, z2) S^-1."""
    dec = right_eigenpairs(m)
    if dec.defective:
        raise DefectiveMatrixError("defective matrix: use jordanize")
    s = Matrix2H.from_columns(dec.eigenvectors[0], dec.eigenvectors[1])
    cs = s.counterpart()
    if _root_det(cs) <= _INDEP_TOL:
        raise DefectiveMatrixError("eigenvectors quaternionically dependent")
    # the check above is stricter than inverse()'s: s has unit columns
    return EigenDecomposition(dec.eigenvalues, dec.eigenvectors,
                              form="diagonal", transform=s,
                              transform_inv=_lift_inverse(cs))


def jordanize(m: Matrix2H) -> EigenDecomposition:
    """Similarity transform J with M = J [[z, 1], [0, z]] J^-1."""
    dec = right_eigenpairs(m)
    if not dec.defective:
        raise ValueError("matrix is diagonalizable: use diagonalize")
    z = dec.eigenvalues[0]
    psi = dec.eigenvectors[0]
    # pin the gauge: unit complex part on the leading component, and no
    # complex part of that component in the generalized eigenvector
    scale = max(1.0, psi[0].norm() + psi[1].norm())
    idx = 0 if abs(psi[0].symplectic()[0]) > 1e-8 * scale else 1
    comp = psi[idx].symplectic()[0]
    if abs(comp) <= 1e-8 * scale:
        raise DefectiveMatrixError("cannot gauge-fix the eigenvector")
    psi = tuple(p * Quaternion.from_complex(1.0 / comp) for p in psi)
    c = m.counterpart()
    tol = _RANK_TOL * _scale(c)
    rhs = svec(psi)
    w, *_ = np.linalg.lstsq(c - z * np.eye(4), rhs, rcond=None)
    if np.linalg.norm((c - z * np.eye(4)) @ w - rhs) > 1e3 * tol:
        raise DefectiveMatrixError("no generalized eigenvector: chain broken")
    gen = lift(w)
    gauge = Quaternion.from_complex(gen[idx].symplectic()[0])
    gen = tuple(g - p * gauge for g, p in zip(gen, psi))
    j = Matrix2H.from_columns(psi, gen)
    return EigenDecomposition((z, z), (psi,), form="jordan", defective=True,
                              transform=j, transform_inv=j.inverse())


class MatrixSolution(ExpSum):
    """Closed-form ODE solution assembled from a similarity transform."""

    __slots__ = ("decomposition",)

    def __init__(self, terms, decomposition: EigenDecomposition):
        super().__init__(terms)
        self.decomposition = decomposition


def companion_matrix(a: Quaternion, b: Quaternion) -> Matrix2H:
    """Matrix form [[0, 1], [-b, -a]] of phi'' + a phi' + b phi = 0."""
    return Matrix2H([[Quaternion(), Quaternion(1)], [-b, -a]])


def solve_ode_via_matrix(a: Quaternion, b: Quaternion,
                         phi0: Quaternion, dphi0: Quaternion) -> MatrixSolution:
    """Solve the IVP through diagonalization or the Jordan form."""
    m = companion_matrix(a, b)
    try:
        dec = diagonalize(m)
    except DefectiveMatrixError:
        dec = jordanize(m)
    s, si = dec.transform, dec.transform_inv
    r1 = si[0, 0] * phi0 + si[0, 1] * dphi0
    r2 = si[1, 0] * phi0 + si[1, 1] * dphi0
    # a Jordan form has z1 = z2 and the affine second term (s00 x + s01) e^{z x}
    z1, z2 = dec.eigenvalues
    lx = None if dec.form == "diagonal" else s[0, 0]
    terms = (exp_term(s[0, 0], z1, r1), exp_term(s[0, 1], z2, r2, Lx=lx))
    return MatrixSolution(terms, dec)


def _outer_sum(weights, vecs) -> Matrix2H:
    """sum Psi_r w_r Psi_r^dagger."""
    total = Matrix2H([[0, 0], [0, 0]])
    for w, v in zip(weights, vecs):
        total = total + Matrix2H([[v[r] * w * v[c].conjugate() for c in range(2)]
                                  for r in range(2)])
    return total


def spectral_decompose_antihermitian(a: Matrix2H):
    """Real eigenvalues, orthonormal eigenvectors, and hermitian H for A = -A^dagger.

    Returns (lambdas, eigenvectors, H) with A = sum Psi lambda i Psi^dagger and
    H Psi_m = Psi_m lambda_m.
    """
    scale = max(1.0, a.norm())
    if (a + a.dagger()).norm() > 1e-12 * scale:
        raise ValueError("matrix is not anti-hermitian")
    dec = right_eigenpairs(a)
    if dec.defective:
        raise DefectiveMatrixError("anti-hermitian matrix must be diagonalizable")
    lambdas = []
    vecs = []
    for z, v in zip(dec.eigenvalues, dec.eigenvectors):
        if abs(z.real) > 1e-9 * scale:
            raise ValueError("eigenvalue not purely imaginary")
        lambdas.append(z.imag)
        vecs.append(v)
    # quaternionic Gram-Schmidt; a no-op when eigenvalues differ
    v1, v2 = vecs
    n1 = np.sqrt(v1[0].norm2() + v1[1].norm2())
    v1 = (v1[0] / n1, v1[1] / n1)
    overlap = v1[0].conjugate() * v2[0] + v1[1].conjugate() * v2[1]
    v2 = (v2[0] - v1[0] * overlap, v2[1] - v1[1] * overlap)
    n2 = np.sqrt(v2[0].norm2() + v2[1].norm2())
    v2 = (v2[0] / n2, v2[1] / n2)
    vecs = [v1, v2]
    # H = sum Psi_r lambda_r Psi_r^dagger
    h = _outer_sum([Quaternion(lam) for lam in lambdas], vecs)
    return lambdas, vecs, h
