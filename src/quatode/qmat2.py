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
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .quatcore import ONE, ZERO, ExpSum, Quaternion, RightLinearScalarOp, exp_term

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
    return (Quaternion(v[0].real, v[0].imag, v[2].real, -v[2].imag),
            Quaternion(v[1].real, v[1].imag, v[3].real, -v[3].imag))


class Matrix2H:
    """2x2 matrix of quaternions acting from the left."""

    def __init__(self, entries):
        self.m = tuple(tuple(map(_as_quaternion, row)) for row in entries)
        if tuple(map(len, self.m)) != (2, 2):
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
        """4x4 complex matrix in the svec coordinates, laid out as Matrix2CL's:
        the entry z1 + j z2 has the counterpart [[z1, -conj z2], [z2, conj z1]]."""
        (a1, a2), (b1, b2), (c1, c2), (d1, d2) = [e.symplectic() for row in self.m for e in row]
        return np.array([[a1, b1, -a2.conjugate(), -b2.conjugate()],
                         [c1, d1, -c2.conjugate(), -d2.conjugate()],
                         [a2, b2, a1.conjugate(), b1.conjugate()],
                         [c2, d2, c1.conjugate(), d1.conjugate()]])

    def solve(self, rhs) -> tuple[Quaternion, Quaternion]:
        """The 2-vector c with M c = rhs, by block elimination (_eliminate).

        Raises ValueError when dieudonne(M) <= 1e-12 |M|^2.
        """
        _, det, (n0, n1), (x,) = _eliminate(self.m, (rhs,))
        if det <= _SINGULAR_TOL * (n0 + n1):
            raise ValueError("singular quaternionic system")
        return x

    def inverse(self) -> "Matrix2H":
        """M^-1, solved column by column; ValueError as for solve."""
        return Matrix2H.from_columns(self.solve((ONE, ZERO)), self.solve((ZERO, ONE)))

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
        """4x4 matrix in svec coordinates: element (i, j) of entry (r, k)'s 2x2
        counterpart goes to (r + 2 i, k + 2 j)."""
        blocks = [[op._counterpart_rows() for op in row] for row in self.m]
        return np.array([[b0[i][0], b1[i][0], b0[i][1], b1[i][1]]
                         for i in range(2) for b0, b1 in blocks])

    def __repr__(self):
        return f"Matrix2CL({self.m!r})"


def _companion_counterpart(a, b) -> np.ndarray:
    """Counterpart of the matrix form [[0, 1], [-b, -a]] of
    phi'' + a(phi') + b(phi) = 0, for quaternions or scalar operators a and
    b, from their counterpart rows without building the 2x2 matrix."""
    (a00, a01), (a10, a11) = a._counterpart_rows()
    (b00, b01), (b10, b11) = b._counterpart_rows()
    return np.array([[0j, 1, 0j, 0j], [-b00, -a00, -b01, -a01],
                     [0j, 0j, 0j, 1], [-b10, -a10, -b11, -a11]], dtype=complex)


def _as_quaternion(e) -> Quaternion:
    if isinstance(e, Quaternion):
        return e
    return Quaternion.from_complex(e) if isinstance(e, complex) else Quaternion(e)

def _as_op(e) -> RightLinearScalarOp:
    if isinstance(e, RightLinearScalarOp):
        return e
    return RightLinearScalarOp(_as_quaternion(e), Quaternion())


def _pmul(a: tuple, b: tuple) -> tuple:
    """Product of quaternions as symplectic pairs q = z1 + j z2 (j z = conj(z) j)."""
    (a1, a2), (b1, b2) = a, b
    return (a1 * b1 - a2.conjugate() * b2, a1.conjugate() * b2 + a2 * b1)


def _pinv(p: tuple, n2: float) -> tuple:
    """conj(q) / |q|^2 of a symplectic pair with |q|^2 = n2; 0 for 0."""
    return (p[0].conjugate() / (n2 or 1.0), -p[1] / (n2 or 1.0))


def _eliminate(m, rhs=()) -> tuple:
    """Block elimination of the 2x2 quaternion matrix m on symplectic pairs,
    scaled by the power of two s that takes the largest modulus into
    [0.5, 1): nothing over- or underflows.  The pivot row (a, b) has the
    larger |m_i0|; the other row leaves S = d - c a^-1 b.  Returns s,
    dieudonne(s m) = |a| |S| (a unit-triangular row operation keeps the Study
    determinant), the squared column norms of s m, and the solution of
    m x = r for each r in rhs; the caller judges singularity."""
    pairs = [e.symplectic() for row in m for e in row]
    s = math.ldexp(1.0, -math.frexp(max(abs(z) for p in pairs for z in p))[1])
    a, b, c, d = [(z1 * s, z2 * s) for z1, z2 in pairs]
    na, nb, nc, nd = [abs(z1) ** 2 + abs(z2) ** 2 for z1, z2 in (a, b, c, d)]
    if nc > na:
        a, b, c, d = c, d, a, b
    ainv = _pinv(a, max(na, nc))
    low = _pmul(c, ainv)
    lb = _pmul(low, b)
    schur = (d[0] - lb[0], d[1] - lb[1])
    ns = abs(schur[0]) ** 2 + abs(schur[1]) ** 2
    sinv = _pinv(schur, ns)
    xs = []
    for r in rhs:
        r1, r2 = [q.symplectic() for q in (r[::-1] if nc > na else r)]
        lr = _pmul(low, r1)
        y2 = _pmul(sinv, (r2[0] - lr[0], r2[1] - lr[1]))
        by = _pmul(b, y2)
        y1 = _pmul(ainv, (r1[0] - by[0], r1[1] - by[1]))
        # s m has the solution x / s
        xs.append(lift([y1[0] * s, y2[0] * s, y1[1] * s, y2[1] * s]))
    return s, math.sqrt(max(na, nc) * ns), (na + nc, nb + nd), xs


def dieudonne(m: Matrix2H) -> float:
    """Non-negative determinant functional sqrt(det of the counterpart)."""
    s, det, _, _ = _eliminate(m.m)
    return det / s / s


class EigenDecomposition(NamedTuple):
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


def _unit_phase(v) -> list[complex]:
    """The complex 4-vector v scaled to unit norm, with its largest component
    real and positive."""
    mods = list(map(abs, v))
    top = max(mods)
    phase = v[mods.index(top)].conjugate() / (top * math.hypot(*mods))
    return [z * phase for z in v]


def _canonical_pairs(lam: np.ndarray) -> list[tuple[complex, int]]:
    """Fold the conjugate-closed 4-spectrum into 2 canonical eigenvalues, each
    with the index in lam of its member of larger imaginary part."""
    rest = list(enumerate(lam.tolist()))
    canon = []
    while rest:
        imag = [z.imag for _, z in rest]
        idx, z = rest.pop(imag.index(max(imag)))
        dist = [abs(w - z.conjugate()) for _, w in rest]
        zbar = rest.pop(dist.index(min(dist)))[1]
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
            cols = [vec[:, k].tolist() for k in (k1, k2)]
        else:
            # a real z pairs with itself: a two-dimensional eigenspace
            cols = [ns[:, 0].tolist() for ns in _nullspaces(c, (z1, z2), (tol, tol))]
        vecs = tuple(lift(_unit_phase(v)) for v in cols)
        return EigenDecomposition((z1, z2), vecs, form="diagonal")
    # double canonical eigenvalue; the mean is eps-accurate even though the
    # individual values are not.  A real z pairs with itself, and eig may split
    # it along the imaginary axis, which |Im| would fold into an O(sqrt(eps)) Im z
    z = complex((z1.real + z2.real) / 2.0, (z1.imag + z2.imag) / 2.0)
    needed = 4 if abs(z.imag) <= merge_tol else 2
    z = complex(z.real, 0.0) if needed == 4 else z
    rank_tol = max(tol, 2.0 * abs(z1 - z2))
    ns, = _nullspaces(c, (z,), (rank_tol,))
    first, *others = (lift(_unit_phase(v)) for v in ns.T.tolist())
    if ns.shape[1] >= needed:
        for other in others:
            if dieudonne(Matrix2H.from_columns(first, other)) > _INDEP_TOL:
                return EigenDecomposition((z, z), (first, other), form="diagonal")
    return EigenDecomposition((z, z), (first,), form="jordan", defective=True)


def diagonalize(m: Matrix2H) -> EigenDecomposition:
    """Similarity transform S with M = S diag(z1, z2) S^-1."""
    dec = right_eigenpairs(m)
    if dec.defective:
        raise DefectiveMatrixError("defective matrix: use jordanize")
    return _transform_solve(m, dec)[0]


def jordanize(m: Matrix2H) -> EigenDecomposition:
    """Similarity transform J with M = J [[z, 1], [0, z]] J^-1."""
    dec = right_eigenpairs(m)
    if not dec.defective:
        raise ValueError("matrix is diagonalizable: use diagonalize")
    return _transform_solve(m, dec)[0]


def _transform_solve(m: Matrix2H, dec: EigenDecomposition, rhs=None):
    """dec with its transform T, and the solution of T x = r for each r in
    rhs; without rhs, dec also gets T^-1.  T's columns are the eigenvectors,
    or for a defective m the gauge-fixed eigenvector and a generalized one.
    They must be independent as unit columns: the generalized eigenvector
    shrinks like 1/|M|, so the |T|^2 rule of solve would reject a large M."""
    cols = dec.eigenvectors
    if dec.defective:
        z, psi = dec.eigenvalues[0], cols[0]
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
        w, *_ = np.linalg.lstsq(c - z * np.eye(4), svec(psi), rcond=None)
        if np.linalg.norm((c - z * np.eye(4)) @ w - svec(psi)) > 1e3 * tol:
            raise DefectiveMatrixError("no generalized eigenvector: chain broken")
        gen = lift(w)
        gauge = Quaternion.from_complex(gen[idx].symplectic()[0])
        cols = (psi, tuple(g - p * gauge for g, p in zip(gen, psi)))
    t = Matrix2H.from_columns(*cols)
    _, det, (n0, n1), xs = _eliminate(t.m, rhs or ((ONE, ZERO), (ZERO, ONE)))
    if det <= _INDEP_TOL * math.sqrt(n0 * n1):
        raise DefectiveMatrixError("eigenvectors quaternionically dependent")
    inv = None if rhs else Matrix2H.from_columns(*xs)
    return EigenDecomposition(dec.eigenvalues, cols[:len(dec.eigenvectors)], dec.form,
                              dec.defective, t, inv), xs


class MatrixSolution(ExpSum):
    """Closed-form ODE solution assembled from a similarity transform."""

    __slots__ = ("decomposition",)

    def __init__(self, terms, decomposition: EigenDecomposition):
        super().__init__(terms)
        self.decomposition = decomposition


def companion_matrix(a: Quaternion, b: Quaternion) -> Matrix2H:
    """Matrix form [[0, 1], [-b, -a]] of phi'' + a phi' + b phi = 0."""
    return Matrix2H([[ZERO, ONE], [-b, -a]])


def solve_ode_via_matrix(a: Quaternion, b: Quaternion,
                         phi0: Quaternion, dphi0: Quaternion) -> MatrixSolution:
    """Solve the IVP through diagonalization or the Jordan form: the right
    coefficients solve T (r1, r2) = (phi0, phi0'), with no T^-1 formed."""
    m = companion_matrix(a, b)
    dec, ((r1, r2),) = _transform_solve(m, right_eigenpairs(m), ((phi0, dphi0),))
    # a Jordan form has z1 = z2 and the affine second term (t00 x + t01) e^{z x}
    (t00, t01), _ = dec.transform.m
    z1, z2 = dec.eigenvalues
    lx = t00 if dec.defective else None
    return MatrixSolution((exp_term(t00, z1, r1), exp_term(t01, z2, r2, Lx=lx)), dec)


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
