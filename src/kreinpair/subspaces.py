"""Rank-tolerant subspace arithmetic over C^n.

Subspaces are stored by orthonormal bases (matrix columns) and are
canonicalized through the SVD: a singular value is zero when it is
negligible (:mod:`kreinpair.tolerances`) against the largest one or, for a
matrix that may vanish up to round-off, against its natural scale supplied
by the caller.  Inner products are conjugate-linear in the first argument.

All values are immutable after construction and all operations are pure,
so instances can be shared freely between threads.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch
from .tolerances import CHECK_GATE, DEFAULT_TOL, negligible

__all__ = [
    "DEFAULT_TOL",
    "Subspace",
    "column_space",
    "null_space",
    "orthonormal_span",
    "intersect",
    "subspace_sum",
    "ortho_complement",
    "gap_distance",
]


def _as_matrix(data) -> np.ndarray:
    a = np.asarray(data, dtype=np.complex128)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a vector or matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DimensionMismatch("entries must be finite")
    return a


def _rank(s: np.ndarray, tol: float, scale: float | None) -> int:
    ref = float(s[0]) if scale is None else max(float(s[0]), float(scale))
    return int(np.count_nonzero(~negligible(s, tol, ref)))


def column_space(matrix, tol: float = DEFAULT_TOL,
                 scale: float | None = None) -> np.ndarray:
    """Orthonormal basis of the column span, rank cut at ``tol * sigma_max``.

    ``scale`` supplies an external reference for the cut, which matters for
    matrices that are zero up to round-off: relative to their own largest
    singular value every direction would look significant.
    """
    m = _as_matrix(matrix)
    if m.shape[1] == 0 or not np.any(m):
        return np.zeros((m.shape[0], 0), dtype=np.complex128)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    return u[:, :_rank(s, tol, scale)]


def null_space(matrix, tol: float = DEFAULT_TOL,
               scale: float | None = None) -> np.ndarray:
    """Orthonormal basis of the kernel of ``matrix`` acting on column vectors.

    ``scale`` plays the same role as in :func:`column_space`.
    """
    m = _as_matrix(matrix)
    rows, cols = m.shape
    if cols == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    if rows == 0 or not np.any(m):
        return np.eye(cols, dtype=np.complex128)
    # the economy factorization already carries every right-singular vector
    # when the matrix is at least as tall as it is wide
    _, s, vh = np.linalg.svd(m, full_matrices=rows < cols)
    return vh[_rank(s, tol, scale):].conj().T


def is_diagonal(m: np.ndarray) -> bool:
    """Whether every nonzero entry of the square matrix ``m`` is on its
    diagonal: exactly, by counting nonzeros, with no tolerance."""
    return int(np.count_nonzero(m)) == int(np.count_nonzero(np.diag(m)))


class Subspace:
    """Linear subset of C^n held as an orthonormal column basis.

    The zero subspace is represented by an empty basis; near-zero basis
    vectors are never stored.  Use :func:`orthonormal_span` to build one
    from arbitrary spanning vectors.
    """

    def __init__(self, ambient_dim: int, basis=None, tol: float = DEFAULT_TOL):
        ambient_dim = int(ambient_dim)
        if ambient_dim < 1:
            raise DimensionMismatch("ambient dimension must be positive")
        if basis is None:
            b = np.zeros((ambient_dim, 0), dtype=np.complex128)
        else:
            b = _as_matrix(basis)
        if b.shape[0] != ambient_dim:
            raise DimensionMismatch(
                f"basis has {b.shape[0]} rows, ambient dimension is {ambient_dim}"
            )
        if b.shape[1] > ambient_dim:
            raise DimensionMismatch("more basis vectors than the ambient dimension")
        if b.shape[1]:
            # Frobenius norm: cheap, and an upper bound for the spectral norm
            defect = np.linalg.norm(b.conj().T @ b - np.eye(b.shape[1]))
            if defect > max(100 * tol, CHECK_GATE) * np.sqrt(b.shape[1]):
                raise DimensionMismatch("basis columns are not orthonormal")
        self.ambient_dim = ambient_dim
        self.basis = b
        self.basis.flags.writeable = False
        self.tol = float(tol)

    @classmethod
    def zero(cls, ambient_dim: int, tol: float = DEFAULT_TOL) -> "Subspace":
        return cls(ambient_dim, None, tol)

    @classmethod
    def full(cls, ambient_dim: int, tol: float = DEFAULT_TOL) -> "Subspace":
        """C^n with the identity as its basis, which is orthonormal exactly:
        the O(n^3) check of the constructor is skipped."""
        full = cls.zero(ambient_dim, tol)
        full.basis = np.eye(full.ambient_dim, dtype=np.complex128)
        full.basis.flags.writeable = False
        return full

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @property
    def is_zero(self) -> bool:
        return self.dim == 0

    @property
    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def projector(self) -> np.ndarray:
        if self.is_zero:
            return np.zeros((self.ambient_dim, self.ambient_dim), dtype=np.complex128)
        return self.basis @ self.basis.conj().T

    def coords(self, vector) -> np.ndarray:
        """Coefficients of ``vector`` in the stored basis (no membership check)."""
        v = np.asarray(vector, dtype=np.complex128).reshape(-1)
        if v.shape[0] != self.ambient_dim:
            raise DimensionMismatch("vector has the wrong ambient dimension")
        return self.basis.conj().T @ v

    def contains(self, vector, tol: float | None = None) -> bool:
        v = np.asarray(vector, dtype=np.complex128).reshape(-1)
        if v.shape[0] != self.ambient_dim:
            raise DimensionMismatch("vector has the wrong ambient dimension")
        t = self.tol if tol is None else tol
        norm = np.linalg.norm(v)
        if norm == 0.0:
            return True
        residual = v - self.basis @ (self.basis.conj().T @ v)
        return bool(np.linalg.norm(residual) <= max(100 * t, CHECK_GATE) * norm)

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def orthonormal_span(vectors, ambient_dim: int | None = None,
                     tol: float = DEFAULT_TOL,
                     scale: float | None = None) -> Subspace:
    """Span of the given vectors with a numerically orthonormal basis.

    ``vectors`` may be a sequence of 1-d arrays or a matrix whose columns
    span the subspace.  An empty collection needs an explicit
    ``ambient_dim`` and yields the zero subspace.
    """
    if isinstance(vectors, np.ndarray) and vectors.ndim == 2:
        m = _as_matrix(vectors)
    else:
        cols = [np.asarray(v, dtype=np.complex128).reshape(-1) for v in vectors]
        if not cols:
            if ambient_dim is None:
                raise DimensionMismatch("empty span needs an explicit ambient_dim")
            return Subspace.zero(ambient_dim, tol)
        dims = {c.shape[0] for c in cols}
        if len(dims) != 1:
            raise DimensionMismatch(f"vectors of mixed dimensions: {sorted(dims)}")
        m = np.column_stack(cols)
    if ambient_dim is not None and m.shape[0] != ambient_dim:
        raise DimensionMismatch(
            f"vectors live in dim {m.shape[0]}, expected {ambient_dim}"
        )
    return Subspace(m.shape[0], column_space(m, tol, scale), tol)


def _check_same_ambient(a: Subspace, b: Subspace) -> float:
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch(
            f"ambient dimensions differ: {a.ambient_dim} != {b.ambient_dim}"
        )
    return max(a.tol, b.tol)


def ortho_complement(a: Subspace) -> Subspace:
    """Euclidean orthogonal complement: ``a (+) complement = ambient``."""
    if a.is_zero:
        return Subspace.full(a.ambient_dim, a.tol)
    return Subspace(a.ambient_dim, null_space(a.basis.conj().T, a.tol), a.tol)


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    tol = _check_same_ambient(a, b)
    return orthonormal_span(np.hstack([a.basis, b.basis]), a.ambient_dim, tol)


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Largest subspace contained in both, via orthocomplement duality."""
    tol = _check_same_ambient(a, b)
    if a.is_zero or b.is_zero:
        return Subspace.zero(a.ambient_dim, tol)
    ca, cb = ortho_complement(a), ortho_complement(b)
    return ortho_complement(subspace_sum(ca, cb))


def gap_distance(a: Subspace, b: Subspace) -> float:
    """Operator norm of the difference of the orthogonal projectors.

    Zero for equal subspaces, symmetric, and never exceeds 1.  Subspaces of
    different dimensions are at distance exactly 1; otherwise the distance
    is the sine of the largest principal angle, ``|Q_B - Q_A Q_A^H Q_B|_2``
    (Bjorck & Golub 1973), which unlike the cosine keeps its accuracy for
    small angles.
    """
    _check_same_ambient(a, b)
    if a.dim != b.dim:
        return 1.0
    if a.is_zero:
        return 0.0
    qa, qb = a.basis, b.basis
    return float(np.linalg.norm(qb - qa @ (qa.conj().T @ qb), 2))
