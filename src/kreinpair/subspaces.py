"""Orthonormal bases and rank decisions over C^n.

A subspace is its orthonormal basis (matrix columns).  Where the rank is
not known in advance, bases come from the SVD: a singular value is zero
when it is negligible (:mod:`kreinpair.tolerances`) against the largest one
or, for a matrix that may vanish up to round-off, against its natural scale
supplied by the caller.  Each rank decision takes its tolerance from the
caller, so a subspace carries none.  Where the mathematics fixes the rank,
the caller takes a Householder QR instead (:func:`qr_span`) and makes no
rank decision.  On an orthonormal B every singular value is at least 1 for
a graph ``[B; T B]``, a von Neumann matrix ``(JS +- i)B``, ``(JT + i)B`` of
a dissipative T, the stacked traces on the defect domain, which they map
isometrically in graph norm, and ``Gamma+ = C + i A`` on the trace image
``[A; C]`` (``Gamma+* Gamma+ = I + Gram >= I``); the complement of
orthonormal columns has them all equal to 1, and an injective map keeps the
dimension.  Inner products are conjugate-linear in the first argument.

All values are immutable after construction and all operations are pure,
so instances can be shared freely between threads.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, checked_integer, checked_tol
from .tolerances import CHECK_GATE, DEFAULT_TOL, negligible

__all__ = [
    "DEFAULT_TOL",
    "Subspace",
    "column_space",
    "null_space",
    "orthonormal_span",
    "qr_span",
    "gap_distance",
]


def _as_array(data) -> np.ndarray:
    """``data`` as a complex array; :class:`DimensionMismatch` for entries
    that are not numbers and for ragged nesting."""
    try:
        return np.asarray(data, dtype=np.complex128)
    except (TypeError, ValueError, OverflowError):
        raise DimensionMismatch(
            f"expected a rectangular array of numbers, got {type(data).__name__}") from None


def _as_matrix(data) -> np.ndarray:
    a = _as_array(data)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a vector or matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DimensionMismatch("entries must be finite")
    return a


def _frozen(data) -> np.ndarray:
    """:func:`_as_matrix` made read-only.  The caller's own writeable array
    is copied first, so that freezing never reaches back into it; an array
    that is already read-only is shared."""
    a = _as_matrix(data)
    if (a.flags.writeable and isinstance(data, np.ndarray)
            and np.may_share_memory(a, data)):
        a = a.copy(order="K")
    a.flags.writeable = False
    return a


def _rank(s: np.ndarray, tol: float, scale: float | None) -> int:
    ref = float(s[0]) if scale is None else max(float(s[0]), float(scale))
    return int(np.count_nonzero(~negligible(s, tol, ref)))


def column_space(matrix, tol: float = DEFAULT_TOL,
                 scale: float | None = None) -> np.ndarray:
    """Orthonormal basis of the column span, rank cut at ``tol * sigma_max``
    for a ``tol`` in (0, 1), as for a :class:`~kreinpair.krein.KreinSpace`.

    ``scale`` supplies an external reference for the cut, which matters for
    matrices that are zero up to round-off: relative to their own largest
    singular value every direction would look significant.
    """
    tol = checked_tol(tol)
    m = _as_matrix(matrix)
    if m.shape[1] == 0 or not np.any(m):
        return np.zeros((m.shape[0], 0), dtype=np.complex128)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    return u[:, :_rank(s, tol, scale)]


def null_space(matrix, tol: float = DEFAULT_TOL,
               scale: float | None = None) -> np.ndarray:
    """Orthonormal basis of the kernel of ``matrix`` acting on column vectors.

    ``tol`` and ``scale`` play the same roles as in :func:`column_space`.
    """
    tol = checked_tol(tol)
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


class Subspace:
    """Linear subset of C^n held as an orthonormal column basis.

    The columns of ``basis`` must be orthonormal up to ``CHECK_GATE`` per
    column (the Frobenius norm of ``B* B - I`` against ``CHECK_GATE * sqrt(d)``
    for d columns).  The zero subspace has an empty basis; near-zero basis
    vectors are never stored.  The basis is read-only, a private copy when
    the given array is writeable.  Use :func:`orthonormal_span` to build one
    from any spanning matrix.
    """

    def __init__(self, ambient_dim: int, basis=None):
        ambient_dim = checked_integer(ambient_dim, "ambient dimension", 1)
        b = _frozen(np.zeros((ambient_dim, 0)) if basis is None else basis)
        if b.shape[0] != ambient_dim:
            raise DimensionMismatch(
                f"basis has {b.shape[0]} rows, ambient dimension is {ambient_dim}"
            )
        if b.shape[1] > ambient_dim:
            raise DimensionMismatch("more basis vectors than the ambient dimension")
        if b.shape[1]:
            # Frobenius norm: cheap, and an upper bound for the spectral norm
            defect = np.linalg.norm(b.conj().T @ b - np.eye(b.shape[1]))
            if defect > CHECK_GATE * np.sqrt(b.shape[1]):
                raise DimensionMismatch("basis columns are not orthonormal")
        self.ambient_dim = ambient_dim
        self.basis = b

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim)

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        """The whole space, with the identity as its basis.  It is
        orthonormal exactly, so the O(n^3) check of the constructor is
        skipped."""
        span = cls.zero(ambient_dim)
        basis = np.eye(span.ambient_dim, dtype=np.complex128)
        basis.flags.writeable = False
        span.basis = basis
        return span

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @property
    def is_zero(self) -> bool:
        return self.dim == 0

    @property
    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def orthonormal_span(matrix, tol: float = DEFAULT_TOL,
                     scale: float | None = None) -> Subspace:
    """Span of the columns of ``matrix``, with the orthonormal basis of
    :func:`column_space` at ``tol`` and ``scale``; it lives in C^m for a
    matrix of m rows."""
    m = _as_matrix(matrix)
    basis = column_space(m, tol, scale)
    # no caller holds this view of the SVD's factor, so it is frozen in place
    # rather than copied
    basis.flags.writeable = False
    return Subspace(m.shape[0], basis)


def qr_span(matrix: np.ndarray) -> Subspace:
    """Span of columns whose rank the mathematics fixes at their count: the
    Q of a reduced Householder QR, with no rank decision."""
    q = np.linalg.qr(matrix)[0]
    q.flags.writeable = False  # no caller holds the factor: frozen, not copied
    return Subspace(matrix.shape[0], q)


def gap_distance(a: Subspace, b: Subspace) -> float:
    """Operator norm of the difference of the orthogonal projectors.

    Zero for equal subspaces, symmetric, and never exceeds 1.  Subspaces of
    different dimensions are at distance exactly 1; otherwise the distance
    is the sine of the largest principal angle, ``|Q_B - Q_A Q_A^H Q_B|_2``
    (Bjorck & Golub 1973), which unlike the cosine keeps its accuracy for
    small angles.
    """
    if not (isinstance(a, Subspace) and isinstance(b, Subspace)):
        raise DimensionMismatch("gap_distance compares two Subspaces")
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch(
            f"ambient dimensions differ: {a.ambient_dim} != {b.ambient_dim}"
        )
    if a.dim != b.dim:
        return 1.0
    if a.is_zero:
        return 0.0
    qa, qb = a.basis, b.basis
    return float(np.linalg.norm(qb - qa @ (qa.conj().T @ qb), 2))
