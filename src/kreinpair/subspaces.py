"""Rank-tolerant subspace and linear-relation arithmetic over C^n.

Subspaces are stored by orthonormal bases (matrix columns) and are
canonicalized through the SVD: a singular value is zero when it is
negligible (:mod:`kreinpair.tolerances`) against the largest one or, for a
matrix that may vanish up to round-off, against its natural scale supplied
by the caller.  Inner products are conjugate-linear in the first argument.

All values are immutable after construction and all operations are pure,
so instances can be shared freely between threads.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, MetricError
from .tolerances import CHECK_GATE, DEFAULT_TOL, negligible

__all__ = [
    "DEFAULT_TOL",
    "MetricMatrix",
    "Subspace",
    "LinearRelation",
    "column_space",
    "null_space",
    "orthonormal_span",
    "intersect",
    "subspace_sum",
    "ortho_complement",
    "gap_distance",
    "relation_parts",
    "relation_inverse",
    "relation_adjoint",
    "relation_add",
    "relation_negate",
    "relation_difference",
    "relation_restrict",
    "eigenspace",
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


class MetricMatrix:
    """Hermitian, possibly indefinite, metric on C^n.

    With ``canonical=True`` the matrix must additionally be an involution;
    a Hermitian involution is automatically unitary, so no separate
    unitarity check is needed.
    """

    def __init__(self, matrix, *, canonical: bool = False, tol: float = DEFAULT_TOL):
        m = _as_matrix(matrix)
        if m.shape[0] != m.shape[1]:
            raise MetricError(f"metric must be square, got shape {m.shape}")
        if m.shape[0] == 0:
            raise MetricError("zero-dimensional metric is not allowed")
        scale = float(np.linalg.norm(m, 2))
        if np.linalg.norm(m - m.conj().T, 2) > 10 * tol * scale:
            raise MetricError("metric is not Hermitian")
        if canonical:
            defect = np.linalg.norm(m @ m - np.eye(m.shape[0]), 2)
            if defect > 10 * tol * scale * scale:
                raise MetricError("canonical symmetry must square to the identity")
        self.matrix = m
        self.matrix.flags.writeable = False
        self.dim = int(m.shape[0])
        self.canonical = bool(canonical)
        self.tol = float(tol)

    def __repr__(self):  # pragma: no cover - debugging aid
        kind = "canonical symmetry" if self.canonical else "metric"
        return f"MetricMatrix({kind}, dim={self.dim})"


def _metric_array(metric, dim: int) -> np.ndarray | None:
    """Normalize a metric argument to an ndarray, or None for Euclidean."""
    if metric is None:
        return None
    if isinstance(metric, MetricMatrix):
        m = metric.matrix
    else:
        m = MetricMatrix(metric).matrix
    if m.shape[0] != dim:
        raise DimensionMismatch(f"metric dim {m.shape[0]} != ambient dim {dim}")
    return m


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
        return cls(ambient_dim, np.eye(ambient_dim), tol)

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


def ortho_complement(a: Subspace, metric=None) -> Subspace:
    """Metric-orthogonal companion ``{y : <u, M y> = 0 for all u in a}``.

    With ``metric=None`` this is the Euclidean orthogonal complement and
    satisfies ``a (+) complement = ambient``.  An indefinite metric may
    produce a complement that intersects ``a`` (neutral directions).
    """
    m = _metric_array(metric, a.ambient_dim)
    if a.is_zero:
        return Subspace.full(a.ambient_dim, a.tol)
    rows = a.basis.conj().T if m is None else a.basis.conj().T @ m
    return Subspace(a.ambient_dim, null_space(rows, a.tol), a.tol)


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


class LinearRelation:
    """Subspace of the product space C^left x C^right, seen as a multivalued map.

    The graph stores stacked pairs ``(x, y)`` with the left component on
    top.  A relation is (the graph of) an operator exactly when its
    multivalued part is trivial.
    """

    def __init__(self, left_dim: int, right_dim: int, graph: Subspace):
        left_dim, right_dim = int(left_dim), int(right_dim)
        if left_dim < 1 or right_dim < 1:
            raise DimensionMismatch("relation dimensions must be positive")
        if graph.ambient_dim != left_dim + right_dim:
            raise DimensionMismatch(
                f"graph ambient {graph.ambient_dim} != {left_dim} + {right_dim}"
            )
        self.left_dim = left_dim
        self.right_dim = right_dim
        self.graph = graph

    @classmethod
    def from_operator(cls, matrix, domain: Subspace | None = None,
                      tol: float = DEFAULT_TOL) -> "LinearRelation":
        """Graph ``{(x, M x) : x in domain}`` of a matrix on a domain."""
        m = _as_matrix(matrix)
        rows, cols = m.shape
        if domain is None:
            domain = Subspace.full(cols, tol)
        if domain.ambient_dim != cols:
            raise DimensionMismatch("domain does not match the matrix width")
        b = domain.basis
        stacked = np.vstack([b, m @ b])
        return cls(cols, rows, orthonormal_span(stacked, cols + rows, tol))

    @classmethod
    def full(cls, left_dim: int, right_dim: int,
             tol: float = DEFAULT_TOL) -> "LinearRelation":
        return cls(left_dim, right_dim, Subspace.full(left_dim + right_dim, tol))

    @property
    def tol(self) -> float:
        return self.graph.tol

    @property
    def is_square(self) -> bool:
        return self.left_dim == self.right_dim

    def _blocks(self) -> tuple[np.ndarray, np.ndarray]:
        g = self.graph.basis
        return g[: self.left_dim], g[self.left_dim:]

    @cached_property
    def dom(self) -> Subspace:
        top, _ = self._blocks()
        return orthonormal_span(top, self.left_dim, self.tol, scale=1.0)

    @cached_property
    def ran(self) -> Subspace:
        _, bot = self._blocks()
        return orthonormal_span(bot, self.right_dim, self.tol, scale=1.0)

    @cached_property
    def ker(self) -> Subspace:
        top, bot = self._blocks()
        coeffs = null_space(bot, self.tol, scale=1.0)
        return orthonormal_span(top @ coeffs, self.left_dim, self.tol, scale=1.0)

    @cached_property
    def mul(self) -> Subspace:
        top, bot = self._blocks()
        coeffs = null_space(top, self.tol, scale=1.0)
        return orthonormal_span(bot @ coeffs, self.right_dim, self.tol, scale=1.0)

    @property
    def is_operator(self) -> bool:
        return self.mul.is_zero

    def apply_matrix(self) -> np.ndarray:
        """Matrix of the operator part on dom, as a right_dim x dom.dim map.

        Columns are the images of the dom basis vectors under the operator
        part of the relation.
        """
        d = self.dom
        if d.is_zero:
            return np.zeros((self.right_dim, 0), dtype=np.complex128)
        top, bot = self._blocks()
        coeffs, *_ = np.linalg.lstsq(top, d.basis, rcond=None)
        images = bot @ coeffs
        pmul = self.mul.projector()
        return images - pmul @ images

    def __repr__(self):  # pragma: no cover - debugging aid
        return (
            f"LinearRelation({self.left_dim}->{self.right_dim}, "
            f"graph_dim={self.graph.dim})"
        )


def relation_parts(rel: LinearRelation):
    """Domain, range, kernel and multivalued part of a relation."""
    return rel.dom, rel.ran, rel.ker, rel.mul


def relation_inverse(rel: LinearRelation) -> LinearRelation:
    top, bot = rel._blocks()
    # swapping the blocks is unitary: the basis stays orthonormal
    graph = Subspace(rel.left_dim + rel.right_dim, np.vstack([bot, top]), rel.tol)
    return LinearRelation(rel.right_dim, rel.left_dim, graph)


def relation_adjoint(rel: LinearRelation, metric_left=None,
                     metric_right=None) -> LinearRelation:
    """Adjoint relation with respect to (possibly indefinite) Krein metrics.

    For a relation from (C^L, J_L) to (C^R, J_R) this returns
    ``{(w, z) : [z, u]_L = [w, v]_R for all (u, v) in rel}``, realized as a
    unitary image of the Euclidean orthocomplement of the graph.  For a
    square relation with one metric J it coincides with the orthocomplement
    of the graph in the associated graph Krein space; with J = I it is the
    classical adjoint relation.
    """
    jl = _metric_array(metric_left, rel.left_dim)
    jr = _metric_array(metric_right, rel.right_dim)
    if jl is None:
        jl = np.eye(rel.left_dim, dtype=np.complex128)
    else:
        MetricMatrix(jl, canonical=True, tol=rel.tol)  # involution required
    if jr is None:
        jr = np.eye(rel.right_dim, dtype=np.complex128)
    else:
        MetricMatrix(jr, canonical=True, tol=rel.tol)
    perp = ortho_complement(rel.graph)
    top = perp.basis[: rel.left_dim]
    bot = perp.basis[rel.left_dim:]
    # (x, y) -> (-J_R y, J_L x) is unitary from C^{L+R} to C^{R+L}
    mapped = np.vstack([-jr @ bot, jl @ top])
    graph = Subspace(rel.left_dim + rel.right_dim, mapped, rel.tol)
    return LinearRelation(rel.right_dim, rel.left_dim, graph)


def relation_add(a: LinearRelation, b: LinearRelation) -> LinearRelation:
    """Pointwise sum ``{(x, y + z) : (x, y) in a, (x, z) in b}``."""
    if (a.left_dim, a.right_dim) != (b.left_dim, b.right_dim):
        raise DimensionMismatch("relations to add must share both dimensions")
    tol = max(a.tol, b.tol)
    ga, gb = a.graph.basis, b.graph.basis
    xa, ya = ga[: a.left_dim], ga[a.left_dim:]
    xb, yb = gb[: b.left_dim], gb[b.left_dim:]
    match = np.hstack([xa, -xb])
    coeffs = null_space(match, tol, scale=1.0)
    ca, cb = coeffs[: ga.shape[1]], coeffs[ga.shape[1]:]
    stacked = np.vstack([xa @ ca, ya @ ca + yb @ cb])
    graph = orthonormal_span(stacked, a.left_dim + a.right_dim, tol)
    return LinearRelation(a.left_dim, a.right_dim, graph)


def relation_negate(rel: LinearRelation) -> LinearRelation:
    top, bot = rel._blocks()
    # negating a block is unitary: the basis stays orthonormal
    graph = Subspace(rel.left_dim + rel.right_dim, np.vstack([top, -bot]), rel.tol)
    return LinearRelation(rel.left_dim, rel.right_dim, graph)


def relation_difference(a: LinearRelation, b: LinearRelation) -> LinearRelation:
    return relation_add(a, relation_negate(b))


def relation_restrict(rel: LinearRelation, subset: Subspace) -> LinearRelation:
    """Pairs of ``rel`` whose left component lies in ``subset``."""
    if subset.ambient_dim != rel.left_dim:
        raise DimensionMismatch("restriction subspace has the wrong dimension")
    tol = max(rel.tol, subset.tol)
    window = np.zeros(
        (rel.left_dim + rel.right_dim, subset.dim + rel.right_dim),
        dtype=np.complex128,
    )
    window[: rel.left_dim, : subset.dim] = subset.basis
    window[rel.left_dim:, subset.dim:] = np.eye(rel.right_dim)
    allowed = orthonormal_span(window, rel.left_dim + rel.right_dim, tol)
    graph = intersect(rel.graph, allowed)
    return LinearRelation(rel.left_dim, rel.right_dim, graph)


def eigenspace(rel: LinearRelation, lam: complex) -> Subspace:
    """Vectors ``x`` with ``(x, lam * x)`` in the graph of a square relation."""
    if not rel.is_square:
        raise DimensionMismatch("eigenspaces need a square relation")
    top, bot = rel._blocks()
    coeffs = null_space(bot - lam * top, rel.tol, scale=1.0 + abs(lam))
    return orthonormal_span(top @ coeffs, rel.left_dim, rel.tol, scale=1.0)
