"""Krein-space structures and the basic calculus of dissipative operators.

A Krein space is C^n together with a canonical symmetry J (a Hermitian
involution); the indefinite inner product is ``[x, y] = <x, J y>`` with
``<.,.>`` the Euclidean product, conjugate-linear in the first argument.
The doubled space of pairs carries the graph metric

    [(x1, y1), (x2, y2)]_G = -i([x1, y2] - [y1, x2])

whose canonical symmetry is ``(x, y) -> (-i J y, i J x)``; the Hilbert
product it induces on pairs is exactly the Euclidean one, which is why
orthonormal bases of graphs can be taken in plain coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ClassificationError, DimensionMismatch, DomainError
from .subspaces import (
    DEFAULT_TOL,
    LinearRelation,
    MetricMatrix,
    Subspace,
    orthonormal_span,
    relation_adjoint,
)

__all__ = [
    "KreinSpace",
    "GraphKreinSpace",
    "OperatorWithDomain",
    "RieszRepresenter",
    "boundary_metric_matrix",
    "classify_by_graph",
    "krein_adjoint",
    "riesz_representer",
]

DISSIPATIVE = "dissipative"
SYMMETRIC = "symmetric"
NEITHER = "neither"


def _as_vector(x, dim: int) -> np.ndarray:
    v = np.asarray(x, dtype=np.complex128).reshape(-1)
    if v.shape[0] != dim:
        raise DimensionMismatch(f"vector of length {v.shape[0]}, expected {dim}")
    return v


def boundary_metric_matrix(dim: int) -> np.ndarray:
    """Canonical symmetry ``(u, v) -> (-i v, i u)`` of a doubled Hilbert space."""
    eye = np.eye(dim, dtype=np.complex128)
    zero = np.zeros((dim, dim), dtype=np.complex128)
    return np.block([[zero, -1j * eye], [1j * eye, zero]])


class KreinSpace:
    """C^n with a canonical symmetry J."""

    def __init__(self, J, tol: float = DEFAULT_TOL):
        self.metric = MetricMatrix(J, canonical=True, tol=tol)
        self.J = self.metric.matrix
        self.dim = self.metric.dim
        self.tol = float(tol)

    def inner(self, x, y) -> complex:
        """Indefinite product [x, y] = <x, J y>."""
        return complex(np.vdot(_as_vector(x, self.dim), self.J @ _as_vector(y, self.dim)))

    def graph_space(self) -> "GraphKreinSpace":
        return GraphKreinSpace(self)

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"KreinSpace(dim={self.dim})"


class GraphKreinSpace:
    """The doubled space of pairs with the graph metric of the base space."""

    def __init__(self, base: KreinSpace):
        self.base = base
        self.dim = 2 * base.dim
        n = base.dim
        zero = np.zeros((n, n), dtype=np.complex128)
        # the metric matrix doubles as the canonical symmetry J_G
        self.metric_matrix = np.block(
            [[zero, -1j * base.J], [1j * base.J, zero]]
        )
        self.metric_matrix.flags.writeable = False

    def inner(self, p, q) -> complex:
        """Graph metric [(x1,y1),(x2,y2)]_G = -i([x1,y2] - [y1,x2])."""
        pv = _as_vector(p, self.dim)
        qv = _as_vector(q, self.dim)
        return complex(np.vdot(pv, self.metric_matrix @ qv))

    def canonical_symmetry(self) -> np.ndarray:
        return self.metric_matrix


class OperatorWithDomain:
    """A square matrix together with a domain subspace in a Krein space.

    The matrix acts only on domain vectors; the associated graph
    ``{(x, M x) : x in domain}`` is a subspace of the doubled space.
    """

    def __init__(self, space: KreinSpace, matrix, domain: Subspace | None = None):
        m = np.asarray(matrix, dtype=np.complex128)
        if m.ndim == 0:
            m = m.reshape(1, 1)
        if m.shape != (space.dim, space.dim):
            raise DimensionMismatch(
                f"matrix shape {m.shape} does not match space dim {space.dim}"
            )
        if domain is None:
            domain = Subspace.full(space.dim, space.tol)
        if domain.ambient_dim != space.dim:
            raise DimensionMismatch("domain ambient dimension mismatch")
        self.space = space
        self.matrix = m
        self.matrix.flags.writeable = False
        self.domain = domain
        self.tol = max(space.tol, domain.tol)

    def restricted(self, domain: Subspace) -> "OperatorWithDomain":
        return OperatorWithDomain(self.space, self.matrix, domain)

    def apply(self, x) -> np.ndarray:
        v = _as_vector(x, self.space.dim)
        if not self.domain.contains(v):
            raise DomainError("vector is not in the operator domain")
        return self.matrix @ v

    @cached_property
    def graph_relation(self) -> LinearRelation:
        return LinearRelation.from_operator(self.matrix, self.domain, self.tol)

    @cached_property
    def dissipation_matrix(self) -> np.ndarray:
        """Ambient Hermitian matrix of the form -i([x, T y] - [T x, y])."""
        j, m = self.space.J, self.matrix
        g = -1j * (j @ m - m.conj().T @ j)
        return 0.5 * (g + g.conj().T)

    @cached_property
    def dissipation_gram(self) -> np.ndarray:
        """The dissipation form compressed to domain coordinates."""
        b = self.domain.basis
        g = b.conj().T @ self.dissipation_matrix @ b
        return 0.5 * (g + g.conj().T)

    @cached_property
    def graph_gram(self) -> np.ndarray:
        """Gram matrix of <x,y> + <Tx,Ty> on domain coordinates; always >= I."""
        b = self.domain.basis
        mb = self.matrix @ b
        g = b.conj().T @ b + mb.conj().T @ mb
        return 0.5 * (g + g.conj().T)

    def dissipation_form(self, x, y) -> complex:
        """-i([x, T y] - [T x, y]) evaluated on two domain vectors."""
        xv = _as_vector(x, self.space.dim)
        yv = _as_vector(y, self.space.dim)
        return complex(np.vdot(xv, self.dissipation_matrix @ yv))

    def graph_inner(self, x, y) -> complex:
        xv = _as_vector(x, self.space.dim)
        yv = _as_vector(y, self.space.dim)
        for v in (xv, yv):
            if not self.domain.contains(v):
                raise DomainError("graph inner product needs domain vectors")
        return complex(np.vdot(xv, yv) + np.vdot(self.matrix @ xv, self.matrix @ yv))

    def graph_norm(self, x) -> float:
        return float(np.sqrt(self.graph_inner(x, x).real))

    @cached_property
    def _form_scale(self) -> float:
        b = self.domain.basis
        if b.shape[1] == 0:
            return 1.0
        return 1.0 + 2.0 * float(np.linalg.norm(self.matrix @ b, 2))

    def classify(self) -> str:
        """Return "dissipative", "symmetric" or "neither".

        Decided by the dissipation form compressed to the domain: positive
        semidefinite means dissipative, zero (relative to the graph scale)
        symmetric.  The paper's second characterization, through the graph
        in the graph Krein space, is :func:`classify_by_graph`; the pipeline
        reports the agreement of the two as a check.  The verdict is cached.
        """
        return self._classification

    @cached_property
    def _classification(self) -> str:
        return _classify_gram(self.dissipation_gram, self.tol, self._form_scale)

    def __repr__(self):  # pragma: no cover - debugging aid
        return (
            f"OperatorWithDomain(n={self.space.dim}, domain_dim={self.domain.dim})"
        )


def _classify_gram(gram: np.ndarray, tol: float, scale: float) -> str:
    if gram.shape[0] == 0:
        return SYMMETRIC
    eigs = np.linalg.eigvalsh(gram)
    largest = float(np.max(np.abs(eigs)))
    if largest <= tol * scale:
        return SYMMETRIC
    if float(eigs[0]) >= -tol * largest:
        return DISSIPATIVE
    return NEITHER


def classify_by_graph(op: OperatorWithDomain) -> str:
    """Classify through the graph instead of the dissipation form.

    The graph is nonnegative in the graph Krein space exactly when T is
    dissipative, and neutral exactly when T is symmetric.  The graph metric
    is compressed to an orthonormal basis of the graph; only the scale of
    the zero test is shared with :meth:`OperatorWithDomain.classify`.
    """
    graph = op.graph_relation.graph.basis
    n = op.space.dim
    top, bot = graph[:n], graph[n:]
    j = op.space.J
    compressed = -1j * (top.conj().T @ (j @ bot) - bot.conj().T @ (j @ top))
    compressed = 0.5 * (compressed + compressed.conj().T)
    return _classify_gram(compressed, op.tol, op._form_scale)


def krein_adjoint(op: OperatorWithDomain) -> LinearRelation:
    """Adjoint relation in the Krein space, i.e. the graph-metric
    orthocomplement of the graph.  For J = I and full domain this is the
    graph of the matrix adjoint."""
    return relation_adjoint(op.graph_relation, op.space.J, op.space.J)


def _negligible(eigenvalues: np.ndarray, tol: float) -> np.ndarray:
    """Eigenvalues at or below ``tol`` times the scale max(1, max |w|)."""
    largest = max(float(np.max(np.abs(eigenvalues), initial=0.0)), 1.0)
    return np.abs(eigenvalues) <= tol * largest


@dataclass(frozen=True)
class RieszRepresenter:
    """Representer of the dissipation form in the graph inner product.

    ``basis`` columns are a graph-inner-product orthonormal basis of the
    domain, so self-adjointness of ``matrix`` is plain Hermitian symmetry.
    ``sqrt_matrix`` is the principal (nonnegative) square root.
    ``eigenvalues`` (ascending) and ``eigenvectors`` are the
    eigendecomposition of ``matrix`` that both were built from.
    """

    basis: np.ndarray
    matrix: np.ndarray
    sqrt_matrix: np.ndarray
    coord_map: np.ndarray  # domain-basis coords -> representer coords
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def coords(self, op: OperatorWithDomain, x) -> np.ndarray:
        """Coordinates of a domain vector in the graph-orthonormal basis."""
        v = np.asarray(x, dtype=np.complex128).reshape(-1)
        if not op.domain.contains(v):
            raise DomainError("vector is not in the operator domain")
        return self.coord_map @ (op.domain.basis.conj().T @ v)

    def kernel_vectors(self, op: OperatorWithDomain, tol: float) -> Subspace:
        """Kernel of the square root, mapped back to ambient vectors.

        Decided on the eigenvalues of the representer itself; thresholding
        the square root would amplify round-off in the kernel directions.
        """
        if self.dim == 0:
            return Subspace.zero(op.space.dim, tol)
        coeffs = self.eigenvectors[:, _negligible(self.eigenvalues, tol)]
        return orthonormal_span(self.basis @ coeffs, op.space.dim, tol, scale=1.0)

    def pseudo_inverse(self, tol: float) -> np.ndarray:
        """Moore-Penrose inverse of ``matrix``, with the eigenvalues that
        :meth:`kernel_vectors` counts as zero at ``tol`` left uninverted."""
        w = self.eigenvalues
        inverse = np.zeros_like(w)
        kept = ~_negligible(w, tol)
        inverse[kept] = 1.0 / w[kept]
        return (self.eigenvectors * inverse) @ self.eigenvectors.conj().T


def riesz_representer(op: OperatorWithDomain) -> RieszRepresenter:
    """Solve ``form(x, y) = <x, F y>_graph`` for the dissipation form.

    Requires a dissipative (or symmetric) operator; F is then positive
    semidefinite with norm at most 2 and its square-root kernel equals the
    kernel of the form.
    """
    verdict = op.classify()
    if verdict == NEITHER:
        raise ClassificationError("the representer is built for dissipative operators")
    d = op.domain.dim
    if d == 0:
        empty = np.zeros((0, 0), dtype=np.complex128)
        return RieszRepresenter(
            basis=np.zeros((op.space.dim, 0), dtype=np.complex128),
            matrix=empty,
            sqrt_matrix=empty,
            coord_map=empty,
            eigenvalues=np.zeros(0),
            eigenvectors=empty,
        )
    gram = op.graph_gram
    w, v = np.linalg.eigh(gram)
    # graph gram is bounded below by the identity, so this is well posed
    inv_sqrt = v @ np.diag(1.0 / np.sqrt(w)) @ v.conj().T
    sqrt = v @ np.diag(np.sqrt(w)) @ v.conj().T
    basis = op.domain.basis @ inv_sqrt
    f = inv_sqrt @ op.dissipation_gram @ inv_sqrt
    f = 0.5 * (f + f.conj().T)
    fw, fv = np.linalg.eigh(f)
    scale = max(1.0, float(np.max(np.abs(fw))))
    if fw[0] < -100 * op.tol * scale:
        raise ClassificationError(
            f"dissipation representer is indefinite (min eigenvalue {fw[0]:.3e})"
        )
    # flush the form kernel to exact zeros so the square root shares it
    flushed = np.where(_negligible(fw, op.tol), 0.0, np.clip(fw, 0.0, None))
    sqrt_f = fv @ np.diag(np.sqrt(flushed)) @ fv.conj().T
    sqrt_f = 0.5 * (sqrt_f + sqrt_f.conj().T)
    return RieszRepresenter(basis=basis, matrix=f, sqrt_matrix=sqrt_f, coord_map=sqrt,
                            eigenvalues=fw, eigenvectors=fv)
