"""Krein-space structures and the basic calculus of dissipative operators.

A Krein space is C^n together with a canonical symmetry J (a Hermitian
involution); the indefinite inner product is ``[x, y] = <x, J y>`` with
``<.,.>`` the Euclidean product, conjugate-linear in the first argument.
An operator's graph ``{(x, T x)}`` is held by an orthonormal basis in plain
coordinates of the doubled space.  :func:`classify_by_graph` judges it in
the graph metric

    [(x1, y1), (x2, y2)]_G = -i([x1, y2] - [y1, x2])

whose canonical symmetry ``(x, y) -> (-i J y, i J x)`` is unitary, so the
Hilbert product it induces on pairs is exactly the Euclidean one.  It is
formed once, as -i :attr:`OperatorWithDomain.graph_form`, which every Green
identity on graph T is checked against; its spectrum gives that verdict and
the eigenvalues of the Riesz representer F, unitarily similar to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ClassificationError, DimensionMismatch, MetricError, ScaleOverflow
from .subspaces import Subspace, _frozen, is_diagonal, orthonormal_span, qr_span
from .tolerances import DEFAULT_TOL, METRIC_SLACK, negligible

__all__ = [
    "KreinSpace",
    "OperatorWithDomain",
    "RieszRepresenter",
    "boundary_metric_matrix",
    "classify_by_graph",
    "graph_form",
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


#: slack on the Frobenius bound in :attr:`OperatorWithDomain.form_scale`;
#: any factor above the round-off of the two norms keeps every verdict, and a
#: larger one only sends more operators to the SVD
_NORM_MARGIN = 2.0

#: F of :func:`riesz_representer` is positive semidefinite for a dissipative
#: T; an eigenvalue below ``-INDEFINITE_CUT * tol`` is not round-off
INDEFINITE_CUT = 100


def _frobenius(a: np.ndarray) -> float:
    """``|A|_F``, with the squares taken of ``A / max|A_ij|`` so that they
    neither overflow nor underflow."""
    peak = float(np.max(np.abs(a), initial=0.0))
    return peak * float(np.linalg.norm(a / peak)) if peak > 0 else 0.0


def boundary_metric_matrix(dim: int) -> np.ndarray:
    """Canonical symmetry ``(u, v) -> (-i v, i u)`` of a doubled Hilbert space."""
    eye = np.eye(dim, dtype=np.complex128)
    zero = np.zeros((dim, dim), dtype=np.complex128)
    return np.block([[zero, -1j * eye], [1j * eye, zero]])


def graph_form(j: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The Krein graph form ``[x, y'] - [x', y]`` between the columns
    ``(x, x')`` of ``a = [top_a; bot_a]`` and ``(y, y')`` of ``b``, stacked
    bases of the doubled space: ``top_a* J bot_b - bot_a* J top_b``."""
    (top_a, bot_a), (top_b, bot_b) = np.split(a, 2), np.split(b, 2)
    return top_a.conj().T @ (j @ bot_b) - bot_a.conj().T @ (j @ top_b)


def _metric_norms(j: np.ndarray, diagonal: bool) -> tuple[float, float, float]:
    """``|J|_2``, ``|J - J*|_2`` and ``|J^2 - I|_2``; from the diagonal alone
    when J is diagonal (see :class:`KreinSpace`)."""
    if diagonal:
        d = np.diag(j)
        return (float(np.max(np.abs(d))), float(np.max(np.abs(d - d.conj()))),
                float(np.max(np.abs(d * d - 1.0))))
    return (float(np.linalg.norm(j, 2)), float(np.linalg.norm(j - j.conj().T, 2)),
            float(np.linalg.norm(j @ j - np.eye(j.shape[0]), 2)))


def _passes_frobenius_first(j: np.ndarray, tol: float) -> bool:
    """Whether the checks of :class:`KreinSpace` pass by their Frobenius
    bounds: ``|J - J*|_F <= cut`` and ``|J^2 - I|_F <= cut low`` for
    ``cut = METRIC_SLACK tol low``, ``low`` the largest column norm of J.
    Since ``low <= |J|_2`` and a Frobenius norm bounds the 2-norm, the dense
    checks then pass too; a False only means they must be run."""
    peak = float(np.max(np.abs(j)))
    low = peak * float(np.max(np.linalg.norm(j / peak, axis=0)))
    cut = METRIC_SLACK * tol * low
    return (_frobenius(j - j.conj().T) <= cut
            and _frobenius(j @ j - np.eye(j.shape[0])) <= cut * low)


class KreinSpace:
    """C^n with a canonical symmetry J.

    J must be Hermitian and an involution; a Hermitian involution is
    automatically unitary, so no separate unitarity check is needed.  Both
    defects, ``|J - J*|_2`` and ``|J^2 - I|_2``, are judged against
    ``|J|_2``, with the slack :data:`~kreinpair.tolerances.METRIC_SLACK`.

    ``diagonal`` records whether J is diagonal (:func:`is_diagonal`: as many
    nonzeros as its diagonal), decided once here.  Such a J, the identity
    for one, is checked in O(n) without an SVD.  This is exact: J, J - J*
    and J^2 - I are then diagonal, and the 2-norm of a diagonal matrix is
    the largest modulus on its diagonal, so the three norms, and every
    verdict, are those of the dense route up to its own round-off.  Products
    with a diagonal J are row or column scalings, and a scaling computes
    each entry of the product as the one nonzero term of its dense sum.

    Any other J is checked Frobenius-first, at O(n^3) in products: the
    largest column norm of J is at most ``|J|_2`` and a Frobenius norm is at
    least the 2-norm, so defects whose Frobenius norms pass the cuts taken
    at that column norm pass the dense cuts too.  Only a J that this test
    cannot accept, one near or past a cut, takes the three dense 2-norms,
    and their verdict is the one given; so the verdict is always theirs.
    """

    def __init__(self, J, tol: float = DEFAULT_TOL):
        j = _frozen(J)
        if j.shape[0] != j.shape[1]:
            raise MetricError(f"metric must be square, got shape {j.shape}")
        if j.shape[0] == 0:
            raise MetricError("zero-dimensional metric is not allowed")
        diagonal = is_diagonal(j)
        if diagonal or not _passes_frobenius_first(j, tol):
            scale, asymmetry, involution = _metric_norms(j, diagonal)
            if asymmetry > METRIC_SLACK * tol * scale:
                raise MetricError("metric is not Hermitian")
            if involution > METRIC_SLACK * tol * scale * scale:
                raise MetricError("canonical symmetry must square to the identity")
        self.J = j
        self.dim = int(j.shape[0])
        self.tol = float(tol)
        self.diagonal = diagonal

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"KreinSpace(dim={self.dim})"


class OperatorWithDomain:
    """A square matrix together with a domain subspace in a Krein space.

    The matrix acts only on domain vectors; the associated graph
    ``{(x, M x) : x in domain}`` is a subspace of the doubled space.
    ``domain=None`` is the whole space, with the identity as its basis B;
    the products by B in :attr:`scale`, :attr:`dissipation_gram`,
    :attr:`graph_gram`, :meth:`lift` and :meth:`coords` are then skipped,
    which is exact: a product with I changes no bit.

    ``tol`` is the space's rank tolerance, the one tolerance of every rank
    decision on the operator and on the subspaces built from it.
    """

    def __init__(self, space: KreinSpace, matrix, domain: Subspace | None = None):
        m = _frozen(np.atleast_1d(matrix))
        if m.shape != (space.dim, space.dim):
            raise DimensionMismatch(
                f"matrix shape {m.shape} does not match space dim {space.dim}"
            )
        self._identity_basis = domain is None
        if domain is None:
            domain = Subspace.full(space.dim)
        if domain.ambient_dim != space.dim:
            raise DimensionMismatch("domain ambient dimension mismatch")
        self.space = space
        self.matrix = m
        self.domain = domain
        self.tol = space.tol

    def restricted(self, domain: Subspace) -> "OperatorWithDomain":
        op = OperatorWithDomain(self.space, self.matrix, domain)
        if "dissipation_matrix" in self.__dict__:
            # the ambient form does not depend on the domain
            op.dissipation_matrix = self.dissipation_matrix
        return op

    def lift(self, coeffs) -> np.ndarray:
        """Ambient vectors ``B @ coeffs`` from domain-basis coordinates."""
        return coeffs if self._identity_basis else self.domain.basis @ coeffs

    def coords(self, vectors) -> np.ndarray:
        """Domain-basis coordinates ``B* @ vectors`` (no membership check)."""
        if self._identity_basis:
            return vectors
        return self.domain.basis.conj().T @ vectors

    @cached_property
    def graph(self) -> Subspace:
        """Orthonormal basis of the graph ``{(x, M x) : x in domain}`` in
        C^2n, pairs stacked with x on top: the reduced Householder QR of
        ``[B; T B]``.  No rank decision is needed: B has orthonormal
        columns, so every singular value of ``[B; T B]`` is at least 1 and
        its rank is the domain dimension, however large T is."""
        return qr_span(np.vstack([self.domain.basis, self._image]))

    @cached_property
    def graph_form(self) -> np.ndarray:
        """:func:`graph_form` on :attr:`graph`: ``[x, Ty] - [Tx, y]`` on
        graph-orthonormal coordinates."""
        g = self.graph.basis
        return graph_form(self.space.J, g, g)

    @cached_property
    def graph_spectrum(self) -> np.ndarray:
        """Ascending eigenvalues of the graph metric ``-i`` :attr:`graph_form`
        (none for an empty domain).  For ``[B; T B] = Q R`` it is
        ``R^-* D R^-1``, D the dissipation Gram, unitarily similar to F of
        :func:`riesz_representer` since ``R* R`` is the graph Gram."""
        metric = -1j * self.graph_form
        return np.linalg.eigvalsh(0.5 * (metric + metric.conj().T))

    @cached_property
    def dissipation_matrix(self) -> np.ndarray:
        """Ambient matrix of the form -i([x, T y] - [T x, y]), Hermitian by
        construction: ``h + h*`` for ``h = -i H M`` and H the Hermitian part
        of J (with ``J M`` it would be off by the asymmetry J may keep).
        For a diagonal J (:attr:`KreinSpace.diagonal`) ``H M`` is a row
        scaling by ``Re(diag J)``, in O(n^2): the same bits as the product.
        """
        j, m = self.space.J, self.matrix
        if self.space.diagonal:
            h = -1j * (np.diag(j).real[:, None] * m)
        else:
            h = -1j * ((0.5 * (j + j.conj().T)) @ m)
        return h + h.conj().T

    @cached_property
    def dissipation_gram(self) -> np.ndarray:
        """The dissipation form compressed to domain coordinates."""
        if self._identity_basis:
            # already exactly Hermitian, so symmetrizing again changes no bit
            return self.dissipation_matrix
        b = self.domain.basis
        g = b.conj().T @ self.dissipation_matrix @ b
        return 0.5 * (g + g.conj().T)

    @cached_property
    def _image(self) -> np.ndarray:
        """``T B``: the matrix on the domain basis."""
        return self.matrix if self._identity_basis else self.matrix @ self.domain.basis

    @cached_property
    def graph_gram(self) -> np.ndarray:
        """Gram matrix of <x,y> + <Tx,Ty> on domain coordinates; always >= I.
        Raises :class:`ScaleOverflow` unless twice ``|T B|_F^2``, which bounds
        its entries and their partial sums, is finite: it is summed with its adjoint."""
        b, mb = self.domain.basis, self._image
        frobenius = _frobenius(mb)
        if not np.isfinite(2.0 * frobenius * frobenius):
            raise ScaleOverflow(f"|T B|_F = {frobenius:.3e}: the graph Gram overflows")
        eye = np.eye(b.shape[1]) if self._identity_basis else b.conj().T @ b
        g = eye + mb.conj().T @ mb
        return 0.5 * (g + g.conj().T)

    def dissipation_form(self, x, y) -> complex:
        """-i([x, T y] - [T x, y]) evaluated on two domain vectors."""
        xv = _as_vector(x, self.space.dim)
        yv = _as_vector(y, self.space.dim)
        return complex(np.vdot(xv, self.dissipation_matrix @ yv))

    @cached_property
    def scale(self) -> float:
        """``|T B|_2`` for the domain basis B: the scale of the cuts on T.
        It bounds every eigenvalue and, doubled, the dissipation form."""
        return float(np.linalg.norm(self._image, 2)) if self.domain.dim else 0.0

    @cached_property
    def form_eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigendecomposition of :attr:`dissipation_gram`, taken once.

        A diagonal Gram (:func:`~kreinpair.subspaces.is_diagonal`), such as
        that of a potential on a grid, is its own eigendecomposition: its
        real diagonal sorted ascending (stably, so ties keep their order)
        with the matching identity columns.  These are the exact eigenpairs,
        and the values are the ones LAPACK returns for such a matrix, since
        its tridiagonal reduction of a diagonal matrix leaves it unchanged;
        only a matrix LAPACK rescales, of norm beyond about 1e146 or below
        about 1e-146, may differ from them in the last bit.
        """
        gram = self.dissipation_gram
        if not is_diagonal(gram):
            return np.linalg.eigh(gram)
        d = np.diag(gram).real
        order = np.argsort(d, kind="stable")
        return d[order], np.eye(d.size, dtype=np.complex128)[:, order]

    @cached_property
    def form_scale(self) -> float:
        """Scale of the rank decision on the dissipation form (:func:`_form_scale`)."""
        return _form_scale(self.form_eigh[0], _frobenius(self._image),
                           lambda: self.scale, self.tol)

    @cached_property
    def form_kernel(self) -> Subspace:
        """Kernel of the dissipation form inside the domain."""
        w, v = self.form_eigh
        kernel = v[:, negligible(w, self.tol, self.form_scale)]
        # orthonormal basis times orthonormal coefficients
        return Subspace(self.space.dim, self.lift(kernel))

    def classify(self) -> str:
        """Return "dissipative", "symmetric" or "neither".

        Decided by the dissipation form compressed to the domain, at
        :attr:`form_scale`: positive semidefinite means dissipative, zero
        symmetric.  The paper's second characterization, through the graph
        in the graph Krein space, is :func:`classify_by_graph`; the pipeline
        reports the agreement of the two as a check.  The verdict is cached.
        """
        return self._classification

    @cached_property
    def _classification(self) -> str:
        w = self.form_eigh[0]
        # a zero form is symmetric at every scale: no need for form_scale
        return _classify(w, self.tol, self.form_scale if np.any(w) else 0.0)

    def __repr__(self):  # pragma: no cover - debugging aid
        return (
            f"OperatorWithDomain(n={self.space.dim}, domain_dim={self.domain.dim})"
        )


def _form_scale(eigs: np.ndarray, frobenius: float, norm2, tol: float) -> float:
    """Scale of the rank decision on a dissipation form with eigenvalues
    ``eigs``: their largest modulus, or its bound ``2 |T B|_2`` when even
    that is negligible against the bound (T is symmetric).

    ``frobenius = |T B|_F >= |T B|_2``, so a largest eigenvalue that is not
    negligible against ``2 |T B|_F`` (times a margin far above the round-off
    of either norm) is not negligible against the bound either: the answer
    is then the same without ``norm2()``, which returns ``|T B|_2`` by an
    SVD and runs only when this test cannot decide.
    """
    largest = float(np.max(np.abs(eigs), initial=0.0))
    if not negligible(largest, tol, _NORM_MARGIN * (2.0 * frobenius)):
        return largest
    bound = 2.0 * norm2()
    return bound if negligible(largest, tol, bound) else largest


def _classify(eigs: np.ndarray, tol: float, scale: float) -> str:
    """Verdict on a Hermitian form from its ascending eigenvalues: symmetric
    when all are negligible against ``scale``, dissipative when all negative ones are."""
    if np.all(negligible(eigs, tol, scale)):
        return SYMMETRIC
    if eigs[0] >= 0 or negligible(eigs[0], tol, scale):
        return DISSIPATIVE
    return NEITHER


def classify_by_graph(op: OperatorWithDomain) -> str:
    """Classify through the graph instead of the dissipation form.

    The graph is nonnegative in the graph Krein space exactly when T is
    dissipative, and neutral exactly when T is symmetric.  The verdict is
    read from :attr:`OperatorWithDomain.graph_spectrum`, the graph metric
    compressed to an orthonormal basis of the graph, which bounds its norm
    by 1 (``2 |[x, y]| <= |x|^2 + |y|^2``): both its zero test and its sign
    test are judged at that scale, as its round-off is.
    """
    return _classify(op.graph_spectrum, op.tol, 1.0)


@dataclass(frozen=True)
class RieszRepresenter:
    """Representer of the dissipation form in the graph inner product.

    ``basis`` columns are a graph-inner-product orthonormal basis of the
    domain, so self-adjointness of ``matrix`` is plain Hermitian symmetry and
    its norm, the scale of its cuts, is at most 1 (``2|[x, Tx]| <= |x|^2 + |Tx|^2``).
    ``sqrt_matrix`` is the principal (nonnegative) square root.
    ``eigenvalues`` (ascending) and ``eigenvectors`` are the
    eigendecomposition of ``matrix`` that both were built from.  The tests'
    reference: the pipeline reports only F's eigenvalues, read from
    :attr:`OperatorWithDomain.graph_spectrum`.
    """

    basis: np.ndarray
    matrix: np.ndarray
    sqrt_matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def kernel_vectors(self, op: OperatorWithDomain, tol: float) -> Subspace:
        """Kernel of the square root, mapped back to ambient vectors.

        Decided on the eigenvalues of the representer itself; thresholding
        the square root would amplify round-off in the kernel directions.
        """
        if self.dim == 0:
            return Subspace.zero(op.space.dim)
        coeffs = self.eigenvectors[:, negligible(self.eigenvalues, tol, 1.0)]
        return orthonormal_span(self.basis @ coeffs, tol, scale=1.0)


def riesz_representer(op: OperatorWithDomain) -> RieszRepresenter:
    """Solve ``form(x, y) = <x, F y>_graph`` for the dissipation form.

    Requires a dissipative (or symmetric) operator; F is then positive
    semidefinite with norm at most 1 and its square-root kernel equals the
    kernel of the form; an eigenvalue below the :data:`INDEFINITE_CUT`
    raises :class:`ClassificationError`.
    """
    verdict = op.classify()
    if verdict == NEITHER:
        raise ClassificationError("the representer is built for dissipative operators")
    gram = op.graph_gram
    w, v = np.linalg.eigh(gram)
    # graph gram is bounded below by the identity, so this is well posed
    inv_sqrt = (v * (1.0 / np.sqrt(w))) @ v.conj().T
    basis = op.lift(inv_sqrt)
    f = inv_sqrt @ op.dissipation_gram @ inv_sqrt
    f = 0.5 * (f + f.conj().T)
    fw, fv = np.linalg.eigh(f)
    if fw.size and fw[0] < -INDEFINITE_CUT * op.tol:
        raise ClassificationError(
            f"dissipation representer is indefinite (min eigenvalue {fw[0]:.3e})"
        )
    # flush the form kernel to exact zeros so the square root shares it
    flushed = np.where(negligible(fw, op.tol, 1.0), 0.0, np.clip(fw, 0.0, None))
    sqrt_f = (fv * np.sqrt(flushed)) @ fv.conj().T
    sqrt_f = 0.5 * (sqrt_f + sqrt_f.conj().T)
    return RieszRepresenter(basis=basis, matrix=f, sqrt_matrix=sqrt_f,
                            eigenvalues=fw, eigenvectors=fv)

