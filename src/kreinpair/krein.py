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
the eigenvalues of the Riesz representer F of the dissipation form in the
graph product, unitarily similar to it.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import (DimensionMismatch, MetricError, ScaleOverflow, checked_instance,
                     checked_tol)
from .subspaces import Subspace, _as_array, _frozen, qr_span
from .tolerances import DEFAULT_TOL, METRIC_SLACK, negligible

__all__ = [
    "KreinSpace",
    "OperatorWithDomain",
    "boundary_metric_matrix",
    "classify_by_graph",
    "graph_form",
]

DISSIPATIVE = "dissipative"
SYMMETRIC = "symmetric"
NEITHER = "neither"


#: slack on the Frobenius bound in :attr:`OperatorWithDomain.form_scale`;
#: any factor above the round-off of the two norms keeps every verdict, and a
#: larger one only sends more operators to the SVD
_NORM_MARGIN = 2.0

#: a Hermitian involution is unitary, so ``|J|_2 = 1``; a J whose 2-norm is
#: bounded away from ``[1 / _UNIT_BAND, _UNIT_BAND]`` is rejected before
#: ``J^2`` is formed.  Any band wider than the metric cuts keeps every verdict
_UNIT_BAND = 2.0
_NOT_INVOLUTION = "canonical symmetry must square to the identity"


def _unit(a: np.ndarray) -> tuple[float, np.ndarray]:
    """``(peak, A / peak)`` for the largest real or imaginary part ``peak``
    of A, which is finite where ``|A_ij|`` may overflow; A itself when it is
    0.  The parts are divided as real numbers, side by side in one real
    array: a complex division by a subnormal peak overflows."""
    is_complex = np.iscomplexobj(a)
    parts = (np.ascontiguousarray(a, dtype=np.complex128).view(np.float64)
             if is_complex else a)
    peak = float(np.max(np.abs(parts), initial=0.0))
    if peak == 0.0:
        return peak, a
    unit = parts / peak
    return peak, unit.view(np.complex128) if is_complex else unit


def _frobenius(a: np.ndarray) -> float:
    """``|A|_F``, with the squares taken of :func:`_unit` ``A``, whose parts
    are at most 1, so that they neither overflow nor underflow.  They are
    summed as ``numpy.linalg.norm`` sums them, to the bit, without a call
    into ``numpy.linalg``."""
    peak, unit = _unit(a)
    flat = unit.ravel(order="K")
    if flat.dtype.kind == "c":
        re, im = flat.real, flat.imag
        return peak * math.sqrt(re.dot(re) + im.dot(im))
    return peak * math.sqrt(flat.dot(flat))


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


def _check_hermitian(j: np.ndarray, scale: float, tol: float) -> None:
    """The Hermitian check of :class:`KreinSpace` on J of 2-norm ``scale``."""
    if float(np.linalg.norm(j - j.conj().T, 2)) > METRIC_SLACK * tol * scale:
        raise MetricError("metric is not Hermitian")


class KreinSpace:
    """C^n with a canonical symmetry J.

    J must be Hermitian and an involution; a Hermitian involution is
    automatically unitary, so no separate unitarity check is needed.  Both
    defects, ``|J - J*|_2`` and ``|J^2 - I|_2``, are judged against
    ``|J|_2``, with the slack :data:`~kreinpair.tolerances.METRIC_SLACK`.

    ``|J|_2`` lies between the largest column norm of J and its Frobenius
    norm, both taken on J divided by its largest entry part, so that neither
    overflows.  A J whose bounds put ``|J|_2`` outside ``[1/2, 2]`` is no
    involution: with ``|J - J*|_2`` within its cut, ``|J^2|_2`` is about
    ``|J|_2^2``, too far from 1 for the involution cut.  Such a J, J = 0 or
    one whose square would overflow among them, is rejected before ``J^2``
    is formed (:data:`_UNIT_BAND`), with the message of the dense checks.

    Every other J is checked Frobenius-first, at O(n^3) in products: the
    largest column norm ``low`` of J is at most ``|J|_2`` and a Frobenius
    norm is at least the 2-norm, so defects whose Frobenius norms pass the
    cuts taken at ``low`` pass the dense cuts too.  Only a J that this test
    cannot accept, one near or past a cut, takes the three dense 2-norms,
    and their verdict is the one given; so the verdict is always theirs.
    ``tol``, the rank tolerance, must lie in (0, 1), as in an instance file.
    """

    def __init__(self, J, tol: float = DEFAULT_TOL):
        j = _frozen(J)
        if j.shape[0] != j.shape[1]:
            raise MetricError(f"metric must be square, got shape {j.shape}")
        if j.shape[0] == 0:
            raise MetricError("zero-dimensional metric is not allowed")
        tol = checked_tol(tol)
        peak, unit = _unit(j)
        columns = np.linalg.norm(unit, axis=0)
        low = peak * float(np.max(columns))
        if low > _UNIT_BAND or peak * float(np.linalg.norm(columns)) < 1 / _UNIT_BAND:
            # the Hermitian check is a ratio, so it is taken on the unit matrix
            _check_hermitian(unit, float(np.linalg.norm(unit, 2)), tol)
            raise MetricError(_NOT_INVOLUTION)
        cut = METRIC_SLACK * tol * low
        if (_frobenius(j - j.conj().T) > cut
                or _frobenius(j @ j - np.eye(j.shape[0])) > cut * low):
            scale = float(np.linalg.norm(j, 2))
            _check_hermitian(j, scale, tol)
            involution = float(np.linalg.norm(j @ j - np.eye(j.shape[0]), 2))
            if involution > METRIC_SLACK * tol * scale * scale:
                raise MetricError(_NOT_INVOLUTION)
        self.J = j
        self.dim = int(j.shape[0])
        self.tol = tol

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"KreinSpace(dim={self.dim})"


class OperatorWithDomain:
    """A square matrix together with a domain subspace in a Krein space.

    The matrix acts only on domain vectors; the associated graph
    ``{(x, M x) : x in domain}`` is a subspace of the doubled space.
    ``domain=None`` is the whole space, with the identity as its basis B.

    ``tol`` is the space's rank tolerance, the one tolerance of every rank
    decision on the operator and on the subspaces built from it.

    Four special cases stay, each because a benchmark workload pays for its
    absence; none changes a report.  (1) For ``domain=None`` the products
    by B in :attr:`scale`, :attr:`dissipation_gram`, :attr:`graph_gram`,
    :meth:`lift` and :meth:`coords` are skipped, exactly: a product with I
    changes no bit and would cost a dense product on every use.
    (2) :class:`KreinSpace` checks J Frobenius-first; each dense_n128 case
    builds one in its timed region.  (3) The eig worker of
    :mod:`~kreinpair.analysis`, which overlaps the two largest ``eig``
    calls, T's, queued before T is classified, and S's, and the one
    contract check of the triple and the one of graph T with the rest of
    the analysis.  Each of the four is one task handle that runs on the
    calling thread when it is taken back, unless the worker has started
    it; the join takes back the checks after T's eig and before S's, so it
    waits only when nothing is left to run.  Below the one gate on dim T
    no worker starts.  (4) The dense
    :meth:`~kreinpair.sturm_liouville.BandedOperator.operator`, the one
    route where the bands cannot decide ``form_scale``.
    """

    def __init__(self, space: KreinSpace, matrix, domain: Subspace | None = None):
        checked_instance(space, KreinSpace, "space")
        m = _frozen(np.atleast_1d(_as_array(matrix)))
        if m.shape != (space.dim, space.dim):
            raise DimensionMismatch(
                f"matrix shape {m.shape} does not match space dim {space.dim}"
            )
        self._identity_basis = domain is None
        if domain is None:
            domain = Subspace.full(space.dim)
        if not isinstance(domain, Subspace):
            raise DimensionMismatch(
                f"domain must be a Subspace or None, got {type(domain).__name__}")
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
        graph-orthonormal coordinates, read-only."""
        g = self.graph.basis
        form = graph_form(self.space.J, g, g)
        form.flags.writeable = False
        return form

    @cached_property
    def graph_spectrum(self) -> np.ndarray:
        """Ascending eigenvalues of the graph metric ``-i`` :attr:`graph_form`
        (none for an empty domain).  For ``[B; T B] = Q R`` it is
        ``R^-* D R^-1``, D the dissipation Gram, unitarily similar to the
        Riesz representer ``F = G^-1/2 D G^-1/2`` of the form in the graph
        product since ``R* R`` is the graph Gram G."""
        metric = -1j * self.graph_form
        return np.linalg.eigvalsh(0.5 * (metric + metric.conj().T))

    @cached_property
    def dissipation_matrix(self) -> np.ndarray:
        """Ambient matrix of the form -i([x, T y] - [T x, y]), Hermitian by
        construction: ``h + h*`` for ``h = -i H M`` and H the Hermitian part
        of J (with ``J M`` it would be off by the asymmetry J may keep).
        Raises :class:`ScaleOverflow` unless its bound ``2 |H|_F |M|_F`` is finite."""
        j = self.space.J
        hermitian = 0.5 * (j + j.conj().T)
        if not np.isfinite(2.0 * _frobenius(hermitian) * _frobenius(self.matrix)):
            raise ScaleOverflow("the dissipation form overflows: |H|_F |T|_F too large")
        h = -1j * (hermitian @ self.matrix)
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

    @cached_property
    def scale(self) -> float:
        """``|T B|_2`` for the domain basis B: the scale of the cuts on T.
        It bounds every eigenvalue and, doubled, the dissipation form."""
        return float(np.linalg.norm(self._image, 2)) if self.domain.dim else 0.0

    @cached_property
    def form_eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigendecomposition of :attr:`dissipation_gram`, taken once."""
        return np.linalg.eigh(self.dissipation_gram)

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
