"""Boundary triples for the adjoint of the symmetric part, and the induced
boundary pair of a dissipative operator.

Construction route: conjugating by J turns the Krein-symmetric part S into
the Hilbert-symmetric operator JS.  Von Neumann's formula gives its
deficiency subspaces in closed form, N+ = ran((JS + i)B)^perp and
N- = ran((JS - i)B)^perp for a domain basis B, and its Euclidean adjoint as
the orthogonal sum graph(JS) + {(u, iu)} + {(v, -iv)} over u in N+, v in N-
(Behrndt, Hassi & de Snoo, *Boundary Value Problems, Weyl Functions, and
Differential Operators*, 2020).  Since ``|(JS +- i)x|^2 = |JSx|^2 + |x|^2``,
every singular value of ``(JS +- i)B`` is at least 1 for an orthonormal B,
so its rank is dim S by construction: N+ and N- are the trailing columns of
its complete Householder QR, with no rank cut, and both have dimension
n - dim S.  The map (x, y) -> (x, Jy) carries that sum onto the Krein
adjoint graph of S, so orthonormal bases of the three pieces give an
orthonormal basis of it without a further factorization.  Picking a
unitary identification of N+ and N- gives trace maps through the standard
deficiency-coordinate formulas; the abstract Green identity and the
vanishing of the traces exactly on graph(S) are checked once, as the
construction's contract.

Each contract check costs what its contract costs.  The Green identity on
an orthonormal graph basis ``[top; bot]`` is the matrix identity
``top* J bot - bot* J top = (t0 g)* (t1 g) - (t1 g)* (t0 g)``, formed in
factors and without a 2n x 2n form.  On the von Neumann basis the stacked
traces are exactly zero on graph(S) and a fixed unitary on N+ and N-, so
their kernel is checked by two norms instead of a null space.  Graph T lies
in the adjoint graph exactly when its overlap with ``M graph(S)``, for the
unitary ``M(s, s') = (-J s', J s)``, vanishes: a d x d_S product instead of
a projection onto the adjoint basis.  Each is decided by a Frobenius norm,
which bounds the 2-norm from above, so a gate on it can only tighten.

Two independent realizations of the boundary map of the pair are provided:
one through the graph-orthogonal projection onto the defect domain, one
through the resolvent-type sandwich with the deficiency projector, solved
through the QR of ``(JT + iI)B``.  Their agreement is the central theorem
check of the package.

The real-spectrum check compares the real eigenvalues and eigenspaces of T
and of its symmetric part, each taken on its own domain.  One ``eig`` of
the d x d domain compression gives every candidate at O(d^3), and one
batched residual decides the isolated ones; an SVD runs only for a cluster
of eigenvalues closer than ``LOOSE_GATE``, where the eigenvectors of a
non-normal matrix are ill-conditioned (Golub & Van Loan, *Matrix
Computations*, section 7.2).  The whole check is O(n^3).  The two ``eig``
calls, of T's compression and of S's, need nothing but the operator, so
they may be computed ahead, elsewhere, and handed over: ``eig=`` of
:func:`restricted_eigenpairs` and ``eigs=`` of :func:`real_spectrum_report`
take their ``(values, vectors)``, and the rest of the check is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .decomposition import DeficiencyData, Splitting
from .errors import DimensionMismatch, PipelineError
from .krein import SYMMETRIC, OperatorWithDomain, boundary_metric_matrix
from .subspaces import Subspace, gap_distance, null_space, qr_span
from .tolerances import CHECK_GATE, DEFAULT_TOL, EXACT_BOUND, LOOSE_GATE, negligible

__all__ = [
    "BoundaryTriple",
    "TraceData",
    "BoundaryPair",
    "RealSpectrumReport",
    "build_boundary_triple",
    "restrict_triple",
    "trace_image_gram",
    "transform_traces",
    "boundary_map_projection",
    "boundary_map_resolvent",
    "pair_green_residual",
    "restricted_eigenpairs",
    "real_spectrum_report",
]

#: random domain sample pairs of :func:`pair_green_residual`
PAIR_GREEN_SAMPLES = 200


@dataclass(frozen=True)
class BoundaryTriple:
    """Trace maps on the adjoint of the symmetric part.

    ``trace0`` and ``trace1`` act on stacked pairs (x, x') of the doubled
    base space and take values in the boundary space C^k; they vanish
    exactly on the graph of the symmetric part and are jointly surjective,
    so together they form an ordinary boundary triple.  ``defect_plus`` and
    ``defect_minus`` are the deficiency subspaces N+ and N- of JS, and the
    orthonormal basis of ``adjoint_graph`` is the von Neumann block basis
    ``[graph(S) | (u, iJu)/sqrt(2) | (v, -iJv)/sqrt(2)]``.
    ``green_residual`` is the residual of the Green identity on that basis,
    checked at construction: the Frobenius norm of its defect matrix, formed
    in factors (:func:`_green_residual`), an upper bound of the 2-norm.
    """

    space_dim: int
    trace0: np.ndarray  # k x 2n
    trace1: np.ndarray  # k x 2n
    adjoint_graph: Subspace  # graph of the symmetric part's adjoint
    symmetric_graph: Subspace
    defect_plus: Subspace
    defect_minus: Subspace
    base_metric: np.ndarray  # J of the underlying Krein space
    green_residual: float


@dataclass(frozen=True)
class TraceData:
    """Trace maps restricted to the graph of T, with the image G-space.

    ``trace0``/``trace1`` here are matrices on coordinates of the domain
    basis ``domain_basis``.  ``image`` is the joint range inside the doubled
    boundary space and ``image_gram`` the compression of its canonical
    symmetry to the image, on an orthonormal basis of the image.
    """

    boundary_dim: int
    trace0: np.ndarray  # k x d
    trace1: np.ndarray  # k x d
    domain_basis: np.ndarray  # n x d
    image: Subspace | None  # None when the boundary space is trivial
    image_gram: np.ndarray


@dataclass(frozen=True)
class BoundaryPair:
    """Hilbert space E and the boundary map of a dissipative operator.

    E is the defect domain with the positive inner product given by
    ``gram`` on coordinates of ``defect_basis``; ``matrix`` sends
    domain-basis coordinates to the ambient representative of the boundary
    value.  The kernel of the map is the symmetric domain and its range is
    all of E.
    """

    space_dim: int
    gram: np.ndarray  # E inner product on defect-basis coordinates
    matrix: np.ndarray  # n x d, domain coords -> ambient defect vector
    domain_basis: np.ndarray  # n x d, orthonormal
    defect_basis: np.ndarray  # n x space_dim

    def kernel(self) -> Subspace:
        """Kernel of the map: the trailing ``d - space_dim`` columns of the
        complete QR of ``(defect_basis* matrix)*``, no rank decision.  The
        map is ``mixing^-1 (G X)*`` on domain coordinates, for the defect
        basis X and the graph Gram ``G >= I``, so its rank is ``space_dim``."""
        q = np.linalg.qr(self.matrix.conj().T @ self.defect_basis, mode="complete")[0]
        # orthonormal basis times orthonormal coefficients
        basis = self.domain_basis @ q[:, self.space_dim:]
        return Subspace(self.domain_basis.shape[0], basis)


def build_boundary_triple(sym: OperatorWithDomain) -> BoundaryTriple:
    """Ordinary boundary triple for the adjoint of a symmetric operator.

    N+ and N- are the orthocomplements of the ranges of ``(JS + i)B`` and
    ``(JS - i)B`` for the domain basis B, the trailing columns of their
    complete QRs: every singular value of either is at least 1, so both
    ranges have dimension dim S and N+ and N- the same dimension, with no
    rank decision.  The traces on the von Neumann basis are checked against
    their exact block values (:func:`_trace_kernel_gap`), and the abstract
    Green identity on it as a matrix identity (:func:`_green_residual`); a
    violation of either raises.
    """
    if sym.classify() != SYMMETRIC:
        raise PipelineError("boundary triples are built over a symmetric operator")
    n, j = sym.space.dim, sym.space.J
    b, d = sym.domain.basis, sym.domain.dim
    jsb = j @ sym._image
    n_plus, n_minus = (
        Subspace(n, np.linalg.qr(jsb + shift * b, mode="complete")[0][:, d:])
        for shift in (1j, -1j)
    )

    # components of (x, J x') in the von Neumann decomposition:
    #   u+ = Qp Qp^H (x - i J x') / 2,   u- = Qm Qm^H (x + i J x') / 2
    # trace0 = coords(u+) + coords(u-), trace1 = i (coords(u+) - coords(u-))
    qp, qm = n_plus.basis, n_minus.basis
    ph, mh = qp.conj().T, qm.conj().T
    phj, mhj = -1j * ph @ j, 1j * mh @ j
    trace0 = 0.5 * np.hstack([ph + mh, phj + mhj])
    trace1 = 0.5j * np.hstack([ph - mh, phj - mhj])

    # graph(S) + {(u, iJu)} + {(v, -iJv)}: the unitary image (x, y) -> (x, Jy)
    # of the von Neumann decomposition of the Euclidean adjoint of JS, whose
    # three pieces are mutually orthogonal
    sym_graph = sym.graph
    adjoint_graph = Subspace(2 * n, np.hstack([
        sym_graph.basis,
        np.vstack([qp, 1j * j @ qp]) / np.sqrt(2.0),
        np.vstack([qm, -1j * j @ qm]) / np.sqrt(2.0),
    ]))

    # the traces on that basis: zero on graph(S), the fixed unitary on N+-
    g = adjoint_graph.basis
    on_graph = np.vstack([trace0, trace1]) @ g
    _trace_kernel_gap(on_graph, sym_graph.dim)
    k = n_plus.dim
    residual = _green_residual(j, g, on_graph[:k], on_graph[k:])
    if residual > EXACT_BOUND:
        raise PipelineError(f"abstract Green identity fails (residual {residual:.3e})")
    return BoundaryTriple(
        space_dim=n_plus.dim,
        trace0=trace0,
        trace1=trace1,
        adjoint_graph=adjoint_graph,
        symmetric_graph=sym_graph,
        defect_plus=n_plus,
        defect_minus=n_minus,
        base_metric=j,
        green_residual=residual,
    )


def _green_residual(j: np.ndarray, graph: np.ndarray, t0: np.ndarray,
                    t1: np.ndarray) -> float:
    """Frobenius norm of the Green identity's defect on an orthonormal graph
    basis ``graph = [top; bot]``, given the traces ``t0``, ``t1`` on it:

        top* J bot - bot* J top - ((t0)* t1 - (t1)* t0),

    the compression of [x, y'] - [x', y] - (<t0 x^, t1 y^> - <t1 x^, t0 y^>)
    to the basis.  Both forms have norm of order |J| = 1, and the Frobenius
    norm bounds the 2-norm from above, so a gate on it only tightens."""
    n = j.shape[0]
    top, bot = graph[:n], graph[n:]
    defect = (top.conj().T @ (j @ bot) - bot.conj().T @ (j @ top)
              - (t0.conj().T @ t1 - t1.conj().T @ t0))
    return float(np.linalg.norm(defect))


def _trace_kernel_gap(on_graph: np.ndarray, sym_dim: int) -> float:
    """Bound on the gap between the kernel of the traces on the adjoint
    graph and graph(S), from the traces ``[t0; t1]`` on the von Neumann
    basis ``[graph(S) | N+ | N-]`` (``sym_dim`` columns of graph(S) first).

    On the N+- blocks the traces are exactly the unitary
    ``U0 = [[I, I], [iI, -iI]] / sqrt(2)``; within ``EXACT_BOUND`` of it in
    the Frobenius norm the stacked traces have rank 2k, so their kernel
    has dimension ``sym_dim``.  It is then the graph of ``-W^-1 E`` over
    graph(S), for E the traces on graph(S) and W those on N+-, and its gap
    to graph(S) is at most ``|E|_F / (1 - |W - U0|_F)``, which is returned.
    Raises when that bound exceeds ``CHECK_GATE``, or W is not U0."""
    k = (on_graph.shape[1] - sym_dim) // 2
    eye = np.eye(k) / np.sqrt(2.0)
    u0 = np.block([[eye, eye], [1j * eye, -1j * eye]])
    unitary_defect = float(np.linalg.norm(on_graph[:, sym_dim:] - u0))
    if unitary_defect > EXACT_BOUND:
        raise PipelineError(
            f"traces on the deficiency blocks are not the von Neumann unitary "
            f"({unitary_defect:.3e})"
        )
    gap = float(np.linalg.norm(on_graph[:, :sym_dim])) / (1.0 - unitary_defect)
    if gap > CHECK_GATE:
        raise PipelineError("trace maps do not vanish exactly on the symmetric graph")
    return gap


def _containment_residual(j: np.ndarray, sym_graph: np.ndarray,
                          graph: np.ndarray) -> float:
    """Distance bound of an orthonormal graph basis ``graph = [top; bot]``
    from the adjoint graph of S, given the basis ``sym_graph`` of graph(S).

    The adjoint graph is the orthocomplement of ``M graph(S)`` for the
    unitary ``M(s, s') = (-J s', J s)``, so the part of ``graph`` outside it
    is its overlap ``bot* J top_S - top* J bot_S`` with ``M sym_graph``.
    That is a d x d_S matrix, and its Frobenius norm bounds the 2-norm
    ``|(I - P) graph|_2`` for the projector P onto the adjoint graph."""
    n = j.shape[0]
    overlap = (graph[n:].conj().T @ (j @ sym_graph[:n])
               - graph[:n].conj().T @ (j @ sym_graph[n:]))
    return float(np.linalg.norm(overlap))


def restrict_triple(triple: BoundaryTriple, op: OperatorWithDomain,
                    defect: Subspace) -> TraceData:
    """Trace maps evaluated on the graph of T, plus the image G-space.

    ``defect`` is T's defect domain (``Subspace.zero`` for a symmetric T).
    The traces vanish on dom S, and the graph of a defect-domain x lies in
    the N+- part of the adjoint graph, where they are the unitary U0, so
    ``|[t0; t1] x| = |(x, Tx)| >= |x|``: the image is the reduced QR of
    ``[t0; t1] X`` for the defect basis X, with no rank decision.

    The containment of graph T in the adjoint graph
    (:func:`_containment_residual`) and the Green identity on graph T are
    checked; a violation of either raises.
    """
    g_t = op.graph.basis
    j = triple.base_metric
    outside = _containment_residual(j, triple.symmetric_graph.basis, g_t)
    if outside > CHECK_GATE:
        raise PipelineError(
            f"graph of T is not contained in the adjoint graph (defect {outside:.3e})"
        )
    b = op.domain.basis
    stacked_pairs = np.vstack([b, op._image])
    t0 = triple.trace0 @ stacked_pairs
    t1 = triple.trace1 @ stacked_pairs
    k = triple.space_dim
    # zero defect numbers: no boundary data at all
    image = qr_span(np.vstack([t0, t1]) @ op.coords(defect.basis)) if k else None
    gram = trace_image_gram(image) if k else np.zeros((0, 0), dtype=np.complex128)
    residual = _green_residual(j, g_t, triple.trace0 @ g_t, triple.trace1 @ g_t)
    if residual > EXACT_BOUND:
        raise PipelineError(f"Green identity fails on the graph of T ({residual:.3e})")
    return TraceData(
        boundary_dim=k,
        trace0=t0,
        trace1=t1,
        domain_basis=b,
        image=image,
        image_gram=gram,
    )


def trace_image_gram(image: Subspace) -> np.ndarray:
    """Compression of the doubled boundary-space symmetry to the image,
    expressed on an orthonormal basis of the image."""
    if image.dim == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    if image.ambient_dim % 2:
        raise DimensionMismatch("image must live in a doubled boundary space")
    k = image.ambient_dim // 2
    meta = boundary_metric_matrix(k)
    q = image.basis
    gram = q.conj().T @ meta @ q
    return 0.5 * (gram + gram.conj().T)


def transform_traces(traces: TraceData, w: np.ndarray) -> TraceData:
    """Post-compose the trace maps with a metric-preserving boundary rotation.

    ``w`` is a 2k x 2k matrix acting on stacked (trace0, trace1) values and
    must preserve the canonical symmetry of the doubled boundary space, by
    the Frobenius norm, an upper bound of the 2-norm.  Such a w is
    invertible, so the new image is the QR of w times the old image basis.
    """
    k = traces.boundary_dim
    w = np.asarray(w, dtype=np.complex128)
    if w.shape != (2 * k, 2 * k):
        raise DimensionMismatch("boundary transform has the wrong shape")
    meta = boundary_metric_matrix(k)
    if np.linalg.norm(w.conj().T @ meta @ w - meta) > EXACT_BOUND:
        raise PipelineError("boundary transform does not preserve the graph metric")
    if traces.image is None:  # no boundary data to transform
        return traces
    stacked = w @ np.vstack([traces.trace0, traces.trace1])
    image = qr_span(w @ traces.image.basis)
    return replace(traces, trace0=stacked[:k], trace1=stacked[k:], image=image,
                   image_gram=trace_image_gram(image))


def boundary_map_projection(op: OperatorWithDomain,
                            splitting: Splitting) -> BoundaryPair:
    """Boundary map as the graph-orthogonal projection onto the defect domain."""
    b = op.domain.basis
    bn = splitting.defect.domain.basis
    d, dn = b.shape[1], bn.shape[1]
    if dn == 0:
        matrix = np.zeros((op.space.dim, d), dtype=np.complex128)
    else:
        xn = b.conj().T @ bn
        gram_t = op.graph_gram
        mixing = xn.conj().T @ gram_t @ xn
        coeffs = np.linalg.solve(mixing, xn.conj().T @ gram_t)
        matrix = bn @ coeffs
    return BoundaryPair(
        space_dim=dn,
        gram=splitting.defect_gram,
        matrix=matrix,
        domain_basis=b,
        defect_basis=bn,
    )


def boundary_map_resolvent(op: OperatorWithDomain, defi: DeficiencyData,
                           splitting: Splitting) -> BoundaryPair:
    """Boundary map as ``(JT + iI)^{-1} P (JT + iI)`` with the deficiency
    projector P; the unitary identification of E is fixed to the identity.

    P is ``M (M* .)`` for the basis M of the deficiency intersection, and
    the inverse the solve through R of ``(JT + iI)B = Q R`` in ``defi``,
    invertible since every singular value is at least 1; the part of the
    projected values outside the range Q is the residual.
    """
    b = op.domain.basis
    q, r = defi.shifted_qr
    meet = defi.intersection.basis
    target = meet @ ((meet.conj().T @ q) @ r)
    in_range = q.conj().T @ target
    coeffs = np.linalg.solve(r, in_range)
    # the Frobenius norm bounds the residual's 2-norm from above and the
    # largest column norm bounds |target|_2 from below: the test only tightens
    residual = np.linalg.norm(q @ in_range - target)
    if residual > CHECK_GATE * np.max(np.linalg.norm(target, axis=0), initial=0.0):
        raise PipelineError(
            f"projected values are not in the range of JT + iI ({residual:.3e})"
        )
    return BoundaryPair(
        space_dim=splitting.defect.domain.dim,
        gram=splitting.defect_gram,
        matrix=b @ coeffs,
        domain_basis=b,
        defect_basis=splitting.defect.domain.basis,
    )


def pair_green_residual(pair: BoundaryPair, op: OperatorWithDomain,
                        rng: np.random.Generator | None = None) -> float:
    """Largest normalized residual of the boundary-pair Green identity
    [x, Ty] - [Tx, y] = i (G x, G y)_E over random domain sample pairs."""
    rng = np.random.default_rng(0) if rng is None else rng
    d = pair.domain_basis.shape[1]
    if d == 0:
        return 0.0
    j, m, samples = op.space.J, op.matrix, PAIR_GREEN_SAMPLES
    cx = rng.standard_normal((d, samples)) + 1j * rng.standard_normal((d, samples))
    cy = rng.standard_normal((d, samples)) + 1j * rng.standard_normal((d, samples))
    x, y = op.lift(cx), op.lift(cy)
    mx, my = m @ x, m @ y
    lhs = np.einsum("ij,ij->j", x.conj(), j @ my) - np.einsum(
        "ij,ij->j", mx.conj(), j @ y
    )
    px = pair.defect_basis.conj().T @ (pair.matrix @ cx)
    py = pair.defect_basis.conj().T @ (pair.matrix @ cy)
    rhs = 1j * np.einsum("ij,ij->j", px.conj(), pair.gram @ py)
    norm_x = np.sqrt(np.einsum("ij,ij->j", x.conj(), x).real
                     + np.einsum("ij,ij->j", mx.conj(), mx).real)
    norm_y = np.sqrt(np.einsum("ij,ij->j", y.conj(), y).real
                     + np.einsum("ij,ij->j", my.conj(), my).real)
    return float(np.max(np.abs(lhs - rhs) / (norm_x * norm_y)))


def restricted_eigenpairs(op: OperatorWithDomain, eig=None):
    """Eigenvalues of T as an operator on its domain, with eigenspaces.

    A pair (lam, x) qualifies when x lies in the domain and M x = lam x.
    One ``eig`` of the domain compression ``C = B^H M B`` gives the
    candidates (lam_k, v_k).  The residual ``|(M - lam_k) B v_k|`` of the
    unit v_k, taken for all candidates in one product, is the round-off of
    ``eig`` plus the leak of ``M B v_k`` out of the domain; it bounds the
    smallest singular value of ``(M - lam_k) B`` from above.  A candidate
    with no other eigenvalue of C within ``LOOSE_GATE`` is kept, with the
    eigenspace ``B v_k``, when that residual is negligible.  Only clusters,
    where the eigenvectors of a non-normal C are ill-conditioned, go to the
    null space of ``(M - lam) B``: see :func:`_cluster_eigenpairs`.  Every
    cut is measured against ``|M B|_2 = op.scale``.

    Cost for a d-dimensional domain in C^n: one ``eig`` at O(d^3), the
    batched residual at O(n d^2), and one SVD of an n x d matrix per
    cluster (more only where the cluster holds distinct eigenvalues).

    ``eig``, when given, is the ``(values, vectors)`` that
    ``np.linalg.eig(op.coords(op._image))`` returned for this operator,
    computed elsewhere (:func:`kreinpair.analysis.analyze_operator` runs it
    on a worker thread); everything after that call is the same.
    """
    d = op.domain.dim
    if d == 0:
        return []
    mb = op._image
    # eig returns unit eigenvectors, so B v_k is a unit vector too
    values, vecs = np.linalg.eig(op.coords(mb)) if eig is None else eig
    bv = op.lift(vecs)
    # frozen once, so that each eigenspace shares its column without a copy
    bv.flags.writeable = False
    residuals = np.linalg.norm(mb @ vecs - bv * values, axis=0)
    gaps = np.abs(values[:, None] - values[None, :])
    # clusters: connected components of "closer than LOOSE_GATE", each
    # labelled by its smallest member index
    near = negligible(gaps, LOOSE_GATE, op.scale)
    labels = np.arange(d)
    while True:
        spread = np.where(near, labels, d).min(axis=1)
        if np.array_equal(spread, labels):
            break
        labels = spread
    pairs = []
    for k in np.flatnonzero(labels == np.arange(d)):
        members = np.flatnonzero(labels == k)
        if members.size > 1:
            pairs.extend(_cluster_eigenpairs(op, mb, values[members],
                                             gaps[np.ix_(members, members)]))
        elif negligible(residuals[k], DEFAULT_TOL, op.scale):
            pairs.append((complex(values[k]),
                          Subspace(op.space.dim, bv[:, k:k + 1])))
    return pairs


def _cluster_eigenpairs(op: OperatorWithDomain, mb: np.ndarray,
                        values: np.ndarray, gaps: np.ndarray):
    """Eigenpairs behind a cluster of eigenvalues of the compression.

    The null space of ``(M - mean) B`` at the cluster mean finds a
    semisimple multiple eigenvalue, and a Jordan chain that ``eig`` split
    into values too far apart to be taken for one, in a single SVD.  When
    it is empty the members are distinct eigenvalues that are merely close,
    and each is tested on its own; a member within ``CHECK_GATE`` of one
    already kept is the same eigenvalue.
    """
    b = op.domain.basis

    def eigenspace_at(lam):
        coeffs = null_space(mb - lam * b, DEFAULT_TOL, scale=op.scale)
        # orthonormal columns times orthonormal coefficients
        return Subspace(op.space.dim, b @ coeffs)

    mean = complex(values.mean())
    space = eigenspace_at(mean)
    if not space.is_zero:
        return [(mean, space)]
    duplicate = negligible(gaps, CHECK_GATE, op.scale)
    pairs, kept = [], []
    for k, lam in enumerate(values):
        if duplicate[k, kept].any():
            continue
        space = eigenspace_at(lam)
        if not space.is_zero:
            kept.append(k)
            pairs.append((complex(lam), space))
    return pairs


@dataclass(frozen=True)
class RealSpectrumReport:
    """Comparison of the real point spectra of T and its symmetric part."""

    passed: bool
    real_values_op: list
    real_values_sym: list
    value_mismatch: float
    subspace_gap: float
    identity_residual: float
    kernel_gap: float
    notes: list = field(default_factory=list)


def real_spectrum_report(op: OperatorWithDomain, sym: OperatorWithDomain,
                         pair: BoundaryPair,
                         eigs: tuple | None = None) -> RealSpectrumReport:
    """Check that real eigenvalues of T are exactly those of its symmetric
    part, with matching eigenspaces, and that the boundary-pair identity
    2 Im(lam) [x, x] = |G x|_E^2 holds on every eigenpair.

    An eigenvalue is real when ``2 Im(lam)``, the dissipation form on a unit
    eigenvector for J = I, is zero by the rank decision of the form kernel;
    values and residuals are compared at the scale ``op.scale`` of T.

    ``eigs``, when given, is the pair ``(eig_op, eig_sym)`` handed to
    :func:`restricted_eigenpairs` for T and for S; either may be None.
    """
    notes: list[str] = []
    eig_op, eig_sym = (None, None) if eigs is None else eigs
    pairs_op = restricted_eigenpairs(op, eig=eig_op)
    pairs_sym = restricted_eigenpairs(sym, eig=eig_sym)
    scale = op.scale
    real_op, real_sym = (
        [(l, s) for l, s in pairs if negligible(2 * l.imag, op.tol, op.form_scale)]
        for pairs in (pairs_op, pairs_sym)
    )

    value_mismatch = 0.0
    subspace_gap = 0.0
    matched = True
    for lam, space in real_op:
        close = [(mu, s) for mu, s in real_sym
                 if negligible(mu - lam, CHECK_GATE, scale)]
        if not close:
            matched = False
            notes.append(f"real eigenvalue {lam:.6g} of T missing from S")
            continue
        mu, s_space = min(close, key=lambda t: abs(t[0] - lam))
        value_mismatch = max(value_mismatch, abs(mu - lam))
        subspace_gap = max(subspace_gap, gap_distance(space, s_space))
    for mu, _ in real_sym:
        if not any(negligible(mu - lam, CHECK_GATE, scale) for lam, _ in real_op):
            matched = False
            notes.append(f"real eigenvalue {mu:.6g} of S missing from T")

    identity_residual = 0.0
    if pairs_op:
        # every eigenspace basis column, each with its eigenvalue
        x = np.hstack([space.basis for _, space in pairs_op])
        imag = np.repeat([lam.imag for lam, _ in pairs_op],
                         [space.dim for _, space in pairs_op])
        gx = pair.defect_basis.conj().T @ (pair.matrix @ (pair.domain_basis.conj().T @ x))
        lhs = 2.0 * imag * np.einsum("ij,ij->j", x.conj(), op.space.J @ x).real
        rhs = np.einsum("ij,ij->j", gx.conj(), pair.gram @ gx).real
        identity_residual = float(np.max(np.abs(lhs - rhs)))

    kernel_gap = gap_distance(pair.kernel(), sym.domain)
    passed = (
        matched
        and subspace_gap <= CHECK_GATE
        and identity_residual <= LOOSE_GATE * scale
        and kernel_gap <= CHECK_GATE
    )
    return RealSpectrumReport(
        passed=passed,
        real_values_op=[l for l, _ in real_op],
        real_values_sym=[l for l, _ in real_sym],
        value_mismatch=value_mismatch,
        subspace_gap=subspace_gap,
        identity_residual=identity_residual,
        kernel_gap=kernel_gap,
        notes=notes,
    )
