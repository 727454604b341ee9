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
adjoint graph of S, so orthonormal bases of the three pieces are the
blocks of an orthonormal basis of it, the von Neumann basis.  Picking a
unitary identification of N+ and N- gives trace maps through the standard
deficiency-coordinate formulas; the abstract Green identity and the
vanishing of the traces exactly on graph(S) are checked once, as the
construction's contract, on the blocks of that basis.

Each contract check costs what its contract costs, and none samples
vectors.  A Green identity is a matrix identity on an orthonormal graph
basis g: its Krein graph form ``top* J bot - bot* J top``
(:func:`~kreinpair.krein.graph_form`, formed in factors) must equal
``(t0 g)* (t1 g) - (t1 g)* (t0 g)`` for the triple and, on graph T, also
``i P* E P`` for the pair.  On the von Neumann basis the stacked traces are
exactly zero on graph(S) and a fixed unitary on N+ and N-, so their kernel
is checked by two norms instead of a null space.  Graph T lies in the
adjoint graph exactly when its graph form with graph(S) vanishes: a
d x d_S product instead of a projection.  Each is decided by a Frobenius
norm, which bounds the 2-norm from above, so a gate on it only tightens.
Each stage has one contract check, which returns its residuals and raises
its first failure: :func:`_von_neumann_contracts` for the triple and
:func:`_graph_contracts` for graph T.  They feed nothing that follows but
the triple's Green residual, so :func:`build_boundary_triple` and
:func:`restrict_triple` take a ``defer`` that may run them elsewhere, on
read-only arrays alone.

The boundary pair (E, G) of T is held in E's own coordinates: E is the
defect domain with the dissipation form, on coordinates of its orthonormal
basis, and G a dim E x d matrix on T's domain-basis coordinates, with no
ambient copy and no stored basis.  Two independent realizations of G are
provided: the graph-orthogonal projection onto the defect domain, and the
resolvent-type sandwich with the deficiency projector, solved through the
QR of ``(JT + iI)B`` as a d x d map on domain coordinates.  Their
agreement is the central theorem check of the package.

The real-spectrum check compares the real eigenvalues and eigenspaces of T
and of its symmetric part, each taken on its own domain.  One ``eig`` of
the d x d domain compression gives every candidate at O(d^3), and one
batched residual decides the isolated ones; an SVD runs only for a cluster
of eigenvalues closer than ``LOOSE_GATE``, where the eigenvectors of a
non-normal matrix are ill-conditioned (Golub & Van Loan, *Matrix
Computations*, section 7.2).  The whole check is O(n^3), and only its real
eigenspaces become a :class:`~kreinpair.subspaces.Subspace`.  The two ``eig``
calls, of T's compression and of S's, need nothing but the operator, so
they are computed ahead, elsewhere, and handed over:
:func:`real_spectrum_report` takes the eigenpairs that :func:`_eigenpairs`
forms from each, and the kernel gap of the boundary map, the one part of
the check that needs no ``eig``, so that a caller can form each as soon as
its inputs exist.
"""

from __future__ import annotations

from concurrent.futures import Future
from dataclasses import dataclass, replace

import numpy as np

from .decomposition import DeficiencyData, Splitting
from .errors import DimensionMismatch, PipelineError
from .krein import SYMMETRIC, OperatorWithDomain, boundary_metric_matrix, graph_form
from .subspaces import Subspace, gap_distance, null_space
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

@dataclass(frozen=True)
class BoundaryTriple:
    """Trace maps on the adjoint of the symmetric part.

    ``trace0`` and ``trace1`` act on stacked pairs (x, x') of the doubled
    base space and take values in the boundary space C^k; they vanish
    exactly on the graph of the symmetric part and are jointly surjective,
    so together they form an ordinary boundary triple.  ``defect_plus`` is
    the deficiency subspace N+ of JS.  ``_contracts`` is the construction's
    contract check (:func:`_von_neumann_contracts`), run at once or deferred
    by :func:`build_boundary_triple`'s ``defer``: anything whose ``result()``
    is its value or raises its error.
    """

    space_dim: int
    trace0: np.ndarray  # k x 2n, read-only
    trace1: np.ndarray  # k x 2n, read-only
    symmetric_graph: Subspace
    defect_plus: Subspace
    _contracts: Future  # or the handle that ``defer`` returned

    @property
    def green_residual(self) -> float:
        """Frobenius norm of the Green identity's defect on the von Neumann
        basis, an upper bound of the 2-norm; reading it joins the contract
        check, and raises when that failed."""
        return self._contracts.result()[1]


@dataclass(frozen=True)
class TraceData:
    """Trace maps restricted to the graph of T, with the image G-space.

    ``trace0``/``trace1`` here are matrices on coordinates of T's domain
    basis.  ``image`` is the joint range inside the doubled boundary space
    and ``image_gram`` the compression of its canonical symmetry to the
    image, on an orthonormal basis of the image.  The image basis and
    ``image_complement``, an orthonormal basis of its orthocomplement, are
    the leading and trailing columns of one complete Householder QR, so
    ``[image | image_complement]`` is unitary.
    """

    boundary_dim: int
    trace0: np.ndarray  # k x d
    trace1: np.ndarray  # k x d
    image: Subspace | None  # None when the boundary space is trivial
    image_gram: np.ndarray
    image_complement: np.ndarray | None  # 2k x (2k - dim image), read-only


@dataclass(frozen=True)
class BoundaryPair:
    """Hilbert space E and the boundary map G of a dissipative operator, in
    E's own coordinates.

    E is the defect domain with the positive inner product ``gram``, on
    coordinates of the defect domain's orthonormal basis.  ``matrix`` is G
    from coordinates of T's domain basis to those coordinates of E, a
    ``space_dim x d`` matrix.  Its kernel is the symmetric domain and its
    range is all of E.
    """

    space_dim: int
    gram: np.ndarray  # E inner product on defect-basis coordinates
    matrix: np.ndarray  # space_dim x d, domain coords -> defect-basis coords


def _now(check, *args) -> Future:
    """Run ``check(*args)`` at once, on this thread, as a done future: the
    eager default ``defer`` of :func:`build_boundary_triple` and
    :func:`restrict_triple`, under which a failing check raises where it
    stands."""
    done = Future()
    done.set_result(check(*args))
    return done


def build_boundary_triple(sym: OperatorWithDomain, defer=None) -> BoundaryTriple:
    """Ordinary boundary triple for the adjoint of a symmetric operator.

    N+ and N- are the orthocomplements of the ranges of ``(JS + i)B`` and
    ``(JS - i)B`` for the domain basis B, the trailing columns of their
    complete QRs: every singular value of either is at least 1, so both
    ranges have dimension dim S and N+ and N- the same dimension, with no
    rank decision.  A violation of the contracts
    (:func:`_von_neumann_contracts`) raises.

    The contract check feeds nothing that follows but ``green_residual``, so
    ``defer``, when given, takes it off this thread: ``defer(check, *args)``
    is called with read-only arrays alone and returns a handle whose
    ``result()`` is the check's value or raises its error, as the task
    handles of :func:`~kreinpair.analysis.analyze_operator` are.  None runs
    it at once.
    """
    if sym.classify() != SYMMETRIC:
        raise PipelineError("boundary triples are built over a symmetric operator")
    n, j = sym.space.dim, sym.space.J
    b, d = sym.domain.basis, sym.domain.dim
    jsb = j @ sym._image
    qp, qm = (np.linalg.qr(jsb + shift * b, mode="complete")[0][:, d:]
              for shift in (1j, -1j))
    traces = _von_neumann_traces(j, qp, qm)
    # the N+- columns (u, iJu)/sqrt(2) and (v, -iJv)/sqrt(2) of the basis
    w = np.vstack([np.hstack([qp, qm]), 1j * (j @ np.hstack([qp, -qm]))]) / np.sqrt(2.0)
    # no caller holds the traces or w: frozen, not copied
    traces.flags.writeable = w.flags.writeable = False
    contracts = (defer or _now)(_von_neumann_contracts, j, sym.graph.basis,
                                sym.graph_form, traces, w)
    trace0, trace1 = np.split(traces, 2)
    return BoundaryTriple(space_dim=n - d, trace0=trace0, trace1=trace1,
                          symmetric_graph=sym.graph, defect_plus=Subspace(n, qp),
                          _contracts=contracts)


def _von_neumann_traces(j: np.ndarray, qp: np.ndarray, qm: np.ndarray) -> np.ndarray:
    """``[trace0; trace1]``: trace0 = coords(u+) + coords(u-) and trace1 =
    i (coords(u+) - coords(u-)) for the parts ``u+ = Qp Qp^H (x - i J x')/2``
    and ``u- = Qm Qm^H (x + i J x')/2`` of (x, J x') in N+ and N-."""
    ph, mh = qp.conj().T, qm.conj().T
    phj, mhj = -1j * ph @ j, 1j * mh @ j
    return np.vstack([0.5 * np.hstack([ph + mh, phj + mhj]),
                      0.5j * np.hstack([ph - mh, phj - mhj])])


def _von_neumann_contracts(j: np.ndarray, g: np.ndarray, g_form: np.ndarray,
                           traces: np.ndarray, w: np.ndarray) -> tuple[float, float]:
    """The trace-kernel gap and the Green residual of the stacked traces on
    the von Neumann basis ``[g | w]``, g the basis of graph(S), with its
    graph form ``g_form``, and w the N+- columns, from blocks.  Its Gram
    defect is checked as :class:`Subspace` checks a basis, and
    ``graph_form(J, a, w) = a* [J bot_w; -J top_w]`` applies J to w once.
    Raises when the basis, the trace kernel or, above ``EXACT_BOUND``, the
    Green identity fails, in that order.

    Each block is formed in place and dropped once read, with no conjugate
    copy of w or of the traces on the basis, so that no more than three
    (n + k)-square blocks are held at a time.  ``a* b`` for a scratch b is
    taken as ``conj(a^T conj(b))``, b conjugated in place: conjugation is
    exact, so the residual is the same, bit for bit, as from the blocks
    formed whole."""
    d, k, n = g.shape[1], traces.shape[0] // 2, j.shape[0]
    # the Gram's off-diagonal block g* w counts twice, with its adjoint
    defects = [np.linalg.norm(_minus_identity(g.conj().T @ g)),
               np.sqrt(2.0) * np.linalg.norm(g.conj().T @ w),
               np.linalg.norm(_minus_identity(w.conj().T @ w))]
    if np.linalg.norm(defects) > CHECK_GATE * np.sqrt(d + 2 * k):
        raise DimensionMismatch("basis columns are not orthonormal")
    on_basis = np.empty((2 * k, d + 2 * k), dtype=np.complex128)
    np.matmul(traces, g, out=on_basis[:, :d])
    np.matmul(traces, w, out=on_basis[:, d:])
    gap = _trace_kernel_gap(on_basis[:, :d], on_basis[:, d:])
    x = _trace_form(*np.split(on_basis, 2))
    del on_basis
    # x = form - x, block by block, for the basis form
    # [[g_form, g* Jw], [graph_form(J, w, g), w* Jw]]
    np.subtract(g_form, x[:d, :d], out=x[:d, :d])
    np.subtract(graph_form(j, w, g), x[d:, :d], out=x[d:, :d])
    jw = np.empty_like(w)
    np.matmul(j, w[n:], out=jw[:n])
    np.negative(np.matmul(j, w[:n], out=jw[n:]), out=jw[n:])
    np.subtract(g.conj().T @ jw, x[:d, d:], out=x[:d, d:])
    corner = w.T @ np.conjugate(jw, out=jw)
    del jw
    np.subtract(np.conjugate(corner, out=corner), x[d:, d:], out=x[d:, d:])
    residual = float(np.linalg.norm(x))
    if residual > EXACT_BOUND:
        raise PipelineError(f"abstract Green identity fails (residual {residual:.3e})")
    return gap, residual


def _minus_identity(a: np.ndarray) -> np.ndarray:
    """``a - I`` for a square ``a``, in place."""
    a.flat[::a.shape[0] + 1] -= 1.0
    return a


def _trace_form(t0: np.ndarray, t1: np.ndarray) -> np.ndarray:
    """``(t0)* t1 - (t1)* t0``, the boundary form of the traces ``t0``,
    ``t1`` on a graph basis.  ``t0`` is scratch: it is conjugated in place,
    so that neither trace is copied, and ``(t1)* t0`` is taken as
    ``conj(t1^T conj(t0))``."""
    np.conjugate(t0, out=t0)
    x, y = t0.T @ t1, t1.T @ t0
    x -= np.conjugate(y, out=y)
    return x


def _green_residual(form: np.ndarray, t0: np.ndarray, t1: np.ndarray) -> float:
    """Frobenius norm of the Green identity's defect on an orthonormal graph
    basis g, given its graph form ``form = graph_form(J, g, g)`` and the
    traces ``t0``, ``t1`` on it:

        form - ((t0)* t1 - (t1)* t0),

    the compression of [x, y'] - [x', y] - (<t0 x^, t1 y^> - <t1 x^, t0 y^>)
    to the basis.  Both forms have norm of order |J| = 1, and the Frobenius
    norm bounds the 2-norm from above, so a gate on it only tightens.
    ``t0`` is overwritten (:func:`_trace_form`)."""
    x = _trace_form(t0, t1)
    return float(np.linalg.norm(np.subtract(form, x, out=x)))


def _trace_kernel_gap(on_graph: np.ndarray, on_defect: np.ndarray) -> float:
    """Bound on the gap between the kernel of the traces on the adjoint
    graph and graph(S), from the traces E on graph(S) (``on_graph``) and W
    on the N+- columns (``on_defect``) of the von Neumann basis.

    On the N+- columns the traces are exactly the unitary
    ``U0 = [[I, I], [iI, -iI]] / sqrt(2)``; within ``EXACT_BOUND`` of it in
    the Frobenius norm the stacked traces have rank 2k, so their kernel is
    the graph of ``-W^-1 E`` over graph(S), whose gap to graph(S) is at most
    ``|E|_F / (1 - |W - U0|_F)``, which is returned.  Raises when that bound
    exceeds ``CHECK_GATE``, or W is not U0."""
    k = on_defect.shape[1] // 2
    # W - U0, with U0's four diagonals subtracted in place
    off, i, r = on_defect.copy(), np.arange(k), 1.0 / np.sqrt(2.0)
    off[i, i] -= r
    off[i, i + k] -= r
    off[i + k, i] -= 1j * r
    off[i + k, i + k] += 1j * r
    unitary_defect = float(np.linalg.norm(off))
    if unitary_defect > EXACT_BOUND:
        raise PipelineError(
            f"traces on the deficiency blocks are not the von Neumann unitary "
            f"({unitary_defect:.3e})"
        )
    gap = float(np.linalg.norm(on_graph)) / (1.0 - unitary_defect)
    if gap > CHECK_GATE:
        raise PipelineError("trace maps do not vanish exactly on the symmetric graph")
    return gap


def _graph_contracts(j: np.ndarray, sym_graph: np.ndarray, form: np.ndarray,
                     trace0: np.ndarray, trace1: np.ndarray,
                     graph: np.ndarray) -> tuple[float, float]:
    """The containment defect and the Green residual of an orthonormal graph
    basis ``graph = [top; bot]`` of T, given the basis ``sym_graph`` of
    graph(S), the graph form ``form`` of ``graph`` and the traces.

    The adjoint graph is the orthocomplement of ``M graph(S)`` for the
    unitary ``M(s, s') = (-J s', J s)``, so the part of ``graph`` outside it
    is its overlap with ``M sym_graph``, minus their graph form.  That is a
    d x d_S matrix, and its Frobenius norm bounds the 2-norm
    ``|(I - P) graph|_2`` for the projector P onto the adjoint graph.  The
    Green residual is :func:`_green_residual` of the traces on ``graph``.
    Raises when the defect exceeds ``CHECK_GATE`` or, after it, the residual
    ``EXACT_BOUND``."""
    outside = float(np.linalg.norm(graph_form(j, graph, sym_graph)))
    if outside > CHECK_GATE:
        raise PipelineError(
            f"graph of T is not contained in the adjoint graph (defect {outside:.3e})"
        )
    residual = _green_residual(form, trace0 @ graph, trace1 @ graph)
    if residual > EXACT_BOUND:
        raise PipelineError(f"Green identity fails on the graph of T ({residual:.3e})")
    return outside, residual


def restrict_triple(triple: BoundaryTriple, op: OperatorWithDomain,
                    defect: Subspace, defer=None) -> TraceData:
    """Trace maps evaluated on the graph of T, plus the image G-space.

    ``defect`` is T's defect domain (``Subspace.zero`` for a symmetric T).
    The traces vanish on dom S, and the graph of a defect-domain x lies in
    the N+- part of the adjoint graph, where they are the unitary U0, so
    ``|[t0; t1] x| = |(x, Tx)| >= |x|``: the image and its orthocomplement
    are the leading and trailing columns of the complete QR of
    ``[t0; t1] X`` for the defect basis X, with no rank decision.

    The containment of graph T in the adjoint graph, in the metric J of
    ``op``'s space, and the Green identity on graph T, against
    ``op.graph_form``, are checked, in that order, by one contract check
    (:func:`_graph_contracts`); a violation of either raises.  Neither feeds
    what follows, so ``defer`` takes the check off this thread as in
    :func:`build_boundary_triple`.
    """
    (defer or _now)(_graph_contracts, op.space.J, triple.symmetric_graph.basis,
                    op.graph_form, triple.trace0, triple.trace1, op.graph.basis)
    b = op.domain.basis
    stacked_pairs = np.vstack([b, op._image])
    t0 = triple.trace0 @ stacked_pairs
    t1 = triple.trace1 @ stacked_pairs
    k = triple.space_dim
    # zero defect numbers: no boundary data at all
    image, perp = (_split_span(np.vstack([t0, t1]) @ op.coords(defect.basis))
                   if k else (None, None))
    gram = trace_image_gram(image) if k else np.zeros((0, 0), dtype=np.complex128)
    return TraceData(
        boundary_dim=k,
        trace0=t0,
        trace1=t1,
        image=image,
        image_gram=gram,
        image_complement=perp,
    )


def _split_span(matrix: np.ndarray) -> tuple[Subspace, np.ndarray]:
    """Span of columns whose rank the mathematics fixes at their count, and
    an orthonormal basis of its orthocomplement: the leading and trailing
    columns of one complete Householder QR, with no rank decision."""
    q = np.linalg.qr(matrix, mode="complete")[0]
    q.flags.writeable = False  # no caller holds the factor: frozen, not copied
    return Subspace(matrix.shape[0], q[:, :matrix.shape[1]]), q[:, matrix.shape[1]:]


def trace_image_gram(image: Subspace) -> np.ndarray:
    """Compression of the doubled boundary-space symmetry to the image,
    expressed on an orthonormal basis of the image.

    The symmetry is ``(u, v) -> (-i v, i u)``, so on the basis ``[A; C]``
    (trace0 over trace1 rows) the compression is ``i (C* A - A* C)``, taken
    as ``i (X - X*)`` for ``X = C* A``: one k x k product, Hermitian exactly.
    """
    if image.ambient_dim % 2:
        raise DimensionMismatch("image must live in a doubled boundary space")
    a, c = np.split(image.basis, 2)
    x = c.conj().T @ a
    return 1j * (x - x.conj().T)


def transform_traces(traces: TraceData, w: np.ndarray) -> TraceData:
    """Post-compose the trace maps with a metric-preserving boundary rotation.

    ``w`` is a 2k x 2k matrix acting on stacked (trace0, trace1) values and
    must preserve the canonical symmetry of the doubled boundary space, by
    the Frobenius norm, an upper bound of the 2-norm.  Such a w is
    invertible, so the new image and its orthocomplement are the complete
    QR of w times the old image basis.
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
    image, perp = _split_span(w @ traces.image.basis)
    return replace(traces, trace0=stacked[:k], trace1=stacked[k:], image=image,
                   image_gram=trace_image_gram(image), image_complement=perp)


def boundary_map_projection(op: OperatorWithDomain,
                            splitting: Splitting) -> BoundaryPair:
    """Boundary map as the graph-orthogonal projection onto the defect
    domain: ``(X* G X)^-1 X* G`` for the graph Gram G and the domain
    coordinates X of the defect basis gives the projection's coordinates in
    that basis.  ``X* G X >= X* X = I`` in exact arithmetic, but ``G = I +
    (TB)*(TB)`` holds ``|T|^2``, so for a large T the solve can find it
    singular in floating point; that raises :class:`PipelineError`."""
    defect = splitting.defect.domain
    xn = op.coords(defect.basis)
    xg = xn.conj().T @ op.graph_gram
    try:
        matrix = np.linalg.solve(xg @ xn, xg)
    except np.linalg.LinAlgError as exc:
        raise PipelineError(
            f"graph-Gram solve of the projection boundary map failed: {exc}") from exc
    return BoundaryPair(space_dim=defect.dim, gram=splitting.defect.dissipation_gram,
                        matrix=matrix)


def boundary_map_resolvent(op: OperatorWithDomain, defi: DeficiencyData) -> np.ndarray:
    """Boundary map as ``(JT + iI)^{-1} P (JT + iI)`` with the deficiency
    projector P, a d x d map on domain coordinates; the unitary
    identification of E is fixed to the identity.

    P is ``M (M* .)`` for the basis M of the deficiency intersection, and
    the inverse the solve through R of ``(JT + iI)B = Q R`` in ``defi``,
    invertible since every singular value is at least 1; the part of the
    projected values outside the range Q is the residual.
    """
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
    return coeffs


def pair_green_residual(pair: BoundaryPair, op: OperatorWithDomain) -> float:
    """Frobenius norm of the defect ``op.graph_form - i P* E P`` of the
    Green identity [x, Ty] - [Tx, y] = i (G x, G y)_E on the orthonormal
    graph basis ``[top; bot]`` of T, for the map ``P = matrix coords(top)``
    on its coordinates.  It bounds the defect on any two domain vectors
    over their graph norms."""
    top = np.split(op.graph.basis, 2)[0]
    p = pair.matrix @ op.coords(top)
    return float(np.linalg.norm(op.graph_form - 1j * (p.conj().T @ (pair.gram @ p))))


def _map_kernel(pair: BoundaryPair, op: OperatorWithDomain) -> Subspace:
    """Kernel of the boundary map of ``op``: the trailing ``d - space_dim``
    columns of the complete QR of ``matrix*``, lifted, with no rank
    decision.  The map is ``(X* G X)^-1 (G X)*`` on domain coordinates, for
    the defect basis coordinates X and the graph Gram ``G >= I``, so its
    rank is ``space_dim``."""
    q = np.linalg.qr(pair.matrix.conj().T, mode="complete")[0]
    # orthonormal basis times orthonormal coefficients
    return Subspace(op.space.dim, op.lift(q[:, pair.space_dim:]))


def restricted_eigenpairs(op: OperatorWithDomain):
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
    cut is measured against ``|M B|_2 = op.scale``.  The pairs come in the
    order of each cluster's smallest candidate index.

    Cost for a d-dimensional domain in C^n: one ``eig`` at O(d^3), the
    batched residual at O(n d^2), and one SVD of an n x d matrix per
    cluster (more only where the cluster holds distinct eigenvalues).

    It stays public for the benchmark's multiplicity oracle
    (``perfbench/workloads.py``); the pipeline calls :func:`_eigenpairs`.
    """
    return [(lam, Subspace(op.space.dim, basis))
            for lam, basis in _eigenpairs(op, np.linalg.eig(op.coords(op._image)))]


def _eigenpairs(op: OperatorWithDomain, eig: tuple) -> list:
    """:func:`restricted_eigenpairs` with each eigenspace a basis array,
    from ``eig``, the ``np.linalg.eig(op.coords(op._image))`` that the
    caller computed (on :func:`~kreinpair.analysis.analyze_operator`'s
    worker, or where it chose)."""
    d = op.domain.dim
    if d == 0:
        return []
    mb = op._image
    # eig returns unit eigenvectors, so B v_k is a unit vector too
    values, vecs = eig
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
    sizes = np.bincount(labels, minlength=d)
    kept = (sizes[labels] == 1) & negligible(residuals, DEFAULT_TOL, op.scale)
    found = {k: [(complex(values[k]), bv[:, k:k + 1])] for k in np.flatnonzero(kept)}
    for k in np.flatnonzero(sizes > 1):
        members = np.flatnonzero(labels == k)
        found[k] = _cluster_eigenpairs(op, mb, values[members],
                                       gaps[np.ix_(members, members)])
    return [pair for k in sorted(found) for pair in found[k]]


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
        # orthonormal columns times orthonormal coefficients
        return b @ null_space(mb - lam * b, DEFAULT_TOL, scale=op.scale)

    mean = complex(values.mean())
    space = eigenspace_at(mean)
    if space.shape[1]:
        return [(mean, space)]
    duplicate = negligible(gaps, CHECK_GATE, op.scale)
    pairs, kept = [], []
    for k, lam in enumerate(values):
        if duplicate[k, kept].any():
            continue
        space = eigenspace_at(lam)
        if space.shape[1]:
            kept.append(k)
            pairs.append((complex(lam), space))
    return pairs


@dataclass(frozen=True)
class RealSpectrumReport:
    """Comparison of the real point spectra of T and its symmetric part."""

    passed: bool
    real_eigenvalues_op: list
    real_eigenvalues_sym: list
    value_mismatch: float
    subspace_gap: float
    identity_residual: float
    kernel_gap: float
    notes: list


def real_spectrum_report(op: OperatorWithDomain, pair: BoundaryPair,
                         pairs_op: list, pairs_sym: list,
                         kernel_gap: float) -> RealSpectrumReport:
    """Check that real eigenvalues of T are exactly those of its symmetric
    part, with matching eigenspaces, and that the boundary-pair identity
    2 Im(lam) [x, x] = |G x|_E^2 holds on every eigenpair.

    An eigenvalue is real when ``2 Im(lam)``, the dissipation form on a unit
    eigenvector for J = I, is zero by the rank decision of the form kernel;
    values and residuals are compared at the scale ``op.scale`` of T.

    ``pairs_op`` and ``pairs_sym`` are the eigenpairs of T and of its
    symmetric part S, each an :func:`_eigenpairs` list, and ``kernel_gap``
    is the gap of the kernel of the boundary map (:func:`_map_kernel`) to
    S's domain, the part of the check that needs no ``eig``.
    """
    notes: list[str] = []
    scale = op.scale
    real_op, real_sym = (
        [(l, Subspace(op.space.dim, basis)) for l, basis in pairs
         if negligible(2 * l.imag, op.tol, op.form_scale)]
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
        x = np.hstack([basis for _, basis in pairs_op])
        imag = np.repeat([lam.imag for lam, _ in pairs_op],
                         [basis.shape[1] for _, basis in pairs_op])
        gx = pair.matrix @ op.coords(x)
        lhs = 2.0 * imag * np.einsum("ij,ij->j", x.conj(), op.space.J @ x).real
        rhs = np.einsum("ij,ij->j", gx.conj(), pair.gram @ gx).real
        identity_residual = float(np.max(np.abs(lhs - rhs)))

    passed = (
        matched
        and subspace_gap <= CHECK_GATE
        and identity_residual <= LOOSE_GATE * scale
        and kernel_gap <= CHECK_GATE
    )
    return RealSpectrumReport(
        passed=passed,
        real_eigenvalues_op=[l for l, _ in real_op],
        real_eigenvalues_sym=[l for l, _ in real_sym],
        value_mismatch=value_mismatch,
        subspace_gap=subspace_gap,
        identity_residual=identity_residual,
        kernel_gap=kernel_gap,
        notes=notes,
    )
