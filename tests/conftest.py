import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from kreinpair import KreinSpace, OperatorWithDomain, analysis, gap_distance, split
from kreinpair.decomposition import Splitting
from kreinpair.boundary import (_eigenpairs, _green_residual, _map_kernel,
                                _trace_kernel_gap)
from kreinpair.cli import SpecError
from kreinpair.errors import (ClassificationError, DimensionMismatch, PipelineError,
                             ScaleOverflow)
from kreinpair.instances import random_dissipative, random_unitary
from kreinpair.krein import NEITHER, _classify, _frobenius, graph_form
from kreinpair.sturm_liouville import StudyRow, study_levels
from kreinpair.subspaces import Subspace, null_space, orthonormal_span
from kreinpair.tolerances import CHECK_GATE, DEFAULT_TOL, INDEFINITE_CUT, negligible


@pytest.fixture
def scalar_i():
    """Multiplication by i on C^1, Euclidean metric."""
    return OperatorWithDomain(KreinSpace(np.eye(1)), np.array([[1j]]))


@pytest.fixture
def mixed_diag():
    """diag(1, i) on C^2, Euclidean metric: one symmetric, one defect direction."""
    return OperatorWithDomain(KreinSpace(np.eye(2)), np.diag([1.0, 1j]))


@pytest.fixture
def krein_pm():
    """diag(i, -i) with the indefinite symmetry diag(1, -1); dissipative in
    the Krein sense although half the spectrum sits in the lower half plane."""
    return OperatorWithDomain(
        KreinSpace(np.diag([1.0, -1.0])), np.diag([1j, -1j])
    )


@pytest.fixture
def hermitian_full():
    """A full-domain Hermitian matrix: symmetric with zero defect."""
    return OperatorWithDomain(KreinSpace(np.eye(3)), np.diag([1.0, 2.0, -0.5]))


@pytest.fixture
def queued(monkeypatch):
    """``(function name, arguments, future)`` of every task handed to the
    worker of ``analyze_operator``, in the order of its queue."""
    tasks = []

    class RecordedPool(analysis.ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            tasks.append((fn.__name__, args, super().submit(fn, *args, **kwargs)))
            return tasks[-1][2]

    monkeypatch.setattr(analysis, "ThreadPoolExecutor", RecordedPool)
    return tasks


@pytest.fixture
def pools(monkeypatch):
    """Every worker pool ``analyze_operator`` creates."""
    created = []
    pool = analysis.ThreadPoolExecutor

    def counted_pool(*args, **kwargs):
        created.append(pool(*args, **kwargs))
        return created[-1]

    monkeypatch.setattr(analysis, "ThreadPoolExecutor", counted_pool)
    return created


def e(n, k):
    v = np.zeros(n, dtype=np.complex128)
    v[k] = 1.0
    return v


def span(*vectors):
    """Span of the given vectors of one length, as columns."""
    return orthonormal_span(np.column_stack(vectors))


def contains(sub, vector):
    """Whether ``vector`` lies in ``sub``: its distance from ``sub`` is at
    most ``CHECK_GATE`` times its norm."""
    v = np.asarray(vector, dtype=np.complex128).reshape(-1)
    residual = v - sub.basis @ (sub.basis.conj().T @ v)
    return bool(np.linalg.norm(residual) <= CHECK_GATE * np.linalg.norm(v))


def krein_inner(space, x, y):
    """Indefinite product ``[x, y] = <x, J y>``."""
    return complex(np.vdot(x, space.J @ y))


def _is_diagonal(m):
    """Whether every nonzero entry of the square matrix ``m`` is on its
    diagonal: exactly, by counting nonzeros, with no tolerance."""
    return int(np.count_nonzero(m)) == int(np.count_nonzero(np.diag(m)))


def coordinate_span(n, columns):
    """The span of the identity columns ``columns`` of C^n, with those
    columns as its basis."""
    return Subspace(n, np.eye(n, dtype=np.complex128)[:, columns])


def complement(sub, tol=DEFAULT_TOL):
    """Euclidean orthogonal complement: ``sub (+) complement = ambient``."""
    if sub.is_zero:
        return Subspace.full(sub.ambient_dim)
    return Subspace(sub.ambient_dim, null_space(sub.basis.conj().T, tol))


def intersect(a, b, tol=DEFAULT_TOL):
    """Largest subspace contained in both, as the complement of the sum of
    the complements: the route ``deficiency_space`` replaced with one SVD,
    kept as the oracle of its intersection."""
    if a.is_zero or b.is_zero:
        return Subspace.zero(a.ambient_dim)
    both = np.hstack([complement(a, tol).basis, complement(b, tol).basis])
    return complement(orthonormal_span(both, tol), tol)


def random_domain_samples(op, count, rng):
    """Random vectors in the operator domain, as columns."""
    b = op.domain.basis
    d = b.shape[1]
    coeffs = rng.standard_normal((d, count)) + 1j * rng.standard_normal((d, count))
    return b @ coeffs


def reference_eigenpairs(op):
    """The per-eigenvalue route ``restricted_eigenpairs`` replaced: one
    null-space SVD of ``(M - lam) B`` for every eigenvalue of the domain
    compression, skipping values within ``CHECK_GATE`` of one already kept.
    O(n^4), kept as the oracle of the differential tests."""
    b = op.domain.basis
    if b.shape[1] == 0:
        return []
    mb = op.matrix @ b
    pairs, used = [], []
    for lam in np.linalg.eigvals(b.conj().T @ mb):
        if any(negligible(lam - mu, CHECK_GATE, op.scale) for mu in used):
            continue
        coeffs = null_space(mb - lam * b, DEFAULT_TOL, scale=op.scale)
        if coeffs.shape[1]:
            used.append(complex(lam))
            pairs.append((complex(lam), Subspace(op.space.dim, b @ coeffs)))
    return pairs


def spectrum_inputs(op, sym, pair):
    """``pairs_op, pairs_sym, kernel_gap`` of ``real_spectrum_report``: the
    eigenpairs of the ``eig`` of the domain compressions of T and of its
    symmetric part, and the gap of the boundary map's kernel to S's domain,
    all taken on this thread."""
    pairs = [_eigenpairs(part, np.linalg.eig(part.coords(part._image)))
             for part in (op, sym)]
    return (*pairs, gap_distance(_map_kernel(pair, op), sym.domain))


def matrix_graph(matrix, basis, tol=DEFAULT_TOL):
    """Graph ``{(x, M x) : x in span(basis)}`` of a square matrix, pairs
    stacked with x on top."""
    basis = np.asarray(basis, dtype=np.complex128)
    return orthonormal_span(np.vstack([basis, matrix @ basis]), tol)


def adjoint_relation(graph, j=None):
    """Graph of the adjoint relation ``{(w, z) : [z, u] = [w, v] for all
    (u, v) in graph}`` for the symmetry J (Euclidean when None): the
    orthocomplement of the graph mapped by the unitary ``(x, y) -> (-J y, J x)``.
    With J = I and a matrix graph it is the graph of the matrix adjoint.
    The general relation route the boundary triple replaced, kept as the
    oracle of its adjoint graph and its deficiency spaces."""
    n = graph.ambient_dim // 2
    j = np.eye(n) if j is None else j
    perp = complement(graph).basis
    return Subspace(2 * n, np.vstack([-j @ perp[n:], j @ perp[:n]]))


def von_neumann_pieces(sym):
    """``(N+, N-, w)`` for the symmetric operator ``sym``: N+ and N- as the
    trailing columns of the complete QRs of ``(JS +- i)B``, as
    ``build_boundary_triple`` takes them, and the 2n x 2k columns
    ``w = [(u, iJu) | (v, -iJv)] / sqrt(2)`` over their bases, the N+- part
    of the von Neumann basis of the adjoint graph.  N- is no longer kept by
    the triple; this is its oracle."""
    n, j = sym.space.dim, sym.space.J
    b, d = sym.domain.basis, sym.domain.dim
    jsb = j @ sym._image
    qp, qm = (np.linalg.qr(jsb + shift * b, mode="complete")[0][:, d:]
              for shift in (1j, -1j))
    w = np.hstack([np.vstack([qp, 1j * j @ qp]),
                   np.vstack([qm, -1j * j @ qm])]) / np.sqrt(2.0)
    return Subspace(n, qp), Subspace(n, qm), w


def adjoint_graph(sym):
    """The von Neumann basis ``[graph(S) | w]`` of the Krein adjoint graph
    of S, formed in full as a checked ``Subspace``: the 2n x (2n - dim S)
    basis ``BoundaryTriple.adjoint_graph`` held before the triple's
    contracts were assembled from blocks."""
    return Subspace(2 * sym.space.dim,
                    np.hstack([sym.graph.basis, von_neumann_pieces(sym)[2]]))


def full_basis_contracts(sym, traces, w):
    """``(trace-kernel gap, Green residual)`` of the stacked traces
    ``[trace0; trace1]`` on the basis ``[graph(S) | w]`` formed in full: a
    checked ``Subspace``, the traces on it in one product and
    ``graph_form(J, g, g)`` of the whole basis.  The route that
    ``boundary._von_neumann_contracts`` replaced with blocks, kept as its
    oracle; it raises where that does, with the same messages."""
    g = Subspace(2 * sym.space.dim, np.hstack([sym.graph.basis, w])).basis
    on_graph = traces @ g
    d, k = sym.domain.dim, traces.shape[0] // 2
    gap = _trace_kernel_gap(on_graph[:, :d], on_graph[:, d:])
    residual = _green_residual(graph_form(sym.space.J, g, g),
                               on_graph[:k], on_graph[k:])
    return gap, residual


def relation_eigenspace(graph, lam):
    """Vectors x with ``(x, lam x)`` in a graph in C^n x C^n."""
    n = graph.ambient_dim // 2
    top, bot = graph.basis[:n], graph.basis[n:]
    coeffs = null_space(bot - lam * top, scale=1.0 + abs(lam))
    return orthonormal_span(top @ coeffs, scale=1.0)


def defect_traces(op, traces, splitting):
    """T's restricted traces ``(trace0; trace1)`` stacked, on coordinates of
    the defect-domain basis: the map whose inverse carries the trace image
    isometrically onto the defect domain with its dissipation form."""
    xn = op.coords(splitting.defect.domain.basis)
    return np.vstack([traces.trace0 @ xn, traces.trace1 @ xn])


def _as_vector(x, dim: int) -> np.ndarray:
    v = np.asarray(x, dtype=np.complex128).reshape(-1)
    if v.shape[0] != dim:
        raise DimensionMismatch(f"vector of length {v.shape[0]}, expected {dim}")
    return v


def dissipation_form(op, x, y) -> complex:
    """-i([x, T y] - [T x, y]) evaluated on two domain vectors: the form on
    two vectors, the oracle of the assembled Gram."""
    xv = _as_vector(x, op.space.dim)
    yv = _as_vector(y, op.space.dim)
    return complex(np.vdot(xv, op.dissipation_matrix @ yv))


def graph_inner(op, x, y):
    """``<x, y> + <T x, T y>`` of two domain vectors, through ``graph_gram``."""
    return complex(np.vdot(op.coords(x), op.graph_gram @ op.coords(y)))


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
    ``OperatorWithDomain.graph_spectrum``.
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
    kernel of the form; an eigenvalue below the ``INDEFINITE_CUT``
    raises ``ClassificationError``.  The full representer, reference of the
    reported spectrum and of acceptance criterion 4.
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


def riesz_coords(op, x):
    """Coordinates of domain vectors in the graph-orthonormal basis of
    ``riesz_representer(op)``: ``G^(1/2)`` times the domain-basis
    coordinates, for the graph Gram G."""
    w, v = np.linalg.eigh(op.graph_gram)
    return (v * np.sqrt(w)) @ (v.conj().T @ op.coords(x))


def planted_cluster_operator(n, multiplicities, rng):
    """Dissipative operator whose real point spectrum is well-separated
    values of the given multiplicities: a real diagonal block commuting with
    a diagonal symmetry, a strictly dissipative block (full-rank
    dissipation, no real eigenvalues) on the rest, hidden by a random
    unitary frame.  Returns the operator, the planted values and an
    orthonormal basis of each planted eigenspace."""
    mults = list(multiplicities)
    n_real = sum(mults)
    values = np.sort(rng.uniform(-3.0, 3.0, size=len(mults))) + 0.5 * np.arange(len(mults))
    block = random_dissipative(n - n_real, rng, defect=n - n_real)
    matrix = np.zeros((n, n), dtype=np.complex128)
    j = np.zeros((n, n), dtype=np.complex128)
    matrix[:n_real, :n_real] = np.diag(np.repeat(values, mults))
    matrix[n_real:, n_real:] = block.matrix
    j[:n_real, :n_real] = np.diag(rng.choice([-1.0, 1.0], size=n_real))
    j[n_real:, n_real:] = block.space.J
    frame = random_unitary(n, rng)
    j = frame @ j @ frame.conj().T
    op = OperatorWithDomain(KreinSpace(0.5 * (j + j.conj().T)),
                            frame @ matrix @ frame.conj().T)
    starts = np.cumsum([0] + mults)
    spaces = [frame[:, a:z] for a, z in zip(starts, starts[1:])]
    return op, list(values), spaces


def exact_form_decision(op):
    """``(classify, form_scale, form_kernel basis)`` by the rule without the
    Frobenius shortcut: the largest form eigenvalue modulus, or the bound
    ``2 |T B|_2`` from an SVD whenever that modulus is negligible against it.
    Kept as the oracle of the differential tests of ``form_scale``."""
    w, v = op.form_eigh
    b = op.domain.basis
    largest = float(np.max(np.abs(w), initial=0.0))
    bound = 2.0 * float(np.linalg.norm(op.matrix @ b, 2)) if b.shape[1] else 0.0
    scale = bound if negligible(largest, op.tol, bound) else largest
    return _classify(w, op.tol, scale), scale, b @ v[:, negligible(w, op.tol, scale)]


def count_svd_backed(monkeypatch):
    """Count the SVD-backed calls, ``numpy.linalg.svd`` and matrix
    ``numpy.linalg.norm(., 2)``, in a dict from then on.  Both are patched,
    since ``norm`` does not go through the ``svd`` attribute."""
    counts = {"svd": 0, "norm2": 0}
    svd, norm = np.linalg.svd, np.linalg.norm

    def counted_svd(*args, **kwargs):
        counts["svd"] += 1
        return svd(*args, **kwargs)

    def counted_norm(x, ord=None, *args, **kwargs):
        if ord == 2 and np.ndim(x) == 2:
            counts["norm2"] += 1
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(np.linalg, "norm", counted_norm)
    return counts


def record_svd_shapes(monkeypatch):
    """Record the shape of each ``numpy.linalg.svd`` input in a list from
    then on; the companion of :func:`count_svd_backed` for the size of the
    factorisations it counts."""
    shapes = []
    svd = np.linalg.svd

    def recorded(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    return shapes


def count_subspaces(monkeypatch):
    """Count the ``Subspace`` constructions, each a checked basis, in a dict
    from then on; the companion of :func:`count_svd_backed`."""
    counts = {"subspace": 0}
    init = Subspace.__init__

    def counted(self, *args, **kwargs):
        counts["subspace"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Subspace, "__init__", counted)
    return counts


def count_factorizations(monkeypatch):
    """Count the calls of ``numpy.linalg.eigh``, ``eigvalsh``, ``qr`` and
    ``cholesky`` in a dict from then on; the companion of
    :func:`count_svd_backed`."""
    counts = {"eigh": 0, "eigvalsh": 0, "qr": 0, "cholesky": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in counts:
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    return counts


# The SVD routes that the Householder QRs replaced where the rank is fixed
# by the mathematics, kept as the oracles of the differential tests.

def svd_graph(op):
    """Graph basis of ``op`` by a rank-cut SVD of ``[B; T B]``."""
    return matrix_graph(op.matrix, op.domain.basis, op.tol)


def svd_deficiency_spaces(sym):
    """N+ and N- of JS as ``null_space(((JS +- i)B)^H)``."""
    b = sym.domain.basis
    jsb = sym.space.J @ sym.matrix @ b
    return tuple(
        Subspace(sym.space.dim, null_space((jsb + shift * b).conj().T, sym.tol))
        for shift in (1j, -1j)
    )


def svd_shifted(op):
    """Thin SVD ``(U, s, Vh)`` of ``(JT + iI)B``, the factorisation that
    ``deficiency_space`` replaced with a QR."""
    b = op.domain.basis
    return np.linalg.svd(op.space.J @ op.matrix @ b + 1j * b, full_matrices=False)


def svd_intersection(op, n_plus):
    """N+ meet ran(JT + iI) from the range side: ``U null(U - Qp Qp* U)``."""
    u = svd_shifted(op)[0]
    qp = n_plus.basis
    coeffs = null_space(u - qp @ (qp.conj().T @ u), op.tol, scale=1.0)
    return Subspace(u.shape[0], u @ coeffs)


def svd_resolvent_domain(op, defi):
    """Preimage of the deficiency intersection under ``JT + iI``, solved
    through its SVD and spanned by a rank-cut SVD."""
    u, s, vh = svd_shifted(op)
    coeffs = vh.conj().T @ ((u.conj().T @ defi.intersection.basis) / s[:, None])
    return orthonormal_span(op.lift(coeffs), op.tol)


def svd_trace_image(op, traces):
    """Joint range of the traces on graph T, spanned by a rank-cut SVD at
    ``tol * hypot(1, |T B|_2)``."""
    stacked = np.vstack([traces.trace0, traces.trace1])
    return orthonormal_span(stacked, op.tol, scale=np.hypot(1.0, op.scale))


def svd_pair_kernel(pair, op):
    """Kernel of the boundary map of ``op`` as ``null_space`` of its matrix,
    lifted from domain coordinates."""
    return Subspace(op.space.dim, op.lift(null_space(pair.matrix)))


def ambient_map_gap(op, splitting, pair, resolvent):
    """The boundary-map gap with both maps lifted to C^n: the defect basis
    times the pair's map, against the domain basis times the resolvent
    route's map, scaled by the 2-norm of the first.  The ambient formula
    the report read before the pair was held in E coordinates, kept as its
    oracle."""
    proj = splitting.defect.domain.basis @ pair.matrix
    scale = max(1.0, float(np.linalg.norm(proj, 2)))
    return float(np.linalg.norm(proj - op.lift(resolvent), 2)) / scale


def reference_range_margin(traces):
    """``range_splitting``'s margin as ``sigma sqrt(2 - sigma^2)`` for the
    smallest singular value sigma of the 2k x 2k matrix
    ``[[A, -R], [C, P]]``, with the complement ``[P; R]`` of the trace image
    ``[A; C]`` taken as ``null_space(q*)``: the route it replaced, read from
    the image and its complement together."""
    k = traces.boundary_dim
    q = traces.image.basis
    perp = complement(traces.image).basis
    m = np.block([[q[:k], -perp[k:]], [q[k:], perp[:k]]])
    sigma = float(np.linalg.svd(m, compute_uv=False)[-1])
    return sigma * np.sqrt(2.0 - sigma * sigma)


def defect_contraction_norm(op, traces, splitting):
    """``|(t1 - i t0) X (QR of (t1 + i t0) X)^-1|_2`` on the defect-domain
    coordinates X, the traces taken again: the route ``contraction_bound``
    replaced with the image basis, kept as its oracle."""
    t0n, t1n = np.split(defect_traces(op, traces, splitting), 2)
    if t0n.shape[1] == 0:
        return 0.0
    r = np.linalg.qr(t1n + 1j * t0n)[1]
    return float(np.linalg.norm((t1n - 1j * t0n) @ np.linalg.inv(r), 2))


def cholesky_riesz_spectrum(op):
    """Ascending eigenvalues of ``L^-1 D L^-*`` for the Cholesky factor L of
    the graph Gram and the dissipation Gram D, unitarily similar to F of
    ``riesz_representer``: the route the report read before
    ``graph_spectrum``, kept as its oracle."""
    low = np.linalg.cholesky(op.graph_gram)
    half = np.linalg.solve(low, op.dissipation_gram)
    reduced = np.linalg.solve(low, half.conj().T)
    return np.linalg.eigvalsh(0.5 * (reduced + reduced.conj().T))


#: random domain sample pairs of ``sampled_pair_green_residual``
PAIR_GREEN_SAMPLES = 200


def sampled_pair_green_residual(pair, op, rng=None):
    """Largest normalized residual of the boundary-pair Green identity
    [x, Ty] - [Tx, y] = i (G x, G y)_E over random domain sample pairs: the
    route ``pair_green_residual`` replaced with the matrix identity on the
    graph basis, which bounds it from above, kept as its oracle."""
    rng = np.random.default_rng(0) if rng is None else rng
    d = op.domain.dim
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
    px, py = pair.matrix @ cx, pair.matrix @ cy
    rhs = 1j * np.einsum("ij,ij->j", px.conj(), pair.gram @ py)
    norm_x = np.sqrt(np.einsum("ij,ij->j", x.conj(), x).real
                     + np.einsum("ij,ij->j", mx.conj(), mx).real)
    norm_y = np.sqrt(np.einsum("ij,ij->j", y.conj(), y).real
                     + np.einsum("ij,ij->j", my.conj(), my).real)
    return float(np.max(np.abs(lhs - rhs) / (norm_x * norm_y)))


def dense_mask_splitting(op, mask):
    """The dense generic route ``mask_splitting`` replaced: ``split`` of T,
    then the gaps of its two domains from the off-mask and the masked
    coordinate spans, each at most ``CHECK_GATE``.  Returns the generic
    splitting.  O(n^3); kept as the oracle of the structural checks."""
    mask = np.asarray(mask, dtype=bool)
    coords = np.eye(op.space.dim, dtype=np.complex128)
    generic = split(op)
    gap_sym = gap_distance(generic.symmetric.domain,
                           Subspace(op.space.dim, coords[:, ~mask]))
    gap_defect = gap_distance(generic.defect.domain,
                              Subspace(op.space.dim, coords[:, mask]))
    if gap_sym > CHECK_GATE or gap_defect > CHECK_GATE:
        raise PipelineError(
            "masked splitting disagrees with the graph-orthogonal one "
            f"(gaps {gap_sym:.3e}, {gap_defect:.3e})"
        )
    return generic


#: random grid functions of ``sampled_quadrature_residual``
QUADRATURE_SAMPLES = 100


def sampled_quadrature_residual(op, grid, pot, rng=None):
    """Largest relative deviation of the dissipation form from the midpoint
    quadrature 2 sum_mask Im q |y_k|^2 step over random grid functions: the
    route ``dissipation_quadrature_residual`` replaced with the exact matrix
    identity, kept as its oracle.

    Samples are function values y; the corresponding coordinate vector is
    sqrt(step) * y.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    n, s, samples = grid.n_points, grid.step, QUADRATURE_SAMPLES
    y = rng.standard_normal((n, samples)) + 1j * rng.standard_normal((n, samples))
    x = math.sqrt(s) * y
    form = np.einsum("ij,ij->j", x.conj(), op.dissipation_matrix @ x).real
    weights = 2.0 * s * pot.q_values.imag * pot.omega_mask
    quad = np.einsum("i,ij->j", weights, np.abs(y) ** 2)
    return float(np.max(np.abs(form - quad) / (1.0 + np.abs(quad))))


def symmetrized_dissipation_matrix(op):
    """``0.5 (g + g*)`` for ``g = -i(J M - M* J)``, with row and column
    scalings for a diagonal J: the formula ``dissipation_matrix`` replaced
    with ``h + h*`` on the Hermitian part of J, kept as its oracle."""
    j, m = op.space.J, op.matrix
    if _is_diagonal(j):
        d = np.diag(j)
        g = -1j * (d[:, None] * m - m.conj().T * d)
    else:
        g = -1j * (j @ m - m.conj().T @ j)
    return 0.5 * (g + g.conj().T)


# The dense route of the Sturm-Liouville study that the banded levels of
# ``sturm_liouville.BandedOperator`` and the closed-form
# ``sturm_liouville.cayley_norm`` replaced, kept as the oracle of the
# differential tests: the n x n grid operator, the structural mask
# splitting, the exact quadrature residual, the masked block and the Cayley
# norm by a dense solve and SVD.

def _laplacian(grid, pot):
    n, s = grid.n_points, grid.step
    inv2 = 1.0 / (s * s)
    a = np.zeros((n, n))
    np.fill_diagonal(a, 2.0 * inv2)
    idx = np.arange(n - 1)
    a[idx, idx + 1] = -inv2
    a[idx + 1, idx] = -inv2
    alpha = grid.robin_alpha(pot.h)
    a[0, 0] = (2.0 - alpha) * inv2
    a[n - 1, n - 1] = 3.0 * inv2  # Dirichlet cell edge at x_max
    # decouple mask interfaces with Dirichlet edges on both sides
    mask = pot.omega_mask
    for k in range(n - 1):
        if mask[k] != mask[k + 1]:
            a[k, k + 1] = 0.0
            a[k + 1, k] = 0.0
            a[k, k] += inv2
            a[k + 1, k + 1] += inv2
    return a


def dense_discretize(grid, pot):
    """Full-domain operator in the Euclidean Krein space (J = I)."""
    if pot.omega_mask.shape[0] != grid.n_points:
        raise DimensionMismatch("potential is sampled on a different grid")
    matrix = _laplacian(grid, pot) + np.diag(pot.q_values)
    space = KreinSpace(np.eye(grid.n_points))
    op = OperatorWithDomain(space, matrix)
    if op.classify() not in ("dissipative", "symmetric"):
        raise PipelineError("discretized operator failed the dissipativity check")
    return op


def _validated_mask(op, mask, nonempty=False):
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (op.space.dim,):
        raise DimensionMismatch(
            f"mask of shape {mask.shape}, expected a vector of length {op.space.dim}"
        )
    if nonempty and not mask.any():
        raise DimensionMismatch("mask is empty")
    return mask


def _structural_fault(op, on, off, block):
    """The first of the exact facts behind :func:`mask_splitting` that
    fails, or None."""
    if not op.domain.is_full:
        return "the domain is not the whole space"
    t = op.matrix
    if np.any(t[np.ix_(on, off)]) or np.any(t[np.ix_(off, on)]):
        return "T couples masked and off-mask coordinates"
    if np.any(op.dissipation_matrix[off]):
        return "the dissipation form does not vanish off the mask"
    # ascending; a diagonal block, as on the grid, is its real diagonal
    eigs = (np.sort(np.diag(block).real) if _is_diagonal(block)
            else np.linalg.eigvalsh(block))
    if eigs.size:
        low = eigs[0]
        # above the rank cut of the form, then split's degeneracy test, whose
        # scale max |eigs| is the largest eigenvalue once the smallest is > 0
        if (low <= 0 or negligible(low, op.tol, op.form_scale)
                or negligible(low, op.tol, eigs[-1])):
            return "the dissipation form is not definite on the mask"
    return None


def mask_splitting(op, mask):
    """Splitting along the mask, certified from the exact structure of the
    dense operator: (i) both off-diagonal blocks of T are exactly zero,
    (ii) the dissipation matrix is exactly zero on the off-mask rows,
    (iii) every eigenvalue of its masked block lies above the form's rank
    cut and passes the degeneracy test of ``split``.  The domain must be
    the whole space.  A non-dissipative T raises ``ClassificationError``; a
    failed fact raises ``PipelineError``."""
    mask = _validated_mask(op, mask)
    if op.classify() == NEITHER:
        raise ClassificationError("mask splitting needs a dissipative operator")
    on, off = np.flatnonzero(mask), np.flatnonzero(~mask)
    # the defect basis is the masked coordinate columns, so its Gram is the
    # masked block of the (exactly Hermitian) dissipation matrix
    block = op.dissipation_matrix[np.ix_(on, on)]
    fault = _structural_fault(op, on, off, block)
    if fault is not None:
        raise PipelineError(
            f"masked splitting disagrees with the graph-orthogonal one: {fault}"
        )
    return Splitting(
        symmetric=op.restricted(coordinate_span(mask.size, off)),
        defect=op.restricted(coordinate_span(mask.size, on)),
    )


def dissipation_quadrature_residual(op, pot):
    """``|D - W|_F / |W|_2`` for the dissipation matrix D and the midpoint
    quadrature ``W = 2 diag(Im q)``.  Raises ``DimensionMismatch`` for an
    empty mask or one of the wrong length."""
    _validated_mask(op, pot.omega_mask, nonempty=True)
    weights = 2.0 * pot.q_values.imag  # q vanishes off the mask
    deviation = op.dissipation_matrix.copy()
    deviation[np.diag_indices_from(deviation)] -= weights
    return _frobenius(deviation) / float(np.max(np.abs(weights)))


def omega_block(op, mask):
    """Compression of the operator matrix to the masked coordinates."""
    idx = np.flatnonzero(_validated_mask(op, mask, nonempty=True))
    return op.matrix[np.ix_(idx, idx)]


def dense_cayley_norm(matrix):
    """Largest singular value of (L - iI)(L + iI)^{-1} for the square
    matrix L, by a dense solve and SVD.

    At most 1 for a dissipative L; a singular L + iI signals that the
    input is not dissipative (``PipelineError``).  Past a largest absolute
    row sum r of L whose square overflows, the solve may return a wrong norm
    unwarned (0.0 for ``[[9e307+9e307j]]``): ``ScaleOverflow`` instead.
    """
    matrix = np.asarray(matrix, dtype=np.complex128)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DimensionMismatch("Cayley transform needs a square matrix")
    if matrix.size == 0:
        raise DimensionMismatch("Cayley transform needs a nonempty matrix")
    if not np.all(np.isfinite(matrix)):
        raise DimensionMismatch("Cayley transform needs finite entries")
    with np.errstate(over="ignore"):  # an overflowing row sum is refused below
        rows = float(np.max(np.sum(np.abs(matrix), axis=1)))
    if not math.isfinite(rows * rows):
        raise ScaleOverflow(f"row sum {rows:.3e}: the Cayley solve may overflow")
    eye = np.eye(matrix.shape[0])
    try:
        transform = np.linalg.solve((matrix + 1j * eye).conj().T,
                                    (matrix - 1j * eye).conj().T).conj().T
    except np.linalg.LinAlgError as exc:
        raise PipelineError("L + iI is singular; L is not dissipative") from exc
    return float(np.linalg.svd(transform, compute_uv=False)[0])


def tridiagonal(diagonal, off_diagonal):
    """The dense symmetric matrix with these bands, assembled as
    ``BandedOperator.masked_block`` assembled its real block before it
    returned bands."""
    a = np.diag(diagonal)
    idx = np.arange(len(off_diagonal))
    a[idx, idx + 1] = a[idx + 1, idx] = off_diagonal
    return a


def dense_spectral_radius(diagonal, off_diagonal):
    """Spectral radius of the symmetric tridiagonal matrix with these bands
    by one ``eigvalsh`` of its dense assembly: the O(m^3) route of
    ``cayley_norm`` before it read the bands."""
    eigs = np.linalg.eigvalsh(tridiagonal(diagonal, off_diagonal))
    return float(max(-eigs[0], eigs[-1]))


def exact_count_below(diagonal, off_diagonal, x):
    """Number of eigenvalues below the float ``x`` of the symmetric
    tridiagonal matrix with these float bands: the negative pivots of
    ``A - x = L D L^T`` in exact rational arithmetic (Sylvester's law of
    inertia), so with no rounding at all.  A zero pivot, where x is an
    eigenvalue of a leading block, raises ``ValueError``."""
    x, count, previous = Fraction(x), 0, None
    for k, d in enumerate(diagonal):
        pivot = Fraction(d) - x
        if k and off_diagonal[k - 1]:
            pivot -= Fraction(off_diagonal[k - 1]) ** 2 / previous
        if pivot == 0:
            raise ValueError(f"{x} is an eigenvalue of the leading {k + 1} rows")
        count += pivot < 0
        previous = pivot
    return count


def dense_convergence_study(x_max, base_n, intervals, imq, h, levels):
    """``convergence_study`` on the dense route: an n x n operator per level."""
    rows = []
    specs = study_levels(x_max, base_n, intervals, imq, h, levels)
    for level, (grid, pot) in enumerate(specs):
        op = dense_discretize(grid, pot)
        mask_splitting(op, pot.omega_mask)
        residual = dissipation_quadrature_residual(op, pot)
        norm = dense_cayley_norm(omega_block(op, pot.omega_mask))
        rows.append(StudyRow(level=level, n_points=grid.n_points, x_max=x_max,
                             cayley_norm=norm, form_residual=residual))
    return rows


# The per-entry instance-file codec that ``cli`` replaced with one numpy
# conversion per matrix, kept as the oracle of its differential tests: the
# same arrays bit for bit, the same messages, the same file bytes.

def _per_entry_complex(entry, where):
    if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
        raise SpecError(f"{where}: complex entries must be [re, im] pairs")
    re, im = entry
    if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in (re, im)):
        raise SpecError(f"{where}: non-numeric complex entry")
    try:
        return complex(re, im)
    except OverflowError as exc:
        raise SpecError(f"{where}: complex entry out of range ({exc})") from exc


def _per_entry_matrix(data, dim, where):
    if not (isinstance(data, list) and len(data) == dim):
        raise SpecError(f"{where}: expected {dim} rows")
    out = np.zeros((dim, dim), dtype=np.complex128)
    for i, row in enumerate(data):
        if not (isinstance(row, list) and len(row) == dim):
            raise SpecError(f"{where}: row {i} must have {dim} entries")
        for j, entry in enumerate(row):
            out[i, j] = _per_entry_complex(entry, f"{where}[{i}][{j}]")
    return out


def per_entry_decode(raw, path):
    """J, T and the domain columns (or None) of a parsed, well-formed
    instance header, decoded one entry at a time; raises ``SpecError`` with
    the message ``load_instance`` gives for a malformed entry or row."""
    dim = raw["dim"]
    j = _per_entry_matrix(raw["J"], dim, f"{path}: J")
    t = _per_entry_matrix(raw["T"], dim, f"{path}: T")
    if raw.get("domain") is None:
        return j, t, None
    cols = []
    for i, vec in enumerate(raw["domain"]):
        if not (isinstance(vec, list) and len(vec) == dim):
            raise SpecError(f"{path}: domain vector {i} must have {dim} entries")
        cols.append([_per_entry_complex(e, f"{path}: domain[{i}][{k}]")
                     for k, e in enumerate(vec)])
    return j, t, np.array(cols, dtype=np.complex128).T


def per_entry_dump_text(op):
    """The text ``dump_instance`` writes for ``op``, encoded one entry at a time."""
    def encode(m):
        return [[[float(v.real), float(v.imag)] for v in row] for row in m]

    payload = {
        "dim": op.space.dim,
        "J": encode(op.space.J),
        "T": encode(op.matrix),
        "domain": None if op.domain.is_full else encode(op.domain.basis.T),
        "tol": op.tol,
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
