import numpy as np
import pytest

from kreinpair import KreinSpace, OperatorWithDomain, gap_distance, split
from kreinpair.errors import PipelineError
from kreinpair.instances import random_dissipative, random_unitary
from kreinpair.krein import _classify
from kreinpair.subspaces import Subspace, null_space, orthonormal_span
from kreinpair.tolerances import CHECK_GATE, DEFAULT_TOL, negligible


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


def relation_eigenspace(graph, lam):
    """Vectors x with ``(x, lam x)`` in a graph in C^n x C^n."""
    n = graph.ambient_dim // 2
    top, bot = graph.basis[:n], graph.basis[n:]
    coeffs = null_space(bot - lam * top, scale=1.0 + abs(lam))
    return orthonormal_span(top @ coeffs, scale=1.0)


def defect_traces(traces, splitting):
    """The restricted traces ``(trace0; trace1)`` stacked, on coordinates of
    the defect-domain basis: the map whose inverse carries the trace image
    isometrically onto the defect domain with its dissipation form."""
    xn = traces.domain_basis.conj().T @ splitting.defect.domain.basis
    return np.vstack([traces.trace0 @ xn, traces.trace1 @ xn])


def graph_inner(op, x, y):
    """``<x, y> + <T x, T y>`` of two domain vectors, through ``graph_gram``."""
    return complex(np.vdot(op.coords(x), op.graph_gram @ op.coords(y)))


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


def count_factorizations(monkeypatch):
    """Count the calls of ``numpy.linalg.eigh``, ``eigvalsh`` and ``qr`` in a
    dict from then on; the companion of :func:`count_svd_backed`."""
    counts = {"eigh": 0, "eigvalsh": 0, "qr": 0}

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


def svd_intersection(op, defi):
    """N+ meet ran(JT + iI) from the range side: ``U null(U - Qp Qp* U)``."""
    u = svd_shifted(op)[0]
    qp = defi.deficiency.basis
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


def svd_pair_kernel(pair):
    """Kernel of the boundary map as ``null_space`` of its matrix."""
    basis = pair.domain_basis @ null_space(pair.matrix)
    return Subspace(pair.domain_basis.shape[0], basis)


def reference_range_margin(traces):
    """``range_splitting``'s margin with the complement of the trace image
    taken as ``null_space(q*)``."""
    k = traces.boundary_dim
    q = traces.image.basis
    perp = complement(traces.image).basis
    m = np.block([[q[:k], -perp[k:]], [q[k:], perp[:k]]])
    sigma = float(np.linalg.svd(m, compute_uv=False)[-1])
    return sigma * np.sqrt(2.0 - sigma * sigma)


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
