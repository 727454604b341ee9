"""Boundary triples for the adjoint of the symmetric part, and the induced
boundary pair of a dissipative operator.

Construction route: conjugating by J turns the Krein-symmetric part S into
the Hilbert-symmetric operator JS, whose adjoint relation decomposes
orthogonally (in the Euclidean product of the doubled space) into the graph
of JS and the two deficiency pieces at +i and -i.  Picking a unitary
identification of the two deficiency subspaces gives trace maps through the
standard deficiency-coordinate formulas; the abstract Green identity is
then verified numerically as the construction's contract.

Two independent realizations of the boundary map of the pair are provided:
one through the graph-orthogonal projection onto the defect domain, one
through the resolvent-type sandwich with the deficiency projector.  Their
agreement is the central theorem check of the package.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .decomposition import DeficiencyData, Splitting
from .errors import DimensionMismatch, DomainError, PipelineError
from .krein import SYMMETRIC, OperatorWithDomain, boundary_metric_matrix
from .subspaces import (
    LinearRelation,
    Subspace,
    eigenspace,
    gap_distance,
    null_space,
    orthonormal_span,
    relation_adjoint,
)

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
    "triple_green_residual",
    "defect_trace_matrix",
    "boundary_preimage",
    "transform_pair",
    "restricted_eigenpairs",
    "real_spectrum_report",
]


@dataclass(frozen=True)
class BoundaryTriple:
    """Trace maps on the adjoint of the symmetric part.

    ``trace0`` and ``trace1`` act on stacked pairs (x, x') of the doubled
    base space and take values in the boundary space C^k; they vanish
    exactly on the graph of the symmetric part and are jointly surjective,
    so together they form an ordinary boundary triple.
    """

    space_dim: int
    trace0: np.ndarray  # k x 2n
    trace1: np.ndarray  # k x 2n
    adjoint_graph: Subspace  # graph of the symmetric part's adjoint
    symmetric_graph: Subspace
    defect_plus: Subspace
    defect_minus: Subspace
    base_metric: np.ndarray  # J of the underlying Krein space

    def stacked_traces(self) -> np.ndarray:
        return np.vstack([self.trace0, self.trace1])


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
    triple: BoundaryTriple


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
    domain_basis: np.ndarray  # n x d
    defect_basis: np.ndarray  # n x space_dim
    provenance: str

    def apply(self, x) -> np.ndarray:
        v = np.asarray(x, dtype=np.complex128).reshape(-1)
        coeffs, res, *_ = np.linalg.lstsq(self.domain_basis, v, rcond=None)
        reconstructed = self.domain_basis @ coeffs
        if np.linalg.norm(reconstructed - v) > 1e-8 * max(1.0, np.linalg.norm(v)):
            raise DomainError("vector is not in the operator domain")
        return self.matrix @ coeffs

    def inner(self, x, y) -> complex:
        """The E inner product of the boundary values of two domain vectors."""
        bx = self.defect_basis.conj().T @ self.apply(x)
        by = self.defect_basis.conj().T @ self.apply(y)
        return complex(bx.conj() @ self.gram @ by)

    @cached_property
    def _gram_sqrt(self) -> np.ndarray:
        if self.space_dim == 0:
            return np.zeros((0, 0), dtype=np.complex128)
        w, v = np.linalg.eigh(self.gram)
        return v @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T

    def orthonormal_coords(self, x) -> np.ndarray:
        """Boundary value in an E-orthonormal coordinate system (Gram = I)."""
        return self._gram_sqrt @ (self.defect_basis.conj().T @ self.apply(x))

    def kernel(self) -> Subspace:
        scale = 1.0
        if self.matrix.shape[1]:
            scale = max(1.0, float(np.linalg.norm(self.matrix, 2)))
        coeffs = null_space(self.matrix, scale=scale)
        n = self.domain_basis.shape[0]
        return orthonormal_span(self.domain_basis @ coeffs, n, scale=1.0)

    def range_dim(self) -> int:
        if self.matrix.shape[1] == 0:
            return 0
        s = np.linalg.svd(self.matrix, compute_uv=False)
        if s.size == 0 or s[0] == 0.0:
            return 0
        return int(np.sum(s > 1e-10 * max(s[0], 1.0)))


def build_boundary_triple(sym: OperatorWithDomain,
                          op: OperatorWithDomain | None = None) -> BoundaryTriple:
    """Ordinary boundary triple for the adjoint of a symmetric operator.

    The abstract Green identity on the adjoint graph is checked as an exact
    matrix identity and a violation raises; any triple passing that
    contract is acceptable, the deficiency-coordinate formulas are just the
    construction used here.
    """
    if sym.classify() != SYMMETRIC:
        raise PipelineError("boundary triples are built over a symmetric operator")
    space = sym.space
    n, j = space.dim, space.J
    hilbertized = LinearRelation.from_operator(j @ sym.matrix, sym.domain, sym.tol)
    adj = relation_adjoint(hilbertized)  # Euclidean adjoint of JS
    n_plus = eigenspace(adj, 1j)
    n_minus = eigenspace(adj, -1j)
    if n_plus.dim != n_minus.dim:
        raise PipelineError(
            f"deficiency dimensions differ: {n_plus.dim} vs {n_minus.dim}"
        )
    k = n_plus.dim

    # components of (x, J x') in the von Neumann decomposition:
    #   u+ = Qp Qp^H (x - i J x') / 2,   u- = Qm Qm^H (x + i J x') / 2
    # trace0 = coords(u+) + coords(u-), trace1 = i (coords(u+) - coords(u-))
    ph, mh = n_plus.basis.conj().T, n_minus.basis.conj().T
    trace0 = 0.5 * np.hstack([ph + mh, -1j * ph @ j + 1j * mh @ j])
    trace1 = 0.5j * np.hstack([ph - mh, -1j * ph @ j - 1j * mh @ j])

    adj_graph_h = adj.graph.basis
    krein_graph = orthonormal_span(
        np.vstack([adj_graph_h[:n], j @ adj_graph_h[n:]]), 2 * n, sym.tol
    )
    sym_graph = sym.graph_relation.graph

    triple = BoundaryTriple(
        space_dim=k,
        trace0=trace0,
        trace1=trace1,
        adjoint_graph=krein_graph,
        symmetric_graph=sym_graph,
        defect_plus=n_plus,
        defect_minus=n_minus,
        base_metric=j,
    )

    residual = _green_matrix_residual(triple, krein_graph)
    if residual > 1e-10:
        raise PipelineError(f"abstract Green identity fails (residual {residual:.3e})")
    kernel = _trace_kernel(triple, krein_graph)
    if gap_distance(kernel, sym_graph) > 1e-8:
        raise PipelineError("trace maps do not vanish exactly on the symmetric graph")
    if op is not None:
        g_t = op.graph_relation.graph
        if _containment_defect(g_t, krein_graph) > 1e-8:
            raise PipelineError("graph of T is not inside the adjoint graph")
    return triple


def _green_matrix_residual(triple: BoundaryTriple, graph: Subspace) -> float:
    """Residual of [x,y'] - [x',y] = <t0 x^, t1 y^> - <t1 x^, t0 y^> on a graph."""
    n = triple.base_metric.shape[0]
    j = triple.base_metric
    zero = np.zeros((n, n), dtype=np.complex128)
    lhs_form = np.block([[zero, j], [-j, zero]])
    t0, t1 = triple.trace0, triple.trace1
    rhs_form = t0.conj().T @ t1 - t1.conj().T @ t0
    g = graph.basis
    defect = g.conj().T @ (lhs_form - rhs_form) @ g
    scale = max(1.0, float(np.linalg.norm(j, 2)) ** 2)
    return float(np.linalg.norm(defect, 2)) / scale


def _matrix_scale(m: np.ndarray) -> float:
    if m.size == 0:
        return 1.0
    return max(1.0, float(np.linalg.norm(m, 2)))


def _trace_kernel(triple: BoundaryTriple, graph: Subspace) -> Subspace:
    g = graph.basis
    stacked = np.vstack([triple.trace0 @ g, triple.trace1 @ g])
    coeffs = null_space(stacked, scale=_matrix_scale(stacked))
    return orthonormal_span(g @ coeffs, graph.ambient_dim, scale=1.0)


def _containment_defect(inner: Subspace, outer: Subspace) -> float:
    if inner.is_zero:
        return 0.0
    q = outer.basis
    residual = inner.basis - q @ (q.conj().T @ inner.basis)
    return float(np.linalg.norm(residual, 2))


def restrict_triple(triple: BoundaryTriple, op: OperatorWithDomain) -> TraceData:
    """Trace maps evaluated on the graph of T, plus the image G-space."""
    g_t = op.graph_relation.graph
    defect = _containment_defect(g_t, triple.adjoint_graph)
    if defect > 1e-8:
        raise PipelineError(
            f"graph of T is not contained in the adjoint graph (defect {defect:.3e})"
        )
    b = op.domain.basis
    stacked_pairs = np.vstack([b, op.matrix @ b])
    t0 = triple.trace0 @ stacked_pairs
    t1 = triple.trace1 @ stacked_pairs
    k = triple.space_dim
    if k == 0:
        # zero defect numbers: no boundary data at all
        image = None
        gram = np.zeros((0, 0), dtype=np.complex128)
    else:
        stacked = np.vstack([t0, t1])
        scale = _matrix_scale(np.vstack([triple.trace0, triple.trace1]))
        image = orthonormal_span(stacked, 2 * k, op.tol, scale=scale)
        gram = trace_image_gram(image)
    residual = _green_matrix_residual(triple, g_t)
    if residual > 1e-10:
        raise PipelineError(f"Green identity fails on the graph of T ({residual:.3e})")
    return TraceData(
        boundary_dim=k,
        trace0=t0,
        trace1=t1,
        domain_basis=b,
        image=image,
        image_gram=gram,
        triple=triple,
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
    must preserve the canonical symmetry of the doubled boundary space.
    """
    k = traces.boundary_dim
    w = np.asarray(w, dtype=np.complex128)
    if w.shape != (2 * k, 2 * k):
        raise DimensionMismatch("boundary transform has the wrong shape")
    meta = boundary_metric_matrix(k)
    if np.linalg.norm(w.conj().T @ meta @ w - meta, 2) > 1e-10:
        raise PipelineError("boundary transform does not preserve the graph metric")
    stacked = w @ np.vstack([traces.trace0, traces.trace1])
    t0, t1 = stacked[:k], stacked[k:]
    image = orthonormal_span(np.vstack([t0, t1]), 2 * k)
    return TraceData(
        boundary_dim=k,
        trace0=t0,
        trace1=t1,
        domain_basis=traces.domain_basis,
        image=image,
        image_gram=trace_image_gram(image),
        triple=traces.triple,
    )


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
        provenance="projection-form",
    )


def boundary_map_resolvent(op: OperatorWithDomain, defi: DeficiencyData,
                           splitting: Splitting) -> BoundaryPair:
    """Boundary map as ``(JT + iI)^{-1} P (JT + iI)`` with the deficiency
    projector P; the unitary identification of E is fixed to the identity.

    The inverse is the solve through the SVD in ``defi``; the part of the
    projected values outside the range of ``JT + iI`` is the residual.
    """
    b = op.domain.basis
    u, s, vh = defi.shifted_svd
    target = ((defi.projector @ u) * s) @ vh
    in_range = u.conj().T @ target
    coeffs = vh.conj().T @ (in_range / s[:, None])
    residual = np.linalg.norm(u @ in_range - target, 2)
    scale = max(1.0, float(np.linalg.norm(target, 2)))
    if residual > 1e-8 * scale:
        raise PipelineError(
            f"projected values are not in the range of JT + iI ({residual:.3e})"
        )
    return BoundaryPair(
        space_dim=splitting.defect.domain.dim,
        gram=splitting.defect_gram,
        matrix=b @ coeffs,
        domain_basis=b,
        defect_basis=splitting.defect.domain.basis,
        provenance="resolvent-form",
    )


def transform_pair(pair: BoundaryPair, unitary: np.ndarray) -> BoundaryPair:
    """Compose the boundary map with a unitary of E (in E-orthonormal
    coordinates); every other boundary pair of the operator arises this way."""
    u = np.asarray(unitary, dtype=np.complex128)
    dn = pair.space_dim
    if u.shape != (dn, dn):
        raise DimensionMismatch("unitary has the wrong size for E")
    if dn and np.linalg.norm(u.conj().T @ u - np.eye(dn), 2) > 1e-10:
        raise PipelineError("boundary-space transform must be unitary")
    if dn == 0:
        return pair
    w, v = np.linalg.eigh(pair.gram)
    sqrt = v @ np.diag(np.sqrt(w)) @ v.conj().T
    inv_sqrt = v @ np.diag(1.0 / np.sqrt(w)) @ v.conj().T
    coeff_map = inv_sqrt @ u @ sqrt  # unitary of E written on defect coords
    matrix = pair.defect_basis @ (coeff_map @ (pair.defect_basis.conj().T @ pair.matrix))
    return BoundaryPair(
        space_dim=dn,
        gram=pair.gram,
        matrix=matrix,
        domain_basis=pair.domain_basis,
        defect_basis=pair.defect_basis,
        provenance=pair.provenance + "+rotated",
    )


def pair_green_residual(pair: BoundaryPair, op: OperatorWithDomain,
                        samples: int = 200,
                        rng: np.random.Generator | None = None) -> float:
    """Largest normalized residual of the boundary-pair Green identity
    [x, Ty] - [Tx, y] = i (G x, G y)_E over random domain sample pairs."""
    rng = np.random.default_rng(0) if rng is None else rng
    b = pair.domain_basis
    d = b.shape[1]
    if d == 0:
        return 0.0
    j, m = op.space.J, op.matrix
    cx = rng.standard_normal((d, samples)) + 1j * rng.standard_normal((d, samples))
    cy = rng.standard_normal((d, samples)) + 1j * rng.standard_normal((d, samples))
    x, y = b @ cx, b @ cy
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


def triple_green_residual(triple: BoundaryTriple,
                          graph: Subspace | None = None) -> float:
    """Exact matrix residual of the abstract Green identity on a graph
    (defaults to the full adjoint graph)."""
    target = triple.adjoint_graph if graph is None else graph
    return _green_matrix_residual(triple, target)


def trace_isometry_residual(triple: BoundaryTriple) -> float:
    """Deviation of the trace maps from isometry between the graph metrics,
    measured on the adjoint graph."""
    g = triple.adjoint_graph.basis
    n = triple.base_metric.shape[0]
    j = triple.base_metric
    zero = np.zeros((n, n), dtype=np.complex128)
    graph_metric = np.block([[zero, -1j * j], [1j * j, zero]])
    lhs = g.conj().T @ graph_metric @ g
    stacked = triple.stacked_traces() @ g
    meta = boundary_metric_matrix(triple.space_dim)
    rhs = stacked.conj().T @ meta @ stacked
    return float(np.linalg.norm(lhs - rhs, 2))


def defect_trace_matrix(traces: TraceData, splitting: Splitting) -> np.ndarray:
    """Stacked trace matrix on coordinates of the defect-domain basis."""
    xn = traces.domain_basis.conj().T @ splitting.defect.domain.basis
    return np.vstack([traces.trace0 @ xn, traces.trace1 @ xn])


def boundary_preimage(traces: TraceData, splitting: Splitting, uv) -> np.ndarray:
    """The unique defect-domain vector whose stacked traces give ``uv``.

    This inverts the trace maps on the image space; the inverse is an
    isometry from the image G-space onto the defect domain with its
    positive inner product.
    """
    target = np.asarray(uv, dtype=np.complex128).reshape(-1)
    k = traces.boundary_dim
    if target.shape[0] != 2 * k:
        raise DimensionMismatch("boundary value has the wrong length")
    stacked = defect_trace_matrix(traces, splitting)
    coeffs, *_ = np.linalg.lstsq(stacked, target, rcond=None)
    if np.linalg.norm(stacked @ coeffs - target) > 1e-8 * max(
        1.0, np.linalg.norm(target)
    ):
        raise DomainError("value does not lie in the trace image")
    return splitting.defect.domain.basis @ coeffs


def restricted_eigenpairs(op: OperatorWithDomain):
    """Eigenvalues of T as an operator on its domain, with eigenspaces.

    A pair (lam, x) qualifies when x lies in the domain and M x = lam x;
    candidates come from the domain compression of the matrix and are kept
    when the full-space eigen equation holds on the candidate space.
    """
    b = op.domain.basis
    d = b.shape[1]
    if d == 0:
        return []
    compressed = b.conj().T @ op.matrix @ b
    perp = null_space(b.conj().T)  # basis of the domain's orthocomplement
    leak = perp.conj().T @ op.matrix @ b if perp.shape[1] else None
    values = np.linalg.eigvals(compressed)
    pairs = []
    used: list[complex] = []
    scale = 1.0 + float(np.max(np.abs(values), initial=0.0))
    compressed_norm = float(np.linalg.norm(compressed, 2))
    for lam in values:
        if any(abs(lam - mu) <= 1e-8 * scale for mu in used):
            continue
        rows = [compressed - lam * np.eye(d)]
        if leak is not None:
            rows.append(leak)
        eig_scale = 1.0 + abs(lam) + compressed_norm
        coeffs = null_space(np.vstack(rows), 1e-10, scale=eig_scale)
        if coeffs.shape[1] == 0:
            continue
        used.append(complex(lam))
        # orthonormal columns times orthonormal coefficients
        pairs.append((complex(lam), Subspace(op.space.dim, b @ coeffs, op.tol)))
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
                         pair: BoundaryPair) -> RealSpectrumReport:
    """Check that real eigenvalues of T are exactly those of its symmetric
    part, with matching eigenspaces, and that the boundary-pair identity
    2 Im(lam) [x, x] = |G x|_E^2 holds on every eigenpair."""
    notes: list[str] = []
    pairs_op = restricted_eigenpairs(op)
    pairs_sym = restricted_eigenpairs(sym)
    scale = 1.0 + max(
        [abs(l) for l, _ in pairs_op + pairs_sym], default=0.0
    )
    real_op = [(l, s) for l, s in pairs_op if abs(l.imag) <= 1e-8 * scale]
    real_sym = [(l, s) for l, s in pairs_sym if abs(l.imag) <= 1e-8 * scale]

    value_mismatch = 0.0
    subspace_gap = 0.0
    matched = True
    for lam, space in real_op:
        close = [(mu, s) for mu, s in real_sym if abs(mu - lam) <= 1e-8 * scale]
        if not close:
            matched = False
            notes.append(f"real eigenvalue {lam:.6g} of T missing from S")
            continue
        mu, s_space = min(close, key=lambda t: abs(t[0] - lam))
        value_mismatch = max(value_mismatch, abs(mu - lam))
        subspace_gap = max(subspace_gap, gap_distance(space, s_space))
    for mu, _ in real_sym:
        if not any(abs(mu - lam) <= 1e-8 * scale for lam, _ in real_op):
            matched = False
            notes.append(f"real eigenvalue {mu:.6g} of S missing from T")

    identity_residual = 0.0
    j = op.space.J
    for lam, space in pairs_op:
        for idx in range(space.dim):
            x = space.basis[:, idx]
            lhs = 2.0 * lam.imag * float(np.vdot(x, j @ x).real)
            rhs = pair.inner(x, x).real
            identity_residual = max(identity_residual, abs(lhs - rhs))

    kernel_gap = gap_distance(pair.kernel(), sym.domain)
    passed = (
        matched
        and subspace_gap <= 1e-8
        and identity_residual <= 1e-6 * scale
        and kernel_gap <= 1e-8
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
