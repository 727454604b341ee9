"""Equivalent characterizations of completeness of the trace-image space.

For a dissipative operator the image of its graph under the trace maps is
a positive subspace of the doubled boundary space.  Three conditions are
implemented and cross-checked: uniform positivity of the image Gram
operator, a strict contraction bound for the angular-operator quotient,
and a pair of range-decomposition identities phrased through the relation
that the image induces between the two boundary coordinates.  In finite
dimension all three hold on every well-conditioned instance and they must
always agree; the interesting behaviour is how they degrade together on
nearly degenerate families.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundary import TraceData, build_boundary_triple, restrict_triple
from .decomposition import (
    Splitting,
    graph_orthocomplement_within,
    split,
)
from .errors import ClassificationError, PipelineError
from .krein import NEITHER, OperatorWithDomain
from .subspaces import (
    LinearRelation,
    Subspace,
    gap_distance,
    intersect,
    null_space,
    orthonormal_span,
    ortho_complement,
    relation_adjoint,
    relation_difference,
    relation_restrict,
    subspace_sum,
)

__all__ = [
    "GramPositivity",
    "ContractionBound",
    "RangeSplitting",
    "CriterionReport",
    "QuotientSplit",
    "split_by_second_trace",
    "trace_quotient",
    "uniform_positivity",
    "contraction_bound",
    "range_splitting",
    "criterion_report",
]

#: shared relative threshold for all three conditions; also used for the
#: rank decisions inside them, so the equivalence test stays meaningful even
#: when the operator itself carries a stricter rank tolerance
CRITERION_TOL = 1e-10
#: shared gap threshold for the subspace equalities
CRITERION_GAP = 1e-8


def _trace_scale(traces: TraceData) -> float:
    stacked = np.vstack([traces.trace0, traces.trace1])
    if stacked.size == 0:
        return 1.0
    return float(np.linalg.norm(stacked, 2))


@dataclass(frozen=True)
class GramPositivity:
    ok: bool
    smallest: float | None
    largest: float | None


@dataclass(frozen=True)
class ContractionBound:
    ok: bool
    norm: float


@dataclass(frozen=True)
class RangeSplitting:
    ok: bool
    gap_sum: float
    gap_difference: float


@dataclass(frozen=True)
class CriterionReport:
    positivity: GramPositivity
    contraction: ContractionBound
    range_split: RangeSplitting
    agree: bool

    @property
    def all_true(self) -> bool:
        return self.positivity.ok and self.contraction.ok and self.range_split.ok


@dataclass(frozen=True)
class QuotientSplit:
    """Split of T along the kernel of the second trace, with the induced
    boundary relation from second-trace values to first-trace values.

    The inverse of ``quotient`` is the trace image of the complement part
    viewed as a relation, hence closed; it is an operator exactly when the
    kernel of the first trace meets the complement trivially.
    """

    kernel_restriction: OperatorWithDomain
    complement_restriction: OperatorWithDomain
    quotient: LinearRelation | None
    quotient_adjoint: LinearRelation | None


def split_by_second_trace(traces: TraceData, op: OperatorWithDomain):
    """T restricted to ker(trace1) and to its graph-orthogonal complement."""
    b = traces.domain_basis
    scale = max(1.0, _trace_scale(traces))
    coeffs = null_space(traces.trace1, CRITERION_TOL, scale=scale)
    kernel_domain = orthonormal_span(b @ coeffs, op.space.dim, CRITERION_TOL,
                                     scale=1.0)
    kernel_op = op.restricted(kernel_domain)
    complement_op = op.restricted(graph_orthocomplement_within(op, kernel_domain))
    return kernel_op, complement_op


def trace_quotient(traces: TraceData, op: OperatorWithDomain) -> QuotientSplit:
    kernel_op, complement_op = split_by_second_trace(traces, op)
    k = traces.boundary_dim
    if k == 0:
        return QuotientSplit(kernel_op, complement_op, None, None)
    xc = traces.domain_basis.conj().T @ complement_op.domain.basis
    t0c = traces.trace0 @ xc
    t1c = traces.trace1 @ xc
    stacked = np.vstack([t1c, t0c])
    graph = orthonormal_span(stacked, 2 * k, CRITERION_TOL)
    quotient = LinearRelation(k, k, graph)
    return QuotientSplit(
        kernel_restriction=kernel_op,
        complement_restriction=complement_op,
        quotient=quotient,
        quotient_adjoint=relation_adjoint(quotient),
    )


def uniform_positivity(image_gram: np.ndarray) -> GramPositivity:
    """Smallest Gram eigenvalue against the shared relative threshold.

    A trivial image is vacuously complete.
    """
    if image_gram.shape[0] == 0:
        return GramPositivity(ok=True, smallest=None, largest=None)
    eigs = np.linalg.eigvalsh(image_gram)
    smallest, largest = float(eigs[0]), float(eigs[-1])
    return GramPositivity(
        ok=smallest > CRITERION_TOL * largest,
        smallest=smallest,
        largest=largest,
    )


def contraction_bound(traces: TraceData,
                      defect_op: OperatorWithDomain) -> ContractionBound:
    """Sup-norm of (trace1 - i trace0)(trace1 + i trace0)^{-1} on the defect
    graph; strictly below 1 exactly when the image space is uniformly
    positive."""
    xn = traces.domain_basis.conj().T @ defect_op.domain.basis
    t0n = traces.trace0 @ xn
    t1n = traces.trace1 @ xn
    if t0n.shape[1] == 0:
        return ContractionBound(ok=True, norm=0.0)
    plus = t1n + 1j * t0n
    minus = t1n - 1j * t0n
    s = np.linalg.svd(plus, compute_uv=False)
    if s[-1] <= 1e-13 * s[0]:
        raise PipelineError("trace1 + i trace0 is not injective on the defect graph")
    _, r = np.linalg.qr(plus)
    quotient = minus @ np.linalg.inv(r)
    norm = float(np.linalg.norm(quotient, 2))
    return ContractionBound(ok=norm < 1.0 - CRITERION_TOL, norm=norm)


def range_splitting(traces: TraceData, op: OperatorWithDomain,
                    quo: QuotientSplit) -> RangeSplitting:
    """The two range-decomposition identities of the boundary space.

    First: ran(trace1) plus the orthocomplement of trace0(kernel part)
    fills the boundary space.  Second: the difference of the quotient
    relation and its adjoint, acting on that orthocomplement (on the lineal
    where both are defined), together with trace0(kernel part) fills it as
    well.  Both are measured as gap distances.
    """
    k = traces.boundary_dim
    if k == 0:
        return RangeSplitting(ok=True, gap_sum=0.0, gap_difference=0.0)
    full = Subspace.full(k, CRITERION_TOL)
    scale = max(1.0, _trace_scale(traces))
    ran_t1 = orthonormal_span(traces.trace1, k, CRITERION_TOL, scale=scale)
    xs1 = traces.domain_basis.conj().T @ quo.kernel_restriction.domain.basis
    kernel_image = orthonormal_span(traces.trace0 @ xs1, k, CRITERION_TOL,
                                    scale=scale)
    complement = ortho_complement(kernel_image)
    gap_sum = gap_distance(subspace_sum(ran_t1, complement), full)

    lineal = intersect(
        intersect(quo.quotient.dom, quo.quotient_adjoint.dom), complement
    )
    diff = relation_difference(quo.quotient_adjoint, quo.quotient)
    action = relation_restrict(diff, lineal).ran
    gap_difference = gap_distance(subspace_sum(action, kernel_image), full)
    ok = gap_sum <= CRITERION_GAP and gap_difference <= CRITERION_GAP
    return RangeSplitting(ok=ok, gap_sum=gap_sum, gap_difference=gap_difference)


def criterion_report(op: OperatorWithDomain,
                     pieces: tuple[Splitting, TraceData] | None = None
                     ) -> CriterionReport:
    """Evaluate all three conditions and their agreement for one operator.

    Disagreement never reflects the underlying equivalence failing; it
    flags an implementation or tolerance problem, so callers should treat
    ``agree=False`` as a hard failure.
    """
    if op.classify() == NEITHER:
        raise ClassificationError("completeness criteria need a dissipative operator")
    if pieces is None:
        splitting = split(op)
        triple = build_boundary_triple(splitting.symmetric, op)
        traces = restrict_triple(triple, op)
    else:
        splitting, traces = pieces
    quo = trace_quotient(traces, op)
    positivity = uniform_positivity(traces.image_gram)
    contraction = contraction_bound(traces, splitting.defect)
    ranges = range_splitting(traces, op, quo)
    agree = positivity.ok == contraction.ok == ranges.ok
    return CriterionReport(
        positivity=positivity,
        contraction=contraction,
        range_split=ranges,
        agree=agree,
    )
