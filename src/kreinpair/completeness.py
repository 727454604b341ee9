"""Equivalent characterizations of completeness of the trace-image space.

For a dissipative operator the image of its graph under the trace maps is
a positive subspace of the doubled boundary space.  Three conditions are
implemented and cross-checked, each as a continuous margin from its own
factorisation: the smallest eigenvalue of the image Gram operator, one minus
the norm of the angular-operator quotient, and the smallest principal angle
behind the pair of range-decomposition identities that the image induces
between the two boundary coordinates.  In finite dimension all three hold on
every well-conditioned instance and they must always agree; on nearly
degenerate families the three margins degrade together and the verdicts flip
at the same cut.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundary import TraceData, build_boundary_triple, restrict_triple
from .decomposition import Splitting, split
from .errors import ClassificationError, PipelineError
from .krein import NEITHER, OperatorWithDomain
from .tolerances import CRITERION_TOL, INJECTIVITY_CUT, negligible

__all__ = [
    "GramPositivity",
    "ContractionBound",
    "RangeSplitting",
    "CriterionReport",
    "uniform_positivity",
    "contraction_bound",
    "range_splitting",
    "criterion_report",
]


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
    """Both range identities hold exactly when ``margin``, the sine of the
    smallest principal angle between the trace image and its orthocomplement
    turned by the boundary symmetry, is positive; in exact arithmetic it
    equals the smallest image-Gram eigenvalue."""

    ok: bool
    margin: float


@dataclass(frozen=True)
class CriterionReport:
    positivity: GramPositivity
    contraction: ContractionBound
    range_split: RangeSplitting
    agree: bool

    @property
    def all_true(self) -> bool:
        return self.positivity.ok and self.contraction.ok and self.range_split.ok


def uniform_positivity(image_gram: np.ndarray) -> GramPositivity:
    """Smallest Gram eigenvalue against the criterion cut, at scale 1: the
    Gram compresses a unitary to an orthonormal basis, and its smallest
    eigenvalue is ``(1 - k^2) / (1 + k^2)`` for the contraction norm k.

    A trivial image is vacuously complete.
    """
    if image_gram.shape[0] == 0:
        return GramPositivity(ok=True, smallest=None, largest=None)
    eigs = np.linalg.eigvalsh(image_gram)
    smallest, largest = float(eigs[0]), float(eigs[-1])
    return GramPositivity(
        ok=smallest > CRITERION_TOL,
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
    if negligible(s[-1], INJECTIVITY_CUT, s[0]):
        raise PipelineError("trace1 + i trace0 is not injective on the defect graph")
    _, r = np.linalg.qr(plus)
    quotient = minus @ np.linalg.inv(r)
    norm = float(np.linalg.norm(quotient, 2))
    return ContractionBound(ok=norm < 1.0 - CRITERION_TOL, norm=norm)


def range_splitting(traces: TraceData) -> RangeSplitting:
    """The two range-decomposition identities, as one principal angle.

    With the image basis ``[A; C]`` (trace0 over trace1 rows) and a basis
    ``[P; R]`` of its orthocomplement, ``K = mul Q = A ker C`` and
    ``Q* = {(-P s, R s)}`` for ``Q = {(t1 x, t0 x)}``, so ``ran P = K^perp``.
    The first identity says ``[C, P]`` is onto C^k, the second that
    ``[A, -R]`` maps its kernel onto C^k: both hold exactly when
    ``M = [[A, -R], [C, P]]`` is nonsingular.  The columns of M span the image
    and ``Omega image^perp`` (the boundary metric is ``i Omega``), so the
    margin ``sigma sqrt(2 - sigma^2)``, ``sigma = sigma_min(M)``, is the sine
    of their smallest principal angle (Bjorck & Golub 1973).  ``[P; R]`` is
    the trailing columns of the complete Householder QR of the image basis:
    its columns are orthonormal, so its rank is their count, with no cut.
    """
    k = traces.boundary_dim
    if k == 0:
        return RangeSplitting(ok=True, margin=1.0)
    q = traces.image.basis
    perp = np.linalg.qr(q, mode="complete")[0][:, q.shape[1]:]
    a, c = q[:k], q[k:]
    p, r = perp[:k], perp[k:]
    sigma = float(np.linalg.svd(np.block([[a, -r], [c, p]]), compute_uv=False)[-1])
    margin = float(sigma * np.sqrt(2.0 - sigma * sigma))
    return RangeSplitting(ok=margin > CRITERION_TOL, margin=margin)


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
        triple = build_boundary_triple(splitting.symmetric)
        traces = restrict_triple(triple, op, splitting.defect.domain)
    else:
        splitting, traces = pieces
    positivity = uniform_positivity(traces.image_gram)
    contraction = contraction_bound(traces, splitting.defect)
    ranges = range_splitting(traces)
    agree = positivity.ok == contraction.ok == ranges.ok
    return CriterionReport(
        positivity=positivity,
        contraction=contraction,
        range_split=ranges,
        agree=agree,
    )
