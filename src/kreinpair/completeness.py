"""Equivalent characterizations of completeness of the trace-image space.

For a dissipative operator the image of its graph under the trace maps is
a positive subspace of the doubled boundary space.  Three conditions are
implemented and cross-checked, each as a continuous margin from its own
factorisation: the smallest eigenvalue of the image Gram operator, one minus
the norm of the contraction ``K = Gamma- Gamma+^-1`` of S's triple that
parametrises T (Gorbachuk & Gorbachuk, *Boundary Value Problems for Operator
Differential Equations*, 1991), and the smallest principal angle
behind the pair of range-decomposition identities that the image induces
between the two boundary coordinates.  In finite dimension all three hold on
every well-conditioned instance and they must always agree; on nearly
degenerate families the three margins degrade together and the verdicts flip
at the same cut.  All three read the trace image alone, each with one
factorisation of at most 2k - dim image columns: an ``eigvalsh`` of the
image Gram, a QR of ``Gamma+``, and the singular values of a
(2k - dim image)-square matrix built from the image's orthocomplement, which
:func:`~kreinpair.boundary.restrict_triple` keeps from the QR that gives the
image.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundary import TraceData, build_boundary_triple, restrict_triple
from .decomposition import split
from .errors import ClassificationError, checked_instance
from .krein import NEITHER, OperatorWithDomain
from .tolerances import CRITERION_TOL

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
    smallest_eigenvalue: float | None
    largest_eigenvalue: float | None


@dataclass(frozen=True)
class ContractionBound:
    ok: bool
    norm: float


@dataclass(frozen=True)
class RangeSplitting:
    """Both range identities hold exactly when ``margin``, the sine of the
    smallest principal angle between the trace image and its orthocomplement
    turned by ``Omega (u, v) = (-v, u)``, is positive; in exact arithmetic it
    equals the smallest image-Gram eigenvalue.  It is read from the
    complement side, as the smallest singular value of a
    (2k - dim image)-square matrix (:func:`range_splitting`)."""

    ok: bool
    margin: float


@dataclass(frozen=True)
class CriterionReport:
    uniform_positivity: GramPositivity
    contraction: ContractionBound
    range_splitting: RangeSplitting
    agree: bool

    @property
    def all_true(self) -> bool:
        return (self.uniform_positivity.ok and self.contraction.ok
                and self.range_splitting.ok)


def uniform_positivity(image_gram: np.ndarray) -> GramPositivity:
    """Smallest Gram eigenvalue against the criterion cut, at scale 1: the
    Gram compresses a unitary to an orthonormal basis, and its smallest
    eigenvalue is ``(1 - k^2) / (1 + k^2)`` for the contraction norm k.

    A trivial image is vacuously complete.
    """
    if image_gram.shape[0] == 0:
        return GramPositivity(ok=True, smallest_eigenvalue=None,
                              largest_eigenvalue=None)
    eigs = np.linalg.eigvalsh(image_gram)
    smallest, largest = float(eigs[0]), float(eigs[-1])
    return GramPositivity(
        ok=smallest > CRITERION_TOL,
        smallest_eigenvalue=smallest,
        largest_eigenvalue=largest,
    )


def contraction_bound(traces: TraceData) -> ContractionBound:
    """Norm of ``K = Gamma- Gamma+^-1``, below 1 exactly when the image
    space is uniformly positive.  On the image basis ``[A; C]`` (trace0 over
    trace1 rows), ``Gamma+- = C +- i A`` have ``Gamma+* Gamma+ = I + Gram``
    and ``Gamma-* Gamma- = I - Gram`` for the image Gram, which is at least
    0: Gamma+ is injective by construction, and K is ``Gamma- R^-1`` for the
    reduced QR ``Gamma+ = Q R``, of which only R is formed."""
    if traces.image is None or traces.image.dim == 0:
        return ContractionBound(ok=True, norm=0.0)
    k = traces.boundary_dim
    a, c = traces.image.basis[:k], traces.image.basis[k:]
    r = np.linalg.qr(c + 1j * a, mode="r")
    quotient = (c - 1j * a) @ np.linalg.inv(r)
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
    and ``Omega image^perp`` (the boundary metric is ``i Omega``), and it is
    nonsingular exactly when no principal angle between them is zero.

    The sines of those angles are the singular values of the part of
    ``Omega [P; R]`` outside the image, ``[P; R]* Omega [P; R] = R* P - P* R``
    on the complement's coordinates (Bjorck & Golub 1973): a
    (2k - dim image)-square matrix, k x k on a full domain, where
    ``sigma_min(M)`` needed a 2k x 2k one.  Its smallest singular value is
    the margin; it equals ``sigma sqrt(2 - sigma^2)`` for
    ``sigma = sigma_min(M)``.  ``[P; R]`` is ``traces.image_complement``,
    the trailing columns of the complete Householder QR that gave the image:
    its columns are orthonormal, so its rank is their count, with no cut.
    """
    k = traces.boundary_dim
    if k == 0:
        return RangeSplitting(ok=True, margin=1.0)
    p, r = np.split(traces.image_complement, 2)
    x = r.conj().T @ p
    margin = float(np.linalg.svd(x - x.conj().T, compute_uv=False)[-1])
    return RangeSplitting(ok=margin > CRITERION_TOL, margin=margin)


def criterion_report(op: OperatorWithDomain,
                     traces: TraceData | None = None) -> CriterionReport:
    """Evaluate all three conditions and their agreement for one operator.

    ``traces`` are T's restricted traces from
    :func:`~kreinpair.boundary.restrict_triple`; without them they are
    built from the splitting of ``op``.  Disagreement never reflects the
    underlying equivalence failing; it flags an implementation or tolerance
    problem, so callers should treat ``agree=False`` as a hard failure.  An
    ``op`` that is no :class:`~kreinpair.krein.OperatorWithDomain` raises
    ``DimensionMismatch``.
    """
    if checked_instance(op, OperatorWithDomain, "op").classify() == NEITHER:
        raise ClassificationError("completeness criteria need a dissipative operator")
    if traces is None:
        splitting = split(op)
        triple = build_boundary_triple(splitting.symmetric)
        traces = restrict_triple(triple, op, splitting.defect.domain)
    positivity = uniform_positivity(traces.image_gram)
    contraction = contraction_bound(traces)
    ranges = range_splitting(traces)
    agree = positivity.ok == contraction.ok == ranges.ok
    return CriterionReport(
        uniform_positivity=positivity,
        contraction=contraction,
        range_splitting=ranges,
        agree=agree,
    )
