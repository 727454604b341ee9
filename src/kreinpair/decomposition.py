"""Splitting of a dissipative operator into symmetric and defect parts.

The symmetric part lives on the kernel of the dissipation form, the defect
part on its graph-orthogonal complement inside the domain.  The defect
domain can be recomputed independently through the resolvent-type formula
``(JT + iI)^{-1}(deficiency cap range)``; the two routes are kept separate
so they can cross-check each other.  The deficiency subspace comes from the
boundary triple of the symmetric part, and the one SVD of ``(JT + iI)``
on the domain serves every later use of that matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ClassificationError, DomainError, PipelineError
from .krein import NEITHER, SYMMETRIC, OperatorWithDomain
from .subspaces import (
    Subspace,
    gap_distance,
    intersect,
    null_space,
    orthonormal_span,
)
from .tolerances import CHECK_GATE, negligible

if TYPE_CHECKING:
    from .boundary import BoundaryTriple

__all__ = [
    "Splitting",
    "DeficiencyData",
    "symmetric_part",
    "dissipative_part",
    "split",
    "graph_orthocomplement_within",
    "deficiency_space",
    "defect_domain_via_resolvent",
    "defect_inner",
]


@dataclass(frozen=True)
class Splitting:
    """Componentwise orthogonal decomposition T = S (+) N in graph norm."""

    symmetric: OperatorWithDomain
    defect: OperatorWithDomain
    defect_gram: np.ndarray  # dissipation form on defect-domain coordinates


@dataclass(frozen=True)
class DeficiencyData:
    """Deficiency subspace of the symmetric part and the attached projector.

    ``projector`` is the orthogonal projector, in the Hilbert product
    ``[x, J y]`` (Euclidean in these coordinates), onto the intersection of
    the deficiency subspace with the range of ``JT + iI``.  ``shifted_svd``
    is the thin SVD ``(U, s, Vh)`` of ``(JT + iI) B`` for the domain basis
    B; ``resolvent_range`` is spanned by U.
    """

    deficiency: Subspace
    resolvent_range: Subspace
    intersection: Subspace
    projector: np.ndarray
    shifted_svd: tuple[np.ndarray, np.ndarray, np.ndarray]


def symmetric_part(op: OperatorWithDomain) -> OperatorWithDomain:
    """Restriction of T to the kernel of the dissipation form."""
    if op.classify() == NEITHER:
        raise ClassificationError("symmetric part needs a dissipative operator")
    result = op.restricted(op.form_kernel)
    if result.classify() != SYMMETRIC:
        raise PipelineError("restriction to the form kernel is not symmetric")
    return result


def graph_orthocomplement_within(op: OperatorWithDomain,
                                 sub: Subspace) -> Subspace:
    """Orthocomplement of ``sub`` inside the domain, in the graph product."""
    b = op.domain.basis
    coords = b.conj().T @ sub.basis
    rows = coords.conj().T @ op.graph_gram
    # orthonormal basis times orthonormal coefficients
    return Subspace(op.space.dim, b @ null_space(rows, op.tol), op.tol)


def dissipative_part(op: OperatorWithDomain,
                     sym: OperatorWithDomain) -> OperatorWithDomain:
    """Restriction of T to the graph-orthogonal complement of the symmetric
    domain; together with the symmetric part it sums componentwise to T."""
    if gap_distance(sym.domain, op.form_kernel) > CHECK_GATE:
        raise PipelineError("inconsistent symmetric part")
    domain = graph_orthocomplement_within(op, sym.domain)
    if domain.dim + sym.domain.dim != op.domain.dim:
        raise PipelineError("graph-orthogonal split has the wrong dimensions")
    return op.restricted(domain)


def split(op: OperatorWithDomain) -> Splitting:
    sym = symmetric_part(op)
    defect = dissipative_part(op, sym)
    bn = defect.domain.basis
    gram = bn.conj().T @ op.dissipation_matrix @ bn
    gram = 0.5 * (gram + gram.conj().T)
    if gram.shape[0]:
        eigs = np.linalg.eigvalsh(gram)
        if eigs[0] <= 0 or negligible(eigs[0], op.tol, np.max(np.abs(eigs))):
            raise PipelineError("dissipation form is degenerate on the defect domain")
    return Splitting(symmetric=sym, defect=defect, defect_gram=gram)


def deficiency_space(triple: BoundaryTriple,
                     op: OperatorWithDomain) -> DeficiencyData:
    """Deficiency subspace at +i of the symmetric part's adjoint.

    The subspace is the triple's ``defect_plus``, intersected with the range
    of ``JT + iI`` over the domain of T.  ``JT`` is dissipative in the
    Hilbert product, so ``JT + iI`` is bounded below by 1 on the domain; a
    small minimal singular value therefore signals a dissipativity
    violation upstream.
    """
    n_plus = triple.defect_plus
    b = op.domain.basis
    shifted = op.space.J @ op.matrix @ b + 1j * b
    u, s, vh = np.linalg.svd(shifted, full_matrices=False)
    if s.size and s[-1] < 0.5:
        raise PipelineError(
            f"JT + iI is nearly singular on the domain (sigma_min = {s[-1]:.3e})"
        )
    rng = Subspace(op.space.dim, u, op.tol)
    meet = intersect(n_plus, rng)
    return DeficiencyData(
        deficiency=n_plus,
        resolvent_range=rng,
        intersection=meet,
        projector=meet.projector(),
        shifted_svd=(u, s, vh),
    )


def defect_domain_via_resolvent(op: OperatorWithDomain,
                                defi: DeficiencyData) -> Subspace:
    """Preimage of the deficiency intersection under ``JT + iI``.

    The intersection lies in the range of ``JT + iI`` on the domain, which
    is injective there, so the preimage is the solve through its SVD.
    """
    u, s, vh = defi.shifted_svd
    coeffs = vh.conj().T @ ((u.conj().T @ defi.intersection.basis) / s[:, None])
    return orthonormal_span(op.domain.basis @ coeffs, op.space.dim, op.tol)


def defect_inner(splitting: Splitting, x, y) -> complex:
    """The positive inner product carried by the defect domain.

    Equals the dissipation form of the original operator; both arguments
    must lie in the defect domain.
    """
    domain = splitting.defect.domain
    xv = np.asarray(x, dtype=np.complex128).reshape(-1)
    yv = np.asarray(y, dtype=np.complex128).reshape(-1)
    for v in (xv, yv):
        if not domain.contains(v):
            raise DomainError("defect inner product needs defect-domain vectors")
    return complex(np.vdot(xv, splitting.defect.dissipation_matrix @ yv))
