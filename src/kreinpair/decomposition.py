"""Splitting of a dissipative operator into symmetric and defect parts.

The symmetric part lives on the kernel of the dissipation form, the defect
part on its graph-orthogonal complement inside the domain.  The defect
domain can be recomputed independently through the resolvent-type formula
``(JT + iI)^{-1}(deficiency cap range)``; the two routes are kept separate
so they can cross-check each other.  The deficiency subspace comes from the
boundary triple of the symmetric part, and the one complete Householder QR
of ``(JT + iI)B`` on the domain basis B, whose singular values are all at
least 1, serves every later use of that matrix: its trailing columns meet
N+ in the intersection, its leading ones and R solve the resolvent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ClassificationError, PipelineError
from .krein import NEITHER, SYMMETRIC, OperatorWithDomain
from .subspaces import Subspace, null_space, qr_span
from .tolerances import negligible

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
]


@dataclass(frozen=True)
class Splitting:
    """Componentwise orthogonal decomposition T = S (+) N in graph norm."""

    symmetric: OperatorWithDomain
    defect: OperatorWithDomain
    defect_gram: np.ndarray  # dissipation form on defect-domain coordinates


@dataclass(frozen=True)
class DeficiencyData:
    """Deficiency subspace of the symmetric part and its ``intersection``
    with the range of ``JT + iI``.  ``shifted_qr`` is the reduced QR
    ``(Q, R)`` of ``(JT + iI) B`` for the domain basis B, the leading part
    of the complete QR that :func:`deficiency_space` takes: Q spans that
    range, and R is invertible, since every singular value is at least 1.
    """

    deficiency: Subspace
    intersection: Subspace
    shifted_qr: tuple[np.ndarray, np.ndarray]


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
    """Orthocomplement of ``sub`` inside the domain, in the graph product.

    In domain coordinates it is the Euclidean orthocomplement of the range
    of ``G K``, with G the graph Gram and K the orthonormal coordinates of
    ``sub``: the trailing columns of a complete Householder QR of ``G K``.
    No rank decision is needed: ``G >= I``, so every singular value of
    ``G K`` is at least 1 and its rank is ``sub.dim``, however large T is.
    """
    if sub.is_zero:  # the whole domain, found without G, which may overflow
        return op.domain
    gk = op.graph_gram @ op.coords(sub.basis)
    q = np.linalg.qr(gk, mode="complete")[0]
    # orthonormal basis times orthonormal coefficients
    return Subspace(op.space.dim, op.lift(q[:, gk.shape[1]:]))


def dissipative_part(op: OperatorWithDomain) -> OperatorWithDomain:
    """Restriction of T to the graph-orthogonal complement of the form
    kernel, the domain of :func:`symmetric_part`; together with the
    symmetric part it sums componentwise to T.  A non-dissipative T raises
    :class:`ClassificationError`, as :func:`symmetric_part` does."""
    if op.classify() == NEITHER:
        raise ClassificationError("dissipative part needs a dissipative operator")
    return op.restricted(graph_orthocomplement_within(op, op.form_kernel))


def split(op: OperatorWithDomain) -> Splitting:
    sym = symmetric_part(op)
    defect = dissipative_part(op)
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
    Hilbert product, ``|(JT + i)x|^2 = |JTx|^2 + |x|^2 + form(x, x)``, so
    ``JT + iI`` is bounded below by 1 on the domain (Behrndt, Hassi & de
    Snoo 2020): the complete Householder QR of ``(JT + iI) B`` spans its
    range with its leading d columns Q, with no rank decision, and its
    orthocomplement with the trailing n - d columns Q_perp.

    With Qp the basis of N+, the singular values of ``Q_perp* Qp`` are the
    sines of the principal angles between N+ and the range (Bjorck & Golub
    1973), read from the range's complement: an (n - d) x dim N+ matrix.
    Its null space gives the coefficients in Qp of the directions at sine
    zero, the intersection.  Both bases are orthonormal, so the matrix has
    norm at most 1 and its rank is cut at scale 1.  On the whole space
    (d = n) the range is all of C^n and the matrix has no rows: the
    intersection is N+ itself, with no SVD.
    """
    n_plus = triple.defect_plus
    b = op.domain.basis
    shifted = op.space.J @ op._image + 1j * b
    d = b.shape[1]
    q, r = np.linalg.qr(shifted, mode="complete")
    qp = n_plus.basis
    sines = q[:, d:].conj().T @ qp
    # orthonormal basis times orthonormal coefficients
    meet = Subspace(op.space.dim, qp @ null_space(sines, op.tol, scale=1.0))
    return DeficiencyData(deficiency=n_plus, intersection=meet,
                          shifted_qr=(q[:, :d], r[:d]))


def defect_domain_via_resolvent(op: OperatorWithDomain,
                                defi: DeficiencyData) -> Subspace:
    """Preimage of the deficiency intersection under ``JT + iI``.

    The intersection lies in the range of ``JT + iI`` on the domain, which
    is injective there, so the preimage is the solve through the R of its
    QR.  An injective map keeps the dimension, so the basis is the reduced
    Householder QR of the preimage, with no rank decision.
    """
    q, r = defi.shifted_qr
    coeffs = np.linalg.solve(r, q.conj().T @ defi.intersection.basis)
    return qr_span(op.lift(coeffs))

