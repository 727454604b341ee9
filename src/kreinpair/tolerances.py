"""The one tolerance policy of the package.

Every threshold of a rank decision or a check is named here once, with its
reason.  A quantity is negligible when it is at most a tolerance times the
natural scale of its object (the largest singular value of a matrix, the
norm of T on its domain, the bound 1 of a matrix built from orthonormal
bases), never an absolute floor, so verdicts do not change when T is scaled.
"""

import numpy as np

#: rank tolerance: default of ``KreinSpace(J, tol)`` and of the instance-file
#: ``tol`` key; far above round-off, far below the gaps of a posed instance
DEFAULT_TOL = 1e-10
#: gate for checks of quantities computed along different routes (report
#: residuals, subspace gaps, memberships), each losing digits to conditioning
CHECK_GATE = 1e-8
#: bound for identities exact by construction up to round-off in a few
#: products (matrix Green identities, unitarity, Cayley contraction)
EXACT_BOUND = 1e-10
#: cut of the three completeness criteria and their rank decisions; apart from
#: the operator's tolerance, since ``scaled_defect_instance`` runs at 1e-14 to
#: keep a weak defect direction on which the criteria must still flip
CRITERION_TOL = 1e-10
#: ``1 + step h / 2`` this close to zero makes the Robin ghost cell blow up
RESONANCE_CUT = 1e-12
#: slack, in units of the rank tolerance times ``|J|_2`` (squared for
#: ``J^2 - I``), of the checks that a metric J is a Hermitian involution: J is
#: read from input whose entries carry their own rounding (decimal files,
#: products with unitary frames), so its checks allow more than a rank cut
METRIC_SLACK = 10
#: slack where round-off is amplified: eigenpair identities of non-normal
#: matrices, monotone trends over refinement levels or batches
LOOSE_GATE = 1e-6


def negligible(value, tol: float, scale: float):
    """Whether ``|value|`` is at most ``tol`` times ``scale`` (elementwise)."""
    return np.abs(value) <= tol * scale
