"""Finite-dimensional boundary pairs of dissipative operators in Krein spaces."""

from .errors import (
    ClassificationError,
    DimensionMismatch,
    KreinPairError,
    MetricError,
    PipelineError,
    ScaleOverflow,
)
from .subspaces import (
    DEFAULT_TOL,
    Subspace,
    gap_distance,
    orthonormal_span,
)
from .krein import (
    KreinSpace,
    OperatorWithDomain,
)
from .decomposition import (
    DeficiencyData,
    Splitting,
    defect_domain_via_resolvent,
    deficiency_space,
    dissipative_part,
    split,
    symmetric_part,
)
from .boundary import (
    BoundaryPair,
    BoundaryTriple,
    TraceData,
    boundary_map_projection,
    boundary_map_resolvent,
    build_boundary_triple,
    pair_green_residual,
    real_spectrum_report,
    restrict_triple,
)
from .completeness import (
    CriterionReport,
    contraction_bound,
    criterion_report,
    range_splitting,
    uniform_positivity,
)

__version__ = "0.1.0"
