"""Finite-dimensional boundary pairs of dissipative operators in Krein spaces."""

from .errors import (
    ClassificationError,
    DimensionMismatch,
    DomainError,
    KreinPairError,
    MetricError,
    PipelineError,
)
from .subspaces import (
    DEFAULT_TOL,
    LinearRelation,
    MetricMatrix,
    Subspace,
    eigenspace,
    gap_distance,
    intersect,
    ortho_complement,
    orthonormal_span,
    relation_adjoint,
    relation_inverse,
    relation_parts,
    subspace_sum,
)
from .krein import (
    GraphKreinSpace,
    KreinSpace,
    OperatorWithDomain,
    RieszRepresenter,
    krein_adjoint,
    riesz_representer,
)
from .decomposition import (
    DeficiencyData,
    Splitting,
    defect_domain_via_resolvent,
    defect_inner,
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
    boundary_preimage,
    build_boundary_triple,
    pair_green_residual,
    real_spectrum_report,
    restrict_triple,
    transform_pair,
)
from .completeness import (
    CriterionReport,
    contraction_bound,
    criterion_report,
    range_splitting,
    uniform_positivity,
)

__version__ = "0.1.0"
