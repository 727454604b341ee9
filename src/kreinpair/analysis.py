"""Full pipeline orchestration and machine-readable reports.

Runs the complete chain for one operator: classification, splitting,
boundary triple, deficiency data, both boundary-map constructions, the
completeness criteria and the real-spectrum comparison, and collects the
cross-check residuals into one dictionary with JSON-safe values only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
from .completeness import CriterionReport, criterion_report
from .decomposition import (
    DeficiencyData,
    Splitting,
    defect_domain_via_resolvent,
    deficiency_space,
    split,
)
from .errors import ClassificationError
from .krein import (
    NEITHER,
    OperatorWithDomain,
    RieszRepresenter,
    classify_by_graph,
    riesz_representer,
)
from .subspaces import Subspace, gap_distance
from .tolerances import CHECK_GATE

__all__ = ["PipelineResult", "build_pipeline", "analyze_operator"]


@dataclass(frozen=True)
class PipelineResult:
    op: OperatorWithDomain
    classification: str
    splitting: Splitting
    deficiency: DeficiencyData
    resolvent_domain: Subspace
    riesz: RieszRepresenter
    triple: BoundaryTriple
    traces: TraceData
    pair_projection: BoundaryPair
    pair_resolvent: BoundaryPair
    criterion: CriterionReport


def build_pipeline(op: OperatorWithDomain) -> PipelineResult:
    classification = op.classify()
    if classification == NEITHER:
        raise ClassificationError("operator is not dissipative")
    splitting = split(op)
    triple = build_boundary_triple(splitting.symmetric)
    defi = deficiency_space(triple, op)
    resolvent_domain = defect_domain_via_resolvent(op, defi)
    representer = riesz_representer(op)
    traces = restrict_triple(triple, op)
    pair_proj = boundary_map_projection(op, splitting)
    pair_res = boundary_map_resolvent(op, defi, splitting)
    criterion = criterion_report(op, pieces=(splitting, traces))
    return PipelineResult(
        op=op,
        classification=classification,
        splitting=splitting,
        deficiency=defi,
        resolvent_domain=resolvent_domain,
        riesz=representer,
        triple=triple,
        traces=traces,
        pair_projection=pair_proj,
        pair_resolvent=pair_res,
        criterion=criterion,
    )


def _map_gap(a: BoundaryPair, b: BoundaryPair) -> float:
    scale = max(1.0, float(np.linalg.norm(a.matrix, 2)))
    return float(np.linalg.norm(a.matrix - b.matrix, 2)) / scale


def _criterion_dict(report: CriterionReport) -> dict:
    return {
        "uniform_positivity": {
            "ok": report.positivity.ok,
            "smallest_eigenvalue": report.positivity.smallest,
            "largest_eigenvalue": report.positivity.largest,
        },
        "contraction": {
            "ok": report.contraction.ok,
            "norm": report.contraction.norm,
        },
        "range_splitting": {
            "ok": report.range_split.ok,
            "margin": report.range_split.margin,
        },
        "agree": report.agree,
    }


def analyze_operator(op: OperatorWithDomain, seed: int = 0) -> dict:
    """Full report for one operator; deterministic for a fixed seed."""
    classification = op.classify()
    if classification == NEITHER:
        return {
            "classification": classification,
            "finding": "not dissipative",
            "seed": seed,
            "checks": {"dissipative": False},
        }
    result = build_pipeline(op)
    sym = result.splitting.symmetric
    rng = np.random.default_rng(seed)
    green_pair = pair_green_residual(result.pair_projection, op, rng=rng)
    green_triple = result.triple.green_residual
    map_gap = _map_gap(result.pair_projection, result.pair_resolvent)
    splitting_gap = gap_distance(
        result.splitting.defect.domain, result.resolvent_domain
    )
    spectrum = real_spectrum_report(op, sym, result.pair_projection)
    rep = result.riesz
    f, sqrt_f = rep.matrix, rep.sqrt_matrix
    if rep.dim:
        riesz_info = {
            "min_eigenvalue": float(rep.eigenvalues[0]),
            "graph_norm": float(np.max(np.abs(rep.eigenvalues))),
            "sqrt_identity_residual": float(
                np.linalg.norm(sqrt_f @ sqrt_f - f, 2)
            ),
            "embedding_identity_residual": float(
                np.linalg.norm(f @ rep.pseudo_inverse(op.tol) @ f - f, 2)
            ),
        }
    else:
        riesz_info = {
            "min_eigenvalue": 0.0,
            "graph_norm": 0.0,
            "sqrt_identity_residual": 0.0,
            "embedding_identity_residual": 0.0,
        }
    routes_agree = (classify_by_graph(op) == classification
                    and classify_by_graph(sym) == sym.classify())
    checks = {
        "dissipative": True,
        "green_identity_pair": green_pair <= CHECK_GATE,
        "green_identity_triple": green_triple <= CHECK_GATE,
        "boundary_map_agreement": map_gap <= CHECK_GATE,
        "splitting_crosscheck": splitting_gap <= CHECK_GATE,
        "kernel_is_symmetric_domain": spectrum.kernel_gap <= CHECK_GATE,
        "criterion_agreement": result.criterion.agree,
        "real_spectrum": spectrum.passed,
        "classification_routes_agree": routes_agree,
    }
    return {
        "classification": classification,
        "dims": {
            "space": op.space.dim,
            "domain": op.domain.dim,
            "symmetric_part": sym.domain.dim,
            "defect_part": result.splitting.defect.domain.dim,
            "deficiency_space": result.deficiency.deficiency.dim,
            "boundary_space": result.pair_projection.space_dim,
        },
        "green_residual_pair": green_pair,
        "green_residual_triple": green_triple,
        "boundary_map_gap": map_gap,
        "splitting_gap": splitting_gap,
        "kernel_gap": spectrum.kernel_gap,
        "criterion": _criterion_dict(result.criterion),
        "real_spectrum": {
            "passed": spectrum.passed,
            "real_eigenvalues_op": [[v.real, v.imag] for v in spectrum.real_values_op],
            "real_eigenvalues_sym": [
                [v.real, v.imag] for v in spectrum.real_values_sym
            ],
            "value_mismatch": spectrum.value_mismatch,
            "subspace_gap": spectrum.subspace_gap,
            "identity_residual": spectrum.identity_residual,
            "kernel_gap": spectrum.kernel_gap,
            "notes": list(spectrum.notes),
        },
        "riesz": riesz_info,
        "seed": seed,
        "checks": checks,
    }
