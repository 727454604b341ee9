"""Full pipeline orchestration and machine-readable reports.

Runs the complete chain for one operator: classification, splitting,
boundary triple, deficiency data, both boundary-map constructions, the
completeness criteria and the real-spectrum comparison, and collects the
cross-check residuals into one dictionary with JSON-safe values only.

Each object is computed once: the eigenvalues of the Riesz representer F,
gated by ``0 <= F <= I`` as ``checks.riesz_form_bounds``, are the graph
spectrum that :func:`~kreinpair.krein.classify_by_graph` reads, and the
completeness criteria read the trace image of the traces alone.

Of the four special cases of :class:`~kreinpair.krein.OperatorWithDomain`,
(1) the identity basis, (2) the Frobenius-first check of J, (3) the eig
worker and (4) ``BandedOperator.operator()``, this module holds (3).  The
two ``eig`` calls of the real-spectrum check, of T's and of S's domain
compression, are the largest single stage, yet T's needs only T and S's
only the splitting.  :func:`analyze_operator` therefore runs them on a
worker thread of its own, T's from right after the classification and
S's from the split, taken before :func:`build_pipeline`, and reads them
last, so that they overlap the rest of the analysis; queued after
:func:`build_pipeline`, S's would be waited for.

* **Only the LAPACK call runs on the worker.**  The compression is formed
  and frozen on the calling thread; the worker gets that array and
  ``np.linalg.eig``, which releases the interpreter lock while LAPACK runs.
  The Python around it (clustering, residuals, eigenspaces) stays on the
  calling thread: on the worker it would hold the lock and make the
  calling thread wait for it, up to the interpreter's switch interval
  (5 ms by default) at a time.
* **Only a lock-releasing call may go to the worker.**  In numpy 2.4.6,
  ``eig``, ``eigh``, ``qr`` and the full ``svd`` release the lock, while
  ``eigvals``, ``eigvalsh`` and ``svd(compute_uv=False)``, and so
  ``norm(., 2)``, hold it through LAPACK.  On two cores, two threads
  sharing the calls of one of the former take about half to two thirds of
  one thread's time, and of the latter as long or longer.  So the worker
  keeps ``eig``: an ``eigvals`` there, with vectors fetched only for the
  real candidates, would run serially with the calling thread.
* **The reports are bit-identical.**  The worker makes the same LAPACK call
  on the same array as the serial path, with the same BLAS settings, and
  :func:`~kreinpair.boundary.real_spectrum_report` takes the result
  through ``eigs=`` and does everything else as before.
* **Size gate.**  A compression is handed over only when its dimension is at
  least ``_OFFLOAD_MIN_DIM`` = 64 and the process may use two CPUs or more.
  On ``random_dissipative(n, default_rng(1))`` with single-threaded BLAS,
  the hand-over costs more than the overlap saves below n = 32 and breaks
  even at n = 32, so 64 is the smallest size that gains.
* **No work outlives the call**: the worker belongs to the call.  It is
  started only when T's compression passes the gate, and on the way out
  ``shutdown(cancel_futures=True)`` cancels an eig the worker has not begun
  and awaits one it has, then joins the thread.  No thread, lock or executor
  is shared between calls.
"""

from __future__ import annotations

import os
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .boundary import (
    BoundaryPair,
    BoundaryTriple,
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
from .errors import checked_seed
from .krein import NEITHER, OperatorWithDomain, classify_by_graph
from .subspaces import Subspace, gap_distance
from .tolerances import CHECK_GATE, INDEFINITE_CUT

__all__ = ["PipelineResult", "build_pipeline", "analyze_operator"]

# the smallest compression dimension whose eig goes to the worker, measured
# as the module docstring says
_OFFLOAD_MIN_DIM = 64

def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _submit_eig(pool: ThreadPoolExecutor | None,
                op: OperatorWithDomain) -> Future | None:
    """Start ``np.linalg.eig`` of the domain compression of ``op`` on the
    worker ``pool`` of the call; None without a pool or when the
    compression is too small to gain.

    The compression is formed here, on the calling thread, and frozen: the
    worker reads one array and runs one LAPACK call, touching no cached
    property of ``op``."""
    if pool is None or op.domain.dim < _OFFLOAD_MIN_DIM:
        return None
    compression = op.coords(op._image)
    compression.flags.writeable = False
    # np.linalg.eig is looked up now, so a patched or traced eig is the one run
    return pool.submit(np.linalg.eig, compression)


@dataclass(frozen=True)
class PipelineResult:
    deficiency: DeficiencyData
    resolvent_domain: Subspace
    triple: BoundaryTriple
    pair_projection: BoundaryPair
    pair_resolvent: BoundaryPair
    criterion: CriterionReport


def build_pipeline(op: OperatorWithDomain, splitting: Splitting) -> PipelineResult:
    """Every stage after the split, on ``splitting = split(op)``."""
    triple = build_boundary_triple(splitting.symmetric)
    defi = deficiency_space(triple, op)
    resolvent_domain = defect_domain_via_resolvent(op, defi)
    traces = restrict_triple(triple, op, splitting.defect.domain)
    pair_proj = boundary_map_projection(op, splitting)
    pair_res = boundary_map_resolvent(op, defi, splitting)
    criterion = criterion_report(op, traces=traces)
    return PipelineResult(
        deficiency=defi,
        resolvent_domain=resolvent_domain,
        triple=triple,
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
    """Full report for one operator; no check draws random numbers, so
    ``seed`` is only validated and echoed.

    The real-spectrum check comes last, so that its two ``eig`` calls,
    started on the call's worker as soon as their inputs exist, overlap the
    rest (see the module docstring).  The first exception propagates unchanged;
    a bad ``seed`` raises ``DimensionMismatch`` before any work.
    """
    seed = checked_seed(seed)
    classification = op.classify()
    if classification == NEITHER:
        return {
            "classification": classification,
            "finding": "not dissipative",
            "seed": seed,
            "checks": {"dissipative": False},
        }
    # S's domain lies in T's, so without a worker for T there is none for S
    pool = None
    if op.domain.dim >= _OFFLOAD_MIN_DIM and _usable_cpus() >= 2:
        pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="kreinpair-eig")
    try:
        eig_op = _submit_eig(pool, op)
        splitting = split(op)
        sym = splitting.symmetric
        eig_sym = _submit_eig(pool, sym)
        result = build_pipeline(op, splitting)
        green_pair = pair_green_residual(result.pair_projection, op)
        green_triple = result.triple.green_residual
        map_gap = _map_gap(result.pair_projection, result.pair_resolvent)
        splitting_gap = gap_distance(splitting.defect.domain, result.resolvent_domain)
        riesz = op.graph_spectrum if op.domain.dim else np.zeros(1)
        routes_agree = (classify_by_graph(op) == classification
                        and classify_by_graph(sym) == sym.classify())
        eigs = tuple(None if f is None else f.result() for f in (eig_op, eig_sym))
        spectrum = real_spectrum_report(op, sym, result.pair_projection, eigs=eigs)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
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
        "riesz_form_bounds": bool(riesz[0] >= -INDEFINITE_CUT * op.tol
                                  and riesz[-1] <= 1.0 + CHECK_GATE),
    }
    return {
        "classification": classification,
        "dims": {
            "space": op.space.dim,
            "domain": op.domain.dim,
            "symmetric_part": sym.domain.dim,
            "defect_part": splitting.defect.domain.dim,
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
        "riesz": {"min_eigenvalue": float(riesz[0]),
                  "graph_norm": float(np.max(np.abs(riesz)))},
        "seed": seed,
        "checks": checks,
    }
