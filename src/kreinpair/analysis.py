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

Behind them the worker takes the contract checks that feed nothing
downstream: the von Neumann contracts of the triple of S, whose only
outputs are a raise and ``green_residual_triple``, then the containment of
graph T in the adjoint graph and the Green identity on graph T, queued by
:func:`~kreinpair.boundary.build_boundary_triple` and
:func:`~kreinpair.boundary.restrict_triple` through ``defer``, in pipeline
order.  At k = 112 on n = 128 the first costs 14 ms, which the calling
thread no longer waits for.

* **Only lock-releasing work runs on the worker.**  In numpy 2.4.6,
  ``eig``, ``eigh``, ``qr``, the full ``svd`` and the products release the
  interpreter lock, while ``eigvals``, ``eigvalsh`` and
  ``svd(compute_uv=False)``, and so ``norm(., 2)``, hold it through LAPACK.
  On two cores, two threads sharing the calls of one of the former take
  about half to two thirds of one thread's time, and of the latter as long
  or longer.  So the worker keeps ``eig``, whose Python around it
  (clustering, residuals, eigenspaces) stays on the calling thread, and the
  checks are products and Frobenius norms.
* **The worker reads read-only arrays alone.**  Each compression, and every
  input of a check, is formed on the calling thread and frozen before it is
  queued; no task touches an operator or its cached properties.
* **Steal-back.**  The checks are joined before the eigs are read.  A check
  whose future can still be cancelled, because the worker has not started
  it, runs on the calling thread instead, so a call whose worker is still
  busy with the eigs (S of dimension 112) never waits behind its queue, and
  the rule needs no threshold.
* **Error order.**  The join is the ``finally`` of the stages that follow
  the split.  When one of them raises while a deferred check is pending or
  has failed, the first failing check in pipeline order is raised in its
  place, with the type and message the check raises without the worker.
* **The reports are bit-identical.**  The worker makes the same calls on
  the same arrays as the serial path, with the same BLAS settings, and
  :func:`~kreinpair.boundary.real_spectrum_report` takes the eigs through
  ``eigs=``.
* **Size gate.**  A compression is handed over only when its dimension is at
  least ``_OFFLOAD_MIN_DIM`` = 64 and the process may use two CPUs or more;
  the checks are handed over whenever T's is.  On
  ``random_dissipative(n, default_rng(1))`` with single-threaded BLAS, the
  hand-over costs more than the overlap saves below n = 32 and breaks even
  at n = 32, so 64 is the smallest size that gains.  Without a worker the
  same check functions run inline, in the same order.
* **Memory.**  What the worker allocates adds to the process's peak even
  where nothing overlaps: with glibc each thread allocates from its own
  arena, which keeps its high-water mark.  So the checks form their blocks
  in place (:func:`~kreinpair.boundary._von_neumann_contracts`), and the
  von Neumann columns are formed on the calling thread.
* **No work outlives the call**: the worker belongs to the call.  It is
  started only when T's compression passes the gate, and on the way out
  ``shutdown(cancel_futures=True)`` cancels a task the worker has not begun
  and awaits one it has, then joins the thread.  No thread, lock or executor
  is shared between calls.
"""

from __future__ import annotations

import os
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import asdict, dataclass

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


class _Deferred:
    """A contract check queued on the call's worker.  ``result()`` takes it
    back and runs it on the calling thread when the worker has not started
    it, and otherwise waits for the worker's value or error."""

    def __init__(self, pool: ThreadPoolExecutor, check, args: tuple):
        self._check, self._args = check, args
        self._future = pool.submit(check, *args)

    def result(self):
        if self._future.cancel():
            value = self._check(*self._args)
            self._future = Future()
            self._future.set_result(value)
        return self._future.result()


@dataclass(frozen=True)
class PipelineResult:
    resolvent_domain: Subspace
    triple: BoundaryTriple
    pair_projection: BoundaryPair
    pair_resolvent: np.ndarray  # d x d, domain coords -> domain coords
    criterion: CriterionReport


def build_pipeline(op: OperatorWithDomain, splitting: Splitting,
                   defer=None) -> PipelineResult:
    """Every stage after the split, on ``splitting = split(op)``; ``defer``
    takes the contract checks of the triple and of its restriction off the
    calling thread (:func:`~kreinpair.boundary.build_boundary_triple`)."""
    triple = build_boundary_triple(splitting.symmetric, defer)
    defi = deficiency_space(triple, op)
    resolvent_domain = defect_domain_via_resolvent(op, defi)
    traces = restrict_triple(triple, op, splitting.defect.domain, defer)
    pair_proj = boundary_map_projection(op, splitting)
    pair_res = boundary_map_resolvent(op, defi)
    criterion = criterion_report(op, traces=traces)
    return PipelineResult(
        resolvent_domain=resolvent_domain,
        triple=triple,
        pair_projection=pair_proj,
        pair_resolvent=pair_res,
        criterion=criterion,
    )


def _map_gap(xn: np.ndarray, pair: BoundaryPair, resolvent: np.ndarray) -> float:
    """``|X P - R|_2 / max(1, |P|_2)`` for the pair's map P, lifted to
    domain coordinates by the domain coordinates X of the defect basis, and
    the resolvent route's map R.  The domain basis B and the defect basis
    B X are orthonormal, so this is the gap of the two ambient maps."""
    scale = max(1.0, float(np.linalg.norm(pair.matrix, 2)))
    return float(np.linalg.norm(xn @ pair.matrix - resolvent, 2)) / scale


def analyze_operator(op: OperatorWithDomain, seed: int = 0) -> dict:
    """Full report for one operator; no check draws random numbers, so
    ``seed`` is only validated and echoed.

    The real-spectrum check comes last, so that its two ``eig`` calls,
    started on the call's worker as soon as their inputs exist, overlap the
    rest, as do the contract checks queued behind them (see the module
    docstring).  The ``criterion`` and ``real_spectrum`` blocks are the
    fields of their dataclasses, by ``asdict``, so a field's name is its
    key; eigenvalues become [re, im] pairs.  The first exception in pipeline
    order propagates unchanged, with or without the worker; a bad ``seed``
    (a bool too) raises ``DimensionMismatch`` before any work.
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
    pool, defer = None, None
    deferred: list[_Deferred] = []  # in pipeline order
    if op.domain.dim >= _OFFLOAD_MIN_DIM and _usable_cpus() >= 2:
        pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="kreinpair-eig")

        def defer(check, *args):
            deferred.append(_Deferred(pool, check, args))
            return deferred[-1]
    try:
        eig_op = _submit_eig(pool, op)
        splitting = split(op)
        sym = splitting.symmetric
        eig_sym = _submit_eig(pool, sym)
        try:
            result = build_pipeline(op, splitting, defer)
            green_pair = pair_green_residual(result.pair_projection, op)
            map_gap = _map_gap(op.coords(splitting.defect.domain.basis),
                               result.pair_projection, result.pair_resolvent)
            splitting_gap = gap_distance(splitting.defect.domain,
                                         result.resolvent_domain)
            riesz = op.graph_spectrum if op.domain.dim else np.zeros(1)
            routes_agree = (classify_by_graph(op) == classification
                            and classify_by_graph(sym) == sym.classify())
        finally:
            # joined before the eigs; the first check that fails is raised,
            # in place of any error of a later stage
            for check in deferred:
                check.result()
        green_triple = result.triple.green_residual
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
    real_spectrum = asdict(spectrum)
    for key in ("real_eigenvalues_op", "real_eigenvalues_sym"):
        real_spectrum[key] = [[v.real, v.imag] for v in real_spectrum[key]]
    return {
        "classification": classification,
        "dims": {
            "space": op.space.dim,
            "domain": op.domain.dim,
            "symmetric_part": sym.domain.dim,
            "defect_part": splitting.defect.domain.dim,
            "deficiency_space": result.triple.defect_plus.dim,
            "boundary_space": result.pair_projection.space_dim,
        },
        "green_residual_pair": green_pair,
        "green_residual_triple": green_triple,
        "boundary_map_gap": map_gap,
        "splitting_gap": splitting_gap,
        "kernel_gap": spectrum.kernel_gap,
        "criterion": asdict(result.criterion),
        "real_spectrum": real_spectrum,
        "riesz": {"min_eigenvalue": float(riesz[0]),
                  "graph_norm": float(np.max(np.abs(riesz)))},
        "seed": seed,
        "checks": checks,
    }
