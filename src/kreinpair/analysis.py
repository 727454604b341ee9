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
worker and (4) ``BandedOperator.operator()``, this module holds (3).  Four
tasks of a call feed nothing but its end: the ``eig`` of T's and of S's
domain compression, the largest single calls of the real-spectrum check,
and the one contract check that each boundary stage queues through
``defer``, of the triple of S
(:func:`~kreinpair.boundary.build_boundary_triple`), then of graph T, its
containment in the adjoint graph and its Green identity
(:func:`~kreinpair.boundary.restrict_triple`).  Each is made as soon as its
inputs exist, T's eig before the classification and S's at the split, and
read at the end, so that it can overlap the rest of the call.

* **One handle.**  Every task is a :class:`_Deferred`.  With a worker it is
  queued on it, and ``take_back()`` runs a task the worker has not started
  on the calling thread and keeps its value or error, with no wait;
  ``result()`` takes it back and otherwise waits for the worker's.
  Without a worker, ``take_back()`` runs it.  The serial and the threaded
  call run the same code in the same order and differ only in whether the
  pool exists.  A task runs at most once, also when it raises.
* **One gate.**  A call starts a worker, before it classifies T, when dim T
  is at least ``_OFFLOAD_MIN_DIM`` = 64 and the process may use two CPUs
  or more, and then queues all four tasks on it.  On
  ``random_dissipative(n, default_rng(1))`` with single-threaded BLAS, the
  hand-over costs more than the overlap saves below n = 32 and breaks even
  at n = 32, so 64 is the smallest size that gains.  The price of the
  early start: a T that is not dissipative returns its short report only
  once the worker has finished T's eig, in 52 ms in place of 5 ms at
  n = 128 (median of 30, 2-core VM).  Without a worker that eig never
  runs.
* **A work-conserving join.**  The worker takes its queue in order, so at
  the join the calling thread waits only where it has nothing else to
  run.  The kernel gap of the boundary map, the part of the real-spectrum
  check that needs no eig, comes before the join.  Then the calling
  thread reads T's eig, which the worker began first, and forms its
  eigenpairs; takes back every check the worker has not begun; and last
  reads S's eig, the one task the worker may still be running, and forms
  its eigenpairs.  S's eig cannot be taken back instead: by the join the
  worker has begun it.
* **Error order, by construction.**  The checks are read in the ``finally``
  of the stages that follow the split, in pipeline order; a check taken
  back at the join keeps its error for that read.  So the first failing
  check is raised in place of any error of a later stage, the eigs and
  their eigenpairs among them, with the type and message it has on either
  path, and a call that fails before a task is read never runs it on this
  thread.
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
* **The reports are bit-identical.**  The worker makes the same calls on
  the same arrays as the calling thread, with the same BLAS settings, and
  :func:`~kreinpair.boundary.real_spectrum_report` takes the eigenpairs
  that :func:`~kreinpair.boundary._eigenpairs` forms from them.
* **Memory.**  What the worker allocates adds to the process's peak even
  where nothing overlaps: with glibc each thread allocates from its own
  arena, which keeps its high-water mark.  So the checks form their blocks
  in place (:func:`~kreinpair.boundary._von_neumann_contracts`), and the
  von Neumann columns are formed on the calling thread.
* **No work outlives the call**: the worker belongs to the call.  On the way
  out ``shutdown(cancel_futures=True)`` cancels a task the worker has not
  begun and awaits one it has, then joins the thread.  No thread, lock or
  executor is shared between calls.
"""

from __future__ import annotations

import os
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import asdict

import numpy as np

from .boundary import (
    BoundaryPair,
    _eigenpairs,
    _map_kernel,
    boundary_map_projection,
    boundary_map_resolvent,
    build_boundary_triple,
    pair_green_residual,
    real_spectrum_report,
    restrict_triple,
)
from .completeness import criterion_report
from .decomposition import defect_domain_via_resolvent, deficiency_space, split
from .errors import checked_instance, checked_seed
from .krein import NEITHER, OperatorWithDomain, classify_by_graph
from .subspaces import gap_distance
from .tolerances import CHECK_GATE, INDEFINITE_CUT

__all__ = ["analyze_operator"]

# the smallest dimension of T whose call starts a worker, measured as the
# module docstring says
_OFFLOAD_MIN_DIM = 64

def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Deferred:
    """``task(*args)``, queued on the call's worker ``pool`` when there is
    one.  ``take_back()`` runs it on the calling thread unless the worker
    has started it, and keeps its value or error; ``result()`` takes it back
    and otherwise waits for the worker's.  The task runs once, and every
    ``result()`` returns or raises the same."""

    def __init__(self, pool: ThreadPoolExecutor | None, task, *args):
        self._task, self._args = task, args
        self._future = Future() if pool is None else pool.submit(task, *args)

    def take_back(self) -> None:
        """Run the task here if it has not begun; never waits or raises."""
        if self._future.cancel():  # not begun, by a worker or at all
            self._future = Future()
            try:
                self._future.set_result(self._task(*self._args))
            except BaseException as error:
                self._future.set_exception(error)

    def result(self):
        self.take_back()
        return self._future.result()


def _compression(op: OperatorWithDomain) -> np.ndarray:
    """The domain compression of ``op``, the one input of its ``eig``, formed
    on the calling thread and frozen."""
    compression = op.coords(op._image)
    compression.flags.writeable = False
    return compression


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
    queued as soon as their inputs exist, overlap the rest, as do the
    contract checks queued behind them; the join waits only when nothing is
    left to run (see the module docstring).  The
    ``criterion`` and ``real_spectrum`` blocks are the fields of their
    dataclasses, by ``asdict``, so a field's name is its key; eigenvalues
    become [re, im] pairs.  The first exception in pipeline order
    propagates unchanged, with or without the worker; an ``op`` that is no
    :class:`~kreinpair.krein.OperatorWithDomain` and a bad ``seed`` (a bool
    too) raise ``DimensionMismatch`` before any work.
    """
    checked_instance(op, OperatorWithDomain, "op")
    seed = checked_seed(seed)
    # S's domain lies in T's, so the one gate is taken on T
    pool = (ThreadPoolExecutor(max_workers=1, thread_name_prefix="kreinpair-eig")
            if op.domain.dim >= _OFFLOAD_MIN_DIM and _usable_cpus() >= 2 else None)
    deferred: list[_Deferred] = []  # the checks, in pipeline order

    def defer(check, *args):
        deferred.append(_Deferred(pool, check, *args))
        return deferred[-1]
    try:
        # np.linalg.eig is looked up now, so a patched or traced eig is the one
        # run; T's starts before the classification, which it does not need
        eig_op = _Deferred(pool, np.linalg.eig, _compression(op))
        classification = op.classify()
        if classification == NEITHER:
            return {
                "classification": classification,
                "finding": "not dissipative",
                "seed": seed,
                "checks": {"dissipative": False},
            }
        splitting = split(op)
        sym, defect = splitting.symmetric, splitting.defect.domain
        eig_sym = _Deferred(pool, np.linalg.eig, _compression(sym))
        try:
            triple = build_boundary_triple(sym, defer)
            defi = deficiency_space(triple, op)
            resolvent_domain = defect_domain_via_resolvent(op, defi)
            traces = restrict_triple(triple, op, defect, defer)
            pair = boundary_map_projection(op, splitting)
            resolvent_map = boundary_map_resolvent(op, defi)
            criterion = criterion_report(op, traces=traces)
            green_pair = pair_green_residual(pair, op)
            map_gap = _map_gap(op.coords(defect.basis), pair, resolvent_map)
            splitting_gap = gap_distance(defect, resolvent_domain)
            riesz = op.graph_spectrum if op.domain.dim else np.zeros(1)
            routes_agree = (classify_by_graph(op) == classification
                            and classify_by_graph(sym) == sym.classify())
            kernel_gap = gap_distance(_map_kernel(pair, op), sym.domain)
            # the join, in the order the worker takes its queue: T's eig,
            # which it began first, then every check it has not begun, run
            # here, and last S's eig, the one it may still be running
            pairs_op = _eigenpairs(op, eig_op.result())
            for check in deferred:
                check.take_back()
            pairs_sym = _eigenpairs(sym, eig_sym.result())
        finally:
            # the first check that fails is raised, in place of any error of
            # a later stage
            for check in deferred:
                check.result()
        green_triple = triple.green_residual
        spectrum = real_spectrum_report(op, pair, pairs_op, pairs_sym, kernel_gap)
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
        "criterion_agreement": criterion.agree,
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
            "defect_part": defect.dim,
            "deficiency_space": triple.defect_plus.dim,
            "boundary_space": pair.space_dim,
        },
        "green_residual_pair": green_pair,
        "green_residual_triple": green_triple,
        "boundary_map_gap": map_gap,
        "splitting_gap": splitting_gap,
        "kernel_gap": spectrum.kernel_gap,
        "criterion": asdict(criterion),
        "real_spectrum": real_spectrum,
        "riesz": {"min_eigenvalue": float(riesz[0]),
                  "graph_norm": float(np.max(np.abs(riesz)))},
        "seed": seed,
        "checks": checks,
    }
