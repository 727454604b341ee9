"""The real-spectrum ``eig`` calls on the worker of ``analyze_operator``.

``analyze_operator`` hands the LAPACK call of T's and of S's compression,
and behind them the contract checks of the triple and of graph T, to a
worker thread of its own when T is large enough; without the worker each
of the four tasks runs when it is taken back.  The reports must be the
same as with the hand-over switched off, errors must surface unchanged,
the first failing check first, with no work and no thread left behind,
every task must run once, the join must run every task the worker has not
begun before it waits for S's eig, small operators must never start a
worker, and concurrent callers and a forked child must get the sequential
reports.
"""

import contextlib
import functools
import multiprocessing
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.linalg import LinAlgError

from kreinpair import analysis, boundary
from kreinpair.analysis import analyze_operator
from kreinpair.errors import DimensionMismatch, PipelineError
from kreinpair.instances import random_dissipative, real_spectrum_instance
from kreinpair.krein import NEITHER, OperatorWithDomain

from conftest import count_svd_backed, planted_cluster_operator

WORKER = "kreinpair-eig"


@pytest.fixture
def two_cpus(monkeypatch):
    """Let the gate offload on any machine, whatever its CPU count."""
    monkeypatch.setattr(analysis, "_usable_cpus", lambda: 2)


@pytest.fixture
def eig_threads(monkeypatch):
    """Names of the threads that ran ``np.linalg.eig``, in call order."""
    names = []
    eig = np.linalg.eig

    def recorded(a):
        names.append(threading.current_thread().name)
        return eig(a)

    monkeypatch.setattr(np.linalg, "eig", recorded)
    return names


def _indefinite(rng):
    return random_dissipative(64, rng, defect=24)


def _full(rng):
    # a defect of 8 leaves S of dimension 72, so both eigs are handed over
    return random_dissipative(80, rng, defect=8, definite=True)


def _restricted(rng):
    return random_dissipative(96, rng, defect=40, domain_dim=72)


def _real_spectrum(rng):
    return real_spectrum_instance(88, rng, 24)[0]


def _clusters(rng):
    return planted_cluster_operator(72, [1, 2, 3, 4, 1, 2, 3, 4, 1, 2, 3, 4], rng)[0]


def _dense_n128(rng):
    # S of dimension 112, the largest of the dense_n128 benchmark cases
    return random_dissipative(128, rng, defect=16)


def _dense_n128_mixed(rng):
    # S of dimension 16, below the gate's 64, and the contract checks at
    # k = 112: all four tasks still go to the worker
    return random_dissipative(128, rng, defect=112)


def _dense_n128_d48(rng):
    return random_dissipative(128, rng, defect=48)


def _dense_n128_d80(rng):
    return random_dissipative(128, rng, defect=80)


# the four dense_n128 benchmark cases, d = 16, 48, 80 and 112, reach the
# join in different states of the worker's queue
@pytest.mark.parametrize("make", [_indefinite, _full, _restricted,
                                  _real_spectrum, _clusters, _dense_n128,
                                  _dense_n128_d48, _dense_n128_d80,
                                  _dense_n128_mixed],
                         ids=["indefinite", "full", "restricted",
                              "real_spectrum", "clusters", "dense_n128",
                              "dense_n128_d48", "dense_n128_d80",
                              "dense_n128_mixed"])
def test_reports_equal_with_and_without_worker(make, monkeypatch, two_cpus,
                                               eig_threads):
    op = make(np.random.default_rng(13))
    report = analyze_operator(op, seed=2)
    # T's eig always runs on the worker here; S's is queued behind it
    assert len(eig_threads) == 2 and eig_threads[0].startswith(WORKER)
    assert all(report["checks"].values()), report["checks"]

    eig_threads.clear()
    monkeypatch.setattr(analysis, "_OFFLOAD_MIN_DIM", sys.maxsize)
    same_op = make(np.random.default_rng(13))
    assert analyze_operator(same_op, seed=2) == report
    assert not any(name.startswith(WORKER) for name in eig_threads)


CHECKS = ["_von_neumann_contracts", "_graph_contracts"]


def _names(queued):
    return [name for name, *_ in queued]


@pytest.mark.parametrize("make", [_full, _dense_n128, _dense_n128_mixed],
                         ids=["full", "dense_n128", "dense_n128_mixed"])
def test_sym_eig_is_submitted_before_the_triple(make, monkeypatch, two_cpus,
                                                queued):
    events = []
    build_triple = analysis.build_boundary_triple

    def recorded_triple(sym, defer=None):
        events.append(_names(queued))
        return build_triple(sym, defer)

    monkeypatch.setattr(analysis, "build_boundary_triple", recorded_triple)
    first_classify = []
    classify = OperatorWithDomain.classify

    def recorded_classify(op):
        if not first_classify:
            first_classify.append(_names(queued))
        return classify(op)

    monkeypatch.setattr(OperatorWithDomain, "classify", recorded_classify)
    report = analyze_operator(make(np.random.default_rng(1)))
    assert all(report["checks"].values())
    # T's eig is on the worker's queue before T is classified, and S's from
    # the split on, whatever its size, not from the end of the pipeline
    assert first_classify == [["eig"]]
    assert events == [["eig", "eig"]]
    dims = report["dims"]["domain"], report["dims"]["symmetric_part"]
    assert [args[0].shape for _, args, _ in queued[:2]] == [(d, d) for d in dims]
    # then the triple's contract check and graph T's, in pipeline order,
    # each on read-only arrays alone
    assert _names(queued) == ["eig", "eig"] + CHECKS
    args = [a for _, task_args, _ in queued for a in task_args]
    assert all(isinstance(a, np.ndarray) and not a.flags.writeable for a in args)


def _fails_while_held(release):
    """Run ``analyze_operator`` on an operator whose two eigs are both
    handed over, with a planted failure; the held eig still runs when the
    call fails and must be awaited, so it is released after a while."""
    timer = threading.Timer(0.2, release.set)
    timer.start()
    try:
        with pytest.raises(PipelineError, match="planted"):
            analyze_operator(_full(np.random.default_rng(1)))
    finally:
        release.set()
        timer.join(5)


class TestErrors:
    @pytest.fixture
    def held_eig(self, monkeypatch):
        """``np.linalg.eig`` held until ``release`` is set; ``started`` is
        set once the first call has begun."""
        started, release = threading.Event(), threading.Event()
        eig = np.linalg.eig

        def slow_eig(a):
            started.set()
            assert release.wait(30)
            return eig(a)

        monkeypatch.setattr(np.linalg, "eig", slow_eig)
        yield started, release
        release.set()

    def test_error_after_submit_waits_for_the_running_eig(
            self, monkeypatch, two_cpus, queued, held_eig):
        started, release = held_eig

        def failing_deficiency(triple, op):
            # the triple's check is queued behind the eigs, and taken back
            assert started.wait(30)
            raise PipelineError("planted failure while the eig runs")

        monkeypatch.setattr(analysis, "deficiency_space", failing_deficiency)
        _fails_while_held(release)
        assert started.is_set()
        # T's eig and, since the split, S's, then the triple's check
        assert _names(queued) == ["slow_eig", "slow_eig", CHECKS[0]]
        eig_op = queued[0][2]
        assert eig_op.done() and not eig_op.cancelled()
        assert all(future.done() for *_, future in queued)

    def test_error_after_submit_cancels_the_queued_eig(
            self, monkeypatch, two_cpus, queued, held_eig):
        started, release = held_eig

        def failing_triple(sym, defer=None):
            # T's eig holds the worker, so S's is still queued
            assert started.wait(30) and len(queued) == 2
            raise PipelineError("planted failure while S's eig is queued")

        monkeypatch.setattr(analysis, "build_boundary_triple", failing_triple)
        _fails_while_held(release)
        (_, _, eig_op), (_, _, eig_sym) = queued
        assert eig_op.done() and not eig_op.cancelled()
        assert eig_sym.cancelled()
        assert _worker_threads() == []

    def test_lapack_error_surfaces_unchanged(self, monkeypatch, two_cpus,
                                             queued):
        def failing_eig(a):
            raise LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eig", failing_eig)
        with pytest.raises(LinAlgError, match="did not converge"):
            analyze_operator(random_dissipative(64, np.random.default_rng(1)))
        assert _names(queued) == ["failing_eig"] * 2 + CHECKS
        assert all(future.done() for *_, future in queued)


def _worker_threads():
    return [t for t in threading.enumerate() if t.name.startswith(WORKER)]


def test_not_dissipative_gets_the_same_short_report(monkeypatch, two_cpus,
                                                    eig_threads):
    # T's eig is queued before the classification, so a T that is not
    # dissipative waits for it with a worker, and never runs it without one
    op = random_dissipative(64, np.random.default_rng(1))
    reports = []
    for worker in (True, False):
        if not worker:
            monkeypatch.setattr(analysis, "_OFFLOAD_MIN_DIM", sys.maxsize)
        eig_threads.clear()
        reports.append(analyze_operator(OperatorWithDomain(op.space, -op.matrix)))
        assert len(eig_threads) <= 1
        assert all(name.startswith(WORKER) for name in eig_threads)
        assert _worker_threads() == []
    assert eig_threads == []
    assert reports == 2 * [{"classification": NEITHER,
                            "finding": "not dissipative",
                            "seed": 0,
                            "checks": {"dissipative": False}}]


class TestWorkConservingJoin:
    """At the join the calling thread forms T's eigenpairs, then runs every
    contract check the worker has not begun, and only then awaits S's eig,
    which the worker holds here."""

    @pytest.fixture
    def held_sym_eig(self, monkeypatch, two_cpus):
        """S's eig held on the worker until both contract checks have run,
        or for 10 s at most; returns the list of join events: each check with
        the thread that ran it, each ``_eigenpairs`` with its domain
        dimension, and the release of S's eig."""
        events, ran = [], []
        started, release = threading.Event(), threading.Event()
        eig, eigenpairs = np.linalg.eig, analysis._eigenpairs
        calls = []

        def held_second_eig(a):
            calls.append(a.shape)
            if len(calls) == 2:  # S's, queued behind T's
                started.set()
                assert release.wait(30)
                events.append("S's eig released")
            return eig(a)

        def recorded_eigenpairs(part, eig_result):
            if not events:
                # T's eig is done, so the worker has begun S's
                assert started.wait(30)
            events.append(("eigenpairs", part.domain.dim))
            return eigenpairs(part, eig_result)

        def recorded(check):
            @functools.wraps(check)
            def run(*args):
                events.append((check.__name__, threading.current_thread().name))
                try:
                    return check(*args)
                finally:
                    ran.append(check.__name__)
                    if len(ran) == len(CHECKS):
                        release.set()
            return run

        monkeypatch.setattr(np.linalg, "eig", held_second_eig)
        monkeypatch.setattr(analysis, "_eigenpairs", recorded_eigenpairs)
        for name in CHECKS:
            monkeypatch.setattr(boundary, name, recorded(getattr(boundary, name)))
        timer = threading.Timer(10.0, release.set)
        timer.start()
        yield events
        timer.cancel()
        release.set()

    def test_checks_run_here_before_s_eig_is_awaited(self, held_sym_eig):
        report = analyze_operator(_dense_n128(np.random.default_rng(1)))
        assert all(report["checks"].values())
        here = threading.current_thread().name
        dims = report["dims"]["domain"], report["dims"]["symmetric_part"]
        assert held_sym_eig == [("eigenpairs", dims[0]),
                                (CHECKS[0], here), (CHECKS[1], here),
                                "S's eig released", ("eigenpairs", dims[1])]
        assert _worker_threads() == []

    def test_taken_back_failure_wins_over_a_later_error(self, monkeypatch,
                                                         held_sym_eig):
        threads, _ = TestDeferredChecks.plant_form(monkeypatch,
                                                   "_von_neumann_contracts")
        op = _dense_n128(np.random.default_rng(1))
        recorded = analysis._eigenpairs

        def failing_for_s(part, eig_result):
            if part is not op:
                raise PipelineError("planted failure of S's eigenpairs")
            return recorded(part, eig_result)

        monkeypatch.setattr(analysis, "_eigenpairs", failing_for_s)
        with pytest.raises(PipelineError, match=TestDeferredChecks.CONTRACT):
            analyze_operator(op)
        here = threading.current_thread().name
        assert threads == [here]
        assert [event for event in held_sym_eig if event[0] in CHECKS] == [
            (name, here) for name in CHECKS]
        assert _worker_threads() == []


class TestSerialPath:
    """Without a worker each task runs on the calling thread when it is
    read, and a task runs once, with a worker or without."""

    def test_failed_split_runs_no_eig(self, monkeypatch, eig_threads):
        monkeypatch.setattr(analysis, "_OFFLOAD_MIN_DIM", sys.maxsize)

        def failing_split(op):
            raise PipelineError("planted failure of the split")

        monkeypatch.setattr(analysis, "split", failing_split)
        with pytest.raises(PipelineError, match="planted"):
            analyze_operator(_full(np.random.default_rng(1)))
        assert eig_threads == []

    @pytest.mark.parametrize("worker", [True, False], ids=["worker", "serial"])
    def test_triple_contracts_run_once_per_call(self, worker, monkeypatch,
                                                two_cpus):
        if not worker:
            monkeypatch.setattr(analysis, "_OFFLOAD_MIN_DIM", sys.maxsize)
        threads = []
        contracts = boundary._von_neumann_contracts

        def counted(*args):
            threads.append(threading.current_thread().name)
            return contracts(*args)

        monkeypatch.setattr(boundary, "_von_neumann_contracts", counted)
        report = analyze_operator(_full(np.random.default_rng(1)))
        # read at the join and again as ``triple.green_residual``
        assert all(report["checks"].values())
        assert len(threads) == 1
        if not worker:
            assert threads == [threading.current_thread().name]

    @pytest.mark.parametrize("worker", [True, False], ids=["worker", "serial"])
    def test_a_failing_task_runs_once(self, worker):
        calls = []

        def failing():
            calls.append(threading.current_thread().name)
            raise PipelineError("planted failure of a task")

        with (ThreadPoolExecutor(1) if worker else contextlib.nullcontext()) as pool:
            task = analysis._Deferred(pool, failing)
            for _ in range(2):
                with pytest.raises(PipelineError, match="planted"):
                    task.result()
        assert len(calls) == 1


class TestDeferredChecks:
    """The contract checks of the triple and of graph T on the worker: the
    first failing check in pipeline order is the error raised, as without
    the worker, and a check the worker has not started runs on the calling
    thread."""

    CONTRACT = r"abstract Green identity fails \(residual 1\.000e\+00\)"

    @staticmethod
    def plant_form(monkeypatch, name):
        """Run the contract check ``boundary.<name>`` on its graph form, its
        third argument, with one added in the corner, so that its own Green
        gate fires at a residual of 1.  Returns the names of the threads
        that ran it, and an event set once it has."""
        threads, ran = [], threading.Event()
        check = getattr(boundary, name)

        @functools.wraps(check)
        def planted(j, graph, form, *args):
            threads.append(threading.current_thread().name)
            form = form.copy()
            form[0, 0] += 1.0
            try:
                return check(j, graph, form, *args)
            finally:
                ran.set()

        monkeypatch.setattr(boundary, name, planted)
        return threads, ran

    @pytest.fixture
    def failing_contract(self, monkeypatch):
        """The triple's contract check on a planted graph form (see
        :meth:`plant_form`)."""
        return self.plant_form(monkeypatch, "_von_neumann_contracts")

    @staticmethod
    def raised(match, monkeypatch=None):
        """The message ``analyze_operator`` raises on ``_full``, with the
        worker, or without it when ``monkeypatch`` is given."""
        if monkeypatch is not None:
            monkeypatch.setattr(analysis, "_OFFLOAD_MIN_DIM", sys.maxsize)
        with pytest.raises(PipelineError, match=match) as caught:
            analyze_operator(_full(np.random.default_rng(1)))
        assert _worker_threads() == []
        return str(caught.value)

    def test_contract_failure_is_the_same_error(self, monkeypatch, two_cpus,
                                                failing_contract, queued):
        deferred = self.raised(self.CONTRACT)
        assert _names(queued)[2:] == CHECKS
        assert self.raised(self.CONTRACT, monkeypatch) == deferred

    def test_graph_green_failure_is_the_same_error(self, monkeypatch, two_cpus,
                                                   queued):
        self.plant_form(monkeypatch, "_graph_contracts")
        match = r"Green identity fails on the graph of T \(1\.000e\+00\)"
        deferred = self.raised(match)
        assert _names(queued)[2:] == CHECKS
        assert self.raised(match, monkeypatch) == deferred

    @staticmethod
    def later_failure(monkeypatch, wait=None):
        """A failure of the projection map, a stage after the triple, once
        ``wait`` is set."""
        def failing_projection(op, splitting):
            assert wait is None or wait.wait(30)
            raise PipelineError("planted failure of a later stage")

        monkeypatch.setattr(analysis, "boundary_map_projection", failing_projection)

    def test_failed_check_wins_over_a_later_error(self, monkeypatch, two_cpus,
                                                  failing_contract):
        threads, ran = failing_contract
        self.later_failure(monkeypatch, wait=ran)
        self.raised(self.CONTRACT)
        assert threads == [WORKER + "_0"]
        self.raised(self.CONTRACT, monkeypatch)
        assert threads[1] == threading.current_thread().name

    def test_queued_check_is_taken_back_and_wins(self, monkeypatch, two_cpus,
                                                 failing_contract):
        threads, _ = failing_contract
        self.later_failure(monkeypatch)
        started, release = threading.Event(), threading.Event()
        eig = np.linalg.eig

        def held_eig(a):
            started.set()
            assert release.wait(30)
            return eig(a)

        monkeypatch.setattr(np.linalg, "eig", held_eig)
        # the worker holds T's eig, so the check is still queued when the
        # later stage fails, and the calling thread runs it
        timer = threading.Timer(0.2, release.set)
        timer.start()
        try:
            self.raised(self.CONTRACT)
        finally:
            release.set()
            timer.join(5)
        assert started.is_set()
        assert threads == [threading.current_thread().name]


def test_worker_runs_no_lock_holding_call(monkeypatch, two_cpus):
    """The checks handed to the worker make none of the calls that hold the
    interpreter lock through LAPACK: ``eigvals``, ``eigvalsh``, the values
    of ``svd`` and ``norm(., 2)``."""
    on_worker = []
    ran = {name: [] for name in CHECKS}
    all_ran = threading.Event()

    def spy(module, name, holds_lock):
        real = getattr(module, name)

        def spied(*args, **kwargs):
            thread = threading.current_thread().name
            if name in ran:
                ran[name].append(thread)
                if all(ran.values()):
                    all_ran.set()
            elif holds_lock(*args, **kwargs) and thread.startswith(WORKER):
                on_worker.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, spied)

    for name in CHECKS:
        spy(boundary, name, None)
    spy(np.linalg, "eigvals", lambda *args, **kwargs: True)
    spy(np.linalg, "eigvalsh", lambda *args, **kwargs: True)
    spy(np.linalg, "svd", lambda a, *args, compute_uv=True, **kwargs: not compute_uv)
    spy(np.linalg, "norm", lambda x, ord=None, *args, **kwargs: ord == 2)
    classify = analysis.classify_by_graph

    def after_the_checks(op):
        # the calling thread waits here, before it joins them, so that all
        # checks run on the worker
        assert all_ran.wait(30)
        return classify(op)

    monkeypatch.setattr(analysis, "classify_by_graph", after_the_checks)
    for defect in (16, 112):
        all_ran.clear()
        for threads in ran.values():
            threads.clear()
        report = analyze_operator(random_dissipative(128, np.random.default_rng(1),
                                                     defect=defect))
        assert all(report["checks"].values())
        assert all(t.startswith(WORKER) for threads in ran.values() for t in threads)
        assert on_worker == []


class TestNoThreadOutlivesTheCall:
    def test_after_return(self, two_cpus, pools):
        report = analyze_operator(random_dissipative(64, np.random.default_rng(1)))
        assert all(report["checks"].values())
        assert len(pools) == 1
        assert _worker_threads() == []

    def test_after_raise(self, monkeypatch, two_cpus, pools):
        def failing_triple(sym, defer=None):
            raise PipelineError("planted failure after the submit")

        monkeypatch.setattr(analysis, "build_boundary_triple", failing_triple)
        with pytest.raises(PipelineError, match="planted"):
            analyze_operator(random_dissipative(64, np.random.default_rng(1)))
        assert len(pools) == 1
        assert _worker_threads() == []


def test_small_operator_creates_no_executor(two_cpus, pools, eig_threads):
    report = analyze_operator(random_dissipative(32, np.random.default_rng(3)))
    assert all(report["checks"].values())
    assert pools == []
    assert len(eig_threads) == 2
    assert not any(name.startswith(WORKER) for name in eig_threads)


def test_concurrent_callers_get_the_sequential_reports(two_cpus):
    ops = [random_dissipative(64, np.random.default_rng(s), defect=d)
           for s, d in ((21, 4), (22, 16), (23, 40))]
    expected = [analyze_operator(op) for op in ops]

    fresh = [random_dissipative(64, np.random.default_rng(s), defect=d)
             for s, d in ((21, 4), (22, 16), (23, 40))]
    reports = [None] * len(fresh)

    def run(k):
        reports[k] = analyze_operator(fresh[k])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    threads = [threading.Thread(target=run, args=(k,)) for k in range(len(fresh))]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert reports == expected


def test_analysis_makes_two_eigs_one_svd_and_seven_two_norms(monkeypatch,
                                                             two_cpus,
                                                             eig_threads):
    op = random_dissipative(64, np.random.default_rng(1))
    counts = count_svd_backed(monkeypatch)
    report = analyze_operator(op)
    assert all(report["checks"].values())
    assert counts == {"svd": 1, "norm2": 7}
    assert len(eig_threads) == 2 and eig_threads[0].startswith(WORKER)


@pytest.mark.parametrize("seed", [-1, 1.5, "3", None, True])
def test_bad_seed_is_rejected_before_any_work(seed, monkeypatch, two_cpus,
                                              eig_threads):
    def refuse(*args):
        raise AssertionError("the pipeline ran before the seed was checked")

    monkeypatch.setattr(analysis, "split", refuse)
    monkeypatch.setattr(analysis, "build_boundary_triple", refuse)
    with pytest.raises(DimensionMismatch):
        analyze_operator(random_dissipative(64, np.random.default_rng(1)), seed=seed)
    assert eig_threads == []


def test_numpy_integer_seed_is_accepted():
    op = random_dissipative(8, np.random.default_rng(1))
    report = analyze_operator(op, seed=np.int64(3))
    assert report == analyze_operator(op, seed=3)
    assert type(report["seed"]) is int


def test_analysis_draws_no_random_numbers(monkeypatch):
    # every check is an exact identity, so the seed is only echoed
    op = random_dissipative(12, np.random.default_rng(4), defect=3, domain_dim=7)

    def refuse(*args, **kwargs):
        raise AssertionError("the analysis drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    report = analyze_operator(op, seed=0)
    assert report["dims"]["symmetric_part"] > 0
    assert all(report["checks"].values())
    assert analyze_operator(op, seed=7) == {**report, "seed": 7}


def _analyze_in_child(op, expected):
    assert analyze_operator(op) == expected


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="fork start method on Linux only")
def test_forked_child_gets_a_fresh_worker(two_cpus, eig_threads):
    op = random_dissipative(64, np.random.default_rng(5))
    expected = analyze_operator(op)
    assert eig_threads[0].startswith(WORKER)
    child = multiprocessing.get_context("fork").Process(
        target=_analyze_in_child, args=(op, expected))
    with warnings.catch_warnings():
        # Python >= 3.12 warns on a fork of a process with threads; no
        # worker of ``analysis`` is among them once its call has returned
        warnings.filterwarnings("ignore", category=DeprecationWarning,
                                message=".*fork.*")
        child.start()
    child.join(60)
    if child.is_alive():
        child.kill()
        child.join(5)
        pytest.fail("the forked child hung")
    assert child.exitcode == 0
