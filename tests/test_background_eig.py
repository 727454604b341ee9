"""The real-spectrum ``eig`` calls on the worker of ``analyze_operator``.

``analyze_operator`` hands the LAPACK call of T's and of S's compression to
a worker thread of its own when the compression is large enough.  The
reports must be the same as with the hand-over switched off, errors must
surface unchanged with no work and no thread left behind, small operators
must never start a worker, and concurrent callers and a forked child must
get the sequential reports.
"""

import multiprocessing
import sys
import threading
import warnings

import numpy as np
import pytest
from numpy.linalg import LinAlgError

from kreinpair import analysis
from kreinpair.analysis import analyze_operator
from kreinpair.errors import PipelineError
from kreinpair.instances import random_dissipative, real_spectrum_instance

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


@pytest.mark.parametrize("make", [_indefinite, _full, _restricted,
                                  _real_spectrum, _clusters],
                         ids=["indefinite", "full", "restricted",
                              "real_spectrum", "clusters"])
def test_reports_equal_with_and_without_worker(make, monkeypatch, two_cpus,
                                               eig_threads):
    op = make(np.random.default_rng(13))
    report = analyze_operator(op, seed=2)
    offloaded = list(eig_threads)
    sym_dim = report["dims"]["symmetric_part"]
    # T's eig always goes to the worker here, S's when its domain is large
    assert offloaded[0].startswith(WORKER)
    assert offloaded[1].startswith(WORKER) == (sym_dim >= analysis._OFFLOAD_MIN_DIM)
    assert all(report["checks"].values()), report["checks"]

    eig_threads.clear()
    monkeypatch.setattr(analysis, "_OFFLOAD_MIN_DIM", sys.maxsize)
    same_op = make(np.random.default_rng(13))
    assert analyze_operator(same_op, seed=2) == report
    assert not any(name.startswith(WORKER) for name in eig_threads)


@pytest.fixture
def pools(monkeypatch):
    """Every worker pool ``analyze_operator`` creates."""
    created = []
    pool = analysis.ThreadPoolExecutor

    def counted_pool(*args, **kwargs):
        created.append(pool(*args, **kwargs))
        return created[-1]

    monkeypatch.setattr(analysis, "ThreadPoolExecutor", counted_pool)
    return created


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
    def futures(self, monkeypatch):
        """Every future ``_submit_eig`` hands back."""
        seen = []
        submit = analysis._submit_eig

        def recorded(pool, op):
            future = submit(pool, op)
            seen.append(future)
            return future

        monkeypatch.setattr(analysis, "_submit_eig", recorded)
        return seen

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
            self, monkeypatch, two_cpus, futures, held_eig):
        started, release = held_eig

        def build_pipeline(op):
            assert started.wait(30)
            raise PipelineError("planted failure while the eig runs")

        monkeypatch.setattr(analysis, "build_pipeline", build_pipeline)
        _fails_while_held(release)
        assert started.is_set()
        assert len(futures) == 1 and futures[0] is not None
        assert futures[0].done() and not futures[0].cancelled()

    def test_error_after_submit_cancels_the_queued_eig(
            self, monkeypatch, two_cpus, futures, held_eig):
        started, release = held_eig

        def failing_green(*args, **kwargs):
            # T's eig holds the worker, so S's is still queued
            assert started.wait(30) and len(futures) == 2
            raise PipelineError("planted failure while S's eig is queued")

        monkeypatch.setattr(analysis, "pair_green_residual", failing_green)
        _fails_while_held(release)
        eig_op, eig_sym = futures
        assert eig_op.done() and not eig_op.cancelled()
        assert eig_sym.cancelled()

    def test_lapack_error_surfaces_unchanged(self, monkeypatch, two_cpus,
                                             futures):
        def failing_eig(a):
            raise LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eig", failing_eig)
        with pytest.raises(LinAlgError, match="did not converge"):
            analyze_operator(random_dissipative(64, np.random.default_rng(1)))
        assert futures[0] is not None
        assert all(f is None or f.done() for f in futures)


def _worker_threads():
    return [t for t in threading.enumerate() if t.name.startswith(WORKER)]


class TestNoThreadOutlivesTheCall:
    def test_after_return(self, two_cpus, pools):
        report = analyze_operator(random_dissipative(64, np.random.default_rng(1)))
        assert all(report["checks"].values())
        assert len(pools) == 1
        assert _worker_threads() == []

    def test_after_raise(self, monkeypatch, two_cpus, pools):
        def build_pipeline(op):
            raise PipelineError("planted failure after the submit")

        monkeypatch.setattr(analysis, "build_pipeline", build_pipeline)
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


def test_analysis_makes_two_eigs_three_svds_and_seven_two_norms(monkeypatch,
                                                                two_cpus,
                                                                eig_threads):
    op = random_dissipative(64, np.random.default_rng(1))
    counts = count_svd_backed(monkeypatch)
    report = analyze_operator(op)
    assert all(report["checks"].values())
    assert counts == {"svd": 3, "norm2": 7}
    assert len(eig_threads) == 2 and eig_threads[0].startswith(WORKER)


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
