"""kreinpair benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload dense_n128 --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the package is imported from its ``src``.
Each run sets up the workload several times (``setup_s`` is the median),
then runs whole passes over the workload's fixed list of cases, one case at
a time (closed loop, one client), as many as come closest to ``--seconds``
(at least one).  Every output goes through the workload's correctness
oracle.  With ``--trace 1`` untraced and traced passes alternate and the
per-layer metrics come from the traced ones.

The end-to-end times are normalised for the machine's speed at the moment
of measuring: a fixed reference kernel is timed between operations, each
operation's time is divided by the faster of the kernel times just before
and just after it, and the median of those ratios, times the kernel's
nominal time ``REF_SECONDS``, is reported.  On a shared machine the speed
drifts by up to 40 % in spells of seconds to minutes; the ratio moves far
less.  The raw times are on the details line.

The second-to-last line of standard output records the environment and the
details behind the metrics; the last line is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

import os

# single-threaded BLAS; this must happen before numpy is first imported
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from numpy.linalg import LinAlgError  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 15
# reference kernel: the SVD of a fixed REF_SIZE x REF_SIZE real matrix, bound
# here so that the tracer's wrapper on numpy.linalg.svd never sees it.  Of
# the kernels tried (ten SVDs at n = 160, one SVD or eig at n = 400) this one
# tracked the drift of both the n = 128 analyses and the SL study best.
REF_SVD = np.linalg.svd
REF_SIZE = 400
# about the kernel's median time on a shared 2-core Intel Xeon VM with
# single-threaded OpenBLAS 0.3.31; a normalised time is in seconds at that speed
REF_SECONDS = 0.04
WORKLOAD_NAMES = ("dense_n128", "batch_small", "sl_study")

# per-layer timings: metric name -> span label, inclusive seconds per operation
LAYER_TIMES = {
    "analysis.analyze_operator_s": "analysis.analyze_operator",
    "krein.classify_s": "krein.classify",
    "krein.riesz_representer_s": "krein.riesz_representer",
    "decomposition.split_s": "decomposition.split",
    "decomposition.deficiency_space_s": "decomposition.deficiency_space",
    "decomposition.defect_domain_via_resolvent_s":
        "decomposition.defect_domain_via_resolvent",
    "boundary.build_boundary_triple_s": "boundary.build_boundary_triple",
    "boundary.restrict_triple_s": "boundary.restrict_triple",
    "boundary.boundary_map_projection_s": "boundary.boundary_map_projection",
    "boundary.boundary_map_resolvent_s": "boundary.boundary_map_resolvent",
    "boundary.pair_green_residual_s": "boundary.pair_green_residual",
    "boundary.trace_isometry_residual_s": "boundary.trace_isometry_residual",
    "boundary.real_spectrum_report_s": "boundary.real_spectrum_report",
    "boundary.restricted_eigenpairs_s": "boundary.restricted_eigenpairs",
    "completeness.criterion_report_s": "completeness.criterion_report",
    "subspaces.null_space_s": "subspaces.null_space",
    "subspaces.gap_distance_s": "subspaces.gap_distance",
    "linalg.svd_s": "linalg.svd",
    "sturm_liouville.discretize_s": "sturm_liouville.discretize",
    "sturm_liouville.mask_splitting_s": "sturm_liouville.mask_splitting",
    "sturm_liouville.cayley_norm_s": "sturm_liouville.cayley_norm",
    "sturm_liouville.quadrature_residual_s":
        "sturm_liouville.dissipation_quadrature_residual",
    "cli.load_instance_s": "cli.load_instance",
}
# per-layer counts: metric name -> span labels, calls per operation
LAYER_CALLS = {
    "boundary.restricted_eigenpairs_calls": ("boundary.restricted_eigenpairs",),
    "subspaces.null_space_calls": ("subspaces.null_space",),
    "subspaces.column_space_calls": ("subspaces.column_space",),
    "subspaces.orthonormal_span_calls": ("subspaces.orthonormal_span",),
    "subspaces.gap_distance_calls": ("subspaces.gap_distance",),
    "linalg.svd_calls": ("linalg.svd",),
    "linalg.norm2_calls": ("linalg.norm2",),
    "linalg.lstsq_calls": ("linalg.lstsq",),
    "linalg.eig_calls": ("linalg.eig", "linalg.eigvals"),
    "linalg.eigh_calls": ("linalg.eigh", "linalg.eigvalsh"),
}


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
    }


class Reference:
    """The reference kernel, timed between operations to gauge the
    machine's speed at that moment."""

    def __init__(self):
        self.matrix = np.random.default_rng(0).standard_normal((REF_SIZE, REF_SIZE))
        self.times: list[float] = []
        self.last = self._time()

    def _time(self) -> float:
        start = time.perf_counter()
        REF_SVD(self.matrix)
        self.times.append(time.perf_counter() - start)
        return self.times[-1]

    def ratio(self, seconds: float) -> float:
        """``seconds`` over the faster of the kernel's last time and a new
        one taken now, just after the operation."""
        before, self.last = self.last, self._time()
        return seconds / min(before, self.last)


class Run:
    """Outcome of the passes of one run.

    ``raised`` counts operations that raised ``numpy.linalg.LinAlgError``,
    the program's one documented failure (see README); they have no output
    to judge and are not timed.  ``wrong`` counts operations whose output
    the oracle rejected or that raised anything else, ``KreinPairError``
    included, as the CLI's exit code 2 would.  Both count as failed; only a
    wrong operation makes the run incorrect.  ``case_problems`` holds
    problems found once per case before the passes; they make every
    operation on that case wrong.
    """

    def __init__(self, workload, case_problems: dict[int, list[str]],
                 reference: Reference):
        self.workload = workload
        self.reference = reference
        self.case_problems = case_problems
        self.attempted = 0
        self.raised = 0
        self.wrong = 0
        self.residuals: list[float] = []
        self.first_report = None
        self.problems: list[str] = []

    def one_pass(self, cases, latencies: list[list[tuple[float, float]]]) -> None:
        """Runs every case once; when case i returns, appends its latency
        and that latency's reference ratio to latencies[i]."""
        clock = time.perf_counter
        for index, case in enumerate(cases):
            self.attempted += 1
            problems = list(self.case_problems.get(index, ()))
            start = clock()
            try:
                raw = case.run()
            except LinAlgError as exc:  # counted, not timed; the run goes on
                self.reference.ratio(clock() - start)
                if problems:
                    self.wrong += 1
                    self.report(index, "; ".join(problems))
                else:
                    self.raised += 1
                    self.report(index, f"raised {exc!r}")
                continue
            except Exception:
                self.reference.ratio(clock() - start)
                self.wrong += 1
                self.report(index, traceback.format_exc(limit=3))
                continue
            elapsed = clock() - start
            latencies[index].append((elapsed, self.reference.ratio(elapsed)))
            try:
                report = case.collect(raw)
                problems += self.workload.problems(case, report)
            except (OSError, ValueError, KeyError, TypeError, RuntimeError) as exc:
                problems.append(f"unusable output: {exc!r}")
            if problems:
                self.wrong += 1
                self.report(index, "; ".join(problems))
                continue
            self.residuals.extend(self.workload.residuals(report))
            if self.first_report is None:
                self.first_report = (case, report)

    @property
    def failed(self) -> int:
        return self.raised + self.wrong

    def report(self, index: int, why: str) -> None:
        self.problems.append(f"case {index}: {why}")
        print(f"case {index} failed: {why}", file=sys.stderr)


def case_problems(cases) -> dict[int, list[str]]:
    """Problems of each case's eigenspace multiplicities, found once."""
    from workloads import multiplicity_problems

    found = {}
    for index, case in enumerate(cases):
        try:
            problems = multiplicity_problems(case)
        except Exception as exc:  # the check itself failing is a problem
            problems = [f"multiplicity check raised {exc!r}"]
        if problems:
            found[index] = problems
    return found


def self_test(run: Run, cases) -> bool:
    """The oracle must reject every corrupted copy of a good report, and
    the multiplicity check a case whose planted multiplicity is miscounted."""
    from workloads import miscount, multiplicity_problems

    if run.first_report is None:
        return False
    case, report = run.first_report
    if not all(run.workload.problems(case, bad) for bad in run.workload.corrupt(report)):
        return False
    clustered = [c for c in cases if any(m > 1 for _, m in c.planted_real)]
    return all(multiplicity_problems(miscount(c)) for c in clustered[:1])


def normalised(latencies) -> list[float]:
    """Each timed case's median time at reference speed.

    A case that never returned has no latency and is left out;
    ``untimed_cases`` on the details line names it.
    """
    return [REF_SECONDS * statistics.median(r for _, r in samples)
            for samples in latencies if samples]


def fastest(latencies) -> list[float]:
    """Each timed case's fastest raw latency."""
    return [min(t for t, _ in samples) for samples in latencies if samples]


def layer_metrics(totals, ops: int, overhead: float) -> dict:
    metrics = {}
    for name, label in LAYER_TIMES.items():
        metrics[name] = (totals.incl.get(label, 0.0) / ops, "s")
    metrics["analysis.self_s"] = (totals.layer_self("analysis") / ops, "s")
    # cli.main less loading and analysing: argument parsing, encoding, writing
    main_s = totals.incl.get("cli.main", 0.0)
    output_s = (main_s - totals.incl.get("cli.load_instance", 0.0)
                - totals.incl.get("analysis.analyze_operator", 0.0)) if main_s else 0.0
    metrics["cli.output_s"] = (output_s / ops, "s")
    for name, labels in LAYER_CALLS.items():
        metrics[name] = (sum(totals.calls.get(l, 0) for l in labels) / ops, "count")
    work = totals.work.get("linalg.svd", 0) + totals.work.get("linalg.norm2", 0)
    metrics["linalg.svd_work_computed"] = (work / ops, "count")
    metrics["trace_overhead_frac"] = (overhead, "ratio")
    return metrics


def measure(args, workdir: Path) -> tuple[dict, dict]:
    from tracing import LayerTotals, Tracer
    from workloads import WORKLOADS, headroom_digits

    workload = WORKLOADS[args.workload]
    reference = Reference()
    setup_times, setup_ratios = [], []
    for _ in range(SETUPS):
        start = time.perf_counter()
        prepared = workload.prepare(args.seed, workdir)
        prepared.warmup()
        setup_times.append(time.perf_counter() - start)
        setup_ratios.append(reference.ratio(setup_times[-1]))
    cases = prepared.cases

    run = Run(workload, case_problems(cases), reference)
    tracer = Tracer() if args.trace else None
    totals = LayerTotals()
    untraced = [[] for _ in cases]
    traced = [[] for _ in cases]
    started = time.perf_counter()
    rounds = 0
    while True:
        run.one_pass(cases, untraced)
        if tracer is not None:
            with tracer:
                run.one_pass(cases, traced)
            totals.add(tracer.drain())
        rounds += 1
        elapsed = time.perf_counter() - started
        # whole passes only; stop at the count that comes closest to --seconds
        if elapsed + 0.5 * elapsed / rounds >= args.seconds:
            break

    self_test_ok = self_test(run, cases)

    untimed = [index for index, samples in enumerate(untraced) if not samples]
    times = normalised(untraced)
    if not times:  # no case returned: nothing to time
        metrics, details = {}, {}
    elif tracer is None:
        wall = sum(times)
        metrics = {
            "setup_s": (REF_SECONDS * statistics.median(setup_ratios), "s"),
            "wall_s": (wall, "s"),
            "ops_per_s": (len(times) / wall, "1/s"),
            "latency_p50_ms": (1e3 * statistics.median(times), "ms"),
            # with under a hundred cases no percentile above p90 has ten
            # samples beyond it, so the tail is the slowest case
            "latency_tail_ms": (1e3 * max(times), "ms"),
            "gate_headroom_digits": (headroom_digits(run.residuals), "digits"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "MB"),
        }
        details = {
            "raw_fastest_wall_s": sum(fastest(untraced)),
            "raw_mean_latency_s": statistics.mean(t for s in untraced for t, _ in s),
        }
    else:
        # the same cases on both sides: those timed in passes of both kinds
        both = [i for i in range(len(cases)) if untraced[i] and traced[i]]
        overhead = (sum(normalised([traced[i] for i in both]))
                    / sum(normalised([untraced[i] for i in both])) - 1.0) if both else 0.0
        metrics = layer_metrics(totals, rounds * len(cases), overhead)
        details = {}
    details.update({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": rounds * (2 if tracer else 1),
        "cases_per_pass": len(cases),
        "raw_setup_times_s": setup_times,
        "reference_s": {"nominal": REF_SECONDS, "min": min(reference.times),
                        "median": statistics.median(reference.times),
                        "max": max(reference.times)},
        "untimed_cases": untimed,
        "failed_frac": run.failed / run.attempted,
        "raised": run.raised,
        "wrong": run.wrong,
        "oracle_self_test": self_test_ok,
        "problems": run.problems[:10],
        "env": environment(),
    })
    result = {
        "correct": run.wrong == 0 and self_test_ok and bool(times),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return details, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "kreinpair" / "__init__.py").is_file():
        print(f"error: no kreinpair package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        details, result = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    print(json.dumps(details))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
