"""The benchmark's workloads: inputs made from a seed, the timed operation
and the correctness oracle for each output.

Each workload is a fixed list of cases.  The seed draws the matrices; the
structure that decides how much work the program does (sizes, defect
ranks, cluster multiplicities, kinds) is fixed per workload, so call counts
repeat exactly from seed to seed and timings vary little.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

# the timed calls go through module attributes, so the tracer's wrappers
# on those attributes see them
from kreinpair import analysis, cli, sturm_liouville
from kreinpair.boundary import restricted_eigenpairs
from kreinpair.instances import random_dissipative, random_unitary, real_spectrum_instance
from kreinpair.krein import KreinSpace, OperatorWithDomain

EPS = float(np.finfo(float).eps)
GATE = 1e-8
# residuals an analysis report carries, as paths into the report
REPORT_RESIDUALS = (
    ("green_residual_pair",),
    ("green_residual_triple",),
    ("boundary_map_gap",),
    ("splitting_gap",),
    ("kernel_gap",),
    ("real_spectrum", "subspace_gap"),
    ("real_spectrum", "kernel_gap"),
)
SL_LEVELS = 4


@dataclass
class Case:
    """One operation: ``run`` is timed, ``collect`` turns its raw result
    into a report dict and is not timed."""

    run: Callable[[], object]
    collect: Callable[[object], dict]
    planted_defect: int | None = None
    planted_real: list = field(default_factory=list)  # [(value, multiplicity)]
    op: OperatorWithDomain | None = None  # kept for the eigenspace check


@dataclass
class Prepared:
    cases: list[Case]
    warmup: Callable[[], object]


# ---------------------------------------------------------------- inputs

def planted_cluster_instance(n: int, multiplicities, rng: np.random.Generator):
    """Operator whose real point spectrum is clusters of the given
    multiplicities, on the block recipe of ``real_spectrum_instance``.

    A real diagonal block commuting with a diagonal symmetry carries the
    clusters; a strictly dissipative block of size ``n - sum(multiplicities)``
    (full-rank dissipation, so no real eigenvalues) fills the rest; a random
    unitary frame hides the blocks.  Returns the operator and the planted
    (value, multiplicity) pairs.
    """
    mults = [int(m) for m in multiplicities]
    n_real = sum(mults)
    k = n - n_real
    values = np.sort(rng.uniform(-3.0, 3.0, size=len(mults)))
    values += 0.5 * np.arange(len(mults))  # clusters stay well separated
    block = random_dissipative(k, rng, defect=k)
    matrix = np.zeros((n, n), dtype=np.complex128)
    j = np.zeros((n, n), dtype=np.complex128)
    matrix[:n_real, :n_real] = np.diag(np.repeat(values, mults))
    matrix[n_real:, n_real:] = block.matrix
    j[:n_real, :n_real] = np.diag(rng.choice([-1.0, 1.0], size=n_real))
    j[n_real:, n_real:] = block.space.J
    frame = random_unitary(n, rng)
    matrix = frame @ matrix @ frame.conj().T
    j = frame @ j @ frame.conj().T
    op = OperatorWithDomain(KreinSpace(0.5 * (j + j.conj().T)), matrix)
    return op, [(complex(v), m) for v, m in zip(values, mults)]


def fresh(op: OperatorWithDomain) -> OperatorWithDomain:
    """A new full-domain operator on the same arrays, so that nothing an
    earlier pass cached on the operator is reused."""
    return OperatorWithDomain(KreinSpace(op.space.J, op.space.tol), op.matrix)


def _analyze_case(op, seed, planted_defect, planted_real=()):
    return Case(run=lambda: analysis.analyze_operator(fresh(op), seed=seed),
                collect=lambda report: report,
                planted_defect=planted_defect,
                planted_real=list(planted_real), op=op)


def _dense_n128(seed: int, workdir: Path) -> Prepared:
    rng = np.random.default_rng(seed)
    cases = [_analyze_case(random_dissipative(128, rng, defect=d), seed, d)
             for d in (16, 48, 80, 112)]
    small = random_dissipative(16, rng, defect=4)
    return Prepared(cases, lambda: analysis.analyze_operator(small, seed=seed))


def _read_report(result) -> dict:
    code, out_path = result
    if code != 0:
        raise RuntimeError(f"kreinpair analyze exited with {code}")
    return json.loads(Path(out_path).read_text(encoding="utf-8"))


def _cli_case(op, path: Path, seed: int, planted_defect, planted_real=()):
    cli.dump_instance(op, path)
    out = path.with_suffix(".report.json")
    argv = ["analyze", str(path), "-o", str(out), "--seed", str(seed)]
    return Case(run=lambda: (cli.main(argv), out), collect=_read_report,
                planted_defect=planted_defect,
                planted_real=list(planted_real), op=op)


def cluster_multiplicities(total: int) -> list[int]:
    """Multiplicities 1, 2, 3, 4, 1, 2, ... summing to ``total``."""
    mults = []
    while sum(mults) < total:
        mults.append(min(len(mults) % 4 + 1, total - sum(mults)))
    return mults


def _batch_small(seed: int, workdir: Path) -> Prepared:
    rng = np.random.default_rng(seed)
    cases = []
    for n in (4, 8, 16, 32):
        full = random_dissipative(n, rng, defect=n // 2)
        cases.append(_cli_case(full, workdir / f"full_{n}.json", seed, n // 2))
        restricted = random_dissipative(n, rng, defect=n // 2, domain_dim=3 * n // 4)
        cases.append(_cli_case(restricted, workdir / f"restricted_{n}.json", seed,
                               n // 2))
        op, reals, _ = real_spectrum_instance(n, rng, n // 4)
        cases.append(_cli_case(op, workdir / f"real_{n}.json", seed, n - n // 4,
                               [(v, 1) for v in reals]))
        op, planted = planted_cluster_instance(n, cluster_multiplicities(n // 2), rng)
        cases.append(_cli_case(op, workdir / f"clusters_{n}.json", seed, n - n // 2,
                               planted))
    warm = workdir / "warmup.json"
    cli.dump_instance(random_dissipative(4, rng, defect=2), warm)
    warm_argv = ["analyze", str(warm), "-o", str(workdir / "warmup.report.json")]
    return Prepared(cases, lambda: cli.main(warm_argv))


def _study(seed, base_n, levels):
    rows = sturm_liouville.convergence_study(
        x_max=20.0, base_n=base_n, intervals=[(0.0, 0.5)], imq=1.0, h=1.0,
        levels=levels, seed=seed)
    return {"rows": [{"n_points": r.n_points, "cayley_norm": r.cayley_norm,
                      "form_residual": r.form_residual} for r in rows]}


def _sl_study(seed: int, workdir: Path) -> Prepared:
    case = Case(run=lambda: _study(seed, 64, SL_LEVELS), collect=lambda r: r)
    return Prepared([case], lambda: _study(seed, 16, 3))


# ---------------------------------------------------------------- oracle

def _lookup(report: dict, path):
    value = report
    for key in path:
        value = value[key]
    return value


def analysis_problems(case: Case, report: dict) -> list[str]:
    """Oracle for one analysis report; empty when the report is correct."""
    problems = [f"check {k} is false" for k, v in report["checks"].items() if not v]
    if problems:
        return problems
    defect = report["dims"]["defect_part"]
    if case.planted_defect is not None and defect != case.planted_defect:
        problems.append(f"defect_part {defect} != planted {case.planted_defect}")
    found = [complex(re, im) for re, im in report["real_spectrum"]["real_eigenvalues_op"]]
    planted = [v for v, _ in case.planted_real]
    scale = 1.0 + max((abs(v) for v in found + planted), default=0.0)
    unmatched = list(found)
    for value in planted:
        near = [f for f in unmatched if abs(f - value) <= GATE * scale]
        if len(near) != 1:
            problems.append(f"planted real eigenvalue {value:.6g} found {len(near)} times")
        else:
            unmatched.remove(near[0])
    if unmatched:
        problems.append(f"{len(unmatched)} real eigenvalues that were not planted")
    return problems


def multiplicity_problems(case: Case) -> list[str]:
    """Eigenspace dimensions the program finds at the planted clusters."""
    if case.op is None or not any(m > 1 for _, m in case.planted_real):
        return []
    pairs = restricted_eigenpairs(case.op)
    scale = 1.0 + max(abs(lam) for lam, _ in pairs)
    problems = []
    for value, mult in case.planted_real:
        dims = [s.dim for lam, s in pairs if abs(lam - value) <= GATE * scale]
        if dims != [mult]:
            problems.append(f"cluster {value:.6g}: eigenspace dims {dims}, planted {mult}")
    return problems


def study_problems(case: Case, report: dict) -> list[str]:
    rows = report["rows"]
    norms = [r["cayley_norm"] for r in rows]
    problems = []
    if len(rows) != SL_LEVELS:
        problems.append(f"{len(rows)} rows for {SL_LEVELS} levels")
    if any(not v <= 1.0 for v in norms):
        problems.append(f"Cayley norm above 1: {max(norms)!r}")
    if any(b < a for a, b in zip(norms, norms[1:])):
        problems.append("Cayley norms decrease under refinement")
    if any(not r["form_residual"] <= GATE for r in rows):
        problems.append("quadrature residual above 1e-8")
    return problems


def analysis_residuals(report: dict) -> list[float]:
    return [float(_lookup(report, path)) for path in REPORT_RESIDUALS]


def study_residuals(report: dict) -> list[float]:
    return [float(r["form_residual"]) for r in report["rows"]]


def corrupt_analysis(report: dict) -> list[dict]:
    """Copies of an analysis report, each wrong in one part the oracle
    checks: a check turned false, the defect rank off by one, and an
    extra real eigenvalue that was not planted."""
    flipped, defect, extra = (copy.deepcopy(report) for _ in range(3))
    flipped["checks"][next(iter(flipped["checks"]))] = False
    defect["dims"]["defect_part"] += 1
    reals = extra["real_spectrum"]["real_eigenvalues_op"]
    reals.append([1.0 + max((abs(complex(*v)) for v in reals), default=0.0), 0.0])
    return [flipped, defect, extra]


def corrupt_study(report: dict) -> list[dict]:
    """Copies of a study report, each wrong in one part the oracle checks:
    a Cayley norm above 1, a row missing, the norms decreasing and a
    quadrature residual above the gate."""
    above, short, falling, residual = (copy.deepcopy(report) for _ in range(4))
    above["rows"][0]["cayley_norm"] = 1.5
    short["rows"].pop()
    falling["rows"][-1]["cayley_norm"] = falling["rows"][0]["cayley_norm"] - 0.1
    residual["rows"][0]["form_residual"] = 100 * GATE
    return [above, short, falling, residual]


def miscount(case: Case) -> Case:
    """Copy of a case with its first planted cluster's multiplicity one too
    high, which the multiplicity check must reject."""
    (value, mult), *rest = case.planted_real
    return replace(case, planted_real=[(value, mult + 1), *rest])


def headroom_digits(residuals) -> float:
    """log10(1e-8 / residual) of the largest residual, floored at eps; -8
    when no output passed the oracle."""
    return math.log10(GATE / max(max(residuals, default=1.0), EPS))


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: Callable[[int, Path], Prepared]
    problems: Callable[[Case, dict], list[str]]
    residuals: Callable[[dict], list[float]]
    corrupt: Callable[[dict], list[dict]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("dense_n128", _dense_n128, analysis_problems, analysis_residuals,
                 corrupt_analysis),
        Workload("batch_small", _batch_small, analysis_problems, analysis_residuals,
                 corrupt_analysis),
        Workload("sl_study", _sl_study, study_problems, study_residuals, corrupt_study),
    )
}
