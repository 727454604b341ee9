"""Acceptance suite: every criterion prints one pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
The random batch (100 instances per dimension in {2, 4, 8, 16, 32, 64},
random metric signatures) is built once and shared by the criteria that
quote it.
"""

import time
from dataclasses import dataclass

import numpy as np
import pytest

from kreinpair import (
    defect_domain_via_resolvent,
    deficiency_space,
    gap_distance,
    split,
)
from kreinpair.boundary import (
    boundary_map_projection,
    boundary_map_resolvent,
    build_boundary_triple,
    pair_green_residual,
    real_spectrum_report,
    restrict_triple,
)
from kreinpair.completeness import criterion_report
from kreinpair.instances import (
    random_dissipative,
    real_spectrum_instance,
    scaled_defect_instance,
)
from kreinpair.krein import boundary_metric_matrix
from kreinpair.sturm_liouville import convergence_study

from conftest import (
    defect_traces,
    dissipation_form,
    riesz_coords,
    riesz_representer,
    sampled_pair_green_residual,
)

DIMENSIONS = (2, 4, 8, 16, 32, 64)
PER_DIMENSION = 100
TOL = 1e-8


@dataclass
class InstanceRecord:
    n: int
    green_pair: float
    green_pair_sampled: float
    oracle_gap: float
    splitting_gap: float
    deficiency_dim: int
    domain_dim: int
    symmetric_dim: int
    riesz_min_eig: float
    riesz_norm: float
    riesz_form_residual: float
    trace_isometry: float
    preimage_isometry: float


def _form_value_residual(op, rep, rng, count=20):
    """Relative residual of form[x] = |sqrt(F) x|_graph^2 over samples."""
    d = op.domain.dim
    if d == 0:
        return 0.0
    coeffs = rng.standard_normal((d, count)) + 1j * rng.standard_normal((d, count))
    xs = op.domain.basis @ coeffs
    worst = 0.0
    for k in range(count):
        x = xs[:, k]
        form = dissipation_form(op, x, x).real
        image = rep.sqrt_matrix @ riesz_coords(op, x)
        value = float(np.vdot(image, image).real)
        scale = max(1.0, abs(form))
        worst = max(worst, abs(form - value) / scale)
    return worst


def _preimage_isometry_residual(op, splitting, traces, rng, count=20):
    """Relative residual of the trace-image metric against the defect inner
    product under the inverse of the traces."""
    dn = splitting.defect.domain.dim
    if dn == 0:
        return 0.0
    stacked = defect_traces(op, traces, splitting)
    meta = boundary_metric_matrix(traces.boundary_dim)
    coeffs = rng.standard_normal((dn, count)) + 1j * rng.standard_normal((dn, count))
    worst = 0.0
    for k in range(count):
        c = coeffs[:, k]
        uv = stacked @ c
        x = splitting.defect.domain.basis @ c
        image_sq = float(np.vdot(uv, meta @ uv).real)
        defect_sq = float(np.vdot(x, op.dissipation_matrix @ x).real)
        scale = max(1.0, abs(defect_sq))
        worst = max(worst, abs(image_sq - defect_sq) / scale)
    return worst


def _run_instance(op, rng) -> InstanceRecord:
    splitting = split(op)
    triple = build_boundary_triple(splitting.symmetric)
    defi = deficiency_space(triple, op)
    resolvent_domain = defect_domain_via_resolvent(op, defi)
    rep = riesz_representer(op)
    traces = restrict_triple(triple, op, splitting.defect.domain)
    proj = boundary_map_projection(op, splitting)
    res = boundary_map_resolvent(op, defi, splitting)
    scale = max(1.0, float(np.linalg.norm(proj.matrix, 2)))
    eigs = (
        np.linalg.eigvalsh(rep.matrix) if rep.dim else np.zeros(1)
    )
    return InstanceRecord(
        n=op.space.dim,
        green_pair=pair_green_residual(proj, op),
        # the oracle draws from the batch's rng, so the instances after
        # this one depend on it
        green_pair_sampled=sampled_pair_green_residual(proj, op, rng),
        oracle_gap=float(np.linalg.norm(proj.matrix - res.matrix, 2)) / scale,
        splitting_gap=gap_distance(splitting.defect.domain, resolvent_domain),
        deficiency_dim=defi.deficiency.dim,
        domain_dim=op.domain.dim,
        symmetric_dim=splitting.symmetric.domain.dim,
        riesz_min_eig=float(eigs[0]),
        riesz_norm=float(np.max(np.abs(eigs))),
        riesz_form_residual=_form_value_residual(op, rep, rng),
        trace_isometry=triple.green_residual,
        preimage_isometry=_preimage_isometry_residual(op, splitting, traces, rng),
    )


@pytest.fixture(scope="session")
def batch():
    rng = np.random.default_rng(2024)
    records = []
    start = time.time()
    for n in DIMENSIONS:
        for _ in range(PER_DIMENSION):
            op = random_dissipative(n, rng)
            records.append(_run_instance(op, rng))
    elapsed = time.time() - start
    return records, elapsed


def _report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number}: {detail}")
    assert ok, detail


def test_criterion_1_green_identity(batch):
    records, elapsed = batch
    worst = max(r.green_pair for r in records)
    # the matrix identity bounds the sampled pairs, up to round-off
    bounds = all(r.green_pair + 1e-15 >= r.green_pair_sampled for r in records)
    ok = worst <= TOL and bounds and elapsed <= 60.0
    _report(
        1,
        ok,
        "Green identity residual over "
        f"{len(records)} instances: worst {worst:.3e} (bound {TOL:.0e}), "
        f"bounds the sampled one: {bounds}, "
        f"batch time {elapsed:.1f}s (limit 60s)",
    )


def test_criterion_2_boundary_map_agreement(batch):
    records, _ = batch
    worst = max(r.oracle_gap for r in records)
    _report(
        2,
        worst <= TOL,
        "projection-form vs resolvent-form boundary maps: worst relative "
        f"gap {worst:.3e} (bound {TOL:.0e})",
    )


def test_criterion_3_splitting_crosscheck(batch):
    records, _ = batch
    worst = max(r.splitting_gap for r in records)
    counts_ok = all(
        r.deficiency_dim == r.domain_dim - r.symmetric_dim for r in records
    )
    ok = worst <= TOL and counts_ok
    _report(
        3,
        ok,
        f"defect domain via resolvent: worst gap {worst:.3e} (bound {TOL:.0e}); "
        f"deficiency dimension bookkeeping {'ok' if counts_ok else 'broken'}",
    )


def test_criterion_4_riesz_representer(batch):
    records, _ = batch
    min_eig = min(r.riesz_min_eig for r in records)
    max_norm = max(r.riesz_norm for r in records)
    worst_form = max(r.riesz_form_residual for r in records)
    ok = min_eig >= -1e-10 and max_norm <= 2.0 + 1e-10 and worst_form <= TOL
    _report(
        4,
        ok,
        f"representer positivity {min_eig:.3e} >= -1e-10, norm bound "
        f"{max_norm:.6f} <= 2, form identity residual {worst_form:.3e}",
    )


def test_criterion_5_real_spectrum():
    rng = np.random.default_rng(77)
    worst_value, worst_gap = 0.0, 0.0
    count = 0
    for _ in range(25):
        n = int(rng.integers(4, 11))
        n_real = int(rng.integers(1, min(n - 1, 4) + 1))
        op, _, _ = real_spectrum_instance(n, rng, n_real)
        splitting = split(op)
        pair = boundary_map_projection(op, splitting)
        report = real_spectrum_report(op, splitting.symmetric, pair)
        assert report.passed, report.notes
        worst_value = max(worst_value, report.value_mismatch)
        worst_gap = max(worst_gap, report.subspace_gap)
        count += len(report.real_values_op)
    for _ in range(10):  # generic instances, usually without real spectrum
        op = random_dissipative(int(rng.integers(2, 9)), rng)
        splitting = split(op)
        pair = boundary_map_projection(op, splitting)
        report = real_spectrum_report(op, splitting.symmetric, pair)
        assert report.passed, report.notes
    ok = worst_value <= TOL and worst_gap <= TOL and count >= 20
    _report(
        5,
        ok,
        f"real point spectra of T and its symmetric part coincide on "
        f"{count} planted eigenvalues: value mismatch {worst_value:.3e}, "
        f"eigenspace gap {worst_gap:.3e}",
    )


def test_criterion_6_equivalence_and_degeneration():
    rng = np.random.default_rng(4096)
    agreements = 0
    for _ in range(100):
        op = random_dissipative(16, rng)
        report = criterion_report(op)
        if report.agree and report.all_true:
            agreements += 1
    eps_values = [10.0 ** -j for j in range(13)]
    rows, verdicts, agree = [], [], True
    for eps in eps_values:
        report = criterion_report(scaled_defect_instance(eps))
        agree = agree and report.agree
        rows.append((report.positivity.smallest, 1.0 - report.contraction.norm,
                     report.range_split.margin))
        verdicts.append(report.positivity.ok)
    monotone = [all(b <= a + 1e-6 for a, b in zip(col, col[1:]))
                for col in zip(*rows)]
    flips_once = (verdicts[0] and not verdicts[-1]
                  and verdicts == sorted(verdicts, reverse=True))
    flip = f"1e-{verdicts.index(False)}" if False in verdicts else "never"
    ok = agreements == 100 and agree and all(monotone) and flips_once
    _report(
        6,
        ok,
        f"criteria agree on {agreements}/100 random instances; degeneration "
        f"family eps = 1 ... 1e-12: criteria agree {agree}, margins "
        f"non-increasing (Gram eigenvalue, 1 - contraction norm, range "
        f"splitting) {monotone}, all three flip together at eps = {flip}",
    )


def test_criterion_7_cayley_norm_trend():
    start = time.time()
    rows = convergence_study(
        x_max=20.0, base_n=64, intervals=[(0.0, 0.5)], imq=1.0, h=1.0,
        levels=4, seed=0,
    )
    elapsed = time.time() - start
    norms = [r.cayley_norm for r in rows]
    bounded = all(n <= 1.0 + 1e-10 for n in norms)
    monotone = all(b >= a - 1e-6 for a, b in zip(norms, norms[1:]))
    ok = bounded and monotone and norms[-1] >= 0.995 and elapsed <= 120.0
    _report(
        7,
        ok,
        "Cayley norms "
        + " -> ".join(f"{n:.6f}" for n in norms)
        + f"; bounded {bounded}, non-decreasing {monotone}, final "
        f"{norms[-1]:.6f} >= 0.995, time {elapsed:.1f}s (limit 120s)",
    )


def test_criterion_8_isometry_suite(batch):
    records, _ = batch
    worst_trace = max(r.trace_isometry for r in records)
    worst_preimage = max(r.preimage_isometry for r in records)
    ok = worst_trace <= TOL and worst_preimage <= TOL
    _report(
        8,
        ok,
        f"trace-map isometry residual {worst_trace:.3e}; inverse-trace "
        f"isometry onto the defect domain {worst_preimage:.3e} "
        f"(bound {TOL:.0e})",
    )
