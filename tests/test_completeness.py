import numpy as np
import pytest

from kreinpair import (
    ClassificationError,
    KreinSpace,
    OperatorWithDomain,
    Subspace,
    contraction_bound,
    criterion_report,
    orthonormal_span,
    range_splitting,
    split,
    uniform_positivity,
)
from kreinpair.boundary import build_boundary_triple, restrict_triple
from kreinpair.instances import random_dissipative, scaled_defect_instance
from kreinpair.tolerances import LOOSE_GATE


def pipeline(op):
    s = split(op)
    triple = build_boundary_triple(s.symmetric)
    traces = restrict_triple(triple, op, s.defect.domain)
    return s, triple, traces


class TestConditions:
    def test_scalar_all_true(self, scalar_i):
        report = criterion_report(scalar_i)
        assert report.all_true and report.agree

    def test_trivial_image_vacuous(self):
        assert uniform_positivity(np.zeros((0, 0))).ok

    def test_symmetric_vacuous(self, hermitian_full):
        report = criterion_report(hermitian_full)
        assert report.all_true and report.agree

    def test_mixed_diagonal_gaps(self, mixed_diag, scalar_i):
        # one defect direction with the trace image on the boundary form's
        # positive eigenspace: the principal angle is a right angle
        for op in (mixed_diag, scalar_i):
            _, _, traces = pipeline(op)
            ranges = range_splitting(traces)
            assert ranges.ok
            assert ranges.margin == pytest.approx(1.0)

    def test_contraction_zero_domain(self, hermitian_full):
        s, triple, traces = pipeline(hermitian_full)
        bound = contraction_bound(traces, s.defect)
        assert bound.ok and bound.norm == 0.0

    def test_scalar_contraction_below_one(self, scalar_i):
        s, _, traces = pipeline(scalar_i)
        bound = contraction_bound(traces, s.defect)
        assert bound.ok and bound.norm < 1.0

    def test_rejects_non_dissipative(self):
        op = OperatorWithDomain(KreinSpace(np.eye(2)), np.diag([1j, -1j]))
        with pytest.raises(ClassificationError):
            criterion_report(op)

    def test_agreement_on_random_batch(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            op = random_dissipative(int(rng.integers(2, 9)), rng)
            report = criterion_report(op)
            assert report.agree and report.all_true
            # two factorisations of the same number: the principal-angle
            # sine and the smallest Gram eigenvalue
            smallest = report.positivity.smallest
            if smallest is not None and smallest > 1e-6:
                assert report.range_split.margin == pytest.approx(smallest, rel=1e-8)

    @pytest.mark.parametrize("seed", [7015, 7022, 7035, 7051])
    def test_agreement_on_shrunk_restricted_domains(self, seed):
        # T x 1e-8 on a small restricted domain: the Gram eigenvalue falls
        # under the cut, and range splitting must fall with it
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        op = random_dissipative(n, rng, domain_dim=int(rng.integers(1, n + 1)))
        shrunk = OperatorWithDomain(op.space, 1e-8 * op.matrix, op.domain)
        assert criterion_report(shrunk).agree

    def test_criterion_report_svd_budget(self, monkeypatch):
        op = random_dissipative(64, np.random.default_rng(1))
        s, _, traces = pipeline(op)
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", counted)
        report = criterion_report(op, pieces=(s, traces))
        assert report.agree and report.all_true
        assert len(calls) <= 3

    def test_agreement_with_proper_domains(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n = int(rng.integers(3, 8))
            op = random_dissipative(n, rng, domain_dim=int(rng.integers(2, n)))
            report = criterion_report(op)
            assert report.agree and report.all_true


class TestDegenerationFamily:
    def test_monotone_trends(self):
        rows, verdicts = [], []
        for eps in [10.0 ** -j for j in range(13)]:
            report = criterion_report(scaled_defect_instance(eps))
            assert report.agree
            rows.append((report.positivity.smallest,
                         1.0 - report.contraction.norm,
                         report.range_split.margin))
            verdicts.append(report.positivity.ok)
        for column in zip(*rows):
            assert all(b <= a + LOOSE_GATE for a, b in zip(column, column[1:]))
        # one flip, from complete to not complete, shared by all three
        assert verdicts[0] and not verdicts[-1]
        assert verdicts == sorted(verdicts, reverse=True)

    def test_all_three_flip_together_when_degenerate(self):
        report = criterion_report(scaled_defect_instance(1e-12))
        assert not report.positivity.ok
        assert not report.contraction.ok
        assert not report.range_split.ok
        assert report.agree

    def test_all_three_hold_just_above_the_cut(self):
        # Gram eigenvalue 2 eps = 2e-10, twice the criterion cut
        report = criterion_report(scaled_defect_instance(1e-10))
        assert report.all_true and report.agree

    def test_explicit_norm_value(self):
        eps = 1e-2
        report = criterion_report(scaled_defect_instance(eps))
        assert report.contraction.norm == pytest.approx(
            (1 - eps) / (1 + eps), rel=1e-10
        )


class TestRestrictedRangeRemark:
    def test_component_range_can_be_proper_for_restricted_operators(
        self, mixed_diag
    ):
        # restricting an ordinary triple to the symmetric part itself makes
        # the second component range trivial while the boundary space is not
        s, triple, _ = pipeline(mixed_diag)
        traces_s = restrict_triple(triple, s.symmetric, Subspace.zero(2))
        ran_t1 = orthonormal_span(traces_s.trace1, scale=1.0)
        assert traces_s.boundary_dim == 1
        assert ran_t1.is_zero
        report = criterion_report(s.symmetric, pieces=(split(s.symmetric),
                                                       traces_s))
        assert report.agree and report.all_true
