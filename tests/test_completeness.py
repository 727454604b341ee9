import numpy as np
import pytest

from kreinpair import (
    ClassificationError,
    KreinSpace,
    OperatorWithDomain,
    contraction_bound,
    criterion_report,
    gap_distance,
    orthonormal_span,
    ortho_complement,
    range_splitting,
    split,
    trace_quotient,
    uniform_positivity,
)
from kreinpair.boundary import build_boundary_triple, restrict_triple, transform_traces
from kreinpair.completeness import split_by_second_trace
from kreinpair.instances import random_dissipative, scaled_defect_instance
from kreinpair.subspaces import relation_parts

from conftest import e


def pipeline(op):
    s = split(op)
    triple = build_boundary_triple(s.symmetric)
    traces = restrict_triple(triple, op)
    return s, triple, traces


class TestSecondTraceSplit:
    def test_mixed_diagonal_reproduces_form_split(self, mixed_diag):
        s, triple, traces = pipeline(mixed_diag)
        kernel_op, complement_op = split_by_second_trace(traces, mixed_diag)
        assert gap_distance(kernel_op.domain, s.symmetric.domain) < 1e-10
        assert gap_distance(complement_op.domain, s.defect.domain) < 1e-10

    def test_symmetric_operator_is_all_kernel(self, hermitian_full):
        _, _, traces = pipeline(hermitian_full)
        kernel_op, complement_op = split_by_second_trace(traces, hermitian_full)
        assert kernel_op.domain.is_full
        assert complement_op.domain.is_zero

    def test_swapped_traces_move_the_kernel(self, mixed_diag):
        # post-composing with the metric-preserving swap turns the kernel of
        # the second map into the kernel of the first one
        _, _, traces = pipeline(mixed_diag)
        k = traces.boundary_dim
        zero, eye = np.zeros((k, k)), np.eye(k)
        swapped = transform_traces(traces, np.block([[zero, eye], [-eye, zero]]))
        kernel_op, _ = split_by_second_trace(swapped, mixed_diag)
        # new second trace is -trace0, so the kernel is ker(trace0)
        coeffs = np.linalg.svd(traces.trace0, compute_uv=False)
        expected_dim = mixed_diag.domain.dim - np.sum(coeffs > 1e-10)
        assert kernel_op.domain.dim == expected_dim


class TestTraceQuotient:
    def test_scalar_quotient_value(self, scalar_i):
        _, _, traces = pipeline(scalar_i)
        quo = trace_quotient(traces, scalar_i)
        # one-dimensional image line: the quotient is a scalar relation
        dom, ran, ker, mul = relation_parts(quo.quotient)
        assert dom.is_full and mul.is_zero
        m = quo.quotient.apply_matrix()
        value = complex(m[0, 0] / quo.quotient.dom.basis[0, 0])
        # trace1 = i * trace0 on this fixture, so the quotient is 1/i
        assert value == pytest.approx(-1j)

    def test_symmetric_operator_trivial_quotient(self, hermitian_full):
        _, _, traces = pipeline(hermitian_full)
        quo = trace_quotient(traces, hermitian_full)
        assert quo.quotient is None

    def test_adjoint_multivalued_part_is_range_complement(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            op = random_dissipative(int(rng.integers(2, 8)), rng)
            _, _, traces = pipeline(op)
            if traces.boundary_dim == 0:
                continue
            quo = trace_quotient(traces, op)
            ran_t1 = orthonormal_span(
                traces.trace1, traces.boundary_dim, scale=1.0
            )
            expected = ortho_complement(ran_t1)
            assert gap_distance(quo.quotient_adjoint.mul, expected) < 1e-8

    def test_inverse_operator_condition(self, mixed_diag):
        # the inverse of the quotient is an operator exactly when the kernel
        # of the first trace meets the complement trivially
        _, _, traces = pipeline(mixed_diag)
        quo = trace_quotient(traces, mixed_diag)
        from kreinpair.subspaces import null_space, relation_inverse

        inv = relation_inverse(quo.quotient)
        coeffs = null_space(traces.trace0, scale=1.0)
        ker0 = orthonormal_span(
            traces.domain_basis @ coeffs, mixed_diag.space.dim, scale=1.0
        )
        meets_trivially = (
            ker0.dim + quo.complement_restriction.domain.dim
            == orthonormal_span(
                np.hstack(
                    [ker0.basis, quo.complement_restriction.domain.basis]
                ),
                mixed_diag.space.dim,
            ).dim
        )
        assert inv.mul.is_zero == meets_trivially


class TestConditions:
    def test_scalar_all_true(self, scalar_i):
        report = criterion_report(scalar_i)
        assert report.all_true and report.agree

    def test_trivial_image_vacuous(self):
        assert uniform_positivity(np.zeros((0, 0))).ok

    def test_symmetric_vacuous(self, hermitian_full):
        report = criterion_report(hermitian_full)
        assert report.all_true and report.agree

    def test_mixed_diagonal_gaps(self, mixed_diag):
        s, triple, traces = pipeline(mixed_diag)
        quo = trace_quotient(traces, mixed_diag)
        ranges = range_splitting(traces, mixed_diag, quo)
        assert ranges.ok
        assert ranges.gap_sum <= 1e-8 and ranges.gap_difference <= 1e-8

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

    def test_agreement_with_proper_domains(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n = int(rng.integers(3, 8))
            op = random_dissipative(n, rng, domain_dim=int(rng.integers(2, n)))
            report = criterion_report(op)
            assert report.agree and report.all_true


class TestDegenerationFamily:
    def test_monotone_trends(self):
        eps_values = [1.0, 1e-2, 1e-4, 1e-6]
        norms, smallest = [], []
        for eps in eps_values:
            report = criterion_report(scaled_defect_instance(eps))
            assert report.agree and report.all_true
            norms.append(report.contraction.norm)
            smallest.append(report.positivity.smallest)
        assert all(b >= a - 1e-6 for a, b in zip(norms, norms[1:]))
        assert all(b <= a + 1e-6 for a, b in zip(smallest, smallest[1:]))

    def test_all_three_flip_together_when_degenerate(self):
        report = criterion_report(scaled_defect_instance(1e-12))
        assert not report.positivity.ok
        assert not report.contraction.ok
        assert not report.range_split.ok
        assert report.agree

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
        traces_s = restrict_triple(triple, s.symmetric)
        ran_t1 = orthonormal_span(traces_s.trace1, traces_s.boundary_dim,
                                  scale=1.0)
        assert traces_s.boundary_dim == 1
        assert ran_t1.is_zero
        report = criterion_report(s.symmetric, pieces=(split(s.symmetric),
                                                       traces_s))
        assert report.agree and report.all_true
