import numpy as np
import pytest

from kreinpair import (
    ClassificationError,
    build_boundary_triple,
    DomainError,
    KreinSpace,
    OperatorWithDomain,
    defect_domain_via_resolvent,
    defect_inner,
    deficiency_space,
    dissipative_part,
    gap_distance,
    orthonormal_span,
    riesz_representer,
    split,
    symmetric_part,
)
from kreinpair.errors import PipelineError
from kreinpair.instances import random_dissipative

from conftest import e


def deficiency(op, s):
    """Deficiency data of ``op``, with the triple built over its symmetric part."""
    return deficiency_space(build_boundary_triple(s.symmetric), op)


class TestSymmetricPart:
    def test_fully_dissipative_has_trivial_part(self, scalar_i):
        assert symmetric_part(scalar_i).domain.is_zero

    def test_hermitian_is_its_own_part(self, hermitian_full):
        sym = symmetric_part(hermitian_full)
        assert sym.domain.is_full

    def test_mixed_diagonal(self, mixed_diag):
        sym = symmetric_part(mixed_diag)
        assert gap_distance(sym.domain, orthonormal_span([e(2, 0)])) < 1e-12
        assert sym.classify() == "symmetric"

    def test_rejects_non_dissipative(self):
        op = OperatorWithDomain(KreinSpace(np.eye(2)), np.diag([1j, -1j]))
        with pytest.raises(ClassificationError):
            symmetric_part(op)


class TestDissipativePart:
    def test_scalar(self, scalar_i):
        part = dissipative_part(scalar_i, symmetric_part(scalar_i))
        assert part.domain.is_full

    def test_hermitian_has_trivial_defect(self, hermitian_full):
        part = dissipative_part(hermitian_full, symmetric_part(hermitian_full))
        assert part.domain.is_zero

    def test_mixed_diagonal_graph_orthogonality(self, mixed_diag):
        sym = symmetric_part(mixed_diag)
        part = dissipative_part(mixed_diag, sym)
        assert gap_distance(part.domain, orthonormal_span([e(2, 1)])) < 1e-12
        # graph-orthogonality: <x, s> + <Tx, Ts> = 0
        x, s = part.domain.basis[:, 0], sym.domain.basis[:, 0]
        value = np.vdot(x, s) + np.vdot(
            mixed_diag.matrix @ x, mixed_diag.matrix @ s
        )
        assert abs(value) < 1e-12

    def test_rejects_inconsistent_symmetric_part(self, mixed_diag):
        wrong = mixed_diag.restricted(orthonormal_span([e(2, 1)]))
        with pytest.raises(PipelineError):
            dissipative_part(mixed_diag, wrong)

    def test_split_gram_positive_definite(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            op = random_dissipative(int(rng.integers(2, 9)), rng)
            s = split(op)
            if s.defect_gram.shape[0]:
                eigs = np.linalg.eigvalsh(s.defect_gram)
                assert eigs[0] > 1e-10 * eigs[-1]


class TestDeficiencySpace:
    def test_scalar_everything_full(self, scalar_i):
        s = split(scalar_i)
        defi = deficiency(scalar_i, s)
        assert defi.deficiency.is_full
        assert defi.resolvent_range.is_full
        assert np.allclose(defi.projector, [[1.0]])

    def test_mixed_diagonal(self, mixed_diag):
        s = split(mixed_diag)
        defi = deficiency(mixed_diag, s)
        assert gap_distance(defi.deficiency, orthonormal_span([e(2, 1)])) < 1e-10
        assert defi.resolvent_range.is_full
        assert np.allclose(defi.projector, np.diag([0.0, 1.0]), atol=1e-10)

    def test_indefinite_metric_pair(self, krein_pm):
        s = split(krein_pm)
        defi = deficiency(krein_pm, s)
        assert defi.deficiency.is_full
        assert np.allclose(defi.projector, np.eye(2), atol=1e-10)

    def test_projector_is_hermitian_idempotent(self):
        rng = np.random.default_rng(1)
        op = random_dissipative(6, rng)
        defi = deficiency(op, split(op))
        p = defi.projector
        assert np.allclose(p, p.conj().T, atol=1e-10)
        assert np.allclose(p @ p, p, atol=1e-10)

    def test_defect_count_full_domain(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n = int(rng.integers(2, 10))
            op = random_dissipative(n, rng)
            s = split(op)
            defi = deficiency(op, s)
            assert defi.deficiency.dim == op.domain.dim - s.symmetric.domain.dim


class TestResolventRoute:
    def test_scalar(self, scalar_i):
        s = split(scalar_i)
        defi = deficiency(scalar_i, s)
        assert defect_domain_via_resolvent(scalar_i, defi).is_full

    def test_mixed_diagonal_explicit_inverse(self, mixed_diag):
        s = split(mixed_diag)
        defi = deficiency(mixed_diag, s)
        domain = defect_domain_via_resolvent(mixed_diag, defi)
        # oracle: diag(1 + i, 2i)^{-1} applied to span{e2}
        inv = np.linalg.inv(mixed_diag.matrix + 1j * np.eye(2))
        expected = orthonormal_span([inv @ e(2, 1)])
        assert gap_distance(domain, expected) < 1e-10

    def test_agrees_with_graph_orthogonal_route(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 11))
            op = random_dissipative(n, rng)
            s = split(op)
            defi = deficiency(op, s)
            other = defect_domain_via_resolvent(op, defi)
            assert gap_distance(s.defect.domain, other) < 1e-8

    def test_proper_domain_defect_count(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            n = int(rng.integers(3, 9))
            d = int(rng.integers(2, n))
            op = random_dissipative(n, rng, domain_dim=d)
            s = split(op)
            defi = deficiency(op, s)
            assert defi.intersection.dim == op.domain.dim - s.symmetric.domain.dim
            other = defect_domain_via_resolvent(op, defi)
            assert gap_distance(s.defect.domain, other) < 1e-8


class TestDefectInner:
    def test_scalar_value(self, scalar_i):
        s = split(scalar_i)
        assert defect_inner(s, np.array([1.0]), np.array([1.0])) == pytest.approx(2.0)

    def test_mixed_diagonal_value(self, mixed_diag):
        s = split(mixed_diag)
        assert defect_inner(s, e(2, 1), e(2, 1)) == pytest.approx(2.0)

    def test_zero_vector(self, mixed_diag):
        s = split(mixed_diag)
        assert defect_inner(s, np.zeros(2), e(2, 1)) == 0.0

    def test_rejects_vectors_outside_defect_domain(self, mixed_diag):
        s = split(mixed_diag)
        with pytest.raises(DomainError):
            defect_inner(s, e(2, 0), e(2, 1))

    def test_positive_definite_on_defect_domain(self):
        rng = np.random.default_rng(5)
        op = random_dissipative(6, rng)
        s = split(op)
        for _ in range(10):
            c = rng.standard_normal(s.defect.domain.dim) + 1j * rng.standard_normal(
                s.defect.domain.dim
            )
            if np.linalg.norm(c) < 1e-8:
                continue
            x = s.defect.domain.basis @ c
            assert defect_inner(s, x, x).real > 0


class TestSquareRootBridge:
    def test_kernel_is_symmetric_domain_and_restriction_is_isometry(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            n = int(rng.integers(2, 8))
            op = random_dissipative(n, rng)
            s = split(op)
            rep = riesz_representer(op)
            kernel = rep.kernel_vectors(op, 1e-8)
            assert gap_distance(kernel, s.symmetric.domain) < 1e-8
            # sqrt(F) restricted to the defect domain is injective with
            # defect_inner(x, x) = |sqrt(F) x|_graph^2
            bn = s.defect.domain.basis
            coords = np.column_stack(
                [rep.coords(op, bn[:, k]) for k in range(bn.shape[1])]
            ) if bn.shape[1] else np.zeros((rep.dim, 0))
            images = rep.sqrt_matrix @ coords
            if images.shape[1]:
                smin = np.linalg.svd(images, compute_uv=False)[-1]
                assert smin > 1e-8
            for k in range(bn.shape[1]):
                x = bn[:, k]
                lhs = defect_inner(s, x, x).real
                rhs = float(np.vdot(images[:, k], images[:, k]).real)
                assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-10)
