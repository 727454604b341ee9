import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kreinpair import (
    DimensionMismatch,
    KreinSpace,
    LinearRelation,
    MetricError,
    Subspace,
    eigenspace,
    gap_distance,
    intersect,
    ortho_complement,
    orthonormal_span,
    relation_adjoint,
    relation_inverse,
    relation_parts,
    subspace_sum,
)
from kreinpair.subspaces import MetricMatrix, null_space

from conftest import count_svd_backed, e


def random_subspace(n, k, rng):
    m = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    return orthonormal_span(m, n)


class TestOrthonormalSpan:
    def test_collinear_vectors_give_rank_one(self):
        s = orthonormal_span([np.array([1.0, 0.0]), np.array([2.0, 0.0])])
        assert s.dim == 1
        assert s.contains(e(2, 0))

    def test_empty_span_is_zero_subspace(self):
        s = orthonormal_span([], ambient_dim=3)
        assert s.is_zero and s.ambient_dim == 3

    def test_independent_vectors_span_plane(self):
        v1, v2 = np.array([1.0, 1.0]), np.array([1.0, -1.0])
        # independence oracle: Gram determinant
        gram = np.array([[np.vdot(v1, v1), np.vdot(v1, v2)],
                         [np.vdot(v2, v1), np.vdot(v2, v2)]])
        assert abs(np.linalg.det(gram)) > 1e-12
        assert orthonormal_span([v1, v2]).is_full

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionMismatch):
            orthonormal_span([np.ones(2), np.ones(3)])

    def test_basis_is_orthonormal_within_tolerance(self):
        rng = np.random.default_rng(0)
        s = random_subspace(7, 4, rng)
        assert gap_distance(s, orthonormal_span(s.basis, 7)) <= 10 * s.tol

    def test_zero_ambient_dimension_rejected(self):
        with pytest.raises(DimensionMismatch):
            Subspace(0, None)


class TestIntersect:
    def test_idempotent(self):
        a = orthonormal_span([e(2, 0)])
        assert gap_distance(intersect(a, a), a) < 1e-12

    def test_orthogonal_lines_meet_trivially(self):
        a, b = orthonormal_span([e(2, 0)]), orthonormal_span([e(2, 1)])
        assert intersect(a, b).is_zero

    def test_shared_direction(self):
        shared = np.array([1.0, 1.0, 0.0])
        a = orthonormal_span([shared, e(3, 2)])
        b = orthonormal_span([shared, e(3, 0)])
        meet = intersect(a, b)
        # oracle: solve a_coeffs, b_coeffs with A a = B b directly
        stacked = np.hstack([a.basis, -b.basis])
        coeffs = null_space(stacked)
        expected = orthonormal_span(a.basis @ coeffs[: a.dim], 3)
        assert meet.dim == 1
        assert gap_distance(meet, expected) < 1e-10
        assert meet.contains(shared / np.linalg.norm(shared))

    def test_ambient_mismatch(self):
        with pytest.raises(DimensionMismatch):
            intersect(orthonormal_span([e(2, 0)]), orthonormal_span([e(3, 0)]))


class TestSumAndComplement:
    def test_euclidean_complement_of_axis(self):
        c = ortho_complement(orthonormal_span([e(2, 0)]))
        assert gap_distance(c, orthonormal_span([e(2, 1)])) < 1e-12

    def test_neutral_line_is_self_orthogonal(self):
        line = orthonormal_span([np.array([1.0, 1.0])])
        j = np.diag([1.0, -1.0])
        v = np.array([1.0, 1.0])
        assert abs(np.vdot(v, j @ v)) < 1e-14  # the defining computation
        c = ortho_complement(line, j)
        assert gap_distance(c, line) < 1e-10

    def test_sum_of_axes_is_full(self):
        s = subspace_sum(orthonormal_span([e(2, 0)]), orthonormal_span([e(2, 1)]))
        assert s.is_full

    def test_complement_needs_hermitian_metric(self):
        with pytest.raises(MetricError):
            ortho_complement(orthonormal_span([e(2, 0)]), np.array([[0, 1], [0, 0]]))

    def test_duality(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            n = int(rng.integers(1, 8))
            k = int(rng.integers(0, n + 1))
            a = random_subspace(n, k, rng) if k else Subspace.zero(n)
            twice = ortho_complement(ortho_complement(a))
            assert gap_distance(twice, a) < 1e-10
            assert a.dim + ortho_complement(a).dim == n


class TestGapDistance:
    def test_identical(self):
        a = orthonormal_span([e(2, 0)])
        assert gap_distance(a, a) == 0.0

    def test_orthogonal_lines(self):
        assert gap_distance(
            orthonormal_span([e(2, 0)]), orthonormal_span([e(2, 1)])
        ) == pytest.approx(1.0)

    def test_rotation_angle(self):
        theta = 0.3
        rotated = orthonormal_span(
            [np.array([np.cos(theta), np.sin(theta)])]
        )
        pairs = [(orthonormal_span([e(2, 0)]), rotated)]
        rng = np.random.default_rng(3)
        for n, k in [(3, 1), (5, 2), (6, 3), (8, 7)]:
            pairs.append((random_subspace(n, k, rng), random_subspace(n, k, rng)))
        for a, b in pairs:
            # oracle: dense SVD of the projector difference
            expected = np.linalg.svd(a.projector() - b.projector(),
                                     compute_uv=False)[0]
            assert gap_distance(a, b) == pytest.approx(expected, rel=1e-12)
        assert gap_distance(*pairs[0]) == pytest.approx(np.sin(theta))

    def test_bounded_and_symmetric(self):
        rng = np.random.default_rng(2)
        a = random_subspace(6, 2, rng)
        b = random_subspace(6, 4, rng)
        assert 0.0 <= gap_distance(a, b) <= 1.0 + 1e-14
        assert gap_distance(a, b) == pytest.approx(gap_distance(b, a))


class TestRelationParts:
    def test_identity_graph(self):
        rel = LinearRelation.from_operator(np.eye(2))
        dom, ran, ker, mul = relation_parts(rel)
        assert dom.is_full and ran.is_full and ker.is_zero and mul.is_zero
        assert rel.is_operator

    def test_purely_multivalued(self):
        graph = orthonormal_span([np.array([0.0, 1.0])])  # pairs (0, y)
        rel = LinearRelation(1, 1, graph)
        dom, ran, ker, mul = relation_parts(rel)
        assert dom.is_zero and mul.dim == 1

    def test_inverse_swaps(self):
        rel = LinearRelation.from_operator(np.diag([1.0, 1j]))
        inv = relation_inverse(rel)
        expected = LinearRelation.from_operator(np.diag([1.0, -1j]))
        assert gap_distance(inv.graph, expected.graph) < 1e-12

    def test_dimension_bookkeeping(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            l, r = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            g = random_subspace(l + r, int(rng.integers(0, l + r + 1)), rng)
            rel = LinearRelation(l, r, g)
            assert rel.dom.dim + rel.mul.dim == rel.graph.dim
            assert rel.ran.dim + rel.ker.dim == rel.graph.dim


class TestRelationAdjoint:
    def test_hermitian_is_self_adjoint(self):
        rel = LinearRelation.from_operator(np.diag([1.0, 2.0]))
        adj = relation_adjoint(rel)
        assert gap_distance(adj.graph, rel.graph) < 1e-12

    def test_trivial_domain_has_full_adjoint(self):
        domain = Subspace.zero(1)
        rel = LinearRelation.from_operator(np.zeros((1, 1)), domain)
        adj = relation_adjoint(rel)
        assert adj.graph.is_full

    def test_krein_metric_adjoint(self):
        j = np.diag([1.0, -1.0])
        t = np.diag([1j, -1j])
        adj = relation_adjoint(LinearRelation.from_operator(t), j, j)
        expected = LinearRelation.from_operator(np.diag([-1j, 1j]))
        assert gap_distance(adj.graph, expected.graph) < 1e-12
        # pairing identity [Tx, y] = [x, T^c y] over random samples
        rng = np.random.default_rng(4)
        tc = np.diag([-1j, 1j])
        for _ in range(100):
            x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            lhs = np.vdot(t @ x, j @ y)
            rhs = np.vdot(x, j @ (tc @ y))
            assert abs(lhs - rhs) < 1e-12

    def test_double_adjoint_returns_the_relation(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            n = int(rng.integers(1, 5))
            g = random_subspace(2 * n, int(rng.integers(0, 2 * n + 1)), rng)
            rel = LinearRelation(n, n, g)
            signs = rng.choice([-1.0, 1.0], size=n)
            u, _ = np.linalg.qr(rng.standard_normal((n, n))
                                + 1j * rng.standard_normal((n, n)))
            j = (u * signs) @ u.conj().T
            twice = relation_adjoint(relation_adjoint(rel, j, j), j, j)
            assert gap_distance(twice.graph, rel.graph) < 1e-9

    def test_non_involutive_metric_rejected(self):
        rel = LinearRelation.from_operator(np.eye(2))
        with pytest.raises(MetricError):
            relation_adjoint(rel, np.diag([2.0, 1.0]), None)


class TestEigenspace:
    def test_diagonal(self):
        rel = LinearRelation.from_operator(np.diag([1.0, 1j]))
        s = eigenspace(rel, 1j)
        assert gap_distance(s, orthonormal_span([e(2, 1)])) < 1e-12

    def test_full_relation_has_every_eigenvalue(self):
        rel = LinearRelation.full(1, 1)
        assert eigenspace(rel, 1j).is_full

    def test_nilpotent_kernel(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        s = eigenspace(LinearRelation.from_operator(m), 0.0)
        assert gap_distance(s, orthonormal_span([e(2, 0)])) < 1e-12

    def test_matches_dense_nullspace_oracle(self):
        rng = np.random.default_rng(6)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        lam = complex(np.linalg.eigvals(m)[0])
        s = eigenspace(LinearRelation.from_operator(m), lam)
        oracle = orthonormal_span(null_space(m - lam * np.eye(4), 1e-8), 4)
        assert s.dim == oracle.dim
        assert gap_distance(s, oracle) < 1e-6


class TestMetricMatrix:
    def test_rejects_non_hermitian(self):
        with pytest.raises(MetricError):
            MetricMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_involutive_canonical(self):
        with pytest.raises(MetricError):
            MetricMatrix(np.diag([2.0, 1.0]), canonical=True)

    def test_accepts_signature_matrix(self):
        m = MetricMatrix(np.diag([1.0, -1.0]), canonical=True)
        assert m.canonical and m.dim == 2

    @staticmethod
    def dense_verdict(m, canonical, tol):
        """The checks through three dense 2-norms (SVDs), the reference for
        the diagonal route: ``(verdict, scale)``."""
        scale = np.linalg.norm(m, 2)
        if np.linalg.norm(m - m.conj().T, 2) > 10 * tol * scale:
            return "not Hermitian", scale
        if canonical and (np.linalg.norm(m @ m - np.eye(m.shape[0]), 2)
                          > 10 * tol * scale * scale):
            return "not an involution", scale
        return "ok", scale

    @staticmethod
    def verdict(m, canonical, tol):
        try:
            metric = MetricMatrix(m, canonical=canonical, tol=tol)
        except MetricError as exc:
            kind = "not Hermitian" if "Hermitian" in str(exc) else "not an involution"
            return kind, None
        return "ok", metric.scale

    # entries within a factor 2 of the 10 tol cuts, on each side: 1 + i delta
    # has |d - conj d| = 2 delta, and 1 + delta has |d^2 - 1| ~ 2 delta
    NEAR_CUTS = [[1.0, -1.0, 1.0 + 1j * f * 5e-10] for f in (0.5, 2.0)] + [
        [1.0, -1.0, 1.0 + f * 5e-10] for f in (0.5, 2.0)]

    @pytest.mark.parametrize("diagonal", [
        [1.0, -1.0, -1.0, 1.0, 1.0],
        [1.0, -1.0, 1j],
        [1.0, 0.5 - 0.5j],
        [2.0, 1.0],
        [0.5, -3.0, 1.0],
        [0.0, 1.0],
    ] + NEAR_CUTS)
    @pytest.mark.parametrize("canonical", [True, False])
    def test_diagonal_route_matches_dense_norms(self, monkeypatch, diagonal,
                                                canonical):
        m = np.diag(np.asarray(diagonal, dtype=np.complex128))
        expected, scale = self.dense_verdict(m, canonical, 1e-10)
        counts = count_svd_backed(monkeypatch)
        got, got_scale = self.verdict(m, canonical, 1e-10)
        assert counts == {"svd": 0, "norm2": 0}
        assert got == expected
        if expected == "ok":
            assert got_scale == pytest.approx(scale, rel=1e-15, abs=0.0)

    def test_near_cut_cases_straddle_both_cuts(self):
        verdicts = [self.dense_verdict(np.diag(d), True, 1e-10)[0]
                    for d in self.NEAR_CUTS]
        assert verdicts == ["ok", "not Hermitian", "ok", "not an involution"]

    @pytest.mark.parametrize("m", [
        np.array([[0.0, 1.0], [1.0, 0.0]]),
        np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]),
    ])
    def test_non_diagonal_metric_takes_the_dense_norms(self, monkeypatch, m):
        counts = count_svd_backed(monkeypatch)
        metric = MetricMatrix(m, canonical=True)
        assert counts == {"svd": 0, "norm2": 3}
        assert metric.scale == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("m,diagonal", [
        (np.eye(3), True),
        (np.diag([1.0, -1.0, 1.0]), True),
        (np.diag([0.0, 1.0]), True),
        (np.array([[0.0, 1.0], [1.0, 0.0]]), False),
        (np.array([[1.0, 1e-300], [1e-300, 1.0]]), False),  # exact, no tolerance
    ])
    def test_diagonal_flag(self, m, diagonal):
        assert MetricMatrix(m).diagonal is diagonal

    def test_identity_metric_needs_no_svd(self, monkeypatch):
        counts = count_svd_backed(monkeypatch)
        KreinSpace(np.eye(256))
        assert counts == {"svd": 0, "norm2": 0}


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_complement_duality_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    k = int(rng.integers(0, n + 1))
    a = random_subspace(n, k, rng) if k else Subspace.zero(n)
    assert gap_distance(ortho_complement(ortho_complement(a)), a) < 1e-10


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_gap_triangle_inequality_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    a = random_subspace(n, int(rng.integers(1, n)), rng)
    b = random_subspace(n, int(rng.integers(1, n)), rng)
    c = random_subspace(n, int(rng.integers(1, n)), rng)
    assert gap_distance(a, c) <= gap_distance(a, b) + gap_distance(b, c) + 1e-12
