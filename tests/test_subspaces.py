import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kreinpair import (
    DEFAULT_TOL,
    DimensionMismatch,
    KreinSpace,
    MetricError,
    OperatorWithDomain,
    Subspace,
    gap_distance,
    orthonormal_span,
)
from kreinpair.instances import random_unitary
from kreinpair.subspaces import null_space

from conftest import (
    adjoint_relation,
    complement,
    contains,
    count_svd_backed,
    e,
    intersect,
    matrix_graph,
    relation_eigenspace,
    span,
)


def random_subspace(n, k, rng):
    m = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    return orthonormal_span(m)


class TestOrthonormalSpan:
    def test_collinear_vectors_give_rank_one(self):
        s = span(np.array([1.0, 0.0]), np.array([2.0, 0.0]))
        assert s.dim == 1
        assert contains(s, e(2, 0))

    def test_empty_span_is_zero_subspace(self):
        s = orthonormal_span(np.zeros((3, 0)))
        assert s.is_zero and s.ambient_dim == 3

    def test_independent_vectors_span_plane(self):
        v1, v2 = np.array([1.0, 1.0]), np.array([1.0, -1.0])
        # independence oracle: Gram determinant
        gram = np.array([[np.vdot(v1, v1), np.vdot(v1, v2)],
                         [np.vdot(v2, v1), np.vdot(v2, v2)]])
        assert abs(np.linalg.det(gram)) > 1e-12
        assert span(v1, v2).is_full

    def test_non_matrix_rejected(self):
        for data in (np.ones((2, 2, 2)), np.array([[1.0, np.nan]])):
            with pytest.raises(DimensionMismatch):
                orthonormal_span(data)

    def test_basis_is_orthonormal_within_tolerance(self):
        rng = np.random.default_rng(0)
        s = random_subspace(7, 4, rng)
        assert gap_distance(s, orthonormal_span(s.basis)) <= 10 * DEFAULT_TOL

    def test_zero_ambient_dimension_rejected(self):
        with pytest.raises(DimensionMismatch):
            Subspace(0, None)

    def test_numpy_integer_ambient_dimension_accepted(self):
        s = Subspace(np.int64(2), np.eye(2)[:, :1])
        assert type(s.ambient_dim) is int and s.ambient_dim == 2 and s.dim == 1


class TestIntersect:
    """The complement-of-sum route of ``conftest``, the oracle of the
    deficiency intersection, on closed forms."""

    def test_idempotent(self):
        a = span(e(2, 0))
        assert gap_distance(intersect(a, a), a) < 1e-12

    def test_orthogonal_lines_meet_trivially(self):
        a, b = span(e(2, 0)), span(e(2, 1))
        assert intersect(a, b).is_zero

    def test_shared_direction(self):
        shared = np.array([1.0, 1.0, 0.0])
        a = span(shared, e(3, 2))
        b = span(shared, e(3, 0))
        meet = intersect(a, b)
        # oracle: solve a_coeffs, b_coeffs with A a = B b directly
        stacked = np.hstack([a.basis, -b.basis])
        coeffs = null_space(stacked)
        expected = orthonormal_span(a.basis @ coeffs[: a.dim])
        assert meet.dim == 1
        assert gap_distance(meet, expected) < 1e-10
        assert contains(meet, shared / np.linalg.norm(shared))


class TestSumAndComplement:
    """The Euclidean complement of ``conftest`` on closed forms."""

    def test_euclidean_complement_of_axis(self):
        c = complement(span(e(2, 0)))
        assert gap_distance(c, span(e(2, 1))) < 1e-12

    def test_neutral_line_is_self_orthogonal(self):
        line = span(np.array([1.0, 1.0]))
        j = np.diag([1.0, -1.0])
        v = np.array([1.0, 1.0])
        assert abs(np.vdot(v, j @ v)) < 1e-14  # the defining computation
        # {y : <u, J y> = 0 for u in line} is the complement of J line
        c = complement(orthonormal_span(j @ line.basis))
        assert gap_distance(c, line) < 1e-10

    def test_sum_of_axes_is_full(self):
        a, b = span(e(2, 0)), span(e(2, 1))
        assert orthonormal_span(np.hstack([a.basis, b.basis])).is_full

    def test_duality(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            n = int(rng.integers(1, 8))
            k = int(rng.integers(0, n + 1))
            a = random_subspace(n, k, rng) if k else Subspace.zero(n)
            twice = complement(complement(a))
            assert gap_distance(twice, a) < 1e-10
            assert a.dim + complement(a).dim == n


class TestGapDistance:
    def test_identical(self):
        a = span(e(2, 0))
        assert gap_distance(a, a) == 0.0

    def test_orthogonal_lines(self):
        assert gap_distance(span(e(2, 0)), span(e(2, 1))) == pytest.approx(1.0)

    def test_ambient_mismatch(self):
        with pytest.raises(DimensionMismatch):
            gap_distance(span(e(2, 0)), span(e(3, 0)))

    def test_rotation_angle(self):
        theta = 0.3
        rotated = span(np.array([np.cos(theta), np.sin(theta)]))
        pairs = [(span(e(2, 0)), rotated)]
        rng = np.random.default_rng(3)
        for n, k in [(3, 1), (5, 2), (6, 3), (8, 7)]:
            pairs.append((random_subspace(n, k, rng), random_subspace(n, k, rng)))
        for a, b in pairs:
            # oracle: dense SVD of the projector difference
            pa, pb = (s.basis @ s.basis.conj().T for s in (a, b))
            expected = np.linalg.svd(pa - pb, compute_uv=False)[0]
            assert gap_distance(a, b) == pytest.approx(expected, rel=1e-12)
        assert gap_distance(*pairs[0]) == pytest.approx(np.sin(theta))

    def test_bounded_and_symmetric(self):
        rng = np.random.default_rng(2)
        a = random_subspace(6, 2, rng)
        b = random_subspace(6, 4, rng)
        assert 0.0 <= gap_distance(a, b) <= 1.0 + 1e-14
        assert gap_distance(a, b) == pytest.approx(gap_distance(b, a))


class TestSubspaceFull:
    @pytest.mark.parametrize("n", [1, 5, 64])
    def test_identity_basis(self, n):
        full = Subspace.full(n)
        assert full.basis.dtype == np.complex128
        assert np.array_equal(full.basis, np.eye(n))
        assert not full.basis.flags.writeable
        assert full.is_full

    def test_no_orthonormality_check(self, monkeypatch):
        # the constructor's check is the Frobenius norm of B* B - I
        calls = []
        norm = np.linalg.norm
        monkeypatch.setattr(np.linalg, "norm",
                            lambda *a, **k: calls.append(1) or norm(*a, **k))
        Subspace.full(256)
        assert calls == []
        Subspace(3, np.eye(3)[:, :2])
        assert len(calls) == 1

    def test_other_constructors_keep_the_check(self):
        with pytest.raises(DimensionMismatch):
            Subspace(2, np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestCallerArrays:
    """Constructors keep a read-only array of their own: a private copy of
    a writeable input, the input itself when it is already read-only."""

    STORED = {
        "KreinSpace": lambda a: KreinSpace(a).J,
        "OperatorWithDomain": lambda a: OperatorWithDomain(KreinSpace(np.eye(2)),
                                                           a).matrix,
        "Subspace": lambda a: Subspace(2, a).basis,
    }

    @pytest.mark.parametrize("kind", STORED)
    def test_writeable_input_stays_writeable(self, kind):
        a = np.eye(2, dtype=np.complex128)
        stored = self.STORED[kind](a)
        assert not stored.flags.writeable
        a[0, 0] = 5.0
        assert stored[0, 0] == 1.0

    @pytest.mark.parametrize("kind", STORED)
    def test_read_only_input_is_shared(self, kind):
        a = np.eye(2, dtype=np.complex128)
        a.flags.writeable = False
        assert self.STORED[kind](a) is a


def graph_parts(graph):
    """Domain, range, kernel and multivalued part of a graph in C^n x C^n."""
    n = graph.ambient_dim // 2
    top, bot = graph.basis[:n], graph.basis[n:]

    def span(m):
        return orthonormal_span(m, scale=1.0)

    return (span(top), span(bot), span(top @ null_space(bot, scale=1.0)),
            span(bot @ null_space(top, scale=1.0)))


class TestRelationParts:
    """The parts of ``OperatorWithDomain.graph`` as a relation."""

    def test_identity_graph(self):
        op = OperatorWithDomain(KreinSpace(np.eye(2)), np.eye(2))
        dom, ran, ker, mul = graph_parts(op.graph)
        assert dom.is_full and ran.is_full and ker.is_zero and mul.is_zero

    def test_dimension_bookkeeping(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            m[:, 0] = 0.0  # a kernel direction
            d = int(rng.integers(0, n + 1))
            domain = random_subspace(n, d, rng) if d else Subspace.zero(n)
            op = OperatorWithDomain(KreinSpace(np.eye(n)), m, domain)
            dom, ran, ker, mul = graph_parts(op.graph)
            assert op.graph.dim == d and mul.is_zero
            assert gap_distance(dom, domain) < 1e-10
            assert ran.dim + ker.dim == op.graph.dim


class TestRelationAdjoint:
    """The adjoint-relation route of ``conftest``, the oracle of the
    boundary-triple tests, on closed forms."""

    def test_hermitian_is_self_adjoint(self):
        graph = matrix_graph(np.diag([1.0, 2.0]), np.eye(2))
        adj = adjoint_relation(graph)
        assert gap_distance(adj, graph) < 1e-12

    def test_trivial_domain_has_full_adjoint(self):
        graph = matrix_graph(np.zeros((1, 1)), np.zeros((1, 0)))
        assert adjoint_relation(graph).is_full

    def test_krein_metric_adjoint(self):
        j = np.diag([1.0, -1.0])
        t = np.diag([1j, -1j])
        adj = adjoint_relation(matrix_graph(t, np.eye(2)), j)
        expected = matrix_graph(np.diag([-1j, 1j]), np.eye(2))
        assert gap_distance(adj, expected) < 1e-12
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
            k = int(rng.integers(0, 2 * n + 1))
            g = random_subspace(2 * n, k, rng) if k else Subspace.zero(2 * n)
            signs = rng.choice([-1.0, 1.0], size=n)
            u, _ = np.linalg.qr(rng.standard_normal((n, n))
                                + 1j * rng.standard_normal((n, n)))
            j = (u * signs) @ u.conj().T
            twice = adjoint_relation(adjoint_relation(g, j), j)
            assert gap_distance(twice, g) < 1e-9


class TestEigenspace:
    """The relation-eigenspace route of ``conftest`` on closed forms."""

    def test_diagonal(self):
        s = relation_eigenspace(matrix_graph(np.diag([1.0, 1j]), np.eye(2)), 1j)
        assert gap_distance(s, span(e(2, 1))) < 1e-12

    def test_full_relation_has_every_eigenvalue(self):
        assert relation_eigenspace(Subspace.full(2), 1j).is_full

    def test_nilpotent_kernel(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        s = relation_eigenspace(matrix_graph(m, np.eye(2)), 0.0)
        assert gap_distance(s, span(e(2, 0))) < 1e-12

    def test_matches_dense_nullspace_oracle(self):
        rng = np.random.default_rng(6)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        lam = complex(np.linalg.eigvals(m)[0])
        s = relation_eigenspace(matrix_graph(m, np.eye(4)), lam)
        oracle = orthonormal_span(null_space(m - lam * np.eye(4), 1e-8))
        assert s.dim == oracle.dim
        assert gap_distance(s, oracle) < 1e-6


def near_cut_dense_pass():
    """A non-diagonal J that passes both dense cuts of ``KreinSpace`` within
    a factor 1.25 but fails their Frobenius bounds: five eigenvalues
    1 + 4e-10 i, each with |d - conj d| = |d^2 - 1| = 8e-10 against the cut
    1e-9, summed to 1.8e-9 in the Frobenius norm, in a random frame."""
    u = random_unitary(5, np.random.default_rng(3))
    return u @ np.diag(np.full(5, 1.0 + 4e-10j)) @ u.conj().T


class TestMetricMatrix:
    """The validation of J that ``KreinSpace`` makes: a canonical symmetry
    is a Hermitian involution."""

    def test_rejects_non_hermitian(self):
        with pytest.raises(MetricError):
            KreinSpace(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_involutive_canonical(self):
        with pytest.raises(MetricError):
            KreinSpace(np.diag([2.0, 1.0]))

    def test_accepts_signature_matrix(self):
        space = KreinSpace(np.diag([1.0, -1.0]))
        assert space.dim == 2

    @staticmethod
    def dense_verdict(m, tol):
        """The checks through three dense 2-norms (SVDs), the reference of
        the Frobenius-first route."""
        scale = np.linalg.norm(m, 2)
        if np.linalg.norm(m - m.conj().T, 2) > 10 * tol * scale:
            return "not Hermitian"
        if np.linalg.norm(m @ m - np.eye(m.shape[0]), 2) > 10 * tol * scale * scale:
            return "not an involution"
        return "ok"

    @staticmethod
    def verdict(m, tol):
        try:
            space = KreinSpace(m, tol=tol)
        except MetricError as exc:
            return "not Hermitian" if "Hermitian" in str(exc) else "not an involution"
        return "ok"

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
    # J and -J: both canonical symmetries or neither
    @pytest.mark.parametrize("negated", [True, False])
    def test_diagonal_route_matches_dense_norms(self, diagonal, negated):
        # a diagonal J has no route of its own: it is checked Frobenius-first
        # and, near or past a cut, by the dense norms, like any other J
        m = np.diag(np.asarray(diagonal, dtype=np.complex128))
        if negated:
            m = -m
        assert self.verdict(m, 1e-10) == self.dense_verdict(m, 1e-10)

    def test_near_cut_cases_straddle_both_cuts(self):
        verdicts = [self.dense_verdict(np.diag(d), 1e-10)
                    for d in self.NEAR_CUTS]
        assert verdicts == ["ok", "not Hermitian", "ok", "not an involution"]

    @pytest.mark.parametrize("m, norms", [
        (np.array([[0.0, 1.0], [1.0, 0.0]]), 0),
        (np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]), 0),
        (near_cut_dense_pass(), 3),
    ], ids=["m0", "m1", "near_cut"])
    def test_non_diagonal_metric_takes_the_dense_norms(self, monkeypatch, m,
                                                       norms):
        # a valid J passes by its Frobenius bounds; only one the bounds
        # cannot accept takes the three dense 2-norms
        counts = count_svd_backed(monkeypatch)
        KreinSpace(m)
        assert counts == {"svd": 0, "norm2": norms}
        assert self.dense_verdict(m, 1e-10) == "ok"

    @pytest.mark.parametrize("diagonal", NEAR_CUTS)
    @pytest.mark.parametrize("negated", [True, False])
    def test_frobenius_route_matches_dense_norms(self, diagonal, negated):
        # the near-cut diagonals in a random frame, where J is not diagonal
        u = random_unitary(3, np.random.default_rng(4))
        m = u @ np.diag(np.asarray(diagonal, dtype=np.complex128)) @ u.conj().T
        if negated:
            m = -m
        assert self.verdict(m, 1e-10) == self.dense_verdict(m, 1e-10)

    FRAME = random_unitary(3, np.random.default_rng(5))

    @pytest.mark.parametrize("m", [
        np.diag([1e200, 1e200]),
        1e200 * np.eye(3),
        np.diag([1e160, -1e160]),
        FRAME @ np.diag([1e200, 1.0, 1.0]) @ FRAME.conj().T,
        np.zeros((1, 1)),
        np.zeros((3, 3)),
        1e-200 * np.eye(2),
    ], ids=["diag_1e200", "scaled_identity", "diag_pm_1e160", "framed_1e200",
            "zero_1", "zero_3", "tiny_identity"])
    def test_norm_far_from_one_is_no_involution(self, monkeypatch, m):
        # a Hermitian involution is unitary: J is rejected on |J|_2 before
        # J^2 could overflow, with no warning (warnings are errors here)
        counts = count_svd_backed(monkeypatch)
        with pytest.raises(MetricError, match="square to the identity"):
            KreinSpace(m)
        # only the Hermitian check's two 2-norms, on J over its peak
        assert counts == {"svd": 0, "norm2": 2}

    @pytest.mark.parametrize("m", [
        np.array([[0.0, 1e300], [0.0, 0.0]]),
        np.array([[1e308, -1.7e308], [1.7e308, 0.0]]),  # J - J* overflows
        np.array([[1.7e308 + 1.7e308j]]),  # |J_11| overflows
    ], ids=["nilpotent", "skew_overflow", "modulus_overflow"])
    def test_large_non_hermitian_metric(self, m):
        with pytest.raises(MetricError, match="not Hermitian"):
            KreinSpace(m)

    # the defects J - J* and J^2 - I have subnormal entries, or J itself
    # does; a complex division by a subnormal peak overflowed here
    SUBNORMAL = {
        "subnormal_corner": (np.array([[1.0, 0.0], [0.0, 5e-324 + 5e-324j]]),
                             "square to the identity"),
        "subnormal_skew": (np.array([[1.0, 0.0], [5e-324 + 5e-324j, 0.0]]),
                           "square to the identity"),
        "all_subnormal": (np.array([[5e-324 + 5e-324j]]), "not Hermitian"),
    }

    @pytest.mark.parametrize("name", sorted(SUBNORMAL))
    def test_subnormal_metric_is_rejected_without_warnings(self, name):
        m, message = self.SUBNORMAL[name]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(MetricError, match=message):
                KreinSpace(m)
        assert caught == []

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
    assert gap_distance(complement(complement(a)), a) < 1e-10


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_gap_triangle_inequality_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    a = random_subspace(n, int(rng.integers(1, n)), rng)
    b = random_subspace(n, int(rng.integers(1, n)), rng)
    c = random_subspace(n, int(rng.integers(1, n)), rng)
    assert gap_distance(a, c) <= gap_distance(a, b) + gap_distance(b, c) + 1e-12
