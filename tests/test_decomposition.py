import numpy as np
import pytest

from kreinpair import (
    ClassificationError,
    build_boundary_triple,
    KreinSpace,
    OperatorWithDomain,
    defect_domain_via_resolvent,
    deficiency_space,
    dissipative_part,
    gap_distance,
    orthonormal_span,
    split,
    symmetric_part,
)
from kreinpair.analysis import analyze_operator
from kreinpair.cli import dump_instance, main
from kreinpair.decomposition import graph_orthocomplement_within
from kreinpair.instances import random_canonical_symmetry, random_dissipative
from kreinpair.subspaces import Subspace, null_space

from conftest import (
    contains,
    count_svd_backed,
    e,
    graph_inner,
    intersect,
    record_svd_shapes,
    riesz_coords,
    riesz_representer,
    span,
)


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
        assert gap_distance(sym.domain, span(e(2, 0))) < 1e-12
        assert sym.classify() == "symmetric"

    def test_rejects_non_dissipative(self):
        op = OperatorWithDomain(KreinSpace(np.eye(2)), np.diag([1j, -1j]))
        with pytest.raises(ClassificationError):
            symmetric_part(op)


class TestDissipativePart:
    def test_scalar(self, scalar_i):
        part = dissipative_part(scalar_i)
        assert part.domain.is_full

    def test_hermitian_has_trivial_defect(self, hermitian_full):
        part = dissipative_part(hermitian_full)
        assert part.domain.is_zero

    def test_mixed_diagonal_graph_orthogonality(self, mixed_diag):
        sym = symmetric_part(mixed_diag)
        part = dissipative_part(mixed_diag)
        assert gap_distance(part.domain, span(e(2, 1))) < 1e-12
        # graph-orthogonality: <x, s> + <Tx, Ts> = 0
        x, s = part.domain.basis[:, 0], sym.domain.basis[:, 0]
        value = np.vdot(x, s) + np.vdot(
            mixed_diag.matrix @ x, mixed_diag.matrix @ s
        )
        assert abs(value) < 1e-12

    def test_rejects_non_dissipative(self):
        op = OperatorWithDomain(KreinSpace(np.eye(2)), np.diag([1j, -1j]))
        with pytest.raises(ClassificationError):
            dissipative_part(op)

    def test_split_gram_positive_definite(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            op = random_dissipative(int(rng.integers(2, 9)), rng)
            s = split(op)
            if s.defect.dissipation_gram.shape[0]:
                eigs = np.linalg.eigvalsh(s.defect.dissipation_gram)
                assert eigs[0] > 1e-10 * eigs[-1]


class TestDeficiencySpace:
    def test_scalar_everything_full(self, scalar_i):
        s = split(scalar_i)
        defi = deficiency(scalar_i, s)
        n_plus = build_boundary_triple(s.symmetric).defect_plus
        assert n_plus.is_full and defi.intersection.is_full
        m = defi.intersection.basis
        assert np.allclose(m @ m.conj().T, [[1.0]])

    def test_mixed_diagonal(self, mixed_diag):
        s = split(mixed_diag)
        defi = deficiency(mixed_diag, s)
        n_plus = build_boundary_triple(s.symmetric).defect_plus
        assert gap_distance(n_plus, span(e(2, 1))) < 1e-10
        assert gap_distance(defi.intersection, span(e(2, 1))) < 1e-10
        m = defi.intersection.basis
        assert np.allclose(m @ m.conj().T, np.diag([0.0, 1.0]), atol=1e-10)

    def test_indefinite_metric_pair(self, krein_pm):
        s = split(krein_pm)
        defi = deficiency(krein_pm, s)
        assert build_boundary_triple(s.symmetric).defect_plus.is_full
        m = defi.intersection.basis
        assert np.allclose(m @ m.conj().T, np.eye(2), atol=1e-10)

    @staticmethod
    def _differential_instances():
        rng = np.random.default_rng(11)
        for c in (1e-8, 1.0, 1e8):
            for k in range(12):
                n = int(rng.integers(2, 9))
                domain_dim = int(rng.integers(1, n + 1)) if k % 2 else None
                base = random_dissipative(n, rng, domain_dim=domain_dim)
                yield OperatorWithDomain(base.space, c * base.matrix, base.domain)
        # a J-self-adjoint T (k = 0) and a full-rank dissipation (trivial S)
        j = random_canonical_symmetry(5, rng)
        h = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        yield OperatorWithDomain(KreinSpace(j), j @ (h + h.conj().T))
        yield random_dissipative(6, rng, defect=6)

    def test_intersection_matches_complement_route(self):
        kinds, domains = set(), set()
        for op in self._differential_instances():
            s = split(op)
            triple = build_boundary_triple(s.symmetric)
            defi = deficiency_space(triple, op)
            q = defi.shifted_qr[0]
            expected = intersect(triple.defect_plus, Subspace(op.space.dim, q), op.tol)
            assert defi.intersection.dim == expected.dim
            assert gap_distance(defi.intersection, expected) <= 1e-10
            kinds.add((triple.space_dim == 0, s.symmetric.domain.is_zero))
            domains.add(op.domain.is_full)
        assert kinds >= {(True, False), (False, True), (False, False)}
        assert domains == {True, False}

    def test_two_svds(self, monkeypatch):
        # dissipation of rank 3 on a 9-dimensional domain: S and N+ are
        # proper, so the intersection takes an SVD of its own, of the sines
        # read from the complement of the range: n - d = 3 rows
        op = random_dissipative(12, np.random.default_rng(3), defect=3, domain_dim=9)
        triple = build_boundary_triple(split(op).symmetric)
        counts = count_svd_backed(monkeypatch)
        shapes = record_svd_shapes(monkeypatch)
        deficiency_space(triple, op)
        assert counts["svd"] <= 2
        assert shapes == [(12 - 9, triple.defect_plus.dim)]

    def test_whole_space_intersection_takes_no_svd(self, monkeypatch):
        # (JT + iI)B spans C^n: the sines have no rows and N+ is the meet
        op = random_dissipative(12, np.random.default_rng(3), defect=3)
        triple = build_boundary_triple(split(op).symmetric)
        shapes = record_svd_shapes(monkeypatch)
        defi = deficiency_space(triple, op)
        assert shapes == []
        assert defi.intersection.dim == triple.defect_plus.dim == 3
        assert gap_distance(defi.intersection, triple.defect_plus) <= 1e-14

    def test_defect_count_full_domain(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n = int(rng.integers(2, 10))
            op = random_dissipative(n, rng)
            s = split(op)
            n_plus = build_boundary_triple(s.symmetric).defect_plus
            assert n_plus.dim == op.domain.dim - s.symmetric.domain.dim


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
        expected = span(inv @ e(2, 1))
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
    """The positive inner product of the defect domain, the defect part's
    ``dissipation_gram``."""

    def test_scalar_value(self, scalar_i):
        s = split(scalar_i)
        assert s.defect.dissipation_gram.shape == (1, 1)
        assert s.defect.dissipation_gram[0, 0] == pytest.approx(2.0)

    def test_mixed_diagonal_value(self, mixed_diag):
        s = split(mixed_diag)
        c = s.defect.domain.basis.conj().T @ e(2, 1)
        assert abs(c[0]) == pytest.approx(1.0)
        assert np.vdot(c, s.defect.dissipation_gram @ c) == pytest.approx(2.0)

    def test_positive_definite_on_defect_domain(self):
        rng = np.random.default_rng(5)
        op = random_dissipative(6, rng)
        s = split(op)
        bn = s.defect.domain.basis
        # the dissipation form of T on defect-basis coordinates
        form = bn.conj().T @ op.dissipation_matrix @ bn
        assert np.allclose(s.defect.dissipation_gram, form, rtol=1e-12, atol=1e-12)
        assert np.array_equal(s.defect.dissipation_gram, s.defect.dissipation_gram.conj().T)
        assert np.linalg.eigvalsh(s.defect.dissipation_gram)[0] > 1e-8


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
            # form[x] = |sqrt(F) x|_graph^2
            bn = s.defect.domain.basis
            images = rep.sqrt_matrix @ riesz_coords(op, bn)
            if images.shape[1]:
                smin = np.linalg.svd(images, compute_uv=False)[-1]
                assert smin > 1e-8
            for k in range(bn.shape[1]):
                x = bn[:, k]
                lhs = np.vdot(x, op.dissipation_matrix @ x).real
                rhs = float(np.vdot(images[:, k], images[:, k]).real)
                assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-10)


def svd_orthocomplement(op, sub):
    """The route ``graph_orthocomplement_within`` replaced: a null space of
    ``K* G`` by an SVD with all right-singular vectors and a rank cut at
    ``tol * sigma_max``.  Kept as the oracle of the differential test."""
    rows = op.coords(sub.basis).conj().T @ op.graph_gram
    return Subspace(op.space.dim, op.lift(null_space(rows, op.tol)))


def random_subspace_of_domain(op, rng):
    d = op.domain.dim
    k = int(rng.integers(0, d + 1))
    raw = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
    return orthonormal_span(op.lift(raw)) if k else Subspace.zero(op.space.dim)


class TestGraphOrthocomplement:
    @pytest.mark.parametrize("c", [1e-8, 1.0, 1e8])
    @pytest.mark.parametrize("restricted", [False, True])
    def test_matches_svd_null_space(self, c, restricted):
        for seed in range(15):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 10))
            base = random_dissipative(
                n, rng, domain_dim=int(rng.integers(1, n)) if restricted else None)
            op = OperatorWithDomain(base.space, c * base.matrix,
                                    base.domain if restricted else None)
            for sub in (op.form_kernel, random_subspace_of_domain(op, rng)):
                got = graph_orthocomplement_within(op, sub)
                assert got.dim == op.domain.dim - sub.dim
                assert gap_distance(got, svd_orthocomplement(op, sub)) <= 1e-12

    def test_graph_orthogonal_and_inside_the_domain(self):
        op = random_dissipative(7, np.random.default_rng(4), domain_dim=5)
        sub = random_subspace_of_domain(op, np.random.default_rng(5))
        comp = graph_orthocomplement_within(op, sub)
        for x in comp.basis.T:
            assert contains(op.domain, x)
            for y in sub.basis.T:
                assert abs(graph_inner(op, x, y)) <= 1e-12 * graph_inner(op, x, x).real


class TestLargeNormRegression:
    """diag(1e6, 0.5, i): |T|^2 = 1e12, so a rank cut at tol * sigma_max of
    ``K* G`` (about 100) dropped the symmetric direction of norm 0.5, whose
    singular value is 1.25, and the split failed its dimension check."""

    @staticmethod
    def operator():
        return OperatorWithDomain(KreinSpace(np.eye(3)), np.diag([1e6, 0.5, 1j]))

    def test_analysis(self):
        report = analyze_operator(self.operator())
        assert report["dims"]["symmetric_part"] == 2
        assert report["dims"]["defect_part"] == 1
        assert all(report["checks"].values()), report["checks"]

    def test_cli_analyze(self, tmp_path):
        path = tmp_path / "large_norm.json"
        dump_instance(self.operator(), path)
        assert main(["analyze", str(path), "-o", str(tmp_path / "report.json")]) == 0
