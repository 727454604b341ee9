import numpy as np
import pytest

from kreinpair import (
    DomainError,
    KreinSpace,
    LinearRelation,
    OperatorWithDomain,
    boundary_map_projection,
    boundary_map_resolvent,
    boundary_preimage,
    build_boundary_triple,
    eigenspace,
    gap_distance,
    krein_adjoint,
    orthonormal_span,
    pair_green_residual,
    real_spectrum_report,
    relation_adjoint,
    restrict_triple,
    split,
    transform_pair,
)
from kreinpair.boundary import (
    defect_trace_matrix,
    restricted_eigenpairs,
    trace_image_gram,
    transform_traces,
)
from kreinpair.decomposition import deficiency_space
from kreinpair.errors import PipelineError
from kreinpair.instances import (
    random_canonical_symmetry,
    random_dissipative,
    real_spectrum_instance,
    scaled_defect_instance,
)
from kreinpair.krein import boundary_metric_matrix

from conftest import e


def pipeline(op):
    s = split(op)
    triple = build_boundary_triple(s.symmetric)
    traces = restrict_triple(triple, op)
    return s, triple, traces


class TestBuildTriple:
    def test_trivial_symmetric_part_dim_one(self, scalar_i):
        s = split(scalar_i)
        triple = build_boundary_triple(s.symmetric)
        assert triple.space_dim == 1
        assert triple.green_residual < 1e-10

    def test_zero_defects_for_selfadjoint(self, hermitian_full):
        s = split(hermitian_full)
        triple = build_boundary_triple(s.symmetric)
        assert triple.space_dim == 0

    def test_traces_vanish_on_symmetric_graph(self, mixed_diag):
        s, triple, traces = pipeline(mixed_diag)
        pair = np.concatenate([e(2, 0), mixed_diag.matrix @ e(2, 0)])
        assert abs(triple.trace0 @ pair) < 1e-12
        assert abs(triple.trace1 @ pair) < 1e-12

    def test_green_identity_on_random_adjoint_samples(self):
        rng = np.random.default_rng(0)
        op = random_dissipative(6, rng)
        s = split(op)
        triple = build_boundary_triple(s.symmetric)
        g = triple.adjoint_graph.basis
        j = op.space.J
        for _ in range(100):
            a = g @ (rng.standard_normal(g.shape[1])
                     + 1j * rng.standard_normal(g.shape[1]))
            b = g @ (rng.standard_normal(g.shape[1])
                     + 1j * rng.standard_normal(g.shape[1]))
            n = op.space.dim
            x, xp = a[:n], a[n:]
            y, yp = b[:n], b[n:]
            lhs = np.vdot(x, j @ yp) - np.vdot(xp, j @ y)
            t0a, t1a = triple.trace0 @ a, triple.trace1 @ a
            t0b, t1b = triple.trace0 @ b, triple.trace1 @ b
            rhs = np.vdot(t0a, t1b) - np.vdot(t1a, t0b)
            assert abs(lhs - rhs) < 1e-10 * max(
                1.0, np.linalg.norm(a) * np.linalg.norm(b)
            )

    def test_surjectivity_equal_defect_coordinates(self):
        rng = np.random.default_rng(1)
        op = random_dissipative(5, rng)
        s, triple, traces = pipeline(op)
        k = triple.space_dim
        assert triple.defect_plus.dim == k == triple.defect_minus.dim
        g = triple.adjoint_graph.basis
        stacked = np.vstack([triple.trace0 @ g, triple.trace1 @ g])
        rank = np.sum(np.linalg.svd(stacked, compute_uv=False) > 1e-10)
        assert rank == 2 * k

    def test_adjoint_graph_matches_krein_adjoint(self):
        rng = np.random.default_rng(2)
        op = random_dissipative(5, rng)
        s = split(op)
        triple = build_boundary_triple(s.symmetric)
        adj = krein_adjoint(s.symmetric)
        assert gap_distance(triple.adjoint_graph, adj.graph) < 1e-10

    @staticmethod
    def _relation_route_defects(sym):
        """N+ and N- as the eigenspaces at +i and -i of the Euclidean
        adjoint relation of JS, the construction this module replaced."""
        hilbertized = LinearRelation.from_operator(
            sym.space.J @ sym.matrix, sym.domain, sym.tol
        )
        adj = relation_adjoint(hilbertized)
        return eigenspace(adj, 1j), eigenspace(adj, -1j)

    def test_defects_match_relation_adjoint_route(self):
        rng = np.random.default_rng(4)
        ops = []
        for k in range(24):
            n = int(rng.integers(2, 9))
            domain_dim = int(rng.integers(1, n + 1)) if k % 3 == 0 else None
            ops.append(random_dissipative(n, rng, domain_dim=domain_dim))
        # edges: full-rank dissipation (trivial S, N+ and N- full) and a
        # self-adjoint T with an indefinite J (zero defect numbers)
        ops.append(random_dissipative(5, rng, defect=5))
        j = random_canonical_symmetry(4, rng)
        h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        ops.append(OperatorWithDomain(KreinSpace(j), j @ (h + h.conj().T)))
        triples = []
        for op in ops:
            sym = split(op).symmetric
            triples.append(build_boundary_triple(sym))
            plus, minus = self._relation_route_defects(sym)
            assert gap_distance(triples[-1].defect_plus, plus) < 1e-10
            assert gap_distance(triples[-1].defect_minus, minus) < 1e-10
        trivial, selfadjoint = triples[-2:]
        assert trivial.defect_plus.is_full and trivial.defect_minus.is_full
        assert selfadjoint.space_dim == 0

    def test_isometry_of_traces(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            op = random_dissipative(int(rng.integers(2, 8)), rng)
            s = split(op)
            triple = build_boundary_triple(s.symmetric)
            assert triple.green_residual < 1e-10


class TestRestrictTriple:
    def test_scalar_image_is_positive_line(self, scalar_i):
        s, triple, traces = pipeline(scalar_i)
        assert traces.image.dim == 1
        assert np.linalg.eigvalsh(traces.image_gram)[0] > 0

    def test_symmetric_image_trivial(self, hermitian_full):
        s, triple, traces = pipeline(hermitian_full)
        assert traces.boundary_dim == 0
        assert traces.image_gram.shape == (0, 0)

    def test_image_dim_matches_defect_dim(self, mixed_diag):
        s, triple, traces = pipeline(mixed_diag)
        assert traces.image.dim == 1 == s.defect.domain.dim

    def test_restriction_to_symmetric_part_kills_ranges(self, mixed_diag):
        # an ordinary triple restricted to a proper subset need not have
        # surjective component maps
        s, triple, _ = pipeline(mixed_diag)
        traces_s = restrict_triple(triple, s.symmetric)
        assert traces_s.boundary_dim == 1
        assert np.linalg.norm(traces_s.trace1) < 1e-12
        assert traces_s.image is not None and traces_s.image.dim == 0

    def test_containment_violation_detected(self, mixed_diag, krein_pm):
        s, triple, _ = pipeline(mixed_diag)
        with pytest.raises(PipelineError):
            restrict_triple(triple, krein_pm)

    def test_scalar_gram_value(self, scalar_i):
        _, _, traces = pipeline(scalar_i)
        # single Gram entry of the image line
        u = np.concatenate([traces.trace0[:, 0], traces.trace1[:, 0]])
        meta = boundary_metric_matrix(1)
        expected = np.vdot(u, meta @ u).real / np.vdot(u, u).real
        assert traces.image_gram[0, 0].real == pytest.approx(expected)
        assert expected > 0

    def test_gram_eigenvalue_shrinks_with_defect_scale(self):
        smallest = []
        for eps in (1.0, 0.1, 0.01):
            op = scaled_defect_instance(eps)
            _, _, traces = pipeline(op)
            smallest.append(np.linalg.eigvalsh(traces.image_gram)[0])
        assert smallest[0] > smallest[1] > smallest[2] > 0


class TestBoundaryMaps:
    def test_scalar_identity(self, scalar_i):
        s, triple, _ = pipeline(scalar_i)
        pair = boundary_map_projection(scalar_i, s)
        assert np.allclose(pair.matrix, [[1.0]])
        defi = deficiency_space(triple, scalar_i)
        res = boundary_map_resolvent(scalar_i, defi, s)
        assert np.allclose(res.matrix, [[1.0]])

    def test_symmetric_map_vanishes(self, hermitian_full):
        s = split(hermitian_full)
        pair = boundary_map_projection(hermitian_full, s)
        assert np.linalg.norm(pair.matrix) < 1e-12
        assert pair.space_dim == 0

    def test_mixed_diagonal_component_form(self, mixed_diag):
        s = split(mixed_diag)
        pair = boundary_map_projection(mixed_diag, s)
        assert np.allclose(pair.matrix, np.diag([0.0, 1.0]), atol=1e-12)
        assert pair.apply(np.array([3.0, 2j]))[1] == pytest.approx(2j)

    def test_resolvent_form_matrix_product(self, mixed_diag):
        s, triple, _ = pipeline(mixed_diag)
        defi = deficiency_space(triple, mixed_diag)
        pair = boundary_map_resolvent(mixed_diag, defi, s)
        shifted = mixed_diag.matrix + 1j * np.eye(2)
        expected = np.linalg.inv(shifted) @ np.diag([0.0, 1.0]) @ shifted
        assert np.allclose(pair.matrix, expected, atol=1e-12)

    def test_indefinite_pair_maps_are_identity(self, krein_pm):
        s, triple, _ = pipeline(krein_pm)
        defi = deficiency_space(triple, krein_pm)
        proj = boundary_map_projection(krein_pm, s)
        res = boundary_map_resolvent(krein_pm, defi, s)
        assert np.allclose(proj.matrix, np.eye(2), atol=1e-12)
        assert np.allclose(res.matrix, np.eye(2), atol=1e-12)

    def test_construction_agreement_random_batch(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(2, 11))
            op = random_dissipative(n, rng)
            s, triple, _ = pipeline(op)
            defi = deficiency_space(triple, op)
            proj = boundary_map_projection(op, s)
            res = boundary_map_resolvent(op, defi, s)
            scale = max(1.0, np.linalg.norm(proj.matrix, 2))
            assert np.linalg.norm(proj.matrix - res.matrix, 2) / scale < 1e-8

    def test_kernel_and_range(self):
        rng = np.random.default_rng(6)
        op = random_dissipative(7, rng)
        s = split(op)
        pair = boundary_map_projection(op, s)
        assert gap_distance(pair.kernel(), s.symmetric.domain) < 1e-8
        assert pair.range_dim() == pair.space_dim

    def test_orthonormal_coordinates_have_identity_gram(self):
        rng = np.random.default_rng(7)
        op = random_dissipative(5, rng)
        s = split(op)
        pair = boundary_map_projection(op, s)
        for _ in range(10):
            x = op.domain.basis @ (
                rng.standard_normal(op.domain.dim)
                + 1j * rng.standard_normal(op.domain.dim)
            )
            coords = pair.orthonormal_coords(x)
            assert float(np.vdot(coords, coords).real) == pytest.approx(
                pair.inner(x, x).real, rel=1e-10, abs=1e-12
            )


class TestGreenResidual:
    def test_scalar_exact(self, scalar_i):
        pair = boundary_map_projection(scalar_i, split(scalar_i))
        assert pair_green_residual(pair, scalar_i) < 1e-14

    def test_indefinite_pair(self, krein_pm):
        pair = boundary_map_projection(krein_pm, split(krein_pm))
        assert pair_green_residual(pair, krein_pm) < 1e-12

    def test_symmetric_both_sides_vanish(self, hermitian_full):
        pair = boundary_map_projection(hermitian_full, split(hermitian_full))
        assert pair_green_residual(pair, hermitian_full) == 0.0

    def test_rotated_pair_still_satisfies_identity(self):
        rng = np.random.default_rng(8)
        op = random_dissipative(6, rng)
        s = split(op)
        pair = boundary_map_projection(op, s)
        dn = pair.space_dim
        z = rng.standard_normal((dn, dn)) + 1j * rng.standard_normal((dn, dn))
        u, _ = np.linalg.qr(z)
        rotated = transform_pair(pair, u)
        assert pair_green_residual(rotated, op, rng=rng) < 1e-10


class TestBoundaryPreimage:
    def test_zero_maps_to_zero(self, mixed_diag):
        s, triple, traces = pipeline(mixed_diag)
        x = boundary_preimage(traces, s, np.zeros(2))
        assert np.linalg.norm(x) < 1e-12

    def test_inverts_traces_on_defect_domain(self, mixed_diag):
        s, triple, traces = pipeline(mixed_diag)
        x = e(2, 1)
        stacked = defect_trace_matrix(traces, s)
        uv = stacked @ (s.defect.domain.basis.conj().T @ x)
        back = boundary_preimage(traces, s, uv)
        assert np.linalg.norm(back - x) < 1e-10

    def test_rejects_values_outside_image(self, mixed_diag):
        s, triple, traces = pipeline(mixed_diag)
        uv = np.array([1.0, 0.0])  # not of the form (u, i u) for this fixture
        with pytest.raises(DomainError):
            boundary_preimage(traces, s, uv)

    def test_isometry_onto_defect_domain(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            op = random_dissipative(int(rng.integers(2, 8)), rng)
            s, triple, traces = pipeline(op)
            stacked = defect_trace_matrix(traces, s)
            meta = boundary_metric_matrix(traces.boundary_dim)
            for _ in range(20):
                c = rng.standard_normal(s.defect.domain.dim)
                c = c + 1j * rng.standard_normal(s.defect.domain.dim)
                uv = stacked @ c
                x = boundary_preimage(traces, s, uv)
                image_sq = float(np.vdot(uv, meta @ uv).real)
                defect_sq = float(
                    np.vdot(x, op.dissipation_matrix @ x).real
                )
                assert image_sq == pytest.approx(defect_sq, rel=1e-8, abs=1e-10)
                # round trip: traces of x reproduce uv
                back = stacked @ (s.defect.domain.basis.conj().T @ x)
                assert np.linalg.norm(back - uv) < 1e-8 * max(
                    1.0, np.linalg.norm(uv)
                )


class TestBoundaryRotation:
    def test_swap_preserves_metric_and_swaps_kernels(self, mixed_diag):
        s, triple, traces = pipeline(mixed_diag)
        k = traces.boundary_dim
        zero = np.zeros((k, k))
        eye = np.eye(k)
        swap = np.block([[zero, eye], [-eye, zero]])
        swapped = transform_traces(traces, swap)
        assert np.allclose(swapped.trace0, traces.trace1)
        assert np.allclose(swapped.trace1, -traces.trace0)

    def test_non_symplectic_transform_rejected(self, mixed_diag):
        _, _, traces = pipeline(mixed_diag)
        k = traces.boundary_dim
        with pytest.raises(PipelineError):
            transform_traces(traces, 2.0 * np.eye(2 * k))


class TestRealSpectrum:
    def test_mixed_diagonal_real_eigenvalue(self, mixed_diag):
        s = split(mixed_diag)
        pair = boundary_map_projection(mixed_diag, s)
        report = real_spectrum_report(mixed_diag, s.symmetric, pair)
        assert report.passed
        assert [round(v.real, 6) for v in report.real_values_op] == [1.0]
        assert report.real_values_sym == report.real_values_op

    def test_scalar_vacuous(self, scalar_i):
        s = split(scalar_i)
        pair = boundary_map_projection(scalar_i, s)
        report = real_spectrum_report(scalar_i, s.symmetric, pair)
        assert report.passed
        assert report.real_values_op == [] == report.real_values_sym

    def test_lower_halfplane_spectrum_vacuous(self, krein_pm):
        s = split(krein_pm)
        pair = boundary_map_projection(krein_pm, s)
        report = real_spectrum_report(krein_pm, s.symmetric, pair)
        assert report.passed
        assert report.real_values_op == []

    def test_engineered_instances(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            n = int(rng.integers(4, 9))
            n_real = int(rng.integers(1, n - 1))
            op, planted, _ = real_spectrum_instance(n, rng, n_real)
            s = split(op)
            pair = boundary_map_projection(op, s)
            report = real_spectrum_report(op, s.symmetric, pair)
            assert report.passed, report.notes
            found = sorted(v.real for v in report.real_values_op)
            assert np.allclose(found, sorted(v.real for v in planted), atol=1e-7)

    def test_restricted_eigenpairs_with_proper_domain(self, mixed_diag):
        restricted = mixed_diag.restricted(orthonormal_span([e(2, 0)]))
        pairs = restricted_eigenpairs(restricted)
        assert len(pairs) == 1
        lam, space = pairs[0]
        assert lam == pytest.approx(1.0)
        assert space.contains(e(2, 0))


class TestTraceImageGram:
    def test_rejects_odd_ambient(self):
        from kreinpair.errors import DimensionMismatch

        with pytest.raises(DimensionMismatch):
            trace_image_gram(orthonormal_span([np.array([1.0, 0.0, 0.0])]))
