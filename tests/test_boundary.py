import tracemalloc

import numpy as np
import pytest

from dataclasses import replace

from kreinpair import (
    KreinSpace,
    OperatorWithDomain,
    boundary_map_projection,
    boundary_map_resolvent,
    build_boundary_triple,
    criterion_report,
    gap_distance,
    orthonormal_span,
    pair_green_residual,
    real_spectrum_report,
    restrict_triple,
    split,
)
from kreinpair.boundary import (
    restricted_eigenpairs,
    trace_image_gram,
    transform_traces,
)
import kreinpair.boundary as boundary_module
from kreinpair.analysis import analyze_operator
from kreinpair.decomposition import deficiency_space
from kreinpair.errors import DimensionMismatch, PipelineError
from kreinpair.instances import (
    random_canonical_symmetry,
    random_dissipative,
    random_unitary,
    real_spectrum_instance,
    scaled_defect_instance,
)
from kreinpair.tolerances import CHECK_GATE
from kreinpair.krein import boundary_metric_matrix, graph_form

from kreinpair.subspaces import Subspace, column_space, null_space

from conftest import (
    adjoint_graph,
    adjoint_relation,
    ambient_map_gap,
    contains,
    count_subspaces,
    count_svd_backed,
    defect_traces,
    e,
    full_basis_contracts,
    matrix_graph,
    planted_cluster_operator,
    reference_eigenpairs,
    relation_eigenspace,
    span,
    spectrum_inputs,
    von_neumann_pieces,
)


def pipeline(op):
    s = split(op)
    triple = build_boundary_triple(s.symmetric)
    traces = restrict_triple(triple, op, s.defect.domain)
    return s, triple, traces


def von_neumann_contracts(sym, traces, w):
    """``boundary._von_neumann_contracts`` on the arrays of ``sym``."""
    return boundary_module._von_neumann_contracts(
        sym.space.J, sym.graph.basis, sym.graph_form, traces, w)


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
        g = adjoint_graph(s.symmetric).basis
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
        assert triple.defect_plus.dim == k == von_neumann_pieces(s.symmetric)[1].dim
        g = adjoint_graph(s.symmetric).basis
        stacked = np.vstack([triple.trace0 @ g, triple.trace1 @ g])
        rank = np.sum(np.linalg.svd(stacked, compute_uv=False) > 1e-10)
        assert rank == 2 * k

    def test_adjoint_graph_matches_krein_adjoint(self):
        rng = np.random.default_rng(2)
        op = random_dissipative(5, rng)
        s = split(op)
        adj = adjoint_relation(s.symmetric.graph, op.space.J)
        assert gap_distance(adjoint_graph(s.symmetric), adj) < 1e-10

    @staticmethod
    def _relation_route_defects(sym):
        """N+ and N- as the eigenspaces at +i and -i of the Euclidean
        adjoint relation of JS, the construction this module replaced."""
        hilbertized = matrix_graph(sym.space.J @ sym.matrix, sym.domain.basis, sym.tol)
        adj = adjoint_relation(hilbertized)
        return relation_eigenspace(adj, 1j), relation_eigenspace(adj, -1j)

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
        triples, minuses = [], []
        for op in ops:
            sym = split(op).symmetric
            triples.append(build_boundary_triple(sym))
            minuses.append(von_neumann_pieces(sym)[1])
            plus, minus = self._relation_route_defects(sym)
            assert gap_distance(triples[-1].defect_plus, plus) < 1e-10
            assert gap_distance(minuses[-1], minus) < 1e-10
        trivial, selfadjoint = triples[-2:]
        assert trivial.defect_plus.is_full and minuses[-2].is_full
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
        traces_s = restrict_triple(triple, s.symmetric, Subspace.zero(2))
        assert traces_s.boundary_dim == 1
        assert np.linalg.norm(traces_s.trace1) < 1e-12
        assert traces_s.image is not None and traces_s.image.dim == 0

    def test_containment_violation_detected(self, mixed_diag, krein_pm):
        s, triple, _ = pipeline(mixed_diag)
        with pytest.raises(PipelineError):
            restrict_triple(triple, krein_pm, split(krein_pm).defect.domain)

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


def dense_green_residual(trace0, trace1, j, graph):
    """The Green residual through the 2n x 2n forms and a 2-norm: the route
    that ``boundary._green_residual`` replaced, kept as its oracle."""
    n = j.shape[0]
    zero = np.zeros((n, n), dtype=np.complex128)
    lhs_form = np.block([[zero, j], [-j, zero]])
    rhs_form = trace0.conj().T @ trace1 - trace1.conj().T @ trace0
    g = graph.basis
    return float(np.linalg.norm(g.conj().T @ (lhs_form - rhs_form) @ g, 2))


def dense_trace_kernel_gap(triple, adjoint):
    """Gap between graph(S) and the kernel of the traces on the adjoint
    graph ``adjoint``, through ``null_space`` and ``gap_distance``: the
    route that ``boundary._trace_kernel_gap`` replaced, kept as its oracle."""
    g = adjoint.basis
    stacked = np.vstack([triple.trace0 @ g, triple.trace1 @ g])
    kernel = Subspace(g.shape[0], g @ null_space(stacked))
    return gap_distance(kernel, triple.symmetric_graph)


def projected_containment_defect(graph, outer):
    """``|(I - Q Q*) graph|_2`` for the basis Q of ``outer``: the projection
    route that ``boundary._graph_contracts`` replaced, kept as its
    oracle."""
    q = outer.basis
    return float(np.linalg.norm(graph.basis - q @ (q.conj().T @ graph.basis), 2))


def contract_instances():
    """21 random dissipative operators, n = 3 ... 23, with indefinite J;
    every other one on a random proper domain."""
    rng = np.random.default_rng(11)
    ops = []
    for n in range(3, 24):
        domain_dim = int(rng.integers(1, n)) if n % 2 else None
        ops.append(random_dissipative(n, rng, domain_dim=domain_dim))
    return ops


class TestContractChecks:
    """The triple's contract checks: their values bound the dense routes'
    from above, and each still fires on a triple that breaks it."""

    #: round-off of the dense routes themselves at n <= 23: up to 3e-15
    #: even where the new value is an exact zero (an empty overlap)
    ROUNDOFF = 1e-14

    @staticmethod
    def values(triple, sym, graph):
        """``(dense route, new route)`` of the four contract values: Green
        residuals on the adjoint graph and on ``graph``, the trace-kernel gap
        and the containment of ``graph`` in the adjoint graph.  The new
        route reads the adjoint graph in blocks."""
        j, g_t = sym.space.J, graph.basis
        adjoint = adjoint_graph(sym)
        t0, t1 = triple.trace0, triple.trace1
        gap, green = von_neumann_contracts(
            sym, np.vstack([t0, t1]), von_neumann_pieces(sym)[2])
        outside, graph_green = boundary_module._graph_contracts(
            j, triple.symmetric_graph.basis, graph_form(j, g_t, g_t), t0, t1, g_t)
        return [
            (dense_green_residual(t0, t1, j, adjoint), green),
            (dense_green_residual(t0, t1, j, graph), graph_green),
            (dense_trace_kernel_gap(triple, adjoint), gap),
            (projected_containment_defect(graph, adjoint), outside),
        ]

    def test_values_bound_the_dense_routes(self):
        rng = np.random.default_rng(17)
        full = set()
        for op in contract_instances():
            s, triple, _ = pipeline(op)
            values = self.values(triple, s.symmetric, op.graph)
            for old, new in values:
                assert old <= new + self.ROUNDOFF
                assert new <= 1e-13
            full.add(op.domain.is_full)
            g_s = triple.symmetric_graph.basis
            if g_s.shape[1] == 0:
                # S* is the whole doubled space: nothing to plant
                continue
            # defects planted far above round-off, and below EXACT_BOUND, above
            # which the Green checks raise: traces that do not vanish on
            # graph(S) and a graph of T slightly outside the adjoint graph
            k, n = triple.space_dim, op.space.dim
            w = 1e-12 * (rng.standard_normal((2 * k, g_s.shape[1]))
                         + 1j * rng.standard_normal((2 * k, g_s.shape[1]))) @ g_s.conj().T
            planted = replace(triple, trace0=triple.trace0 + w[:k],
                              trace1=triple.trace1 + w[k:])
            z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            moved = OperatorWithDomain(op.space, op.matrix + 1e-12 * z, op.domain)
            for old, new in self.values(planted, s.symmetric, moved.graph):
                assert 1e-13 < new <= CHECK_GATE
                assert old <= new + self.ROUNDOFF
        assert full == {True, False}

    def test_green_identity_on_graph_t_fires(self):
        op = random_dissipative(6, np.random.default_rng(12))
        s, triple, _ = pipeline(op)
        doubled = replace(triple, trace1=2 * triple.trace1)
        with pytest.raises(PipelineError, match="Green identity"):
            restrict_triple(doubled, op, s.defect.domain)

    @staticmethod
    def assert_both_routes_raise(sym, traces, w, error, match):
        """The block route and the full-basis oracle raise ``error`` with
        the same message on the same planted fault."""
        with pytest.raises(error, match=match):
            von_neumann_contracts(sym, traces, w)
        with pytest.raises(error, match=match):
            full_basis_contracts(sym, traces, w)

    def test_traces_nonzero_on_symmetric_graph_fire(self):
        rng = np.random.default_rng(13)
        op = random_dissipative(6, rng, defect=2)
        s, triple, _ = pipeline(op)
        g_s = triple.symmetric_graph.basis
        w = 1e-6 * (rng.standard_normal((triple.space_dim, g_s.shape[1]))
                    + 1j * rng.standard_normal((triple.space_dim, g_s.shape[1])))
        trace0 = triple.trace0 + w @ g_s.conj().T
        self.assert_both_routes_raise(
            s.symmetric, np.vstack([trace0, triple.trace1]),
            von_neumann_pieces(s.symmetric)[2], PipelineError, "do not vanish")

    def test_traces_off_the_von_neumann_unitary_fire(self):
        op = random_dissipative(6, np.random.default_rng(14), defect=2)
        s, triple, _ = pipeline(op)
        j = op.space.J
        _, minus, w = von_neumann_pieces(s.symmetric)
        ph = triple.defect_plus.basis.conj().T
        mh = 2 * minus.basis.conj().T
        trace1 = 0.5j * np.hstack([ph - mh, -1j * ph @ j - 1j * mh @ j])
        self.assert_both_routes_raise(
            s.symmetric, np.vstack([triple.trace0, trace1]), w,
            PipelineError, "von Neumann unitary")

    def test_doubled_traces_fire(self):
        op = random_dissipative(6, np.random.default_rng(18), defect=2)
        s, triple, _ = pipeline(op)
        traces = 2 * np.vstack([triple.trace0, triple.trace1])
        self.assert_both_routes_raise(
            s.symmetric, traces, von_neumann_pieces(s.symmetric)[2],
            PipelineError, "von Neumann unitary")

    def test_minus_column_rotated_into_the_symmetric_graph_fires(self):
        op = random_dissipative(6, np.random.default_rng(19), defect=2)
        s, triple, _ = pipeline(op)
        k, w = triple.space_dim, von_neumann_pieces(s.symmetric)[2].copy()
        # the first N- column turned by 1e-6 rad towards a graph(S) column:
        # still a unit vector, no longer orthogonal to graph(S)
        angle = 1e-6
        w[:, k] = np.cos(angle) * w[:, k] + np.sin(angle) * triple.symmetric_graph.basis[:, 0]
        self.assert_both_routes_raise(
            s.symmetric, np.vstack([triple.trace0, triple.trace1]), w,
            DimensionMismatch, "not orthonormal")

    def test_graph_outside_another_adjoint_fires(self):
        # T + J H is dissipative with the same form but another symmetric part
        rng = np.random.default_rng(15)
        op = random_dissipative(6, rng, defect=2)
        h = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        other = OperatorWithDomain(op.space,
                                   op.matrix + op.space.J @ (h + h.conj().T))
        _, triple, _ = pipeline(other)
        with pytest.raises(PipelineError, match="not contained"):
            restrict_triple(triple, op, split(op).defect.domain)

    def test_peak_memory_on_the_widest_dense_n128_case(self):
        # k = 112: the products of the traces on the basis and the basis
        # form take up to 0.9 MB each, and at most three are held at a time
        # (5.6 MB before they were formed in place)
        sym = split(random_dissipative(128, np.random.default_rng(1),
                                       defect=112)).symmetric
        triple = build_boundary_triple(sym)
        args = (sym.space.J, sym.graph.basis, sym.graph_form,
                np.vstack([triple.trace0, triple.trace1]),
                von_neumann_pieces(sym)[2])
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            gap, green = boundary_module._von_neumann_contracts(*args)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            if not tracing:
                tracemalloc.stop()
        assert green == triple.green_residual
        assert peak <= 3.5 * 2**20

    def test_no_matrix_two_norms(self, monkeypatch):
        op = random_dissipative(24, np.random.default_rng(16), domain_dim=20)
        s = split(op)
        # the trace image is a QR with no rank cut: no 2-norm of T is read
        counts = count_svd_backed(monkeypatch)
        restrict_triple(build_boundary_triple(s.symmetric), op, s.defect.domain)
        KreinSpace(op.space.J)
        assert counts["norm2"] == 0


class TestBlockContractsMatchTheFullBasis:
    """The triple's contracts assembled from the graph(S) and N+- blocks
    agree with the full-basis oracle, on a Tier-1 slice of ROADMAP item 1's
    sweep and on the dense_n128 operators of seed 1."""

    #: both routes sum the same products in another order
    AGREEMENT = 1e-14

    def assert_agree(self, sym):
        triple = build_boundary_triple(sym)
        traces = np.vstack([triple.trace0, triple.trace1])
        w = von_neumann_pieces(sym)[2]
        gap, green = full_basis_contracts(sym, traces, w)
        block_gap, block_green = von_neumann_contracts(sym, traces, w)
        assert abs(block_gap - gap) <= self.AGREEMENT
        assert abs(block_green - green) <= self.AGREEMENT
        assert abs(triple.green_residual - green) <= self.AGREEMENT

    @pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
    def test_sweep(self, c):
        for seed in range(7000, 7100):
            rng = np.random.default_rng(seed)
            n = rng.integers(2, 9)
            op = random_dissipative(n, rng, domain_dim=rng.integers(1, n + 1))
            scaled = OperatorWithDomain(op.space, c * op.matrix, op.domain)
            self.assert_agree(split(scaled).symmetric)

    def test_dense_n128_seed_1(self):
        rng = np.random.default_rng(1)
        for defect in (16, 48, 80, 112):
            self.assert_agree(split(random_dissipative(128, rng, defect=defect)).symmetric)


class TestBoundaryMaps:
    def test_scalar_identity(self, scalar_i):
        s, triple, _ = pipeline(scalar_i)
        pair = boundary_map_projection(scalar_i, s)
        assert np.allclose(pair.matrix, [[1.0]])
        defi = deficiency_space(triple, scalar_i)
        res = boundary_map_resolvent(scalar_i, defi)
        assert np.allclose(res, [[1.0]])

    def test_singular_graph_gram_solve_is_a_typed_error(self):
        # ROADMAP item 13's direct sum a + c b at recipe seed 120, c = 1e8, on
        # the block-diagonal basis: X* G X holds |T|^2 ~ 1e16 and the solve
        # finds it singular
        rng = np.random.default_rng(120)
        blocks = []
        for _ in range(2):
            n = rng.integers(2, 12)
            blocks.append(random_dissipative(n, rng, domain_dim=rng.integers(1, n + 1)))
        a, b = blocks
        zero = np.zeros((a.space.dim, b.space.dim))
        matrix = np.block([[a.matrix, zero], [zero.T, 1e8 * b.matrix]])
        j = np.block([[a.space.J, zero], [zero.T, b.space.J]])
        basis = np.block([
            [a.domain.basis, np.zeros((a.space.dim, b.domain.dim))],
            [np.zeros((b.space.dim, a.domain.dim)), b.domain.basis]])
        n = a.space.dim + b.space.dim
        op = OperatorWithDomain(KreinSpace(j), matrix, Subspace(n, basis))
        with pytest.raises(PipelineError, match="graph-Gram solve"):
            analyze_operator(op)

    def test_symmetric_map_vanishes(self, hermitian_full):
        s = split(hermitian_full)
        pair = boundary_map_projection(hermitian_full, s)
        assert np.linalg.norm(pair.matrix) < 1e-12
        assert pair.space_dim == 0

    def test_mixed_diagonal_component_form(self, mixed_diag):
        s = split(mixed_diag)
        pair = boundary_map_projection(mixed_diag, s)
        # on the defect basis bn, the component map diag(0, 1) reads bn* diag(0, 1)
        bn = s.defect.domain.basis
        assert np.allclose(pair.matrix, bn.conj().T @ np.diag([0.0, 1.0]), atol=1e-12)
        x = np.array([3.0, 2j])
        assert (bn @ (pair.matrix @ mixed_diag.coords(x)))[1] == pytest.approx(2j)

    def test_resolvent_form_matrix_product(self, mixed_diag):
        s, triple, _ = pipeline(mixed_diag)
        defi = deficiency_space(triple, mixed_diag)
        res = boundary_map_resolvent(mixed_diag, defi)
        shifted = mixed_diag.matrix + 1j * np.eye(2)
        expected = np.linalg.inv(shifted) @ np.diag([0.0, 1.0]) @ shifted
        assert np.allclose(res, expected, atol=1e-12)

    def test_indefinite_pair_maps_are_identity(self, krein_pm):
        s, triple, _ = pipeline(krein_pm)
        defi = deficiency_space(triple, krein_pm)
        proj = boundary_map_projection(krein_pm, s)
        res = boundary_map_resolvent(krein_pm, defi)
        # the identity of C^2, read on the defect basis bn
        bn = s.defect.domain.basis
        assert np.allclose(proj.matrix, bn.conj().T, atol=1e-12)
        assert np.allclose(res, np.eye(2), atol=1e-12)

    def test_construction_agreement_random_batch(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(2, 11))
            op = random_dissipative(n, rng)
            s, triple, _ = pipeline(op)
            defi = deficiency_space(triple, op)
            proj = boundary_map_projection(op, s)
            res = boundary_map_resolvent(op, defi)
            xn = op.coords(s.defect.domain.basis)
            scale = max(1.0, np.linalg.norm(proj.matrix, 2))
            assert np.linalg.norm(xn @ proj.matrix - res, 2) / scale < 1e-8

    def test_map_gap_equals_the_ambient_formula(self):
        # E coordinates lose nothing: the reported gap is the gap of the
        # two maps lifted to C^n, half of the instances on a proper domain
        rng = np.random.default_rng(31)
        for k in range(24):
            n = int(rng.integers(3, 13))
            domain_dim = int(rng.integers(2, n)) if k % 2 else None
            op = random_dissipative(n, rng, domain_dim=domain_dim)
            s, triple, _ = pipeline(op)
            oracle = ambient_map_gap(op, s, boundary_map_projection(op, s),
                                     boundary_map_resolvent(
                                         op, deficiency_space(triple, op)))
            gap = analyze_operator(op)["boundary_map_gap"]
            assert abs(gap - oracle) <= 1e-12

    def test_kernel_and_range(self):
        rng = np.random.default_rng(6)
        op = random_dissipative(7, rng)
        s = split(op)
        pair = boundary_map_projection(op, s)
        assert gap_distance(boundary_module._map_kernel(pair, op),
                            s.symmetric.domain) < 1e-8
        assert column_space(pair.matrix).shape[1] == pair.space_dim

    def test_orthonormal_coordinates_have_identity_gram(self):
        # in E-orthonormal coordinates, G^(1/2) times the defect-basis
        # coordinates, the squared norm of a boundary value is the
        # dissipation form of its vector
        rng = np.random.default_rng(7)
        op = random_dissipative(5, rng)
        s = split(op)
        pair = boundary_map_projection(op, s)
        w, v = np.linalg.eigh(pair.gram)
        assert w[0] > 0
        sqrt_gram = (v * np.sqrt(w)) @ v.conj().T
        for _ in range(10):
            x = op.domain.basis @ (
                rng.standard_normal(op.domain.dim)
                + 1j * rng.standard_normal(op.domain.dim)
            )
            value = pair.matrix @ op.coords(x)
            coords = sqrt_gram @ value
            assert float(np.vdot(coords, coords).real) == pytest.approx(
                np.vdot(x, op.dissipation_matrix @ x).real, rel=1e-10, abs=1e-12
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

    def test_weak_direction_is_seen(self):
        # graph-normalised random vectors are all but parallel to the strong
        # direction e1, so sampling them reads round-off for a map that is
        # wrong by 1e-6 on e2; the matrix identity reads the error in full
        op = OperatorWithDomain(KreinSpace(np.eye(2)), np.diag([1e6j, 1j]))
        pair = boundary_map_projection(op, split(op))
        assert pair_green_residual(pair, op) < 1e-14
        weak = replace(pair, matrix=pair.matrix @ np.diag([1.0, 1.0 + 1e-6]))
        assert pair_green_residual(weak, op) >= 1e-6

    def test_rotated_pair_still_satisfies_identity(self):
        rng = np.random.default_rng(8)
        op = random_dissipative(6, rng)
        s = split(op)
        pair = boundary_map_projection(op, s)
        dn = pair.space_dim
        z = rng.standard_normal((dn, dn)) + 1j * rng.standard_normal((dn, dn))
        u, _ = np.linalg.qr(z)
        # the unitary u of E, written on defect-basis coordinates through
        # the square root of the E Gram
        w, v = np.linalg.eigh(pair.gram)
        coeff_map = (v / np.sqrt(w)) @ v.conj().T @ u @ (v * np.sqrt(w)) @ v.conj().T
        rotated = replace(pair, matrix=coeff_map @ pair.matrix)
        assert pair_green_residual(rotated, op) < 1e-10
        assert np.linalg.norm(rotated.matrix - pair.matrix) > 1e-3


class TestBoundaryPreimage:
    """The restricted traces invert on the defect domain: stacked, on
    defect-basis coordinates, they are injective and carry the dissipation
    form to the boundary metric."""

    def test_zero_maps_to_zero(self, mixed_diag):
        # the traces vanish on graph(T) exactly over the symmetric domain
        s, triple, traces = pipeline(mixed_diag)
        kernel = null_space(np.vstack([traces.trace0, traces.trace1]))
        got = orthonormal_span(mixed_diag.domain.basis @ kernel)
        assert gap_distance(got, s.symmetric.domain) < 1e-12

    def test_inverts_traces_on_defect_domain(self, mixed_diag):
        s, triple, traces = pipeline(mixed_diag)
        x = e(2, 1)
        stacked = defect_traces(mixed_diag, traces, s)
        uv = stacked @ (s.defect.domain.basis.conj().T @ x)
        coeffs, *_ = np.linalg.lstsq(stacked, uv, rcond=None)
        back = s.defect.domain.basis @ coeffs
        assert np.linalg.norm(back - x) < 1e-10

    def test_rejects_values_outside_image(self, mixed_diag):
        s, triple, traces = pipeline(mixed_diag)
        uv = np.array([1.0, 0.0])  # not of the form (u, i u) for this fixture
        assert not contains(traces.image, uv)
        assert contains(traces.image, defect_traces(mixed_diag, traces, s)[:, 0])

    def test_isometry_onto_defect_domain(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            op = random_dissipative(int(rng.integers(2, 8)), rng)
            s, triple, traces = pipeline(op)
            stacked = defect_traces(op, traces, s)
            # injective, so each value of the image has one preimage
            assert np.linalg.svd(stacked, compute_uv=False)[-1] > 1e-8
            meta = boundary_metric_matrix(traces.boundary_dim)
            for _ in range(20):
                c = rng.standard_normal(s.defect.domain.dim)
                c = c + 1j * rng.standard_normal(s.defect.domain.dim)
                uv = stacked @ c
                x = s.defect.domain.basis @ c
                image_sq = float(np.vdot(uv, meta @ uv).real)
                defect_sq = float(
                    np.vdot(x, op.dissipation_matrix @ x).real
                )
                assert image_sq == pytest.approx(defect_sq, rel=1e-8, abs=1e-10)


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

    def test_metric_preserving_scaling_moves_the_image(self):
        # diag(e^a I, e^-a I) preserves the metric and has 2-norm e^0.7 ~ 2
        op = random_dissipative(7, np.random.default_rng(17), defect=3, domain_dim=6)
        _, _, traces = pipeline(op)
        k, a = traces.boundary_dim, 0.7
        w = np.diag(np.repeat([np.exp(a), np.exp(-a)], k))
        scaled = transform_traces(traces, w)
        assert np.allclose(scaled.trace0, np.exp(a) * traces.trace0)
        assert np.allclose(scaled.trace1, np.exp(-a) * traces.trace1)
        expected = orthonormal_span(w @ traces.image.basis)
        assert scaled.image.dim == traces.image.dim < 2 * k
        assert gap_distance(scaled.image, expected) <= CHECK_GATE

    @staticmethod
    def random_metric_preserving(k, rng):
        """A random w with ``w* meta w = meta`` for the boundary metric meta:
        ``diag(D, D^-*)`` times the shears ``[[I, 0], [H, I]]`` and
        ``[[I, H'], [0, I]]``, with D invertible and H, H' Hermitian."""
        def hermitian():
            h = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            return 0.25 * (h + h.conj().T) / np.sqrt(k)

        eye, zero = np.eye(k), np.zeros((k, k))
        d = random_unitary(k, rng) @ np.diag(np.exp(rng.uniform(-0.5, 0.5, k)))
        scale = np.block([[d, zero], [zero, np.linalg.inv(d).conj().T]])
        lower = np.block([[eye, zero], [hermitian(), eye]])
        upper = np.block([[eye, hermitian()], [zero, eye]])
        return scale @ lower @ upper

    @pytest.mark.parametrize("n, domain_dim", [(6, None), (7, 5), (9, None), (10, 7)])
    def test_random_metric_preserving_w(self, n, domain_dim):
        # the moved image and its complement are one unitary, and the three
        # criteria still agree on the moved traces
        rng = np.random.default_rng(23 + n)
        op = random_dissipative(n, rng, defect=n // 3, domain_dim=domain_dim)
        _, _, traces = pipeline(op)
        k = traces.boundary_dim
        w = self.random_metric_preserving(k, rng)
        moved = transform_traces(traces, w)
        basis = np.hstack([moved.image.basis, moved.image_complement])
        assert basis.shape == (2 * k, 2 * k)
        assert np.linalg.norm(basis.conj().T @ basis - np.eye(2 * k)) <= CHECK_GATE
        expected = orthonormal_span(w @ traces.image.basis)
        assert gap_distance(moved.image, expected) <= CHECK_GATE
        report = criterion_report(op, traces=moved)
        assert report.agree and report.all_true


class TestRealSpectrum:
    def test_mixed_diagonal_real_eigenvalue(self, mixed_diag):
        s = split(mixed_diag)
        pair = boundary_map_projection(mixed_diag, s)
        report = real_spectrum_report(mixed_diag, pair,
                                      *spectrum_inputs(mixed_diag, s.symmetric, pair))
        assert report.passed
        assert [round(v.real, 6) for v in report.real_eigenvalues_op] == [1.0]
        assert report.real_eigenvalues_sym == report.real_eigenvalues_op

    def test_scalar_vacuous(self, scalar_i):
        s = split(scalar_i)
        pair = boundary_map_projection(scalar_i, s)
        report = real_spectrum_report(scalar_i, pair,
                                      *spectrum_inputs(scalar_i, s.symmetric, pair))
        assert report.passed
        assert report.real_eigenvalues_op == [] == report.real_eigenvalues_sym

    def test_lower_halfplane_spectrum_vacuous(self, krein_pm):
        s = split(krein_pm)
        pair = boundary_map_projection(krein_pm, s)
        report = real_spectrum_report(krein_pm, pair,
                                      *spectrum_inputs(krein_pm, s.symmetric, pair))
        assert report.passed
        assert report.real_eigenvalues_op == []

    def test_engineered_instances(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            n = int(rng.integers(4, 9))
            n_real = int(rng.integers(1, n - 1))
            op, planted, _ = real_spectrum_instance(n, rng, n_real)
            s = split(op)
            pair = boundary_map_projection(op, s)
            report = real_spectrum_report(op, pair,
                                          *spectrum_inputs(op, s.symmetric, pair))
            assert report.passed, report.notes
            found = sorted(v.real for v in report.real_eigenvalues_op)
            assert np.allclose(found, sorted(v.real for v in planted), atol=1e-7)

    def test_restricted_eigenpairs_with_proper_domain(self, mixed_diag):
        restricted = mixed_diag.restricted(span(e(2, 0)))
        pairs = restricted_eigenpairs(restricted)
        assert len(pairs) == 1
        lam, space = pairs[0]
        assert lam == pytest.approx(1.0)
        assert contains(space, e(2, 0))

    def test_jordan_chain_survives_change_of_frame(self):
        # S carries a Jordan block at 0 with a J-neutral eigenvector; eig
        # splits the defective 0 into two values about 1e-8 apart, neither
        # of them real by the form's rank decision
        j = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        t = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1j]])
        for seed in range(20):
            u = random_unitary(3, np.random.default_rng(seed))
            op = OperatorWithDomain(KreinSpace(u @ j @ u.conj().T),
                                    u @ t @ u.conj().T)
            report = analyze_operator(op)
            assert all(report["checks"].values()), seed
            spectrum = report["real_spectrum"]
            for key in ("real_eigenvalues_op", "real_eigenvalues_sym"):
                assert len(spectrum[key]) == 1, (seed, key)
                assert abs(complex(*spectrum[key][0])) < 1e-8, (seed, key)


def _restricted_to_planted(op, spaces, extra, rng):
    """``op`` on a random domain holding the planted eigenspaces and
    ``extra`` further random directions."""
    n = op.space.dim
    raw = rng.standard_normal((n, extra)) + 1j * rng.standard_normal((n, extra))
    return op.restricted(orthonormal_span(np.hstack(spaces + [raw])))


def _instances(kind, count, rng):
    for _ in range(count):
        n = int(rng.integers(3, 11))
        if kind == "full":
            yield random_dissipative(n, rng)
        elif kind == "restricted":
            yield random_dissipative(n, rng, domain_dim=int(rng.integers(1, n + 1)))
        elif kind == "planted_simple":
            yield real_spectrum_instance(n, rng, int(rng.integers(1, n)))[0]
        else:
            mults = [int(m) for m in rng.integers(1, 4, size=2)]
            op, _, spaces = planted_cluster_operator(sum(mults) + n, mults, rng)
            if kind == "planted_clusters":
                yield op
            else:
                yield _restricted_to_planted(op, spaces, int(rng.integers(1, n)), rng)


def _assert_same_pairs(op, found, expected):
    """Same eigenvalues within ``CHECK_GATE`` of T's scale, one to one,
    with equal eigenspaces."""
    assert len(found) == len(expected)
    left = list(found)
    for lam, space in expected:
        mu, other = min(left, key=lambda t: abs(t[0] - lam))
        left.remove((mu, other))
        assert abs(mu - lam) <= CHECK_GATE * op.scale
        assert other.dim == space.dim
        assert gap_distance(other, space) <= 1e-10


class TestRestrictedEigenpairs:
    KINDS = ("full", "restricted", "planted_simple", "planted_clusters",
             "planted_clusters_restricted")

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
    def test_matches_per_eigenvalue_route(self, kind, c):
        # the same instances at every scale c
        rng = np.random.default_rng(100 + self.KINDS.index(kind))
        for op in _instances(kind, 12, rng):
            op = OperatorWithDomain(op.space, c * op.matrix, op.domain)
            _assert_same_pairs(op, restricted_eigenpairs(op), reference_eigenpairs(op))

    def test_clusters_of_multiplicity_one_to_four_on_restricted_domain(self):
        rng = np.random.default_rng(12)
        op, values, spaces = planted_cluster_operator(16, [1, 2, 3, 4], rng)
        op = _restricted_to_planted(op, spaces, 3, rng)
        pairs = restricted_eigenpairs(op)
        _assert_same_pairs(op, pairs, reference_eigenpairs(op))
        for value, space in zip(values, spaces):
            close = [s for lam, s in pairs if abs(lam - value) <= CHECK_GATE * op.scale]
            assert len(close) == 1
            assert gap_distance(close[0], orthonormal_span(space)) <= 1e-10


class TestEigenpairCost:
    """Call counts that keep a per-eigenvalue SVD loop from coming back."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"null_space": 0, "svd": 0}

        def counted(name, func):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return func(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(boundary_module, "null_space",
                            counted("null_space", boundary_module.null_space))
        monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
        return counts

    def test_simple_spectrum_needs_no_null_space(self, counts):
        op = random_dissipative(64, np.random.default_rng(1))
        pairs = restricted_eigenpairs(op)
        assert len(pairs) == 64
        assert counts["null_space"] == 0

    def test_one_null_space_per_cluster(self, counts):
        op, _, _ = planted_cluster_operator(24, [1, 2, 3, 4], np.random.default_rng(2))
        pairs = restricted_eigenpairs(op)
        assert sorted(s.dim for lam, s in pairs if s.dim > 1) == [2, 3, 4]
        assert counts["null_space"] == 3

    def test_analysis_wraps_no_candidate_as_a_subspace(self, monkeypatch):
        op = random_dissipative(64, np.random.default_rng(1))
        subspaces = count_subspaces(monkeypatch)
        report = analyze_operator(op)
        assert all(report["checks"].values())
        # one per pipeline object: the graphs of T and S, the form kernel,
        # both defect domains, N+, the deficiency meet, the trace image and
        # the pair kernel; none for the eigenvalue candidates, none real
        assert report["real_spectrum"]["real_eigenvalues_op"] == []
        assert subspaces == {"subspace": 9}

    def test_analyze_operator_svd_budget(self, counts):
        report = analyze_operator(random_dissipative(64, np.random.default_rng(1)))
        assert all(report["checks"].values())
        assert counts["svd"] <= 100


class TestTraceImageGram:
    def test_rejects_odd_ambient(self):
        from kreinpair.errors import DimensionMismatch

        with pytest.raises(DimensionMismatch):
            trace_image_gram(span(np.array([1.0, 0.0, 0.0])))
