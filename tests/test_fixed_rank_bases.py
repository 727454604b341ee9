"""Bases whose rank the mathematics fixes come from a Householder QR.

The graph ``[B; T B]``, the von Neumann matrices ``(JS +- i)B``, the
matrix ``(JT + i)B`` of a dissipative T, the traces on the defect
domain and ``Gamma+ = C + i A`` on the trace image ``[A; C]`` have every
singular value at least 1, the complement of the
orthonormal trace image has them all equal to 1, the boundary map has rank
dim E, and the resolvent preimage of the deficiency intersection is an
injective solve.  Each QR basis is compared with the rank-cut SVD route it
replaced, the bound of 1 is checked over scales, the operators of norm near
1e10 where that cut dropped true directions are regression cases, and the
SVD-backed calls of one analysis are counted exactly.  The contraction on
the image, the Riesz eigenvalues of the graph route and the exact Green
residual of the pair are compared with the routes they replaced.
"""

import inspect

import numpy as np
import pytest

from kreinpair import (
    KreinSpace,
    OperatorWithDomain,
    build_boundary_triple,
    defect_domain_via_resolvent,
    deficiency_space,
    dissipative_part,
    boundary_map_projection,
    boundary_map_resolvent,
    gap_distance,
    pair_green_residual,
    restrict_triple,
    split,
)
import kreinpair.decomposition as decomposition_module
from kreinpair.analysis import _map_gap, analyze_operator
from kreinpair.boundary import _map_kernel
from kreinpair.completeness import contraction_bound, range_splitting
from kreinpair.instances import random_dissipative, scaled_defect_instance
from kreinpair.subspaces import Subspace
from kreinpair.tolerances import CRITERION_TOL

from conftest import (
    cholesky_riesz_spectrum,
    complement,
    count_svd_backed,
    defect_contraction_norm,
    reference_range_margin,
    riesz_representer,
    sampled_pair_green_residual,
    svd_deficiency_spaces,
    svd_graph,
    svd_intersection,
    svd_pair_kernel,
    svd_resolvent_domain,
    svd_trace_image,
    von_neumann_pieces,
)

QR_GAP = 1e-12


def differential_instances():
    """``random_dissipative`` for n = 3 ... 23 with an indefinite J, every
    other one on a random proper domain."""
    rng = np.random.default_rng(12)
    for n in range(3, 24):
        domain_dim = int(rng.integers(1, n)) if n % 2 else None
        yield random_dissipative(n, rng, domain_dim=domain_dim)


class TestQrMatchesSvdRoute:
    @pytest.fixture(scope="class")
    def pieces(self):
        out = []
        for op in differential_instances():
            s = split(op)
            triple = build_boundary_triple(s.symmetric)
            defi = deficiency_space(triple, op)
            out.append((op, s, triple, defi))
        return out

    def test_instances_cover_both_domains_and_indefinite_metrics(self, pieces):
        assert len(pieces) == 21
        assert {op.domain.is_full for op, *_ in pieces} == {True, False}
        for op, *_ in pieces:
            signs = np.linalg.eigvalsh(op.space.J)
            assert signs[0] < 0 < signs[-1]

    def test_graph(self, pieces):
        for op, s, *_ in pieces:
            for part in (op, s.symmetric):
                assert part.graph.dim == part.domain.dim
                assert gap_distance(part.graph, svd_graph(part)) <= QR_GAP

    def test_deficiency_spaces(self, pieces):
        for op, s, triple, _ in pieces:
            plus, minus = svd_deficiency_spaces(s.symmetric)
            assert triple.defect_plus.dim == op.space.dim - s.symmetric.domain.dim
            assert gap_distance(triple.defect_plus, plus) <= QR_GAP
            assert gap_distance(von_neumann_pieces(s.symmetric)[1], minus) <= QR_GAP

    def test_deficiency_intersection(self, pieces):
        dims = set()
        for op, _, triple, defi in pieces:
            expected = svd_intersection(op, triple.defect_plus)
            assert gap_distance(defi.intersection, expected) <= QR_GAP
            dims.add((defi.intersection.dim, triple.defect_plus.dim))
        # the intersection is a proper part of N+ on a restricted domain
        # and all of it on the whole space
        assert any(m < k for m, k in dims) and any(m == k for m, k in dims)

    def test_resolvent_defect_domain(self, pieces):
        for op, s, _, defi in pieces:
            got = defect_domain_via_resolvent(op, defi)
            assert got.dim == s.defect.domain.dim
            assert gap_distance(got, svd_resolvent_domain(op, defi)) <= QR_GAP

    def test_trace_image(self, pieces):
        dims = set()
        for op, s, triple, _ in pieces:
            traces = restrict_triple(triple, op, s.defect.domain)
            if traces.boundary_dim == 0:
                continue
            assert traces.image.dim == s.defect.domain.dim
            assert gap_distance(traces.image, svd_trace_image(op, traces)) <= QR_GAP
            dims.add(traces.image.dim < traces.boundary_dim)
        # a proper image on a restricted domain and a maximal one on the whole space
        assert dims == {True, False}

    def test_pair_kernel(self, pieces):
        for op, s, _, _ in pieces:
            pair = boundary_map_projection(op, s)
            kernel = _map_kernel(pair, op)
            assert kernel.dim == s.symmetric.domain.dim
            assert gap_distance(kernel, svd_pair_kernel(pair, op)) <= QR_GAP

    def test_range_splitting_complement(self, pieces):
        for op, s, triple, _ in pieces:
            traces = restrict_triple(triple, op, s.defect.domain)
            if traces.boundary_dim == 0:
                continue
            q, perp = traces.image.basis, traces.image_complement
            assert perp.shape == (q.shape[0], q.shape[0] - q.shape[1])
            expected = complement(traces.image)
            assert gap_distance(Subspace(q.shape[0], perp), expected) <= QR_GAP
            margin = range_splitting(traces).margin
            assert margin == pytest.approx(reference_range_margin(traces), abs=QR_GAP)


def sweep_traces(c):
    """``(k, image dimension, traces)`` on ROADMAP item 1's sweep (seeds
    7000-7099 and 5000-5059, n = 2 ... 8 on random domains) with T scaled by
    c, for every operator with boundary data."""
    for seed in [*range(7000, 7100), *range(5000, 5060)]:
        rng = np.random.default_rng(seed)
        n = rng.integers(2, 9)
        base = random_dissipative(n, rng, domain_dim=rng.integers(1, n + 1))
        op = OperatorWithDomain(base.space, c * base.matrix, base.domain)
        s = split(op)
        traces = restrict_triple(build_boundary_triple(s.symmetric), op, s.defect.domain)
        if traces.boundary_dim:
            yield traces.boundary_dim, traces.image.dim, traces


def assert_margin_matches_reference(traces):
    """The margin read on the image's complement against the 2k x 2k route,
    to 1e-14, with the same verdict at the criterion cut."""
    got = range_splitting(traces)
    expected = reference_range_margin(traces)
    assert abs(got.margin - expected) <= 1e-14
    assert got.ok == (expected > CRITERION_TOL)


@pytest.mark.parametrize("c", [1e-8, 1.0, 1e8])
def test_range_margin_matches_reference_on_the_sweep(c):
    restricted = 0
    for k, image_dim, traces in sweep_traces(c):
        assert_margin_matches_reference(traces)
        restricted += image_dim < k
    # images smaller than the boundary space: restricted domains
    assert restricted >= 50


@pytest.mark.parametrize("eps", np.logspace(-9, -13, 41))
def test_range_margin_matches_reference_on_degeneration_family(eps):
    # the family whose margins cross the criterion cut near eps = 5e-11
    op = scaled_defect_instance(float(eps))
    s = split(op)
    assert_margin_matches_reference(
        restrict_triple(build_boundary_triple(s.symmetric), op, s.defect.domain))


# T far beyond 1e10 in norm: a rank cut at tol * sigma_max of [B; T B]
# dropped true graph directions here and broke both cross-checks
LARGE_NORM = [
    ([1e11, 1, -1], 0),
    ([1e11, 1, 1e3j], 1),
    ([3e10, 2, 1e2j, 5], 1),
]


@pytest.mark.parametrize("diagonal, deficiency_dim", LARGE_NORM)
def test_large_operator_norm_keeps_every_direction(diagonal, deficiency_dim):
    op = OperatorWithDomain(KreinSpace(np.eye(len(diagonal))), np.diag(diagonal))
    report = analyze_operator(op)
    assert all(report["checks"].values()), report["checks"]
    assert op.graph.dim == op.domain.dim
    assert report["dims"]["deficiency_space"] == deficiency_dim


def scaled_pieces(c):
    """``(op, splitting, traces)`` of each differential instance with T
    scaled by c."""
    for base in differential_instances():
        op = OperatorWithDomain(base.space, c * base.matrix, base.domain)
        s = split(op)
        triple = build_boundary_triple(s.symmetric)
        yield op, s, restrict_triple(triple, op, s.defect.domain)


@pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
def test_fixed_rank_matrices_have_singular_values_at_least_one(c):
    # the bound that lets a QR replace a rank-cut SVD, for [t0; t1] on the
    # defect domain, (JT + i)B and Gamma+ = C + iA on the trace image [A; C],
    # with T small, moderate and large
    for op, s, traces in scaled_pieces(c):
        b, x = op.domain.basis, op.coords(s.defect.domain.basis)
        matrices = [np.vstack([traces.trace0, traces.trace1]) @ x,
                    op.space.J @ op.matrix @ b + 1j * b]
        if traces.image is not None:
            k = traces.boundary_dim
            matrices.append(traces.image.basis[k:] + 1j * traces.image.basis[:k])
        for m in matrices:
            if m.size:
                assert np.linalg.svd(m, compute_uv=False)[-1] >= 1 - 1e-12


@pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
def test_contraction_on_image_matches_defect_route(c):
    for op, s, traces in scaled_pieces(c):
        norm = contraction_bound(traces).norm
        assert abs(norm - defect_contraction_norm(op, traces, s)) <= 1e-12


@pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
def test_riesz_block_matches_representer(c):
    for base in differential_instances():
        op = OperatorWithDomain(base.space, c * base.matrix, base.domain)
        eigs = riesz_representer(op).eigenvalues
        assert np.allclose(cholesky_riesz_spectrum(op), eigs, rtol=0.0, atol=1e-13)
        riesz = analyze_operator(op)["riesz"]
        assert abs(riesz["min_eigenvalue"] - eigs[0]) <= 1e-13
        assert abs(riesz["graph_norm"] - np.max(np.abs(eigs))) <= 1e-13


@pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
def test_pair_green_residual_bounds_the_sampled_one(c):
    # a sampled pair sees at most the 2-norm of the identity's defect, which
    # the Frobenius norm bounds; 1e-15 absorbs the round-off of the two
    # routes, 4e-17 apart where both read round-off
    for base in differential_instances():
        op = OperatorWithDomain(base.space, c * base.matrix, base.domain)
        pair = boundary_map_projection(op, split(op))
        exact = pair_green_residual(pair, op)
        assert exact + 1e-15 >= sampled_pair_green_residual(pair, op)
        assert exact <= 1e-13


def test_analysis_makes_one_svd_and_seven_two_norms(monkeypatch):
    # range splitting's sigma_min; on the whole space the deficiency
    # intersection is N+ itself, with no SVD
    op = random_dissipative(64, np.random.default_rng(1))
    counts = count_svd_backed(monkeypatch)
    report = analyze_operator(op)
    assert all(report["checks"].values())
    assert counts == {"svd": 1, "norm2": 7}


def test_map_gap_norms_no_ambient_matrix(monkeypatch):
    # the pair's map on E coordinates (dim E x d) and the gap of the two
    # maps on domain coordinates (d x d): no n-row matrix is formed
    op = random_dissipative(12, np.random.default_rng(3), defect=3, domain_dim=8)
    s = split(op)
    pair = boundary_map_projection(op, s)
    resolvent = boundary_map_resolvent(
        op, deficiency_space(build_boundary_triple(s.symmetric), op))
    e, d = s.defect.domain.dim, op.domain.dim
    assert op.space.dim > d > e > 0
    shapes, norm = [], np.linalg.norm

    def recorded(x, ord=None, *args, **kwargs):
        if ord == 2:
            shapes.append(np.shape(x))
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", recorded)
    _map_gap(op.coords(s.defect.domain.basis), pair, resolvent)
    assert shapes == [(e, d), (d, d)]


class TestSplitSkipsSelfGap:
    def test_split_compares_no_subspace_with_itself(self):
        # the defect domain is built from the form kernel itself: no
        # symmetric part is handed in, and no gap routine is at hand
        assert list(inspect.signature(dissipative_part).parameters) == ["op"]
        assert not hasattr(decomposition_module, "gap_distance")
