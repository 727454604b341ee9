import numpy as np
import pytest

from kreinpair import (
    ClassificationError,
    KreinSpace,
    OperatorWithDomain,
    Subspace,
    gap_distance,
    orthonormal_span,
)
from kreinpair.analysis import analyze_operator
from kreinpair.instances import (
    random_canonical_symmetry,
    random_dissipative,
    random_unitary,
    scaled_defect_instance,
)
from kreinpair.krein import (
    _classify,
    boundary_metric_matrix,
    classify_by_graph,
)
from kreinpair.subspaces import null_space
from kreinpair.tolerances import CHECK_GATE, negligible
from kreinpair.sturm_liouville import GridSpec, PotentialSpec, discretize

from conftest import (
    adjoint_relation,
    cholesky_riesz_spectrum,
    contains,
    count_factorizations,
    dissipation_form,
    e,
    exact_form_decision,
    graph_inner,
    krein_inner,
    random_domain_samples,
    riesz_coords,
    riesz_representer,
    span,
    symmetrized_dissipation_matrix,
)


class TestInnerProducts:
    def test_euclidean_metric(self):
        space = KreinSpace(np.eye(2))
        assert krein_inner(space, e(2, 0), e(2, 0)) == pytest.approx(1.0)

    def test_negative_square(self):
        space = KreinSpace(np.diag([1.0, -1.0]))
        assert krein_inner(space, e(2, 1), e(2, 1)) == pytest.approx(-1.0)

    def test_conjugate_linear_first_argument(self):
        space = KreinSpace(np.eye(2))
        x, y = np.array([1.0, 1j]), np.array([2.0, 0.5])
        assert (krein_inner(space, 2j * x, y)
                == pytest.approx(-2j * krein_inner(space, x, y)))

    # for J = I the graph metric is the doubled-space symmetry
    # (x, y) -> (-i y, i x) of ``boundary_metric_matrix``

    def test_graph_metric_value(self):
        p = np.array([1.0, 1j])  # the pair (e1, i e1)
        assert np.vdot(p, boundary_metric_matrix(1) @ p) == pytest.approx(2.0)

    def test_graph_symmetry_is_involution_for_euclidean_pairing(self):
        jg = boundary_metric_matrix(2)
        assert np.array_equal(jg @ jg, np.eye(4))
        assert np.array_equal(jg, jg.conj().T)


class TestDissipationForm:
    def test_scalar_multiplication_by_i(self, scalar_i):
        assert np.allclose(scalar_i.dissipation_gram, [[2.0]])

    def test_mixed_diagonal(self, mixed_diag):
        assert np.allclose(mixed_diag.dissipation_gram, np.diag([0.0, 2.0]))

    def test_indefinite_metric_pair(self, krein_pm):
        assert np.allclose(krein_pm.dissipation_gram, np.diag([2.0, 2.0]))

    def test_value_is_twice_imaginary_part(self):
        rng = np.random.default_rng(0)
        op = random_dissipative(5, rng)
        for x in random_domain_samples(op, 20, rng).T:
            form = dissipation_form(op, x, x).real
            expected = 2.0 * krein_inner(op.space, x, op.matrix @ x).imag
            assert form == pytest.approx(expected, rel=1e-10, abs=1e-10)

    def test_green_form_identity(self):
        # -i([x,Ty] - [Tx,y]) matches the assembled Gram on random pairs
        rng = np.random.default_rng(1)
        op = random_dissipative(6, rng)
        j, m = op.space.J, op.matrix
        x = random_domain_samples(op, 200, rng)
        y = random_domain_samples(op, 200, rng)
        lhs = -1j * (
            np.einsum("ij,ij->j", x.conj(), j @ (m @ y))
            - np.einsum("ij,ij->j", (m @ x).conj(), j @ y)
        )
        rhs = np.einsum("ij,ij->j", x.conj(), op.dissipation_matrix @ y)
        scale = np.linalg.norm(m, 2) * np.linalg.norm(x, axis=0) * np.linalg.norm(
            y, axis=0
        )
        assert np.max(np.abs(lhs - rhs) / scale) < 1e-8


class TestDissipationMatrix:
    """``h + h*`` on the Hermitian part of J against the symmetrized formula
    it replaced (``symmetrized_dissipation_matrix``)."""

    @pytest.mark.parametrize("n", [1, 5, 40])
    def test_diagonal_metric_gives_the_same_bits(self, n):
        rng = np.random.default_rng(n)
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for j in (np.eye(n), np.diag(rng.choice([-1.0, 1.0], size=n))):
            op = OperatorWithDomain(KreinSpace(j), m)
            d = op.dissipation_matrix
            assert np.array_equal(d, symmetrized_dissipation_matrix(op))
            assert np.array_equal(d, d.conj().T)

    def test_dense_metric_hermitian_within_its_asymmetry_cut(self):
        """A J with an anti-Hermitian part of norm 4e-10, which ``KreinSpace``
        accepts: the Hermitian part keeps D at the old formula to round-off,
        while ``J M`` itself would drift by about that asymmetry."""
        n = 40
        rng = np.random.default_rng(3)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = a - a.conj().T
        space = KreinSpace(random_canonical_symmetry(n, rng)
                           + 4e-10 / np.linalg.norm(a, 2) * a)
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        op = OperatorWithDomain(space, m)
        reference = symmetrized_dissipation_matrix(op)
        bound = 1e-15 * np.linalg.norm(m, 2)
        d = op.dissipation_matrix
        assert np.array_equal(d, d.conj().T)
        assert np.linalg.norm(d - reference, 2) <= bound
        plain = -1j * (space.J @ m)
        assert np.linalg.norm(plain + plain.conj().T - reference, 2) > bound


class TestClassify:
    """Each verdict is checked on both routes: the dissipation form (the
    method) and the graph in the graph Krein space."""

    def test_dissipative(self, scalar_i):
        assert scalar_i.classify() == classify_by_graph(scalar_i) == "dissipative"

    def test_symmetric(self, hermitian_full):
        assert (hermitian_full.classify() == classify_by_graph(hermitian_full)
                == "symmetric")

    def test_neither(self):
        op = OperatorWithDomain(KreinSpace(np.eye(2)), np.diag([1j, -1j]))
        assert op.classify() == classify_by_graph(op) == "neither"
        eigs = np.linalg.eigvalsh(op.dissipation_gram)
        assert eigs[0] < 0 < eigs[-1]

    def test_krein_dissipative_despite_lower_halfplane_spectrum(self, krein_pm):
        assert krein_pm.classify() == classify_by_graph(krein_pm) == "dissipative"

    def test_empty_domain_counts_as_symmetric(self):
        op = OperatorWithDomain(
            KreinSpace(np.eye(2)), np.diag([1j, 1j]), Subspace.zero(2)
        )
        assert op.classify() == classify_by_graph(op) == "symmetric"


class TestKreinAdjoint:
    """``op.graph`` against the Krein adjoint of the ``conftest`` oracle."""

    def test_self_adjoint_diagonal(self):
        op = OperatorWithDomain(KreinSpace(np.eye(2)), np.diag([1.0, 2.0]))
        adj = adjoint_relation(op.graph, op.space.J)
        assert gap_distance(adj, op.graph) < 1e-12

    def test_trivial_domain(self):
        op = OperatorWithDomain(
            KreinSpace(np.eye(1)), np.zeros((1, 1)), Subspace.zero(1)
        )
        assert op.graph.is_zero
        assert adjoint_relation(op.graph, op.space.J).is_full

    def test_restricted_mixed_diagonal(self, mixed_diag):
        sym = mixed_diag.restricted(span(e(2, 0)))
        adj = adjoint_relation(sym.graph, sym.space.J)
        # the defining sesquilinear system: pairs ((x1, x2), (x1, w))
        assert adj.dim == 3
        top, bot = adj.basis[:2], adj.basis[2:]
        # its domain is everything, its multivalued part the second axis
        assert orthonormal_span(top, scale=1.0).is_full
        multivalued = orthonormal_span(bot @ null_space(top, scale=1.0), scale=1.0)
        assert gap_distance(multivalued, span(e(2, 1))) < 1e-12
        assert contains(adj, np.array([1.0, 5.0, 1.0, -2j]))
        assert not contains(adj, np.array([1.0, 0.0, 2.0, 0.0]))


class TestGraphInner:
    """The graph inner product ``<x, y> + <Tx, Ty>`` through ``graph_gram``."""

    def test_scalar(self, scalar_i):
        x = np.array([1.0])
        assert np.sqrt(graph_inner(scalar_i, x, x).real) == pytest.approx(np.sqrt(2))

    def test_zero_operator(self):
        op = OperatorWithDomain(KreinSpace(np.eye(2)), np.zeros((2, 2)))
        x = np.array([3.0, 4.0])
        assert np.sqrt(graph_inner(op, x, x).real) == pytest.approx(5.0)

    def test_mixed_diagonal_value(self, mixed_diag):
        x = np.array([1.0, 1.0])
        assert graph_inner(mixed_diag, x, x) == pytest.approx(4.0)
        sym = mixed_diag.restricted(span(e(2, 0)))
        assert graph_inner(sym, e(2, 0), e(2, 0)) == pytest.approx(2.0)


class TestRieszRepresenter:
    def test_scalar_value(self, scalar_i):
        rep = riesz_representer(scalar_i)
        assert np.allclose(rep.matrix, [[1.0]])

    def test_symmetric_gives_zero(self, hermitian_full):
        rep = riesz_representer(hermitian_full)
        assert np.linalg.norm(rep.matrix) < 1e-12

    def test_mixed_diagonal_spectrum(self, mixed_diag):
        rep = riesz_representer(mixed_diag)
        assert np.allclose(np.sort(np.linalg.eigvalsh(rep.matrix)), [0.0, 1.0])

    def test_rejects_non_dissipative(self):
        op = OperatorWithDomain(KreinSpace(np.eye(2)), np.diag([1j, -1j]))
        with pytest.raises(ClassificationError):
            riesz_representer(op)

    def test_form_bound_and_square_root_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            full = random_dissipative(n, rng)
            raw = rng.standard_normal((n, n - 1)) + 1j * rng.standard_normal((n, n - 1))
            for op in (full, full.restricted(orthonormal_span(raw))):
                rep = riesz_representer(op)
                eigs = np.linalg.eigvalsh(rep.matrix)
                assert eigs[0] >= -1e-10
                assert eigs[-1] <= 1.0 + CHECK_GATE
                # the graph route of the report and the Cholesky route give
                # the same eigenvalues
                for eigs in (op.graph_spectrum, cholesky_riesz_spectrum(op)):
                    assert np.allclose(eigs, rep.eigenvalues, rtol=0.0, atol=1e-13)
                # form value equals the squared graph norm of sqrt(F) x
                for x in random_domain_samples(op, 20, rng).T:
                    form = dissipation_form(op, x, x).real
                    coords = riesz_coords(op, x)
                    image = rep.sqrt_matrix @ coords
                    assert form == pytest.approx(
                        float(np.vdot(image, image).real), rel=1e-8, abs=1e-8
                    )
                    assert abs(form) <= 2.0 * graph_inner(op, x, x).real + 1e-8

    def test_kernel_of_square_root_is_form_kernel(self, mixed_diag):
        rep = riesz_representer(mixed_diag)
        kernel = rep.kernel_vectors(mixed_diag, 1e-10)
        assert gap_distance(kernel, span(e(2, 0))) < 1e-10

    def test_embedding_factorization(self):
        # completion-space identity: (F x, F y) through the pseudo-inverse
        # metric equals <x, F y> in graph coordinates
        rng = np.random.default_rng(3)
        op = random_dissipative(5, rng)
        rep = riesz_representer(op)
        f = rep.matrix
        pinv = np.linalg.pinv(f)
        assert np.linalg.norm(f @ pinv @ f - f, 2) < 1e-10
        x = rng.standard_normal((5, 30)) + 1j * rng.standard_normal((5, 30))
        coords = riesz_coords(op, x)
        lhs = np.einsum("ij,ik->jk", (f @ coords).conj(), pinv @ (f @ coords))
        rhs = np.einsum("ij,ik->jk", coords.conj(), f @ coords)
        assert np.linalg.norm(lhs - rhs, 2) < 1e-8

    def test_analysis_takes_one_graph_spectrum_per_operator(self, monkeypatch):
        # eigvalsh: the graph spectra of T and of S, the image Gram and the
        # splitting's defect Gram; the Riesz block reads T's graph spectrum
        op = random_dissipative(64, np.random.default_rng(1))
        counts = count_factorizations(monkeypatch)
        report = analyze_operator(op)
        assert all(report["checks"].values())
        assert counts["eigvalsh"] == 4 and counts["cholesky"] == 0
        assert report["riesz"]["min_eigenvalue"] == op.graph_spectrum[0]

    def test_empty_domain_reports_zero_riesz_block(self):
        op = OperatorWithDomain(KreinSpace(np.eye(3)), np.diag([1j, 1j, 1.0]),
                                Subspace.zero(3))
        assert op.graph_spectrum.size == 0
        assert analyze_operator(op)["riesz"] == {"min_eigenvalue": 0.0,
                                                 "graph_norm": 0.0}


def assert_form_decision_exact(op):
    """``classify``, ``form_scale`` and ``form_kernel`` equal the route that
    always takes ``2 |T B|_2`` from the SVD; returns whether the SVD ran."""
    verdict, scale, kernel = exact_form_decision(op)
    assert op.classify() == verdict
    assert op.form_scale == scale
    assert np.array_equal(op.form_kernel.basis, kernel)
    return "scale" in op.__dict__


def random_domain(n, rng):
    raw = rng.standard_normal((n, n - 2)) + 1j * rng.standard_normal((n, n - 2))
    return orthonormal_span(raw)


def j_symmetric(n, rng, dissipation=0.0):
    """T = J (H + i r P) with |H|_2 = 1 and the spectrum of P in [1, 2]:
    symmetric for r = 0, strictly dissipative with form spectrum in [2r, 4r]
    else."""
    j = random_canonical_symmetry(n, rng)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = 0.5 * (z + z.conj().T)
    h /= np.linalg.norm(h, 2)
    u = random_unitary(n, rng)
    p = (u * np.linspace(1.0, 2.0, n)) @ u.conj().T
    a = h + 1j * dissipation * 0.5 * (p + p.conj().T)
    return OperatorWithDomain(KreinSpace(j), j @ a)


class TestFormScaleShortcut:
    """The Frobenius test in ``form_scale`` changes no decision."""

    @pytest.mark.parametrize("c", [1e-8, 1.0, 1e8])
    @pytest.mark.parametrize("restricted", [False, True])
    def test_random_dissipative(self, c, restricted):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 12))
            op = random_dissipative(n, rng)
            domain = random_domain(n, rng) if restricted and n > 2 else None
            assert_form_decision_exact(
                OperatorWithDomain(op.space, c * op.matrix, domain))

    @pytest.mark.parametrize("restricted", [False, True])
    def test_hermitian_takes_the_svd(self, restricted):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            op = j_symmetric(8, rng)
            if restricted:
                op = op.restricted(random_domain(8, rng))
            assert assert_form_decision_exact(op)
            assert op.classify() == "symmetric"

    def test_sweep_across_the_cut(self):
        """Dissipation from far below the rank cut to far above it: the
        verdict flips at the cut, the SVD runs only where the Frobenius test
        cannot decide, and both branches agree with the oracle."""
        seen = set()
        for r in np.logspace(-12, -7, 21):
            op = j_symmetric(8, np.random.default_rng(0), dissipation=r)
            seen.add((op.classify(), assert_form_decision_exact(op)))
        assert seen == {("symmetric", True), ("dissipative", True),
                        ("dissipative", False)}

    @pytest.mark.parametrize("eps", [10.0 ** -k for k in range(13)])
    def test_scaled_defect_family(self, eps):
        assert_form_decision_exact(scaled_defect_instance(eps))

    @pytest.mark.parametrize("intervals,imq", [
        ([(0.0, 0.5)], 1.0), ([(0.25, 0.5), (0.7, 0.8)], 1e-6), ([(0.0, 1.0)], 3.0),
    ])
    def test_discretizations(self, intervals, imq):
        grid = GridSpec(x_max=10.0, n_points=32)
        pot = PotentialSpec.from_intervals(grid, intervals, imq, 1.0)
        op = discretize(grid, pot).operator()
        assert not assert_form_decision_exact(op)
        assert_form_decision_exact(op.restricted(op.form_kernel))
        free = PotentialSpec(np.zeros(32, bool), np.zeros(32, complex), 1.0)
        assert assert_form_decision_exact(discretize(grid, free).operator())


class TestIdentityBasis:
    """An operator built with ``domain=None`` skips its products by the
    identity basis; an explicit full domain keeps them.  Same bits."""

    @pytest.mark.parametrize("seed", range(5))
    def test_same_results_as_an_explicit_full_domain(self, seed):
        op = random_dissipative(9, np.random.default_rng(seed))
        explicit = OperatorWithDomain(op.space, op.matrix, Subspace.full(9))
        for name in ("dissipation_gram", "graph_gram"):
            assert np.array_equal(getattr(op, name), getattr(explicit, name))
        assert op.scale == explicit.scale
        assert op.form_scale == explicit.form_scale
        assert np.array_equal(op.form_kernel.basis, explicit.form_kernel.basis)
        assert np.array_equal(riesz_representer(op).basis,
                              riesz_representer(explicit).basis)


def diagonal_form_operator(d, rng):
    """T = diag(x + i d / 2) with J = I: its dissipation form is exactly diag(d)."""
    d = np.asarray(d, dtype=float)
    return OperatorWithDomain(KreinSpace(np.eye(d.size)),
                              np.diag(rng.standard_normal(d.size) + 0.5j * d))


def assert_lapack_eigenpairs(op):
    """``form_eigh`` on a diagonal Gram: its sorted diagonal, which are the
    eigenvalues of ``np.linalg.eigh`` bit for bit, with the same kernel and
    the same verdict."""
    gram = op.dissipation_gram
    assert np.count_nonzero(gram) == np.count_nonzero(np.diag(gram))
    w, v = op.form_eigh
    assert np.array_equal(w, np.sort(np.diag(gram).real))
    ref_w, ref_v = np.linalg.eigh(gram)
    assert np.array_equal(w, ref_w)
    assert w.dtype == ref_w.dtype and v.dtype == ref_v.dtype
    assert v.shape == ref_v.shape
    cut = negligible(ref_w, op.tol, op.form_scale)
    n = op.space.dim
    assert gap_distance(op.form_kernel, Subspace(n, ref_v[:, cut])) == 0.0
    assert op.classify() == _classify(ref_w, op.tol, op.form_scale)


class TestDiagonalForm:
    """A diagonal dissipation Gram and a diagonal J take the dense routes,
    with exact results: the form's eigenvalues are its sorted diagonal, and
    the dissipation matrix has the bits of the scaled products."""

    @pytest.mark.parametrize("d,verdict", [
        ([1.0, 1.0, 0.0, 0.0, 2.0], "dissipative"),  # ties and zeros
        ([0.0, 0.0, 0.0], "symmetric"),
        ([-1.0, 0.5, 0.0, -1.0], "neither"),  # negative entries, a tie
        ([-2.0, -2.0], "neither"),
        ([3.0], "dissipative"),  # n = 1
        ([0.0], "symmetric"),
        ([-1e-3], "neither"),
        ([2.0, 2e-12, -3e-13, 0.0, 1e-11], "dissipative"),  # around the cut
        ([2.0, 2e-12, -3e-10, 0.0], "neither"),
    ])
    def test_form_eigh_matches_lapack(self, d, verdict):
        op = diagonal_form_operator(d, np.random.default_rng(len(d)))
        assert op.classify() == verdict
        assert np.array_equal(op.form_eigh[0], np.sort(d))
        assert_lapack_eigenpairs(op)

    @pytest.mark.parametrize("eps", [10.0 ** -k for k in range(13)])
    def test_scaled_defect_family(self, eps):
        assert_lapack_eigenpairs(scaled_defect_instance(eps))

    def test_dense_gram_takes_lapack(self, monkeypatch):
        op = random_dissipative(6, np.random.default_rng(3))
        counts = count_factorizations(monkeypatch)
        op.form_eigh
        assert counts["eigh"] == 1

    @pytest.mark.parametrize("signature", ["identity", "signs"])
    @pytest.mark.parametrize("n", [1, 5, 40])
    def test_dissipation_matrix_bit_equal_to_products(self, signature, n):
        rng = np.random.default_rng(n)
        j = (np.eye(n) if signature == "identity"
             else np.diag(rng.choice([-1.0, 1.0], size=n)))
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        op = OperatorWithDomain(KreinSpace(j), m)
        jj, mm = op.space.J, op.matrix
        g = -1j * (jj @ mm - mm.conj().T @ jj)
        reference = 0.5 * (g + g.conj().T)
        assert op.dissipation_matrix.tobytes() == reference.tobytes()
