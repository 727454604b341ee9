import re
import sys

import numpy as np
import pytest

from kreinpair import OperatorWithDomain, Subspace, gap_distance, split
from kreinpair import decomposition, subspaces
from kreinpair.analysis import analyze_operator
from kreinpair import sturm_liouville
from kreinpair.errors import (
    ClassificationError,
    DimensionMismatch,
    KreinPairError,
    PipelineError,
)
from kreinpair.instances import random_unitary
from kreinpair.sturm_liouville import (
    GridSpec,
    PotentialSpec,
    StudyRow,
    cayley_norm,
    convergence_study,
    discretize,
    dissipation_quadrature_residual,
    mask_splitting,
    omega_block,
    study_levels,
    write_study_csv,
)

from conftest import (
    count_factorizations,
    count_svd_backed,
    dense_mask_splitting,
    e,
    span,
)


def left_half(grid, imq=1.0, h=1.0):
    return PotentialSpec.from_intervals(grid, [(0.0, 0.5)], imq, h)


class TestSpecs:
    def test_grid_validation(self):
        with pytest.raises(DimensionMismatch):
            GridSpec(x_max=10.0, n_points=4)
        with pytest.raises(DimensionMismatch):
            GridSpec(x_max=-1.0, n_points=16)

    @pytest.mark.parametrize("x_max", [1e-300, 1e308])
    def test_grid_step_squared_must_invert(self, x_max):
        # step^2 underflows to 0 or overflows, so 1/step^2 is inf or 0
        with pytest.raises(DimensionMismatch, match="1/step"):
            GridSpec(x_max=x_max, n_points=8)

    def test_robin_overflow_rejected(self):
        with pytest.raises(DimensionMismatch, match="overflows"):
            GridSpec(x_max=1e100, n_points=8).robin_alpha(1e300)

    def test_grid_step_and_centers(self):
        grid = GridSpec(x_max=8.0, n_points=16)
        assert grid.step == pytest.approx(0.5)
        centers = grid.cell_centers()
        assert centers[0] == pytest.approx(0.25)
        assert centers[-1] == pytest.approx(7.75)

    def test_potential_validation(self):
        grid = GridSpec(x_max=8.0, n_points=16)
        mask = np.zeros(16, bool)
        mask[:4] = True
        with pytest.raises(DimensionMismatch):
            # vanishing imaginary part on the mask
            PotentialSpec(omega_mask=mask, q_values=np.zeros(16, complex), h=0.0)
        with pytest.raises(DimensionMismatch):
            # support off the mask
            PotentialSpec(
                omega_mask=mask, q_values=np.full(16, 1j), h=0.0
            )
        with pytest.raises(DimensionMismatch):
            PotentialSpec(
                omega_mask=mask,
                q_values=np.where(mask, 1j, 0),
                h=float("nan"),
            )
        with pytest.raises(DimensionMismatch):
            PotentialSpec.from_intervals(grid, [(0.0, 0.5)], 0.0, 1.0)

    def test_interval_mask(self):
        grid = GridSpec(x_max=8.0, n_points=16)
        pot = left_half(grid)
        assert pot.omega_mask.sum() == 8
        assert pot.omega_mask[:8].all() and not pot.omega_mask[8:].any()

    def test_study_row_rejects_expansion(self):
        with pytest.raises(PipelineError):
            StudyRow(level=0, n_points=8, x_max=1.0, cayley_norm=1.1,
                     form_residual=0.0)


class TestDiscretize:
    def test_free_operator_is_symmetric(self):
        grid = GridSpec(x_max=10.0, n_points=16)
        pot = PotentialSpec(
            omega_mask=np.zeros(16, bool), q_values=np.zeros(16, complex), h=0.0
        )
        op = discretize(grid, pot)
        assert op.classify() == "symmetric"
        assert split(op).symmetric.domain.is_full

    def test_uniform_imaginary_potential(self):
        grid = GridSpec(x_max=10.0, n_points=16)
        pot = PotentialSpec.from_intervals(grid, [(0.0, 1.0)], 1.0, 0.0)
        op = discretize(grid, pot)
        assert np.allclose(op.dissipation_matrix, 2.0 * np.eye(16), atol=1e-12)
        assert split(op).symmetric.domain.is_zero

    def test_masked_potential_form(self):
        grid = GridSpec(x_max=10.0, n_points=16)
        pot = left_half(grid)
        op = discretize(grid, pot)
        assert np.allclose(
            op.dissipation_matrix, 2.0 * np.diag(pot.omega_mask.astype(float)),
            atol=1e-12,
        )

    def test_robin_parameter_enters_first_entry(self):
        grid = GridSpec(x_max=10.0, n_points=16)
        a0 = discretize(grid, left_half(grid, h=0.0)).matrix[0, 0]
        a1 = discretize(grid, left_half(grid, h=1.0)).matrix[0, 0]
        assert a1.real > a0.real  # attractive Robin term stiffens the corner

    def test_interfaces_decouple_blocks(self):
        grid = GridSpec(x_max=10.0, n_points=16)
        pot = left_half(grid)
        m = discretize(grid, pot).matrix
        assert m[7, 8] == 0.0 and m[8, 7] == 0.0
        # off-mask block below the interface keeps its coupling
        assert m[9, 10] != 0.0


class TestMaskSplitting:
    def test_full_mask(self):
        grid = GridSpec(x_max=10.0, n_points=16)
        pot = PotentialSpec.from_intervals(grid, [(0.0, 1.0)], 1.0, 0.0)
        op = discretize(grid, pot)
        s = mask_splitting(op, pot.omega_mask)
        assert s.symmetric.domain.is_zero

    def test_single_point_mask(self):
        grid = GridSpec(x_max=10.0, n_points=16)
        mask = np.zeros(16, bool)
        mask[5] = True
        pot = PotentialSpec(omega_mask=mask,
                            q_values=np.where(mask, 1j, 0), h=0.0)
        op = discretize(grid, pot)
        s = mask_splitting(op, mask)
        assert gap_distance(
            s.defect.domain, span(e(16, 5))
        ) < 1e-12

    def test_left_half_agrees_with_generic_splitting(self):
        grid = GridSpec(x_max=20.0, n_points=64)
        pot = left_half(grid)
        op = discretize(grid, pot)
        s = mask_splitting(op, pot.omega_mask)
        generic = split(op)
        assert gap_distance(s.defect.domain, generic.defect.domain) < 1e-8
        assert gap_distance(s.symmetric.domain, generic.symmetric.domain) < 1e-8

    @pytest.mark.parametrize("base_n", [16, 64, 256])
    def test_defect_gram_is_the_masked_block(self, base_n):
        grid = GridSpec(x_max=10.0, n_points=base_n)
        pot = PotentialSpec.from_intervals(grid, [(0.1, 0.4), (0.6, 0.7)], 2.0, 1.0)
        op = discretize(grid, pot)
        s = mask_splitting(op, pot.omega_mask)
        # both domains are spanned by the coordinate columns, exactly
        eye = np.eye(base_n)
        for part, cols in ((s.defect, pot.omega_mask), (s.symmetric, ~pot.omega_mask)):
            assert np.array_equal(part.domain.basis, eye[:, cols])
            assert not part.domain.basis.flags.writeable
        # the dense product on the coordinate basis, symmetrised
        bn = s.defect.domain.basis
        gram = bn.conj().T @ op.dissipation_matrix @ bn
        assert np.array_equal(s.defect_gram, 0.5 * (gram + gram.conj().T))
        assert np.array_equal(np.diag(s.defect_gram), np.full(bn.shape[1], 4.0))

    def test_wrong_mask_rejected(self):
        grid = GridSpec(x_max=10.0, n_points=16)
        pot = left_half(grid)
        op = discretize(grid, pot)
        wrong = np.roll(pot.omega_mask, 3)
        with pytest.raises(PipelineError):
            mask_splitting(op, wrong)

    # (16, 1) used to be flattened without a word
    @pytest.mark.parametrize("shape", [(16, 1), (1, 16), (15,), (17,), ()])
    def test_mask_must_be_a_vector_of_length_n(self, shape):
        grid = GridSpec(x_max=10.0, n_points=16)
        op = discretize(grid, left_half(grid))
        mask = np.ones(shape, bool)
        with pytest.raises(DimensionMismatch, match="vector of length 16"):
            mask_splitting(op, mask)
        with pytest.raises(DimensionMismatch, match="vector of length 16"):
            omega_block(op, mask)


def _outcome(route, op, mask):
    """The splitting a route returns, or the type of the error it raises."""
    try:
        return route(op, mask)
    except KreinPairError as exc:
        return type(exc)


def _generic_roundoff(op, mask):
    """``n eps`` times the condition number of ``G K``, for G the graph Gram
    ``I + T* T`` on the whole space and K the off-mask coordinate columns:
    the scale of the round-off that the generic route, which takes the
    defect domain as the complement of the range of ``G K``, leaves in it."""
    n = op.space.dim
    t = op.matrix
    gk = (np.eye(n) + t.conj().T @ t)[:, ~mask]
    eps = np.finfo(float).eps
    if gk.shape[1] == 0:
        return n * eps
    s = np.linalg.svd(gk, compute_uv=False)
    return n * eps * s[0] / s[-1]


def _recoupled(op, grid, mask):
    """The operator with its first mask interface coupled again: the
    interior stencil across it, without the two Dirichlet edges."""
    k = int(np.flatnonzero(mask[:-1] != mask[1:])[0])
    inv2 = 1.0 / grid.step**2
    m = op.matrix.copy()
    m[k, k + 1] = m[k + 1, k] = -inv2
    m[k, k] -= inv2
    m[k + 1, k + 1] -= inv2
    return OperatorWithDomain(op.space, m)


def _masked_coupling(op, mask):
    """The operator with ``0.5i`` added on both sides of the diagonal at two
    neighbouring masked coordinates: dissipation 1 between them, still
    definite on the mask (eigenvalues 2 Im q +- 1) and zero off it."""
    a = int(np.flatnonzero(mask[:-1] & mask[1:])[0])
    m = op.matrix.copy()
    m[a, a + 1] += 0.5j
    m[a + 1, a] += 0.5j
    return OperatorWithDomain(op.space, m)


STUDY_FORMS = [([(0.0, 0.5)], 1.0, 1.0), ([(0.25, 0.5), (0.7, 0.8)], 3.0, -3.0),
               ([(0.5, 1.0)], 0.2, 30.0)]


def _equivalence_cases(n):
    """(label, operator, mask) on an n-point grid: the levels ``study_levels``
    builds, over an x_max sweep across the cut below which the form is
    judged zero, and operators that break one structural fact each."""
    for intervals, imq, h in STUDY_FORMS:
        for x_max in np.logspace(-5, 1.5, 14):
            grid = GridSpec(x_max=x_max, n_points=n)
            pot = PotentialSpec.from_intervals(grid, intervals, imq, h)
            yield f"study {intervals} x_max={x_max:.3g}", discretize(grid, pot), \
                pot.omega_mask
    grid = GridSpec(x_max=10.0, n_points=n)
    pot = left_half(grid)
    op, mask = discretize(grid, pot), pot.omega_mask
    yield "left half", op, mask
    yield "rolled mask", op, np.roll(mask, 3)
    yield "complementary mask", op, ~mask
    yield "re-coupled interface", _recoupled(op, grid, mask), mask
    yield "dissipation inside the mask", _masked_coupling(op, mask), mask
    yield "non-dissipative", OperatorWithDomain(op.space, op.matrix.conj()), mask
    yield "symmetric", OperatorWithDomain(op.space, op.matrix.real), mask
    yield "restricted domain", op.restricted(Subspace(n, np.eye(n)[:, 1:])), mask
    rotated = Subspace(n, random_unitary(n, np.random.default_rng(n)))
    yield "whole space, rotated basis", op.restricted(rotated), mask


class TestStructuralAgainstDense:
    """The structural ``mask_splitting`` against the dense generic route it
    replaced (``dense_mask_splitting``): the same verdict and error type."""

    @pytest.mark.parametrize("n", [8, 16, 64])
    def test_same_verdict_as_the_dense_route(self, n):
        verdicts = []
        for label, op, mask in _equivalence_cases(n):
            dense = _outcome(dense_mask_splitting, op, mask)
            structural = _outcome(mask_splitting, op, mask)
            if isinstance(dense, type) or isinstance(structural, type):
                assert dense is structural, label
                verdicts.append(dense)
                continue
            gap = gap_distance(dense.defect.domain, structural.defect.domain)
            assert gap <= _generic_roundoff(op, mask), (label, gap)
            verdicts.append("accepted")
        # the sweep sees every verdict
        assert {"accepted", PipelineError, ClassificationError} <= set(verdicts)

    @pytest.mark.parametrize("n", [8, 16, 64])
    def test_failed_fact_is_named(self, n):
        # the fact each broken operator fails first; None where none fails
        facts = {
            "left half": None,
            "dissipation inside the mask": None,
            "whole space, rotated basis": None,
            "rolled mask": "couples masked and off-mask",
            "complementary mask": "does not vanish off the mask",
            "re-coupled interface": "couples masked and off-mask",
            "symmetric": "not definite on the mask",
            "restricted domain": "not the whole space",
        }
        for label, op, mask in _equivalence_cases(n):
            if label == "non-dissipative":
                with pytest.raises(ClassificationError):
                    mask_splitting(op, mask)
            elif label in facts and facts[label] is None:
                mask_splitting(op, mask)
            elif label in facts:
                with pytest.raises(PipelineError, match=f"disagrees.*{facts[label]}"):
                    mask_splitting(op, mask)


class TestQuadrature:
    def test_vector_off_mask_has_zero_form(self):
        grid = GridSpec(x_max=10.0, n_points=16)
        pot = left_half(grid)
        op = discretize(grid, pot)
        x = e(16, 12)
        assert abs(op.dissipation_form(x, x)) < 1e-14

    def test_single_point_indicator(self):
        grid = GridSpec(x_max=10.0, n_points=16)
        pot = left_half(grid)
        op = discretize(grid, pot)
        s = grid.step
        x = np.sqrt(s) * e(16, 3)  # function value 1 at one mask point
        assert op.dissipation_form(x, x).real == pytest.approx(2.0 * s)

    def test_random_samples_residual(self):
        grid = GridSpec(x_max=20.0, n_points=128)
        pot = left_half(grid)
        op = discretize(grid, pot)
        res = dissipation_quadrature_residual(op, grid, pot,
                                              rng=np.random.default_rng(0))
        assert res < 1e-10


class TestCayley:
    def test_purely_imaginary_scalar(self):
        assert cayley_norm(np.array([[1j]])) == pytest.approx(0.0)

    def test_real_scalar_on_unit_circle(self):
        assert cayley_norm(np.array([[7.0]])) == pytest.approx(1.0)
        assert cayley_norm(np.array([[-3.0]])) == pytest.approx(1.0)

    def test_contraction_for_dissipative_block(self):
        grid = GridSpec(x_max=20.0, n_points=64)
        pot = left_half(grid)
        op = discretize(grid, pot)
        norm = cayley_norm(omega_block(op, pot.omega_mask))
        assert norm < 1.0

    def test_singular_shift_rejected(self):
        with pytest.raises(PipelineError):
            cayley_norm(np.array([[-1j]]))

    def test_empty_matrix_rejected(self):
        with pytest.raises(DimensionMismatch, match="empty"):
            cayley_norm(np.zeros((0, 0)))

    def test_omega_block_shape(self):
        grid = GridSpec(x_max=10.0, n_points=16)
        pot = left_half(grid)
        op = discretize(grid, pot)
        block = omega_block(op, pot.omega_mask)
        assert block.shape == (8, 8)
        with pytest.raises(DimensionMismatch):
            omega_block(op, np.zeros(16, bool))


class TestStudy:
    def test_small_study_monotone(self):
        rows = convergence_study(10.0, 16, [(0.0, 0.5)], 1.0, 1.0, 3, seed=0)
        norms = [r.cayley_norm for r in rows]
        assert all(n <= 1.0 + 1e-10 for n in norms)
        assert all(b >= a - 1e-6 for a, b in zip(norms, norms[1:]))
        assert [r.n_points for r in rows] == [16, 32, 64]

    def test_single_cell_mask_stays_contractive(self):
        grid = GridSpec(x_max=10.0, n_points=16)
        frac = 1.0 / 16.0
        rows = convergence_study(10.0, 16, [(0.0, frac)], 1.0, 0.0, 3, seed=0)
        assert all(r.cayley_norm <= 1.0 + 1e-10 for r in rows)

    def test_robin_sweep_same_conclusion(self):
        finals = []
        for h in (-1.0, 0.0, 1.0):
            rows = convergence_study(10.0, 16, [(0.0, 0.5)], 1.0, h, 3, seed=0)
            norms = [r.cayley_norm for r in rows]
            assert all(b >= a - 1e-6 for a, b in zip(norms, norms[1:]))
            finals.append(norms[-1])
        assert all(f > 0.99 for f in finals)

    def test_levels_validated(self):
        with pytest.raises(DimensionMismatch):
            convergence_study(10.0, 16, [(0.0, 0.5)], 1.0, 1.0, 2)

    @pytest.mark.parametrize("intervals,h,match", [
        ([(0.5, 0.52)], 1.0, "empty"),  # no cell center in [10, 10.4)
        ([(0.0, 0.5)], -0.8, "resonates"),  # 1 + step h / 2 = 0 at step 2.5
    ])
    def test_every_level_validated_before_dense_work(self, monkeypatch,
                                                     intervals, h, match):
        def no_dense_work(*args):
            raise AssertionError("discretized before validation")

        monkeypatch.setattr(sturm_liouville, "discretize", no_dense_work)
        with pytest.raises(DimensionMismatch, match=match):
            study_levels(20.0, 8, intervals, 1.0, h, 3)
        with pytest.raises(DimensionMismatch, match=match):
            convergence_study(20.0, 8, intervals, 1.0, h, 3)

    @pytest.mark.parametrize("imq", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_imq_rejected(self, imq):
        with pytest.raises(DimensionMismatch, match="Im q"):
            study_levels(20.0, 8, [(0.0, 0.5)], imq, 1.0, 3)

    @pytest.mark.parametrize("x_max", [1e-76, 1e-140])
    def test_gram_overflow_rejected_before_dense_work(self, monkeypatch, x_max):
        def no_dense_work(*args):
            raise AssertionError("discretized before validation")

        monkeypatch.setattr(sturm_liouville, "discretize", no_dense_work)
        with pytest.raises(DimensionMismatch, match="overflows"):
            convergence_study(x_max, 8, [(0.0, 0.5)], 1.0, 1.0, 3)

    @pytest.mark.parametrize("intervals,imq,h", [
        ([(0.0, 0.5)], 1.0, 1.0), ([(0.25, 0.5), (0.7, 0.8)], 3.0, -3.0),
        ([(0.5, 1.0)], 0.2, 30.0),
    ])
    def test_unseen_form_rejected_only_where_the_split_fails(self, intervals,
                                                             imq, h):
        """A level rejected for a form below the rank cut does fail when
        discretized and split, over a log sweep of x_max across the cut."""
        rejected = 0
        for x_max in np.logspace(-5, -2.5, 16):
            try:
                study_levels(x_max, 8, intervals, imq, h, 3)
            except DimensionMismatch as exc:
                assert "judged zero" in str(exc)
                level = int(re.match(r"level (\d+)", str(exc)).group(1))
                grid = GridSpec(x_max=x_max, n_points=8 * 2**level)
                pot = PotentialSpec.from_intervals(grid, intervals, imq, h)
                op = discretize(grid, pot)
                assert op.classify() == "symmetric"
                with pytest.raises(PipelineError, match="disagrees"):
                    mask_splitting(op, pot.omega_mask)
                rejected += 1
        assert 0 < rejected < 16

    @pytest.mark.parametrize("intervals,h", [
        ([(0.0, 0.5)], 1.0), ([(0.0, 0.5)], -0.7), ([(0.5, 1.0)], 30.0),
        ([(0.25, 0.5), (0.7, 0.8)], -3.0), ([(0.0, 1.0)], 1e3),
    ])
    def test_row_sum_bound_holds(self, intervals, h):
        """The bound ``study_levels`` checks is at least every absolute row
        sum of the assembled matrix."""
        imq = 2.5
        for grid, pot in study_levels(20.0, 8, intervals, imq, h, 3):
            bound = (max(4.0, abs(2.0 - grid.robin_alpha(h)) + 1.0)
                     / grid.step**2 + imq)
            rows = np.abs(discretize(grid, pot).matrix).sum(axis=1)
            assert np.max(rows) <= bound * (1 + 1e-15)

    def test_svd_budget(self, monkeypatch):
        svds = count_svd_backed(monkeypatch)
        convergence_study(10.0, 16, [(0.0, 0.5)], 1.0, 1.0, 3, seed=0)
        # per level the Cayley norm (an SVD) and nothing else: the mask
        # splitting compares no subspaces and its form scale comes from the
        # Frobenius bound, no |T|_2
        assert svds == {"svd": 3, "norm2": 0}

    def test_factorization_budget(self, monkeypatch):
        factorizations = count_factorizations(monkeypatch)
        convergence_study(10.0, 16, [(0.0, 0.5)], 1.0, 1.0, 3, seed=0)
        # the dissipation form and its masked block are diagonal, and the
        # mask splitting builds no graph orthocomplement
        assert factorizations == {"eigh": 0, "eigvalsh": 0, "qr": 0}

    def test_no_generic_split(self, monkeypatch):
        def forbidden(name):
            def call(*args, **kwargs):
                raise AssertionError(f"convergence_study called {name}")
            return call

        for fn in (decomposition.split, subspaces.gap_distance):
            for module in list(sys.modules.values()):
                if (getattr(module, "__name__", "").startswith("kreinpair")
                        and getattr(module, fn.__name__, None) is fn):
                    monkeypatch.setattr(module, fn.__name__, forbidden(fn.__name__))
        convergence_study(10.0, 16, [(0.0, 0.5)], 1.0, 1.0, 3, seed=0)

    def test_csv_format(self, tmp_path):
        rows = convergence_study(10.0, 16, [(0.0, 0.5)], 1.0, 1.0, 3, seed=0)
        path = tmp_path / "study.csv"
        write_study_csv(rows, path)
        text = path.read_text(encoding="utf-8")
        lines = text.strip().split("\n")
        assert lines[0] == "level,n_points,x_max,cayley_norm,gamma_residual"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "16"
        assert float(first[3]) == pytest.approx(rows[0].cayley_norm)


class TestFullPipelineOnDiscretization:
    def test_discretized_operator_passes_all_checks(self):
        grid = GridSpec(x_max=10.0, n_points=32)
        pot = left_half(grid)
        op = discretize(grid, pot)
        report = analyze_operator(op, seed=0)
        assert all(report["checks"].values()), report["checks"]
        assert report["dims"]["defect_part"] == int(pot.omega_mask.sum())

    def test_boundary_map_is_restriction_to_mask(self):
        from kreinpair import boundary_map_projection

        grid = GridSpec(x_max=10.0, n_points=32)
        pot = left_half(grid)
        op = discretize(grid, pot)
        s = mask_splitting(op, pot.omega_mask)
        pair = boundary_map_projection(op, s)
        # domain basis is the identity here, so the map should be the
        # coordinate projection onto the mask
        expected = np.diag(pot.omega_mask.astype(float))
        assert np.linalg.norm(pair.matrix - expected, 2) < 1e-8
