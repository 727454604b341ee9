import dataclasses
import math
import re
import sys
import time
import tracemalloc

import numpy as np
import pytest

from kreinpair import KreinSpace, OperatorWithDomain, Subspace, gap_distance, split
from kreinpair import decomposition, subspaces
from kreinpair.analysis import analyze_operator
from kreinpair import sturm_liouville
from kreinpair.errors import (
    ClassificationError,
    DimensionMismatch,
    KreinPairError,
    PipelineError,
    ScaleOverflow,
)
from kreinpair.tolerances import CHECK_GATE
from kreinpair.instances import random_unitary
from kreinpair.sturm_liouville import (
    BandedOperator,
    GridSpec,
    PotentialSpec,
    StudyRow,
    _spectral_radius,
    cayley_norm,
    convergence_study,
    discretize,
    study_levels,
    write_study_csv,
)

from conftest import (
    count_factorizations,
    count_svd_backed,
    dense_cayley_norm,
    dense_convergence_study,
    dense_discretize,
    dense_mask_splitting,
    dense_spectral_radius,
    dissipation_form,
    dissipation_quadrature_residual,
    e,
    exact_count_below,
    mask_splitting,
    omega_block,
    sampled_quadrature_residual,
    span,
    tridiagonal,
)

EPS = np.finfo(float).eps
# the closed-form Cayley norm against the dense solve and SVD; at most
# 3 eps apart on the differential sweep of TestCayley
CAYLEY_ROUTES_BOUND = 8 * EPS
# the banded spectral radius against eigvalsh of the dense block, relative:
# at most 3.2 eps on the study grid of TestCayley and 3.1 eps on the random
# bands of TestSpectralRadius, where eigvalsh itself can be 5 eps off
RADIUS_ROUTES_BOUND = 16 * EPS
# the bracket that exact Sturm counts check around the banded radius,
# relative: the accuracy ``_spectral_radius`` documents; on the random bands
# at most 1 eps where Newton converges and 4 eps where Sturm counts bisect
RADIUS_EXACT_BOUND = 8 * EPS


def left_half(grid, imq=1.0, h=1.0):
    return PotentialSpec.from_intervals(grid, [(0.0, 0.5)], imq, h)


class TestSpecs:
    def test_grid_validation(self):
        with pytest.raises(DimensionMismatch):
            GridSpec(x_max=10.0, n_points=4)
        with pytest.raises(DimensionMismatch):
            GridSpec(x_max=-1.0, n_points=16)

    @pytest.mark.parametrize("n_points", [16.5, 16.0, "16", None])
    def test_grid_size_must_be_an_integer(self, n_points):
        with pytest.raises(DimensionMismatch, match="n_points must be an integer"):
            GridSpec(x_max=10.0, n_points=n_points)

    def test_numpy_integer_grid_size_is_accepted(self):
        grid = GridSpec(x_max=10.0, n_points=np.int64(16))
        assert grid == GridSpec(x_max=10.0, n_points=16)
        assert type(grid.n_points) is int

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

    @pytest.mark.parametrize("h", [1, np.int64(1), np.float32(1.0), np.float64(1.0)])
    def test_robin_parameter_takes_real_scalars(self, h):
        mask = np.ones(4, bool)
        pot = PotentialSpec(omega_mask=mask, q_values=np.full(4, 1j), h=h)
        assert type(pot.h) is float and pot.h == 1.0

    @pytest.mark.parametrize("h", [True, np.bool_(False), "1.0", 1.0 + 0j, None,
                                   10**400, float("inf"), np.float32("nan")])
    def test_robin_parameter_refuses_other_values(self, h):
        with pytest.raises(DimensionMismatch,
                           match="Robin parameter h must be a finite real"):
            PotentialSpec(omega_mask=np.ones(4, bool), q_values=np.full(4, 1j), h=h)

    @pytest.mark.parametrize("x_max", [True, "2.0", None, 10**400],
                             ids=["bool", "str", "none", "huge_int"])
    def test_grid_refuses_non_real_x_max(self, x_max):
        with pytest.raises(DimensionMismatch, match="x_max must be a finite real"):
            GridSpec(x_max=x_max, n_points=8)

    @pytest.mark.parametrize("imq", [True, "2.0", None, 10**400],
                             ids=["bool", "str", "none", "huge_int"])
    def test_intervals_refuse_non_real_imq(self, imq):
        with pytest.raises(DimensionMismatch, match="Im q must be a finite real"):
            PotentialSpec.from_intervals(GridSpec(20.0, 8), [(0.0, 0.5)], imq, 1.0)

    @pytest.mark.parametrize("interval,message", [
        ((0, True), "interval end must be a finite real"),
        (("0", 0.5), "interval end must be a finite real"),
        ((0, 0.5, 1), "must be a pair"),
        ([0.5], "must be a pair"),
    ])
    def test_intervals_must_be_pairs_of_reals(self, interval, message):
        with pytest.raises(DimensionMismatch, match=message):
            PotentialSpec.from_intervals(GridSpec(20.0, 8), [interval], 1.0, 1.0)

    @pytest.mark.parametrize("intervals", [None, 5], ids=["none", "int"])
    def test_intervals_must_be_a_list(self, intervals):
        # both raised a raw TypeError from the loop over the intervals
        with pytest.raises(DimensionMismatch, match="intervals must be a list"):
            PotentialSpec.from_intervals(GridSpec(20.0, 8), intervals, 1.0, 1.0)

    def test_study_reads_an_iterator_of_intervals_once(self):
        # level 0 used the iterator up, and level 1 then found an empty mask
        rows = convergence_study(20.0, 8, (p for p in [(0.0, 0.5)]), 1.0, 1.0, 3)
        assert rows == convergence_study(20.0, 8, [(0.0, 0.5)], 1.0, 1.0, 3)
        assert len(rows) == 3

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("imaginary", [False, True])
    def test_potential_refuses_non_finite_values(self, bad, imaginary):
        # one masked q of nan + 1j gave a Cayley norm of 0.0
        pot = PotentialSpec.from_intervals(GridSpec(20.0, 8), [(0.0, 0.5)], 1.0, 1.0)
        q = pot.q_values.copy()
        q[0] += complex(0.0, bad) if imaginary else bad
        with pytest.raises(DimensionMismatch, match="potential must be finite"):
            PotentialSpec(omega_mask=pot.omega_mask, q_values=q, h=1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("band", ["diagonal", "off_diagonal", "re_q", "im_q"])
    def test_bands_refuse_non_finite_values(self, bad, band):
        # a nan diagonal classified as dissipative, with a Cayley norm of 0.0
        grid = GridSpec(20.0, 8)
        bands = dataclasses.asdict(discretize(grid, left_half(grid)))
        name = "q" if band.endswith("_q") else band
        entries = bands[name].copy()
        entries[0] += complex(0.0, bad) if band == "im_q" else bad
        bands[name] = entries
        with pytest.raises(DimensionMismatch, match=f"band {name} must be finite"):
            BandedOperator(**bands)

    @pytest.mark.parametrize("mask", [[1.0, 0.0], [0.5, math.nan], ["a", "b"]],
                             ids=["float", "float_nan", "str"])
    def test_bands_refuse_a_mask_that_is_not_bool(self, mask):
        # each made cayley_norm raise a raw TypeError from ~mask
        with pytest.raises(DimensionMismatch, match="band mask must be bool"):
            BandedOperator([1.0, 2.0], [0.0], mask, [1j, 0])

    @pytest.mark.parametrize("bands", [
        ([1.0, 2.0], [0.0], [True], [1j, 0]),  # cayley_norm raised IndexError
        # the constructor raised a raw ValueError
        ([1.0, 2.0, 3.0], [0.0, 0.0], [True, True, False], [1j, 1j]),
        ([1.0, 2.0], [0.0, 0.0], [True, False], [1j, 0]),
        ([[1.0, 2.0]], [0.0], [True, False], [1j, 0]),
        ([], [], np.zeros(0, bool), []),
    ], ids=["short_mask", "short_q", "long_off_diagonal", "matrix_diagonal", "empty"])
    def test_bands_refuse_mismatched_shapes(self, bands):
        with pytest.raises(DimensionMismatch, match="bands must be vectors"):
            BandedOperator(*bands)

    def test_interval_mask(self):
        grid = GridSpec(x_max=8.0, n_points=16)
        pot = left_half(grid)
        assert pot.omega_mask.sum() == 8
        assert pot.omega_mask[:8].all() and not pot.omega_mask[8:].any()

    def test_study_row_rejects_expansion(self):
        with pytest.raises(PipelineError):
            StudyRow(level=0, n_points=8, x_max=1.0, cayley_norm=1.1,
                     form_residual=0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_study_row_rejects_non_finite_values(self, value):
        with pytest.raises(PipelineError, match="contraction bound"):
            StudyRow(level=0, n_points=8, x_max=1.0, cayley_norm=value,
                     form_residual=0.0)
        with pytest.raises(PipelineError, match="quadrature residual"):
            StudyRow(level=0, n_points=8, x_max=1.0, cayley_norm=0.5,
                     form_residual=value)


class TestDiscretize:
    def test_free_operator_is_symmetric(self):
        grid = GridSpec(x_max=10.0, n_points=16)
        pot = PotentialSpec(
            omega_mask=np.zeros(16, bool), q_values=np.zeros(16, complex), h=0.0
        )
        banded = discretize(grid, pot)
        assert banded.classify() == "symmetric"
        assert split(banded.operator()).symmetric.domain.is_full

    def test_uniform_imaginary_potential(self):
        grid = GridSpec(x_max=10.0, n_points=16)
        pot = PotentialSpec.from_intervals(grid, [(0.0, 1.0)], 1.0, 0.0)
        banded = discretize(grid, pot)
        assert np.array_equal(banded.form_eigenvalues, np.full(16, 2.0))
        op = banded.operator()
        assert np.allclose(op.dissipation_matrix, 2.0 * np.eye(16), atol=1e-12)
        assert split(op).symmetric.domain.is_zero

    def test_masked_potential_form(self):
        grid = GridSpec(x_max=10.0, n_points=16)
        pot = left_half(grid)
        op = dense_discretize(grid, pot)
        assert np.allclose(
            op.dissipation_matrix, 2.0 * np.diag(pot.omega_mask.astype(float)),
            atol=1e-12,
        )

    def test_robin_parameter_enters_first_entry(self):
        grid = GridSpec(x_max=10.0, n_points=16)
        a0 = discretize(grid, left_half(grid, h=0.0)).diagonal[0]
        a1 = discretize(grid, left_half(grid, h=1.0)).diagonal[0]
        assert a1 > a0  # attractive Robin term stiffens the corner

    def test_interfaces_decouple_blocks(self):
        grid = GridSpec(x_max=10.0, n_points=16)
        pot = left_half(grid)
        off = discretize(grid, pot).off_diagonal
        assert off[7] == 0.0
        # off-mask block below the interface keeps its coupling
        assert off[9] != 0.0

    @pytest.mark.parametrize("n", [8, 16, 64])
    def test_bands_assemble_the_dense_operator(self, n):
        """``operator()`` of the bands is the dense assembly, bit for bit,
        over the study forms on an x_max sweep and single-cell masks with a
        complex potential, at both ends of the grid and inside it."""
        cases = []
        for intervals, imq, h in STUDY_FORMS:
            for x_max in np.logspace(-3, 1.5, 6):
                grid = GridSpec(x_max=x_max, n_points=n)
                cases.append((grid, PotentialSpec.from_intervals(grid, intervals,
                                                                 imq, h)))
        grid = GridSpec(x_max=10.0, n_points=n)
        for k in (0, 1, n // 2, n - 1):
            mask = np.arange(n) == k
            cases.append((grid, PotentialSpec(mask, np.where(mask, 0.5 + 2j, 0),
                                              -2.0)))
        for grid, pot in cases:
            dense = dense_discretize(grid, pot).matrix
            assert discretize(grid, pot).operator().matrix.tobytes() == dense.tobytes()


class TestMaskSplitting:
    def test_full_mask(self):
        grid = GridSpec(x_max=10.0, n_points=16)
        pot = PotentialSpec.from_intervals(grid, [(0.0, 1.0)], 1.0, 0.0)
        op = dense_discretize(grid, pot)
        s = mask_splitting(op, pot.omega_mask)
        assert s.symmetric.domain.is_zero

    def test_single_point_mask(self):
        grid = GridSpec(x_max=10.0, n_points=16)
        mask = np.zeros(16, bool)
        mask[5] = True
        pot = PotentialSpec(omega_mask=mask,
                            q_values=np.where(mask, 1j, 0), h=0.0)
        op = dense_discretize(grid, pot)
        s = mask_splitting(op, mask)
        assert gap_distance(
            s.defect.domain, span(e(16, 5))
        ) < 1e-12

    def test_left_half_agrees_with_generic_splitting(self):
        grid = GridSpec(x_max=20.0, n_points=64)
        pot = left_half(grid)
        op = dense_discretize(grid, pot)
        s = mask_splitting(op, pot.omega_mask)
        generic = split(op)
        assert gap_distance(s.defect.domain, generic.defect.domain) < 1e-8
        assert gap_distance(s.symmetric.domain, generic.symmetric.domain) < 1e-8

    @pytest.mark.parametrize("base_n", [16, 64, 256])
    def test_defect_gram_is_the_masked_block(self, base_n):
        grid = GridSpec(x_max=10.0, n_points=base_n)
        pot = PotentialSpec.from_intervals(grid, [(0.1, 0.4), (0.6, 0.7)], 2.0, 1.0)
        op = dense_discretize(grid, pot)
        s = mask_splitting(op, pot.omega_mask)
        # both domains are spanned by the coordinate columns, exactly
        eye = np.eye(base_n)
        for part, cols in ((s.defect, pot.omega_mask), (s.symmetric, ~pot.omega_mask)):
            assert np.array_equal(part.domain.basis, eye[:, cols])
            assert not part.domain.basis.flags.writeable
        # the dense product on the coordinate basis, symmetrised, is the
        # masked block of the dissipation matrix
        gram = s.defect.dissipation_gram
        on = np.flatnonzero(pot.omega_mask)
        assert np.array_equal(gram, op.dissipation_matrix[np.ix_(on, on)])
        assert np.array_equal(np.diag(gram), np.full(on.size, 4.0))

    def test_wrong_mask_rejected(self):
        grid = GridSpec(x_max=10.0, n_points=16)
        pot = left_half(grid)
        op = dense_discretize(grid, pot)
        wrong = np.roll(pot.omega_mask, 3)
        with pytest.raises(PipelineError):
            mask_splitting(op, wrong)

    # (16, 1) used to be flattened without a word
    @pytest.mark.parametrize("shape", [(16, 1), (1, 16), (15,), (17,), ()])
    def test_mask_must_be_a_vector_of_length_n(self, shape):
        grid = GridSpec(x_max=10.0, n_points=16)
        op = dense_discretize(grid, left_half(grid))
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
            yield f"study {intervals} x_max={x_max:.3g}", dense_discretize(grid, pot), \
                pot.omega_mask
    grid = GridSpec(x_max=10.0, n_points=n)
    pot = left_half(grid)
    op, mask = dense_discretize(grid, pot), pot.omega_mask
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


def _banded_cases(n):
    """(label, banded operator, dense oracle operator, mask, potential or
    None) on an n-point grid: the cases of :func:`_equivalence_cases` that
    bands can hold, with the dense operator built as there, and faults
    planted in the bands, whose dense oracle is their assembly.  Dissipation
    inside the mask needs complex off-diagonals, and a restricted or rotated
    domain a basis: bands hold neither."""
    for intervals, imq, h in STUDY_FORMS:
        for x_max in np.logspace(-5, 1.5, 14):
            grid = GridSpec(x_max=x_max, n_points=n)
            pot = PotentialSpec.from_intervals(grid, intervals, imq, h)
            yield (f"study {intervals} x_max={x_max:.3g}", discretize(grid, pot),
                   dense_discretize(grid, pot), pot.omega_mask, pot)
    grid = GridSpec(x_max=10.0, n_points=n)
    pot = left_half(grid)
    banded, op, mask = discretize(grid, pot), dense_discretize(grid, pot), pot.omega_mask
    yield "left half", banded, op, mask, pot
    yield ("rolled mask", dataclasses.replace(banded, mask=np.roll(mask, 3)), op,
           np.roll(mask, 3), None)
    yield ("complementary mask", dataclasses.replace(banded, mask=~mask), op,
           ~mask, None)
    k = int(np.flatnonzero(mask[:-1] != mask[1:])[0])
    inv2 = 1.0 / grid.step**2
    diagonal, off = banded.diagonal.copy(), banded.off_diagonal.copy()
    diagonal[k:k + 2] -= inv2
    off[k] = -inv2
    yield ("re-coupled interface",
           dataclasses.replace(banded, diagonal=diagonal, off_diagonal=off),
           _recoupled(op, grid, mask), mask, None)
    yield ("non-dissipative", dataclasses.replace(banded, q=banded.q.conj()),
           OperatorWithDomain(op.space, op.matrix.conj()), mask, None)
    yield ("symmetric", dataclasses.replace(banded, q=np.zeros(n, complex)),
           OperatorWithDomain(op.space, op.matrix.real), mask, None)
    # faults planted in the bands alone
    off = banded.off_diagonal.copy()
    off[k] = -1e-3 * inv2
    q_off, q_low = banded.q.copy(), banded.q.copy()
    q_off[np.flatnonzero(~mask)[-1]] = 1j
    q_low[np.flatnonzero(mask)[1]] = 1e-12j
    for label, planted in [
        ("masked-off-mask coupling", dataclasses.replace(banded, off_diagonal=off)),
        ("dissipation off the mask", dataclasses.replace(banded, q=q_off)),
        ("form below the cut at one point", dataclasses.replace(banded, q=q_low)),
        # judged zero only at the dense |T|_2 of the Frobenius fallback
        ("form below the cut", dataclasses.replace(banded, q=1e-12 * banded.q)),
    ]:
        yield label, planted, planted.operator(), mask, None


def _error_or(route):
    """What ``route()`` returns, or the type and message of its error."""
    try:
        return route()
    except KreinPairError as exc:
        return type(exc), str(exc)


class TestBandedAgainstDense:
    """The banded route of the study against the dense route it replaced
    (the oracle ``dense_discretize``, ``mask_splitting``, ``omega_block``
    and ``dissipation_quadrature_residual``)."""

    @pytest.mark.parametrize("n", [8, 16, 64])
    def test_same_verdicts_errors_and_block(self, n):
        verdicts = []
        for label, banded, op, mask, pot in _banded_cases(n):
            assert np.array_equal(banded.mask, mask), label
            assert np.array_equal(banded.operator().matrix, op.matrix), label
            assert banded.classify() == op.classify(), label
            assert banded.form_scale == op.form_scale, label
            dense = _error_or(lambda: (mask_splitting(op, mask),
                                       omega_block(op, mask))[1])
            block = _error_or(banded.masked_block)
            if isinstance(dense, tuple) or isinstance(block[0], type):
                assert block == dense, label
                verdicts.append(dense[0])
            else:
                # the bands of the real part and the constant imaginary
                # part, to the bit
                diagonal, off_diagonal, v = block
                assert diagonal.dtype == off_diagonal.dtype == np.float64, label
                assert (tridiagonal(diagonal, off_diagonal).tobytes()
                        == dense.real.tobytes()), label
                assert (dense.imag.tobytes()
                        == (v * np.eye(diagonal.size)).tobytes()), label
                verdicts.append("accepted")
            if pot is not None:
                assert (banded.quadrature_residual(pot)
                        == dissipation_quadrature_residual(op, pot)), label
        assert {"accepted", PipelineError, ClassificationError} <= set(verdicts)

    def test_norm_fallback_builds_the_dense_operator(self, monkeypatch):
        """A form the Frobenius bound of the bands cannot decide takes
        ``|T|_2`` of the dense operator, as ``form_scale`` does."""
        grid = GridSpec(x_max=10.0, n_points=16)
        banded = discretize(grid, left_half(grid))
        weak = dataclasses.replace(banded, q=1e-12 * banded.q)
        expected = 2.0 * weak.operator().scale
        built = []
        real = BandedOperator.operator

        def spy(self):
            built.append(self)
            return real(self)

        monkeypatch.setattr(BandedOperator, "operator", spy)
        assert dataclasses.replace(banded).form_scale == 2.0 and built == []
        assert weak.form_scale == expected and built == [weak]

    @pytest.mark.parametrize("levels", [4, 5])
    def test_study_csv_is_the_dense_route_byte_for_byte(self, tmp_path, levels):
        """Every column byte for byte but ``cayley_norm``, where the closed
        form may differ from the dense solve and SVD in the last bits."""
        args = (20.0, 64, [(0.0, 0.5)], 1.0, 1.0, levels)
        banded, dense = convergence_study(*args), dense_convergence_study(*args)
        write_study_csv(banded, tmp_path / "banded.csv")
        write_study_csv(dense, tmp_path / "dense.csv")
        tables = [[line.split(b",") for line in
                   (tmp_path / name).read_bytes().split(b"\n")]
                  for name in ("banded.csv", "dense.csv")]
        column = tables[0][0].index(b"cayley_norm")
        for ours, theirs in zip(*tables, strict=True):
            assert ours[:column] + ours[column + 1:] == \
                theirs[:column] + theirs[column + 1:]
        for ours, theirs in zip(banded, dense, strict=True):
            assert abs(ours.cayley_norm - theirs.cayley_norm) <= CAYLEY_ROUTES_BOUND


class TestQuadrature:
    def test_vector_off_mask_has_zero_form(self):
        grid = GridSpec(x_max=10.0, n_points=16)
        pot = left_half(grid)
        op = dense_discretize(grid, pot)
        x = e(16, 12)
        assert abs(dissipation_form(op, x, x)) < 1e-14

    def test_single_point_indicator(self):
        grid = GridSpec(x_max=10.0, n_points=16)
        pot = left_half(grid)
        op = dense_discretize(grid, pot)
        s = grid.step
        x = np.sqrt(s) * e(16, 3)  # function value 1 at one mask point
        assert dissipation_form(op, x, x).real == pytest.approx(2.0 * s)

    def test_random_samples_residual(self):
        grid = GridSpec(x_max=20.0, n_points=128)
        pot = left_half(grid)
        op = dense_discretize(grid, pot)
        res = sampled_quadrature_residual(op, grid, pot,
                                          rng=np.random.default_rng(0))
        assert res < 1e-10
        assert dissipation_quadrature_residual(op, pot) == 0.0
        assert discretize(grid, pot).quadrature_residual(pot) == 0.0

    def test_exact_identity_sees_what_the_samples_miss(self):
        """An asymmetric stencil entry of 5e-7 inside the mask keeps T
        dissipative and its mask splitting exact, and the sampled residual
        reads it below the gate; the exact identity reads it at 3.5e-7."""
        grid = GridSpec(x_max=20.0, n_points=512)
        pot = left_half(grid)
        m = dense_discretize(grid, pot).matrix.copy()
        assert pot.omega_mask[100] and pot.omega_mask[101]
        m[100, 101] += 5e-7
        op = OperatorWithDomain(KreinSpace(np.eye(512)), m)
        assert op.classify() == "dissipative"
        mask_splitting(op, pot.omega_mask)
        assert sampled_quadrature_residual(op, grid, pot) < CHECK_GATE
        assert dissipation_quadrature_residual(op, pot) >= 1e-7

    @pytest.mark.parametrize("intervals,imq,h", STUDY_FORMS)
    def test_exactly_zero_on_every_study_level(self, intervals, imq, h):
        for x_max in np.logspace(-1, 1.5, 6):
            for grid, pot in study_levels(x_max, 16, intervals, imq, h, 4):
                assert discretize(grid, pot).quadrature_residual(pot) == 0.0

    def test_mask_must_be_nonempty_and_of_length_n(self):
        grid = GridSpec(x_max=10.0, n_points=16)
        op = dense_discretize(grid, left_half(grid))
        banded = discretize(grid, left_half(grid))
        empty = PotentialSpec(omega_mask=np.zeros(16, bool),
                              q_values=np.zeros(16, complex), h=1.0)
        other = left_half(GridSpec(x_max=10.0, n_points=32))
        with pytest.raises(DimensionMismatch, match="empty"):
            dissipation_quadrature_residual(op, empty)
        with pytest.raises(DimensionMismatch, match="vector of length 16"):
            dissipation_quadrature_residual(op, other)
        for pot in (empty, other):
            with pytest.raises(DimensionMismatch, match="nonempty mask of length 16"):
                banded.quadrature_residual(pot)


def _check_radius(diagonal, off_diagonal):
    """The banded radius, checked against ``eigvalsh`` of the dense block."""
    radius = _spectral_radius(diagonal, off_diagonal)
    dense = dense_spectral_radius(diagonal, off_diagonal)
    assert abs(radius - dense) <= RADIUS_ROUTES_BOUND * dense, \
        (diagonal.size, (radius - dense) / (EPS * dense))
    return radius


def _overflow_bound(imq):
    """The smallest x_max ``study_levels`` admits at base 8 over 3 levels,
    to 1e-12 relative: the row sums of its finest block reach the largest
    the study allows."""
    low, high = 1e-80, 1e-60
    while high > low * (1.0 + 1e-12):
        mid = math.sqrt(low * high)
        try:
            study_levels(mid, 8, [(0.0, 0.5)], imq, 1.0, 3)
            high = mid
        except DimensionMismatch:
            low = mid
    return high


def _single_cell(q):
    """One masked cell with A' = 0 and potential ``q``."""
    return BandedOperator(np.zeros(1), np.zeros(0), np.ones(1, bool),
                          np.array([q], dtype=complex))


class TestCayley:
    """The closed form :func:`cayley_norm` of a study level, and the dense
    solve and SVD (``dense_cayley_norm``) that it replaced, as its oracle."""

    def test_purely_imaginary_scalar(self):
        assert cayley_norm(_single_cell(1j)) == 0.0
        # the margin 4 v / (1 + v)^2 rounds to just above 1
        assert cayley_norm(_single_cell(1j * (1.0 + EPS))) == 0.0
        assert dense_cayley_norm(np.array([[1j]])) == pytest.approx(0.0)

    def test_real_scalar_on_unit_circle(self):
        assert dense_cayley_norm(np.array([[7.0]])) == pytest.approx(1.0)
        assert dense_cayley_norm(np.array([[-3.0]])) == pytest.approx(1.0)

    def test_contraction_for_dissipative_block(self):
        grid = GridSpec(x_max=20.0, n_points=64)
        pot = left_half(grid)
        assert cayley_norm(discretize(grid, pot)) < 1.0

    @pytest.mark.parametrize("intervals", [[(0.0, 0.5)], [(0.1, 0.4), (0.6, 0.7)]],
                             ids=["one", "two"])
    @pytest.mark.parametrize("h", [-0.5, 0.0, 1.0, 5.0])
    @pytest.mark.parametrize("imq", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("x_max", [5.0, 20.0])
    def test_closed_form_is_the_dense_norm(self, x_max, imq, h, intervals):
        args = (x_max, 16, intervals, imq, h, 6)
        rows = convergence_study(*args)
        for (grid, pot), row in zip(study_levels(*args), rows, strict=True):
            banded = discretize(grid, pot)
            _check_radius(*banded.masked_block()[:2])
            dense = dense_cayley_norm(omega_block(banded.operator(), pot.omega_mask))
            assert abs(row.cayley_norm - dense) <= CAYLEY_ROUTES_BOUND, \
                (grid.n_points, (row.cayley_norm - dense) / EPS)

    def test_varying_imq_on_the_mask_is_a_typed_error(self):
        grid = GridSpec(x_max=10.0, n_points=16)
        banded = discretize(grid, left_half(grid))
        q = banded.q.copy()
        q[np.flatnonzero(banded.mask)[1]] *= 1.0 + EPS
        varying = dataclasses.replace(banded, q=q)
        for route in (varying.masked_block, lambda: cayley_norm(varying)):
            with pytest.raises(PipelineError, match="Im q is not one constant"):
                route()
        # a dense Cayley norm exists; the closed form does not apply
        assert dense_cayley_norm(omega_block(varying.operator(), banded.mask)) < 1.0

    def test_singular_shift_rejected(self):
        with pytest.raises(PipelineError):
            dense_cayley_norm(np.array([[-1j]]))

    def test_empty_matrix_rejected(self):
        with pytest.raises(DimensionMismatch, match="empty"):
            dense_cayley_norm(np.zeros((0, 0)))

    @pytest.mark.parametrize("entry", [complex("nan"), complex("inf"),
                                       complex(0.0, float("nan"))])
    def test_non_finite_entries_rejected(self, entry):
        with pytest.raises(DimensionMismatch, match="finite"):
            dense_cayley_norm(np.array([[entry]]))

    @pytest.mark.parametrize("matrix", [
        [[9e307 + 9e307j]],
        np.diag([9e307 + 9e307j, 1j]),
        [[8.9e307 + 8.9e307j]],
        [[1e155j, 1e155], [0.0, 1j]],
        [[1.7e308 + 1.7e308j]],
        [[1e308, 1e308], [0.0, 1j]],
    ], ids=["scalar", "diagonal", "scalar_below_max", "row_sum",
            "modulus_overflow", "row_sum_overflow"])
    def test_overflowing_solve_is_a_typed_error(self, matrix):
        # the first two returned 0.0, the third 1.0, from an unchecked solve
        with pytest.raises(ScaleOverflow, match="Cayley"):
            dense_cayley_norm(np.array(matrix))

    @pytest.mark.parametrize("imq", [1e144, 9.4e153])
    def test_study_at_its_overflow_bound_is_kept(self, imq):
        rows = convergence_study(_overflow_bound(imq), 8, [(0.0, 0.5)], imq, 1.0, 3)
        assert all(abs(row.cayley_norm - 1.0) < 1e-12 for row in rows)

    def test_omega_block_shape(self):
        grid = GridSpec(x_max=10.0, n_points=16)
        pot = left_half(grid)
        diagonal, off_diagonal, _ = discretize(grid, pot).masked_block()
        assert diagonal.shape == (8,) and off_diagonal.shape == (7,)
        free = PotentialSpec(np.zeros(16, bool), np.zeros(16, complex), 1.0)
        with pytest.raises(DimensionMismatch, match="empty"):
            discretize(grid, free).masked_block()
        op = dense_discretize(grid, pot)
        assert omega_block(op, pot.omega_mask).shape == (8, 8)
        with pytest.raises(DimensionMismatch):
            omega_block(op, np.zeros(16, bool))


def _random_level(rng, n):
    """Random bands through :class:`BandedOperator` that pass the four facts
    of ``masked_block``: a random mask, decoupled at its interfaces, with
    nonzero Re q and one constant Im q on it, and some zero couplings
    inside the mask as well."""
    mask = rng.random(n) < 0.7
    mask[rng.integers(n)] = True
    diagonal = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4)
    off_diagonal = rng.standard_normal(n - 1)
    off_diagonal[(mask[:-1] != mask[1:]) | (rng.random(n - 1) < 0.1)] = 0.0
    q = np.where(mask, rng.standard_normal(n) + 1j * rng.uniform(0.5, 2.0), 0.0)
    return BandedOperator(diagonal, off_diagonal, mask, q)


def _assert_exact_bracket(diagonal, off_diagonal, radius):
    """Exact Sturm counts put every eigenvalue inside ``radius (1 + b)`` in
    modulus and one outside ``radius (1 - b)``, b = RADIUS_EXACT_BOUND."""
    m = diagonal.size
    above = radius * (1.0 + RADIUS_EXACT_BOUND)
    below = radius * (1.0 - RADIUS_EXACT_BOUND)
    assert exact_count_below(diagonal, off_diagonal, above) == m
    assert exact_count_below(diagonal, off_diagonal, -above) == 0
    assert (exact_count_below(diagonal, off_diagonal, below) < m
            or exact_count_below(diagonal, off_diagonal, -below) > 0)


class TestSpectralRadius:
    """The spectral radius of a masked block from its bands
    (``_spectral_radius``) against one ``eigvalsh`` of the dense block
    (``dense_spectral_radius``), the route it replaced, and against exact
    rational Sturm counts (``exact_count_below``); the study grid is in
    :meth:`TestCayley.test_closed_form_is_the_dense_norm`."""

    def test_robin_level_where_the_smallest_eigenvalue_dominates(self):
        """At step h near -2 the Robin entry is large and negative."""
        for grid, pot in study_levels(20.0, 8, [(0.0, 0.5)], 1.0, -0.7, 3):
            diagonal, off_diagonal, _ = discretize(grid, pot).masked_block()
            eigs = np.linalg.eigvalsh(tridiagonal(diagonal, off_diagonal))
            radius = _check_radius(diagonal, off_diagonal)
            if grid.n_points == 8:
                assert -eigs[0] > eigs[-1]
                _assert_exact_bracket(diagonal, off_diagonal, radius)

    def test_random_bands(self):
        rng = np.random.default_rng(2024)
        for _ in range(40):
            banded = _random_level(rng, int(rng.integers(1, 48)))
            diagonal, off_diagonal, _ = banded.masked_block()
            radius = _check_radius(diagonal, off_diagonal)
            _assert_exact_bracket(diagonal, off_diagonal, radius)
            dense = dense_cayley_norm(omega_block(banded.operator(), banded.mask))
            assert abs(cayley_norm(banded) - dense) <= CAYLEY_ROUTES_BOUND

    def test_zero_off_diagonal_and_one_by_one(self):
        diagonal = np.array([0.5, -3.0, 2.0, 1e-3])
        assert _spectral_radius(diagonal, np.zeros(3)) == 3.0
        assert _spectral_radius(np.array([-7.25]), np.zeros(0)) == 7.25
        assert _spectral_radius(np.zeros(1), np.zeros(0)) == 0.0
        assert _spectral_radius(np.zeros(3), np.array([0.0, 2.0])) == 2.0
        assert cayley_norm(_single_cell(-3.0 + 1j)) == pytest.approx(
            dense_cayley_norm(np.array([[-3.0 + 1j]])), abs=CAYLEY_ROUTES_BOUND)

    def test_zero_pivot_of_a_two_interval_mask(self, monkeypatch):
        """The Gershgorin bound 4/step^2 is an eigenvalue, of the alternating
        vector, of every masked interval with interface edges at both ends,
        here the two-cell first one, so the first pivot recurrence meets a
        pivot of exactly 0 there; without the pivmin guard it divides by it."""
        grid = GridSpec(x_max=1.0, n_points=8)
        pot = PotentialSpec.from_intervals(grid, [(0.1, 0.4), (0.6, 0.7)], 1.0, 0.0)
        banded = discretize(grid, pot)
        diagonal, off_diagonal, _ = banded.masked_block()
        radius = _check_radius(diagonal, off_diagonal)
        assert radius == np.max(diagonal + np.abs(np.r_[0.0, off_diagonal])
                                + np.abs(np.r_[off_diagonal, 0.0]))
        assert abs(cayley_norm(banded)
                   - dense_cayley_norm(omega_block(banded.operator(), banded.mask))) \
            <= CAYLEY_ROUTES_BOUND
        monkeypatch.setattr(sturm_liouville, "_PIVMIN", 0.0)
        with pytest.raises(ZeroDivisionError):
            _spectral_radius(diagonal, off_diagonal)

    def test_power_of_two_scales_are_exact(self):
        """Bands near 1e200 and near 1e-200 give the radius of the unit
        bands times the scale, to the bit, with no overflow of a square."""
        rng = np.random.default_rng(7)
        for _ in range(10):
            m = int(rng.integers(1, 20))
            diagonal, off_diagonal = rng.standard_normal(m), rng.standard_normal(m - 1)
            radius = _spectral_radius(diagonal, off_diagonal)
            for exponent in (664, -664):
                assert (_spectral_radius(np.ldexp(diagonal, exponent),
                                         np.ldexp(off_diagonal, exponent))
                        == math.ldexp(radius, exponent))

    @pytest.mark.parametrize("scale", [1e200, 1e300])
    def test_bands_near_1e200(self, scale):
        """No warning (the suite makes them errors), the radius of the unit
        bands times the scale, and a Cayley norm that rounds to 1, as
        ``4 v / (rho^2 + (1 + v)^2)`` is of order 1 / scale."""
        diagonal = scale * np.array([1.0, -0.5, 0.75])
        off_diagonal = scale * np.array([1.0, 1.0])
        banded = BandedOperator(diagonal, off_diagonal, np.ones(3, bool),
                                np.full(3, 1e-8j * scale))
        assert cayley_norm(banded) == 1.0
        unit = dense_spectral_radius(diagonal / scale, off_diagonal / scale)
        assert (abs(_spectral_radius(diagonal, off_diagonal) - scale * unit)
                <= RADIUS_ROUTES_BOUND * scale * unit)

    def test_level_past_the_float_range_is_a_typed_error(self):
        """Bands whose radius exceeds the largest float: the form scale
        overflows first, and the bands are refused as such, with no warning,
        before any radius is taken.  The middle case was refused as "not
        definite on the mask", the last warned in ``2 Im q``."""
        for diagonal, q in (([1.0, 1.0, 1.0], 1e306j), ([1.0, -0.5, 0.75], 1e307j),
                            ([1.0, -0.5, 0.75], 1e308j)):
            with pytest.raises(ScaleOverflow, match="overflows"):
                cayley_norm(BandedOperator(1e308 * np.array(diagonal),
                                           np.full(2, 1e308), np.ones(3, bool),
                                           np.full(3, q)))

    @pytest.mark.parametrize("imq", [1e144, 9.4e153])
    def test_study_at_its_overflow_bound(self, imq):
        args = (_overflow_bound(imq), 8, [(0.0, 0.5)], imq, 1.0, 3)
        for grid, pot in study_levels(*args):
            _check_radius(*discretize(grid, pot).masked_block()[:2])


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

    @pytest.mark.parametrize("base_n,levels,name", [
        (16, 3.0, "levels"), (16, "3", "levels"), (16.5, 3, "n_points"),
        (16.0, 3, "n_points"),
    ])
    def test_sizes_must_be_integers(self, base_n, levels, name):
        args = (10.0, base_n, [(0.0, 0.5)], 1.0, 1.0, levels)
        with pytest.raises(DimensionMismatch, match=f"{name} must be an integer"):
            study_levels(*args)
        with pytest.raises(DimensionMismatch, match=f"{name} must be an integer"):
            convergence_study(*args)

    def test_numpy_integer_sizes_are_accepted(self):
        intervals = [(0.0, 0.5)]
        assert (convergence_study(10.0, np.int64(16), intervals, 1.0, 1.0,
                                  np.int64(3))
                == convergence_study(10.0, 16, intervals, 1.0, 1.0, 3))

    def test_study_draws_no_random_numbers(self, monkeypatch):
        args = (10.0, 16, [(0.0, 0.5)], 1.0, 1.0, 3)
        rows = convergence_study(*args, seed=5)

        def refuse(*args, **kwargs):
            raise AssertionError("the study drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        assert convergence_study(*args, seed=5) == rows
        assert all(row.form_residual == 0.0 for row in rows)

    @pytest.mark.parametrize("intervals,h,match", [
        ([(0.5, 0.52)], 1.0, "empty"),  # no cell center in [10, 10.4)
        ([(0.0, 0.5)], -0.8, "resonates"),  # 1 + step h / 2 = 0 at step 2.5
    ])
    def test_every_level_validated_before_dense_work(self, monkeypatch,
                                                     intervals, h, match):
        def no_dense_work(*args):
            raise AssertionError("dense operator built before validation")

        monkeypatch.setattr(BandedOperator, "operator", no_dense_work)
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
            raise AssertionError("dense operator built before validation")

        monkeypatch.setattr(BandedOperator, "operator", no_dense_work)
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
                banded = discretize(grid, pot)
                assert banded.classify() == "symmetric"
                with pytest.raises(PipelineError, match="disagrees"):
                    banded.masked_block()
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
            rows = np.abs(discretize(grid, pot).operator().matrix).sum(axis=1)
            assert np.max(rows) <= bound * (1 + 1e-15)

    def test_svd_budget(self, monkeypatch):
        svds = count_svd_backed(monkeypatch)

        def refuse(*args, **kwargs):
            raise AssertionError("the study solved a linear system")

        for name in ("solve", "inv", "lstsq"):
            monkeypatch.setattr(np.linalg, name, refuse)
        convergence_study(10.0, 16, [(0.0, 0.5)], 1.0, 1.0, 3, seed=0)
        # the Cayley norm is a closed form in an eigenvalue, the mask
        # splitting compares no subspaces and its form scale comes from the
        # Frobenius bound, no |T|_2
        assert svds == {"svd": 0, "norm2": 0}

    @staticmethod
    def _peak_of_study(levels):
        tracemalloc.start()
        try:
            convergence_study(20.0, 64, [(0.0, 0.5)], 1.0, 1.0, levels)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_memory_of_the_five_level_study(self):
        """The levels and their masked blocks are bands (0.23 MB peak), where
        the dense route held several n x n arrays (n = 1 024) and peaked
        near 140 MB, the complex block, its solve and SVD 19 MB, and the
        real block and its eigvalsh 2.2 MB."""
        assert self._peak_of_study(5) <= 12e6

    def test_peak_memory_of_the_six_level_study(self):
        """n = 2 048 at the finest, in bands (0.45 MB peak), where the complex
        block, its solve and SVD peaked near 76 MB and the real block 8.6 MB."""
        assert self._peak_of_study(6) <= 48e6

    def test_factorization_budget(self, monkeypatch):
        factorizations = count_factorizations(monkeypatch)
        convergence_study(10.0, 16, [(0.0, 0.5)], 1.0, 1.0, 3, seed=0)
        # the dissipation form is diagonal, the mask splitting builds no
        # graph orthocomplement, and the Cayley norm of a level reads the
        # spectral radius of its masked block from the bands
        assert factorizations == {"eigh": 0, "eigvalsh": 0, "qr": 0, "cholesky": 0}

    def test_default_study_calls_no_linalg(self, monkeypatch):
        called = []

        def refuse(name):
            def call(*args, **kwargs):
                called.append(name)
                raise AssertionError(f"the study called numpy.linalg.{name}")
            return call

        for name in np.linalg.__all__:
            if not isinstance(getattr(np.linalg, name), type):
                monkeypatch.setattr(np.linalg, name, refuse(name))
        rows = convergence_study(20.0, 64, [(0.0, 0.5)], 1.0, 1.0, 4)
        assert len(rows) == 4 and called == []

    def test_ten_level_study_is_linear(self):
        """n = 32 768 at the finest, where one dense masked block would take
        2 GB (m = 16 384): 0.04-0.07 s and a 7 MB peak on a 2-core VM."""
        start = time.perf_counter()
        rows = convergence_study(20.0, 64, [(0.0, 0.5)], 1.0, 1.0, 10)
        assert time.perf_counter() - start < 2.0
        assert rows[-1].n_points == 32768
        assert self._peak_of_study(10) < 32e6

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

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_bad_seed_is_rejected_before_any_level(self, monkeypatch, seed):
        def refuse(*args):
            raise AssertionError("a level was built before the seed was checked")

        monkeypatch.setattr(sturm_liouville, "discretize", refuse)
        with pytest.raises(DimensionMismatch):
            convergence_study(10.0, 16, [(0.0, 0.5)], 1.0, 1.0, 3, seed=seed)

    def test_numpy_integer_seed_is_accepted(self):
        args = (10.0, 16, [(0.0, 0.5)], 1.0, 1.0, 3)
        assert (convergence_study(*args, seed=np.int64(2))
                == convergence_study(*args, seed=2))

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
        op = discretize(grid, pot).operator()
        report = analyze_operator(op, seed=0)
        assert all(report["checks"].values()), report["checks"]
        assert report["dims"]["defect_part"] == int(pot.omega_mask.sum())

    def test_boundary_map_is_restriction_to_mask(self):
        from kreinpair import boundary_map_projection

        grid = GridSpec(x_max=10.0, n_points=32)
        pot = left_half(grid)
        op = dense_discretize(grid, pot)
        s = mask_splitting(op, pot.omega_mask)
        pair = boundary_map_projection(op, s)
        # domain basis is the identity here, so the map should be the
        # coordinate projection onto the mask, read on the defect basis
        expected = s.defect.domain.basis.conj().T @ np.diag(pot.omega_mask.astype(float))
        assert np.linalg.norm(pair.matrix - expected, 2) < 1e-8
