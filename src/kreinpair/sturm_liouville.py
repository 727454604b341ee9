"""Finite-difference study of a Schroedinger operator with complex potential.

The differential expression -y'' + q(t) y on [0, x_max] is discretized by
second-order central differences on cell centers t_k = (k + 1/2) step.
Boundary handling, all through ghost-cell elimination at cell edges:

* Robin y'(0) = h y(0) at the left edge: the centered difference and the
  centered average across the edge give ghost = alpha * y_0 with
  alpha = (1 - step h / 2) / (1 + step h / 2), second order accurate.
* Dirichlet at the x_max edge: ghost = -y_{last}.
* Interfaces of the support mask of Im q are decoupled with Dirichlet
  edges on both sides, so the matrix is the direct sum of its masked
  blocks.  The coupled stencil provably rotates the graph-orthogonal
  defect domain away from the masked coordinate span by an O(1) angle,
  while the decoupled operator keeps the splitting exactly aligned with
  the mask, matching the block structure of the continuum operator.

With the real part of the stencil symmetric, the dissipation form of the
resulting matrix is 2 diag(Im q), so grid functions supported off the mask
are exactly the kernel of the form.  Vector entries carry the quadrature
weight sqrt(step), which turns Euclidean sums into midpoint-rule integrals
with uniform weight ``step``.

Every level of :func:`convergence_study` certifies, in O(n^2) work on the
arrays the operator holds apart from the solve and the SVD of the Cayley
norm:

* that the operator is dissipative (:func:`discretize`);
* that its splitting is exactly the mask splitting (:func:`mask_splitting`):
  no entry of T couples masked and off-mask coordinates, the dissipation
  matrix vanishes on the off-mask rows, and every eigenvalue of its masked
  block lies above the rank cut of the form;
* the contraction bound of the Cayley transform of the masked block
  (:class:`StudyRow`);

and it reports the deviation of the form from its midpoint-rule quadrature
on random grid functions (:func:`dissipation_quadrature_residual`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decomposition import Splitting
from .errors import ClassificationError, DimensionMismatch, PipelineError
from .krein import NEITHER, KreinSpace, OperatorWithDomain
from .subspaces import Subspace, is_diagonal
from .tolerances import DEFAULT_TOL, EXACT_BOUND, RESONANCE_CUT, negligible

__all__ = [
    "GridSpec",
    "PotentialSpec",
    "StudyRow",
    "discretize",
    "mask_splitting",
    "dissipation_quadrature_residual",
    "cayley_norm",
    "omega_block",
    "study_levels",
    "convergence_study",
    "write_study_csv",
]

#: random grid functions of :func:`dissipation_quadrature_residual`
QUADRATURE_SAMPLES = 100


@dataclass(frozen=True)
class GridSpec:
    """Uniform cell-centered grid on [0, x_max]."""

    x_max: float
    n_points: int

    def __post_init__(self):
        if not (self.x_max > 0 and math.isfinite(self.x_max)):
            raise DimensionMismatch("x_max must be positive and finite")
        if self.n_points < 8:
            raise DimensionMismatch("need at least 8 grid points")
        square = self.step * self.step
        if not (square > 0 and 0 < 1.0 / square < math.inf):
            raise DimensionMismatch(
                f"grid step {self.step!r}: 1/step^2 is not a finite positive float"
            )

    @property
    def step(self) -> float:
        return self.x_max / self.n_points

    def robin_alpha(self, h: float) -> float:
        """Ghost-cell factor ``(1 - step h / 2) / (1 + step h / 2)`` of the
        Robin condition y'(0) = h y(0) at the left edge."""
        half = self.step * h / 2.0
        if not math.isfinite(half):
            raise DimensionMismatch("Robin parameter times the grid step overflows")
        if abs(1.0 + half) < RESONANCE_CUT:
            raise DimensionMismatch("Robin parameter resonates with the grid step")
        return (1.0 - half) / (1.0 + half)

    def cell_centers(self) -> np.ndarray:
        return (np.arange(self.n_points) + 0.5) * self.step


@dataclass(frozen=True)
class PotentialSpec:
    """Complex potential supported on a node mask, plus the Robin parameter.

    The imaginary part must be strictly positive on the mask and the
    potential must vanish off it; ``h`` is real.  An all-false mask is the
    degenerate self-adjoint case and is accepted here, but study and
    command-line entry points insist on a nonempty mask.
    """

    omega_mask: np.ndarray
    q_values: np.ndarray
    h: float

    def __post_init__(self):
        mask = np.asarray(self.omega_mask, dtype=bool)
        q = np.asarray(self.q_values, dtype=np.complex128)
        if mask.shape != q.shape or mask.ndim != 1:
            raise DimensionMismatch("mask and potential must be equal-length vectors")
        if not (isinstance(self.h, (int, float)) and math.isfinite(float(self.h))):
            raise DimensionMismatch("Robin parameter h must be a finite real number")
        if np.any(q[~mask] != 0):
            raise DimensionMismatch("potential must vanish off the mask")
        if mask.any() and np.min(q[mask].imag) <= 0:
            raise DimensionMismatch("Im q must be strictly positive on the mask")
        object.__setattr__(self, "omega_mask", mask)
        object.__setattr__(self, "q_values", q)
        object.__setattr__(self, "h", float(self.h))

    @classmethod
    def from_intervals(cls, grid: GridSpec, intervals, imq: float,
                       h: float) -> "PotentialSpec":
        """Mask from fractional intervals of [0, x_max], potential i * imq."""
        if not (imq > 0 and math.isfinite(imq)):
            raise DimensionMismatch(
                "Im q must be strictly positive and finite on the mask")
        centers = grid.cell_centers()
        mask = np.zeros(grid.n_points, dtype=bool)
        for a, b in intervals:
            if not (0.0 <= a < b <= 1.0):
                raise DimensionMismatch(f"bad interval fractions ({a}, {b})")
            mask |= (centers >= a * grid.x_max) & (centers < b * grid.x_max)
        if not mask.any():
            raise DimensionMismatch("mask resolves to the empty set on this grid")
        q = np.where(mask, 1j * imq, 0.0).astype(np.complex128)
        return cls(omega_mask=mask, q_values=q, h=h)


@dataclass(frozen=True)
class StudyRow:
    level: int
    n_points: int
    x_max: float
    cayley_norm: float
    form_residual: float

    def __post_init__(self):
        if self.cayley_norm > 1.0 + EXACT_BOUND:
            raise PipelineError(
                f"contraction bound violated: cayley_norm = {self.cayley_norm!r}"
            )


def _laplacian(grid: GridSpec, pot: PotentialSpec) -> np.ndarray:
    n, s = grid.n_points, grid.step
    inv2 = 1.0 / (s * s)
    a = np.zeros((n, n))
    np.fill_diagonal(a, 2.0 * inv2)
    idx = np.arange(n - 1)
    a[idx, idx + 1] = -inv2
    a[idx + 1, idx] = -inv2
    alpha = grid.robin_alpha(pot.h)
    a[0, 0] = (2.0 - alpha) * inv2
    a[n - 1, n - 1] = 3.0 * inv2  # Dirichlet cell edge at x_max
    # decouple mask interfaces with Dirichlet edges on both sides
    mask = pot.omega_mask
    for k in range(n - 1):
        if mask[k] != mask[k + 1]:
            a[k, k + 1] = 0.0
            a[k + 1, k] = 0.0
            a[k, k] += inv2
            a[k + 1, k + 1] += inv2
    return a


def discretize(grid: GridSpec, pot: PotentialSpec) -> OperatorWithDomain:
    """Full-domain operator in the Euclidean Krein space (J = I)."""
    if pot.omega_mask.shape[0] != grid.n_points:
        raise DimensionMismatch("potential is sampled on a different grid")
    matrix = _laplacian(grid, pot) + np.diag(pot.q_values)
    space = KreinSpace(np.eye(grid.n_points))
    op = OperatorWithDomain(space, matrix)
    if op.classify() not in ("dissipative", "symmetric"):
        raise PipelineError("discretized operator failed the dissipativity check")
    return op


def _validated_mask(op: OperatorWithDomain, mask) -> np.ndarray:
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (op.space.dim,):
        raise DimensionMismatch(
            f"mask of shape {mask.shape}, expected a vector of length {op.space.dim}"
        )
    return mask


def _structural_fault(op: OperatorWithDomain, on: np.ndarray, off: np.ndarray,
                      block: np.ndarray) -> str | None:
    """The first of the exact facts behind :func:`mask_splitting` that
    fails, or None."""
    if not op.domain.is_full:
        return "the domain is not the whole space"
    t = op.matrix
    if np.any(t[np.ix_(on, off)]) or np.any(t[np.ix_(off, on)]):
        return "T couples masked and off-mask coordinates"
    if np.any(op.dissipation_matrix[off]):
        return "the dissipation form does not vanish off the mask"
    # ascending; a diagonal block, as on the grid, is its real diagonal
    eigs = (np.sort(np.diag(block).real) if is_diagonal(block)
            else np.linalg.eigvalsh(block))
    if eigs.size:
        low = eigs[0]
        # above the rank cut of the form, then split's degeneracy test, whose
        # scale max |eigs| is the largest eigenvalue once the smallest is > 0
        if (low <= 0 or negligible(low, op.tol, op.form_scale)
                or negligible(low, op.tol, eigs[-1])):
            return "the dissipation form is not definite on the mask"
    return None


def mask_splitting(op: OperatorWithDomain, mask) -> Splitting:
    """Splitting along the mask, certified from the exact structure of the
    operator instead of a dense generic splitting.

    Three facts are checked exactly, each in O(n^2) on arrays the operator
    already holds (the eigenvalues of (iii) come from the diagonal when the
    block is diagonal, as on the grid, and from ``eigvalsh`` otherwise):

    (i) no entry of T couples masked and off-mask coordinates: both
        off-diagonal blocks of the matrix are exactly zero;
    (ii) the dissipation matrix is exactly zero on the off-mask rows, and
         so, being Hermitian, on the off-mask columns;
    (iii) every eigenvalue of its masked block lies above the form's rank
          cut ``op.tol * op.form_scale``, and the block passes the
          degeneracy test of :func:`~kreinpair.decomposition.split`.

    By (ii) and (iii) the kernel of the form, as the rank decision sees it,
    is exactly the span of the off-mask coordinates.  By (i) T maps the
    masked and the off-mask spans into themselves, so the two are
    orthogonal in the graph product ``<x, y> + <T x, T y>``; their
    dimensions add up to n.  The graph-orthogonal complement of the form
    kernel is therefore exactly the masked span: the generic splitting is
    the mask splitting, and the dense route would prove nothing more.

    The domain must be the whole space.  A non-dissipative T raises
    :class:`ClassificationError`, as ``split`` does; a failed fact
    raises :class:`PipelineError`.
    """
    mask = _validated_mask(op, mask)
    if op.classify() == NEITHER:
        raise ClassificationError("mask splitting needs a dissipative operator")
    on, off = np.flatnonzero(mask), np.flatnonzero(~mask)
    # the defect basis is the masked coordinate columns, so its Gram is the
    # masked block of the (exactly Hermitian) dissipation matrix
    block = op.dissipation_matrix[np.ix_(on, on)]
    fault = _structural_fault(op, on, off, block)
    if fault is not None:
        raise PipelineError(
            f"masked splitting disagrees with the graph-orthogonal one: {fault}"
        )
    return Splitting(
        symmetric=op.restricted(Subspace.full(mask.size, off)),
        defect=op.restricted(Subspace.full(mask.size, on)),
        defect_gram=block,
    )


def dissipation_quadrature_residual(op: OperatorWithDomain, grid: GridSpec,
                                    pot: PotentialSpec,
                                    rng: np.random.Generator | None = None
                                    ) -> float:
    """Largest relative deviation of the dissipation form from the midpoint
    quadrature 2 sum_mask Im q |y_k|^2 step over random grid functions.

    Samples are function values y; the corresponding coordinate vector is
    sqrt(step) * y.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    n, s, samples = grid.n_points, grid.step, QUADRATURE_SAMPLES
    y = rng.standard_normal((n, samples)) + 1j * rng.standard_normal((n, samples))
    x = math.sqrt(s) * y
    form = np.einsum("ij,ij->j", x.conj(), op.dissipation_matrix @ x).real
    weights = 2.0 * s * pot.q_values.imag * pot.omega_mask
    quad = np.einsum("i,ij->j", weights, np.abs(y) ** 2)
    return float(np.max(np.abs(form - quad) / (1.0 + np.abs(quad))))


def cayley_norm(matrix) -> float:
    """Largest singular value of (L - iI)(L + iI)^{-1} for the square
    matrix L.

    At most 1 for a dissipative L; a singular L + iI signals that the
    input is not dissipative.
    """
    matrix = np.asarray(matrix, dtype=np.complex128)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DimensionMismatch("Cayley transform needs a square matrix")
    if matrix.size == 0:
        raise DimensionMismatch("Cayley transform needs a nonempty matrix")
    eye = np.eye(matrix.shape[0])
    try:
        transform = np.linalg.solve((matrix + 1j * eye).conj().T,
                                    (matrix - 1j * eye).conj().T).conj().T
    except np.linalg.LinAlgError as exc:
        raise PipelineError("L + iI is singular; L is not dissipative") from exc
    return float(np.linalg.svd(transform, compute_uv=False)[0])


def omega_block(op: OperatorWithDomain, mask) -> np.ndarray:
    """Compression of the operator matrix to the masked coordinates."""
    mask = _validated_mask(op, mask)
    if not mask.any():
        raise DimensionMismatch("mask is empty")
    idx = np.flatnonzero(mask)
    return op.matrix[np.ix_(idx, idx)]


def study_levels(x_max: float, base_n: int, intervals, imq: float, h: float,
                 levels: int) -> list[tuple[GridSpec, PotentialSpec]]:
    """Grid and potential of every doubling level, each validated (grid,
    nonempty mask, Robin resonance, no overflow in the graph Gram, a
    dissipation form the rank decision can see) before any level does dense
    work.

    The largest absolute row sum r of the stencil, |q| included, bounds
    every entry of T* T, and every partial sum of one, by r^2 (T's real
    part is symmetric, so its column sums are its row sums); it is taken in
    O(1) per level from 1/step^2, the Robin factor and ``imq``.  The graph
    Gram ``I + T* T`` is summed with its adjoint, so twice that bound must
    be a finite float.

    The pipeline judges the form 2 diag(Im q) zero, and so finds no defect
    part, exactly when ``imq <= DEFAULT_TOL * |T|_2``.  On the alternating
    vector ``(-1)^k``, every row of the stencil but the Robin row 0 has
    modulus 4/step^2, interface and Dirichlet rows included, and the
    potential is purely imaginary, so ``|T|_2 >= L = (4/step^2)
    sqrt((n - 1)/n)``.  A level with ``imq <= DEFAULT_TOL * L`` is
    rejected; no level the pipeline passes is.

    Raises :class:`DimensionMismatch` for input no level may take.
    """
    if levels < 3:
        raise DimensionMismatch("need at least 3 refinement levels")
    specs = []
    for level in range(levels):
        grid = GridSpec(x_max=x_max, n_points=base_n * 2**level)
        pot = PotentialSpec.from_intervals(grid, intervals, imq, h)
        alpha = grid.robin_alpha(pot.h)  # raises at resonance
        # interior and Dirichlet rows sum to 4/step^2, the Robin row to at
        # most (|2 - alpha| + 1)/step^2
        row_sum = max(4.0, abs(2.0 - alpha) + 1.0) / (grid.step * grid.step) + imq
        if not math.isfinite(2.0 * row_sum * row_sum):
            raise DimensionMismatch(
                f"grid step {grid.step!r}: the graph Gram of the stencil overflows"
            )
        n = grid.n_points
        norm_below = 4.0 / (grid.step * grid.step) * math.sqrt((n - 1) / n)
        if imq <= DEFAULT_TOL * norm_below:
            raise DimensionMismatch(
                f"level {level}, grid step {grid.step!r}: Im q = {imq!r} is at "
                f"most the rank tolerance times |T|_2 >= {norm_below:.6g}, so "
                "the dissipation form would be judged zero"
            )
        specs.append((grid, pot))
    return specs


def convergence_study(x_max: float, base_n: int, intervals, imq: float,
                      h: float, levels: int, seed: int = 0) -> list[StudyRow]:
    """Doubling refinement of the Cayley norm of the masked block.

    The supremum of the continuum norm equals 1 but is attained only in
    the limit; what the study asserts is the contraction bound at every
    level and a non-decreasing trend.
    """
    rows = []
    specs = study_levels(x_max, base_n, intervals, imq, h, levels)
    for level, (grid, pot) in enumerate(specs):
        op = discretize(grid, pot)
        mask_splitting(op, pot.omega_mask)
        residual = dissipation_quadrature_residual(
            op, grid, pot, rng=np.random.default_rng(seed + level)
        )
        norm = cayley_norm(omega_block(op, pot.omega_mask))
        rows.append(
            StudyRow(
                level=level,
                n_points=grid.n_points,
                x_max=x_max,
                cayley_norm=norm,
                form_residual=residual,
            )
        )
    return rows


def write_study_csv(rows, path) -> None:
    lines = ["level,n_points,x_max,cayley_norm,gamma_residual"]
    for row in rows:
        lines.append(
            f"{row.level},{row.n_points},{row.x_max:.15g},"
            f"{row.cayley_norm:.15g},{row.form_residual:.15g}"
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
