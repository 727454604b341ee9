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

Every level of :func:`convergence_study` is held as the bands of that
stencil (:class:`BandedOperator`), from which it certifies in O(n) work and
memory that the operator is dissipative (:func:`discretize`) and that its
splitting is the mask splitting (:meth:`BandedOperator.masked_block`), and
reads the exact deviation of its form from the midpoint-rule quadrature.
With one constant Im q = v on the mask, the masked block is ``L = A + i v
I`` for its real part A, symmetric and tridiagonal: L is normal, so the
norm of its Cayley transform, checked to be a contraction
(:class:`StudyRow`), is a closed form in the spectral radius of A
(:func:`cayley_norm`), read from A's bands in O(m) by Newton steps and
Sturm counts.  No m x m array is built, and no LAPACK routine is called
unless :attr:`BandedOperator.form_scale` needs the dense ``|T|_2``.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (ClassificationError, DimensionMismatch, PipelineError,
                     ScaleOverflow, checked_integer, checked_real, checked_seed)
from .krein import (NEITHER, KreinSpace, OperatorWithDomain, _classify,
                    _form_scale, _frobenius)
from .tolerances import DEFAULT_TOL, EXACT_BOUND, RESONANCE_CUT, negligible

__all__ = [
    "GridSpec",
    "PotentialSpec",
    "StudyRow",
    "BandedOperator",
    "discretize",
    "cayley_norm",
    "study_levels",
    "convergence_study",
    "write_study_csv",
]

@dataclass(frozen=True)
class GridSpec:
    """Uniform cell-centered grid of ``n_points >= 8`` (an integer) on [0, x_max]."""

    x_max: float
    n_points: int

    def __post_init__(self):
        if not checked_real(self.x_max, "x_max") > 0:
            raise DimensionMismatch("x_max must be positive and finite")
        object.__setattr__(self, "n_points",
                           checked_integer(self.n_points, "n_points", 8))
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

    The potential must be finite, with imaginary part strictly positive on
    the mask, and vanish off it; ``h`` is real, not a bool.  An all-false
    mask is the degenerate self-adjoint case and is accepted here, but
    study and command-line entry points insist on a nonempty mask.
    """

    omega_mask: np.ndarray
    q_values: np.ndarray
    h: float

    def __post_init__(self):
        mask = np.asarray(self.omega_mask, dtype=bool)
        q = np.asarray(self.q_values, dtype=np.complex128)
        if mask.shape != q.shape or mask.ndim != 1:
            raise DimensionMismatch("mask and potential must be equal-length vectors")
        if not np.isfinite(q).all():
            raise DimensionMismatch("potential must be finite")
        h = checked_real(self.h, "Robin parameter h")
        if np.any(q[~mask] != 0):
            raise DimensionMismatch("potential must vanish off the mask")
        if mask.any() and np.min(q[mask].imag) <= 0:
            raise DimensionMismatch("Im q must be strictly positive on the mask")
        object.__setattr__(self, "omega_mask", mask)
        object.__setattr__(self, "q_values", q)
        object.__setattr__(self, "h", h)

    @classmethod
    def from_intervals(cls, grid: GridSpec, intervals, imq: float,
                       h: float) -> "PotentialSpec":
        """Mask from fractional intervals (pairs) of [0, x_max], potential
        i * imq; ``PotentialSpec`` checks that imq is positive."""
        imq = checked_real(imq, "Im q")
        if not isinstance(intervals, Iterable):
            raise DimensionMismatch(
                f"intervals must be a list of pairs, got {intervals!r}")
        centers = grid.cell_centers()
        mask = np.zeros(grid.n_points, dtype=bool)
        for interval in intervals:
            try:
                a, b = (checked_real(end, "an interval end") for end in interval)
            except (TypeError, ValueError):  # not iterable, or not two ends
                raise DimensionMismatch(
                    f"an interval must be a pair of fractions, got {interval!r}") from None
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
        # written as negations, so that NaN fails them too
        if not 0.0 <= self.cayley_norm <= 1.0 + EXACT_BOUND:
            raise PipelineError(
                f"contraction bound violated: cayley_norm = {self.cayley_norm!r}"
            )
        if not 0.0 <= self.form_residual < math.inf:
            raise PipelineError(
                f"quadrature residual is not a finite norm: {self.form_residual!r}"
            )


@dataclass(frozen=True, eq=False)
class BandedOperator:
    """A level as read-only bands: ``T = A + diag(q)`` on (C^n, I), domain
    the whole space, A real symmetric tridiagonal with ``A[k, k] =
    diagonal[k]`` and ``A[k, k+1] = A[k+1, k] = off_diagonal[k]``, and
    ``mask`` the coordinates its splitting is checked against.  As A is real
    and symmetric, the dissipation matrix ``h + h*`` of T, ``h = -i T``, is
    ``2 diag(Im q)`` to the bit, so every fact of the dense route is read
    from the bands, with the same cuts at the same scales.  With Im q one
    constant v on the mask, the masked block ``A + diag(q)`` is ``A' + i v
    I`` for a real symmetric A', so it is normal and its Cayley norm is a
    function of the spectral radius of A' alone (:func:`cayley_norm`).
    A non-finite entry, a mask that is not bool or bands of mismatched
    shapes raise :class:`DimensionMismatch`, and bands whose ``2 |T|_F``
    overflows :class:`ScaleOverflow`."""

    diagonal: np.ndarray
    off_diagonal: np.ndarray
    mask: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        for name in ("diagonal", "off_diagonal", "mask", "q"):
            band = np.array(getattr(self, name))
            band.flags.writeable = False
            object.__setattr__(self, name, band)
        # dtype and shapes only, O(1): no scan of the bands
        if self.mask.dtype != bool:
            raise DimensionMismatch(f"band mask must be bool, got {self.mask.dtype}")
        n = self.diagonal.size
        if (n < 1 or {self.diagonal.shape, self.mask.shape, self.q.shape} != {(n,)}
                or self.off_diagonal.shape != (n - 1,)):
            raise DimensionMismatch(
                "bands must be vectors: diagonal, mask and q of one length n >= 1, "
                "off_diagonal of n - 1")
        # twice |T|_F bounds 2 Im q and the form scale, so it is checked before
        # either is taken; it is inf or nan when an entry is, or T is too large
        with np.errstate(over="ignore", invalid="ignore"):
            overflow = not math.isfinite(2.0 * self._frobenius_norm)
        if overflow:
            for name in ("diagonal", "off_diagonal", "q"):
                if not np.isfinite(getattr(self, name)).all():
                    raise DimensionMismatch(f"band {name} must be finite")
            raise ScaleOverflow("|T|_F of the bands overflows, and so does the "
                                "scale of the dissipation form")

    def operator(self) -> OperatorWithDomain:
        """The dense operator, O(n^2); :attr:`form_scale` may need its 2-norm
        (special case 4 of :class:`~kreinpair.krein.OperatorWithDomain`)."""
        n = self.diagonal.size
        a = np.diag(self.diagonal)
        idx = np.arange(n - 1)
        a[idx, idx + 1] = a[idx + 1, idx] = self.off_diagonal
        return OperatorWithDomain(KreinSpace(np.eye(n)), a + np.diag(self.q))

    @cached_property
    def _frobenius_norm(self) -> float:
        """``|T|_F`` summed over the bands in an order the rule's margin covers."""
        return _frobenius(np.concatenate([self.diagonal + self.q, self.off_diagonal,
                                          self.off_diagonal]))

    @cached_property
    def form_eigenvalues(self) -> np.ndarray:
        """``2 Im q``, the diagonal of the dissipation matrix, in coordinate order."""
        return 2.0 * self.q.imag

    @cached_property
    def form_scale(self) -> float:
        """:attr:`OperatorWithDomain.form_scale` of :meth:`operator`."""
        return _form_scale(self.form_eigenvalues, self._frobenius_norm,
                           lambda: self.operator().scale, DEFAULT_TOL)

    def classify(self) -> str:
        """:meth:`OperatorWithDomain.classify` of :meth:`operator`."""
        w = np.sort(self.form_eigenvalues)
        # a zero form is symmetric at every scale: no need for form_scale
        return _classify(w, DEFAULT_TOL, self.form_scale if np.any(w) else 0.0)

    def masked_block(self) -> tuple[np.ndarray, np.ndarray, float]:
        """The compression ``L = A' + i v I`` of T to the m masked
        coordinates, as the two bands of its real symmetric part A' and the
        constant v, once four exact facts hold.  Three certify that the
        splitting of T is the mask splitting: (i) the off-diagonal is zero at
        every interface of the mask, so no entry of T couples masked and
        off-mask coordinates; (ii) the form ``2 diag(Im q)`` is zero off the
        mask; (iii) each of its entries on the mask lies above the rank cut
        ``DEFAULT_TOL *`` :attr:`form_scale` and passes the degeneracy test
        of ``split``.  The fourth, (iv) Im q is one constant v on the mask,
        to the bit, makes L normal.

        By (ii) and (iii) the form's kernel, as the rank decision sees it, is
        the off-mask span.  By (i) T maps the masked and the off-mask spans
        into themselves, so they are orthogonal in the graph product
        ``<x, y> + <T x, T y>``: the graph-orthogonal complement of the
        kernel, the defect domain, is exactly the masked span.  A' is the
        masked compression of ``A + diag(Re q)``, entry for entry the real
        part of the compression of T (0 across a gap in the mask).

        A non-dissipative T raises :class:`ClassificationError`, as
        ``split`` does; a failed fact :class:`PipelineError`, and an empty
        mask :class:`DimensionMismatch`.
        """
        if self.classify() == NEITHER:
            raise ClassificationError("mask splitting needs a dissipative operator")
        mask, w = self.mask, self.form_eigenvalues
        on = np.flatnonzero(mask)
        fault = None
        if np.any(self.off_diagonal[mask[:-1] != mask[1:]]):
            fault = "T couples masked and off-mask coordinates"
        elif np.any(w[~mask]):
            fault = "the dissipation form does not vanish off the mask"
        # above the rank cut of the form, then split's degeneracy test, whose
        # scale max |eigs| is the largest eigenvalue once the smallest is > 0
        elif on.size and (w[on].min() <= 0
                          or negligible(w[on].min(), DEFAULT_TOL, self.form_scale)
                          or negligible(w[on].min(), DEFAULT_TOL, w[on].max())):
            fault = "the dissipation form is not definite on the mask"
        if fault is not None:
            raise PipelineError(
                f"masked splitting disagrees with the graph-orthogonal one: {fault}"
            )
        if on.size == 0:
            raise DimensionMismatch("mask is empty")
        imag = self.q.imag[on]
        if np.any(imag != imag[0]):
            raise PipelineError(
                "the masked block is not normal: Im q is not one constant on the mask"
            )
        # the real parts of the operations of :meth:`operator`, on the masked
        # coordinates
        off = np.where(np.diff(on) == 1, self.off_diagonal[on[:-1]], 0.0)
        return self.diagonal[on] + self.q.real[on], off, float(imag[0])

    def quadrature_residual(self, pot: PotentialSpec) -> float:
        """``|D - W|_F / |W|_2`` for the dissipation matrix D and the
        midpoint quadrature ``W = 2 diag(Im q)`` of ``pot``: on a grid
        function y, as the vector sqrt(step) y, the form is ``step y* D y``
        and the quadrature ``step y* W y``, so the identity on all of them
        is ``D = W``; both are diagonal.  Raises :class:`DimensionMismatch`
        for an empty mask or one of the wrong length."""
        if pot.omega_mask.shape != self.mask.shape or not pot.omega_mask.any():
            raise DimensionMismatch(
                f"the quadrature needs a nonempty mask of length {self.mask.size}")
        weights = 2.0 * pot.q_values.imag  # q vanishes off the mask
        return (_frobenius(self.form_eigenvalues - weights)
                / float(np.max(np.abs(weights))))


def discretize(grid: GridSpec, pot: PotentialSpec) -> BandedOperator:
    """The bands of the stencil, entry for entry the floats of its dense
    assembly; :class:`PipelineError` unless the operator is dissipative."""
    if pot.omega_mask.shape[0] != grid.n_points:
        raise DimensionMismatch("potential is sampled on a different grid")
    n, s = grid.n_points, grid.step
    inv2 = 1.0 / (s * s)
    diagonal = np.full(n, 2.0 * inv2)
    off_diagonal = np.full(n - 1, -inv2)
    diagonal[0] = (2.0 - grid.robin_alpha(pot.h)) * inv2
    diagonal[-1] = 3.0 * inv2  # Dirichlet cell edge at x_max
    # decouple mask interfaces with Dirichlet edges on both sides (adding
    # 0.0 elsewhere changes no bit)
    interface = pot.omega_mask[:-1] != pot.omega_mask[1:]
    off_diagonal[interface] = 0.0
    diagonal[:-1] += inv2 * interface
    diagonal[1:] += inv2 * interface
    banded = BandedOperator(diagonal, off_diagonal, pot.omega_mask, pot.q_values)
    if banded.classify() == NEITHER:
        raise PipelineError("discretized operator failed the dissipativity check")
    return banded


def cayley_norm(banded: BandedOperator) -> float:
    """Largest singular value of ``(L - iI)(L + iI)^{-1}`` for the masked
    block ``L = A' + i v I`` of ``banded``, raising the errors of
    :meth:`BandedOperator.masked_block`.

    L is normal, with eigenvalues ``lambda + i v`` for the eigenvalues
    lambda of the real symmetric A', so its Cayley transform is normal too,
    and its norm is its largest eigenvalue modulus, ``|lambda + i(v - 1)| /
    |lambda + i(v + 1)|`` at the spectral radius rho of A':
    ``sqrt(1 - 4 v / (rho^2 + (1 + v)^2))``, at most 1 for ``v > 0``.  rho
    comes from A's bands in O(m) (:func:`_spectral_radius`).  The
    denominator is the square of ``d = hypot(rho, 1 + v)`` and the margin is
    formed as ``4 (v / d) / d``, with ``v / d < 1``, so no intermediate
    overflows at any rho and v, let alone at the row sums ``study_levels``
    admits.
    """
    diagonal, off_diagonal, v = banded.masked_block()
    d = math.hypot(_spectral_radius(diagonal, off_diagonal), 1.0 + v)
    # the margin is at most 1 but for rounding, at rho = 0 and v = 1
    return math.sqrt(max(0.0, 1.0 - 4.0 * (v / d) / d))


#: absolute width of the bracket certified around each extreme eigenvalue,
#: on bands scaled to a largest entry in [1/2, 1): a few units of round-off
#: of one Sturm count there, and at most 8 eps of the spectral radius
_BRACKET = 4.0 * sys.float_info.epsilon
#: Newton steps before the bracket is bisected instead; a study level takes
#: at most 6
_NEWTON_STEPS = 10
#: Kahan's pivmin for bands scaled as above: a pivot below it in modulus is
#: taken as +pivmin, so no pivot is 0 and ``e^2 / pivot`` stays finite
_PIVMIN = sys.float_info.min


def _spectral_radius(diagonal: np.ndarray, off_diagonal: np.ndarray) -> float:
    """``max |lambda|`` over the eigenvalues of the real symmetric
    tridiagonal matrix with these bands, in O(m) work and memory.

    The bands are scaled by a power of two to a largest entry in [1/2, 1),
    exactly, so that no square of an entry overflows and the radius, at
    least that entry, is at least 1/2.  The largest eigenvalue of A, and of
    -A where the Gershgorin bound of -A exceeds what A gave, comes from
    :func:`_largest_eigenvalue` to within :data:`_BRACKET` (absolute, so 8
    eps relative).
    """
    peak = float(np.max(np.abs(np.concatenate((diagonal, off_diagonal)))))
    if peak == 0.0:
        return 0.0
    exponent = math.frexp(peak)[1]
    d = np.ldexp(diagonal, -exponent)
    e = np.abs(np.ldexp(off_diagonal, -exponent))
    radii = np.concatenate(([0.0], e)) + np.concatenate((e, [0.0]))
    squares = [0.0] + (e * e).tolist()  # e_0 = 0 starts the recurrence
    # the Gershgorin upper bounds of A and -A; each lies at most 2 max e
    # above a diagonal entry, a lower bound of the same side
    reach = 2.0 * float(np.max(e, initial=0.0))
    radius = 0.0
    for upper, sign in ((float(np.max(d + radii)), 1.0),
                        (float(np.max(radii - d)), -1.0)):
        if upper > radius:
            radius = max(radius, _largest_eigenvalue((sign * d).tolist(), squares,
                                                     upper - reach, upper))
    return math.ldexp(radius, exponent)


def _largest_eigenvalue(diagonal: list, squares: list, lower: float,
                        upper: float) -> float:
    """The largest eigenvalue of the symmetric tridiagonal matrix A with this
    diagonal and squared off-diagonal (``squares[k]`` couples rows k - 1 and
    k), given ``lower <= lambda_max <= upper``.

    Newton's method on ``log det(x - A)`` from ``upper`` descends on
    lambda_max without passing it (the characteristic polynomial has only
    real roots).  Each step is also a Sturm count at x, and its derivative
    ``g = sum 1 / (x - lambda) <= m / (x - lambda_max)``
    (:func:`_inverse_distance_sum`) makes ``x - m / g`` a lower bound.  A
    step below :data:`_BRACKET`, or one that rounding carried just past
    lambda_max, ends it, and two Sturm counts at ``x -+ _BRACKET`` certify
    the bracket around x.  If they disagree, or Newton has not converged in
    :data:`_NEWTON_STEPS` steps, Sturm counts bisect the bracket kept so far
    down to adjacent floats.
    """
    x = upper
    for _ in range(_NEWTON_STEPS):
        g = _inverse_distance_sum(diagonal, squares, x)
        if g is None:  # an eigenvalue at or above x
            lower = max(lower, x)
            break
        upper = x
        lower = max(lower, x - len(diagonal) / g)
        # g is inf or nan only where x is an eigenvalue, to the pivmin
        step = 1.0 / g if g < math.inf else 0.0
        x -= step
        if step <= _BRACKET:
            break
    if (_inverse_distance_sum(diagonal, squares, x + _BRACKET) is not None
            and _inverse_distance_sum(diagonal, squares, x - _BRACKET) is None):
        return x
    middle = 0.5 * (lower + upper)
    while lower < middle < upper:  # until the ends are adjacent floats
        if _inverse_distance_sum(diagonal, squares, middle) is None:
            lower = middle
        else:
            upper = middle
        middle = 0.5 * (lower + upper)
    return middle


def _inverse_distance_sum(diagonal: list, squares: list, x: float):
    """``sum 1 / (x - lambda)`` over the eigenvalues of A when ``x - A`` is
    positive definite (every eigenvalue below x), else None.

    The pivots ``u_k = x - d_k - e_k^2 / u_{k-1}`` of ``x - A = L D L^T``
    are positive exactly when it is (Sylvester's inertia: a Sturm count of
    m).  ``log det(x - A) = sum log u_k``, so the sum asked for is ``sum
    u_k' / u_k`` with ``u_k' = 1 + (e_k^2 / u_{k-1}) u_{k-1}' / u_{k-1}``,
    carried as ``r_k = u_k' / u_k`` in the same pass.
    """
    pivmin = _PIVMIN
    u, r, total = 1.0, 0.0, 0.0
    for d, square in zip(diagonal, squares):
        t = square / u
        u = x - d - t
        if u < pivmin:
            if u <= -pivmin:
                return None
            u = pivmin
        r = (1.0 + t * r) / u
        total += r
    return total


def study_levels(x_max: float, base_n: int, intervals, imq: float, h: float,
                 levels: int) -> list[tuple[GridSpec, PotentialSpec]]:
    """Grid and potential of every doubling level, each validated (grid,
    nonempty mask, Robin resonance, no overflow in the graph Gram, a
    dissipation form the rank decision can see) before any level is built.

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
    levels = checked_integer(levels, "levels", 3)
    if isinstance(intervals, Iterable):  # once: level 0 would use up an iterator
        intervals = list(intervals)
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
    level and a non-decreasing trend.  Each level is checked on its bands
    in O(n) (:func:`discretize`, :meth:`BandedOperator.masked_block`,
    :meth:`BandedOperator.quadrature_residual`).  Every level has the one
    constant Im q = ``imq`` on its mask, so its masked block is normal, and
    its Cayley norm is a closed form in the spectral radius of the real
    part of that block (:func:`cayley_norm`), read from its bands in O(m).
    A level builds the dense n x n operator only where its bands cannot
    decide :attr:`BandedOperator.form_scale`: ``2 imq`` at most ``4e-10
    |T|_F``, with ``|T|_F`` about ``sqrt(6 n) / step^2``, and yet above the
    refusal bound of :func:`study_levels`.  So a weak ``imq`` on a fine grid
    forms an O(n^2) array: with ``x_max = 20``, ``base_n = 64`` and the
    mask ``[(0.0, 0.5)]``, ``imq = 0.1`` first does so at n = 32768
    (level 9) and ``imq = 0.01`` at n = 16384.  Nothing is random: ``seed`` is validated
    and unused.  :class:`DimensionMismatch` comes only from
    the input checks, before any level is built.
    """
    checked_seed(seed)
    rows = []
    specs = study_levels(x_max, base_n, intervals, imq, h, levels)
    for level, (grid, pot) in enumerate(specs):
        banded = discretize(grid, pot)
        rows.append(
            StudyRow(
                level=level,
                n_points=grid.n_points,
                x_max=x_max,
                cayley_norm=cayley_norm(banded),
                form_residual=banded.quadrature_residual(pot),
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
