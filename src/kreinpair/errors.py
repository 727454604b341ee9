"""Exception types shared across the package, and the checks of input."""

import contextlib
import math
import numbers
import operator


class KreinPairError(Exception):
    """Base class for all library-specific errors."""


class DimensionMismatch(KreinPairError):
    """Operands live in incompatible coordinate spaces."""


class MetricError(KreinPairError):
    """A metric matrix fails to be Hermitian or involutive."""


class ClassificationError(KreinPairError):
    """An operation received an operator of the wrong dissipativity class."""


class ScaleOverflow(KreinPairError):
    """An operator too large for its graph Gram or its Cayley transform to be
    formed in floating point."""


class PipelineError(KreinPairError):
    """A cross-check that should hold by construction failed.

    Raised when an internal identity breaks down numerically, which points
    at an upstream computation going wrong rather than at bad user input.
    """


def checked_integer(value, what: str, minimum: int) -> int:
    """``value`` as an ``int`` of at least ``minimum`` (numpy integers pass
    ``operator.index``, floats and bools do not), else
    :class:`DimensionMismatch`, the error of bad input."""
    try:
        number = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        number = None
    if number is None or number < minimum:
        raise DimensionMismatch(
            f"{what} must be an integer of at least {minimum}, got {value!r}")
    return number


def checked_seed(seed) -> int:
    """``seed`` as a nonnegative ``int`` (numpy integers pass)."""
    return checked_integer(seed, "seed", 0)


def checked_real(value, what: str) -> float:
    """``value`` as a finite ``float``: a real number but not a bool (numpy
    integers and floats pass), else :class:`DimensionMismatch`."""
    number = math.nan
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):  # an int past the float range
            number = float(value)
    if not math.isfinite(number):
        raise DimensionMismatch(f"{what} must be a finite real number, got {value!r}")
    return number


def checked_tol(tol) -> float:
    """``tol``, a rank tolerance, as a ``float`` in (0, 1), else
    :class:`DimensionMismatch`."""
    tol = checked_real(tol, "tol")
    if not 0.0 < tol < 1.0:
        raise DimensionMismatch(f"tol must be in (0, 1), got {tol!r}")
    return tol


def checked_instance(value, kind: type, what: str):
    """``value`` when it is a ``kind``, else :class:`DimensionMismatch`."""
    if not isinstance(value, kind):
        article = "an" if kind.__name__[0] in "AEIOU" else "a"
        raise DimensionMismatch(
            f"{what} must be {article} {kind.__name__}, got {type(value).__name__}")
    return value
