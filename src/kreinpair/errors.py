"""Exception types shared across the package, and the checks of integer input."""

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
    ``operator.index``, floats do not), else :class:`DimensionMismatch`, the
    error of bad input to a study."""
    try:
        number = operator.index(value)
    except TypeError:
        number = None
    if number is None or number < minimum:
        raise DimensionMismatch(
            f"{what} must be an integer of at least {minimum}, got {value!r}")
    return number


def checked_seed(seed) -> int:
    """``seed`` as a nonnegative ``int`` (numpy integers pass)."""
    return checked_integer(seed, "seed", 0)
