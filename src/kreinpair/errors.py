"""Exception types shared across the package, and the check of a seed."""

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
    """An operator too large for its graph Gram to be formed in floating point."""


class PipelineError(KreinPairError):
    """A cross-check that should hold by construction failed.

    Raised when an internal identity breaks down numerically, which points
    at an upstream computation going wrong rather than at bad user input.
    """


def checked_seed(seed) -> int:
    """``seed`` as a nonnegative ``int`` (numpy integers pass), else
    :class:`DimensionMismatch`, the error of bad input to a study."""
    try:
        value = operator.index(seed)
    except TypeError:
        value = -1
    if value < 0:
        raise DimensionMismatch(f"seed must be a nonnegative integer, got {seed!r}")
    return value
