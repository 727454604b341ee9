"""Exception types shared across the package."""


class KreinPairError(Exception):
    """Base class for all library-specific errors."""


class DimensionMismatch(KreinPairError):
    """Operands live in incompatible coordinate spaces."""


class MetricError(KreinPairError):
    """A metric matrix fails to be Hermitian or involutive."""


class ClassificationError(KreinPairError):
    """An operation received an operator of the wrong dissipativity class."""


class PipelineError(KreinPairError):
    """A cross-check that should hold by construction failed.

    Raised when an internal identity breaks down numerically, which points
    at an upstream computation going wrong rather than at bad user input.
    """
