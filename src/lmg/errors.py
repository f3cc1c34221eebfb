"""Exception types shared across the toolkit."""

__all__ = [
    "LmgError",
    "InvalidArgumentError",
    "SingularityError",
    "UnsupportedRegimeError",
    "ComplexPaironsError",
    "LeakageError",
    "NumericFailureError",
]


class LmgError(Exception):
    """Base class for all toolkit errors."""


class InvalidArgumentError(LmgError, ValueError):
    """An input violates an operation's contract."""


class SingularityError(LmgError):
    """Spectral parameters collided with a pole (E = +/-eta) or with each other."""


class UnsupportedRegimeError(LmgError):
    """The operation was asked to work outside its validity domain."""


class ComplexPaironsError(LmgError):
    """A level's spectral parameters are non-real (only in the hyperbolic regime)."""


class LeakageError(LmgError):
    """A state that must live on the one-hot subspace carries weight elsewhere."""


class NumericFailureError(LmgError):
    """An iterative routine did not converge, or a result is not a finite number."""
