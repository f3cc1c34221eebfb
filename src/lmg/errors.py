"""Exception types shared across the toolkit."""


class LmgError(Exception):
    """Base class for all toolkit errors."""


class InvalidArgumentError(LmgError, ValueError):
    """An input violates an operation's contract."""


class SingularityError(LmgError):
    """Spectral parameters collided with a pole (E = +/-eta) or with each other."""


class UnsupportedRegimeError(LmgError):
    """The operation was asked to work outside its validity domain."""


class IncompleteSolveError(LmgError):
    """The solver could not produce the full, oracle-validated solution list.

    ``found`` counts the solution sets that validated against their own exact
    level; ``needed`` is the sector's M+1.
    """

    def __init__(self, message: str, found: int = 0, needed: int = 0):
        super().__init__(message)
        self.found = found
        self.needed = needed


class ComplexPaironsError(LmgError):
    """A level's spectral parameters are non-real (only in the hyperbolic regime)."""


class LeakageError(LmgError):
    """A state that must live on the one-hot subspace carries weight elsewhere."""


class NumericFailureError(LmgError):
    """An iterative routine did not converge, or a result is not a finite number."""
