"""Exception types shared across the package."""


class LatticeLabError(Exception):
    """Base class for package errors."""


class InvalidPointError(LatticeLabError):
    """A model-space point violates its chart constraints (e.g. height <= 0)."""


class DimensionMismatchError(LatticeLabError):
    """Operands live in different model spaces or matrix sizes."""


class PreconditionError(LatticeLabError):
    """A documented operation precondition was violated by the caller."""


class CapExceededError(LatticeLabError):
    """An enumeration grew past its configured cap (reported, never looped).

    `entries` holds what the enumeration had kept when it stopped, if given.
    """

    def __init__(self, message, entries=None):
        super().__init__(message)
        self.entries = entries


class NotDiscreteError(LatticeLabError):
    """Closure blew up: input does not look discrete at the working tolerance."""


class BorderlineClassificationError(LatticeLabError):
    """Isometry sits inside the numerical ambiguity band between classes.

    Carries both candidate classes instead of silently guessing.
    """

    def __init__(self, candidates, detail=""):
        self.candidates = tuple(candidates)
        msg = "classification is numerically borderline between %s" % (self.candidates,)
        if detail:
            msg += " (" + detail + ")"
        super().__init__(msg)


class DomainError(LatticeLabError):
    """Evaluation point lies outside the function's domain (e.g. on a min-set)."""
