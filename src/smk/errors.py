"""Shared exception types."""


class SmkError(Exception):
    """Base class for all errors raised by this package."""


class IndexOutOfPattern(SmkError):
    """A multi-index falls outside the correlatively sparse index set."""

    def __init__(self, alpha, message=None):
        self.alpha = tuple(alpha)
        super().__init__(message or f"multi-index {self.alpha} is not in the sparse pattern")


class DuplicateEntry(SmkError):
    """The same multi-index was supplied twice when building a moment vector."""


class MissingEntries(SmkError):
    """Required sparse multi-indices are absent from the input."""


class OrderTooHigh(SmkError):
    """A matrix was requested at an order the moment data cannot support."""


class ZeroVector(SmkError):
    """The moment vector is identically zero."""


class MalformedInput(SmkError):
    """An input file is not valid JSON, lacks a field, or holds a value of the wrong kind."""


class NonFiniteMoment(SmkError):
    """A moment is NaN or infinite."""


class FlatnessViolated(SmkError):
    """Atom extraction needed basis monomials of maximal degree."""


class NonPhysicalWeights(SmkError):
    """An extracted atom received a non-positive weight."""


class ReconstructionFailed(SmkError):
    """Extracted atoms and weights do not reproduce the input moment matrix."""


class MarginalMismatch(SmkError):
    """Two clique measures disagree on their shared marginal."""


class FinalMarginalCheckFailed(SmkError):
    """The assembled measure fails to reproduce some clique measure."""


class Infeasible(SmkError):
    """The weight linear program has no feasible point."""


class DegreeTooLow(SmkError):
    """The relaxation order does not cover the problem degrees."""


class DimensionMismatch(SmkError):
    """A solution vector does not match the relaxation it is ingested into."""


class SolverDiverged(SmkError):
    """The bundled solver's residual overflowed to a non-finite value."""


class BlockNotPsdWarning(UserWarning):
    """An ingested solution has a block that is not PSD at tolerance."""
