"""Exception taxonomy shared across the package.

Callers that need a process exit status can rely on the split below:
usage problems are argparse's business (exit 2), numeric/domain failures
derive from :class:`NumericError` (exit 3), and inequality-check failures
are ordinary results, not exceptions (exit 1 decided by the CLI).
"""


class RittGrowthError(Exception):
    """Base class for all package errors."""


class NumericError(RittGrowthError):
    """Base class for numeric/domain failures (CLI exit status 3)."""


class DomainError(NumericError):
    """An operation left its mathematical domain (log of a non-positive value, ...)."""


class ExtRangeError(NumericError):
    """A value cannot be represented in the requested (machine) range."""


class BracketError(NumericError):
    """Monotone inversion could not bracket the target value."""


class TailBoundError(NumericError):
    """The geometric tail certificate failed; carries the offending index."""

    def __init__(self, message: str, n: int):
        super().__init__(message)
        self.n = n


class IndicatorUndefinedError(NumericError):
    """A type/weak-type indicator was requested with an order outside (0, inf)."""


class DetectionFailedError(NumericError):
    """No admissible index-pair was found; carries the scanned evidence."""

    def __init__(self, message: str, evidence: list):
        super().__init__(message)
        self.evidence = evidence


class SpecFormatError(RittGrowthError):
    """A series/profile/batch document violated the documented schema."""


class IncompleteInstanceError(RittGrowthError):
    """A theorem instance is missing an estimate it needs."""
