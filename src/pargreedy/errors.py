"""Exception types shared across the package, and the CLI exit status of
each outcome."""

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_CAPACITY = 3


class PargreedyError(Exception):
    """Base class for all library errors."""


class InputError(PargreedyError):
    """Malformed or inconsistent input data (bad ids, violated invariants)."""


class CapacityError(PargreedyError):
    """An exact exhaustive computation was refused because the instance
    exceeds its fixed cap.  Never silently truncated."""


class UndefinedRatioError(InputError):
    """The optimum value is zero, so the greedy/optimal ratio is undefined."""
