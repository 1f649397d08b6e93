"""Exception types shared across the package.

The CLI maps these onto process exit codes; library users can catch the
common base class. ``check_finite`` is the one rule for a number the
package accepts, ``check_integer`` the one rule for a seed or a count.
"""

import numbers
import sys

_FLOAT_MAX = sys.float_info.max


class RelayAllocError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(RelayAllocError, ValueError):
    """A caller-supplied argument is out of contract (CLI exit code 2)."""


def check_finite(name: str, value, positive: bool = True) -> None:
    """Refuse ``value`` unless 0 < value <= the float maximum (0 <= value
    when not ``positive``): NaN, +-inf and integers beyond the float range
    all fail one comparison chain, with no numpy call."""
    if not (0.0 < value <= _FLOAT_MAX if positive else 0.0 <= value <= _FLOAT_MAX):
        raise InvalidArgumentError(
            f"{name} must be finite and {'>' if positive else '>='} 0, got {value!r}")


def check_integer(name: str, value, least: int) -> None:
    """Refuse ``value`` unless it is an integer >= ``least``: a seed (least
    0, the seeds numpy's generators take), a record count or a worker count."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidArgumentError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise InvalidArgumentError(f"{name} must be >= {least}, got {value!r}")


class InfeasibleProblemError(RelayAllocError):
    """The outage target cannot be met even at the power caps (exit code 3)."""


class SchemaError(RelayAllocError):
    """A persisted file has the wrong format or version (exit code 4)."""


class InvariantViolationError(RelayAllocError):
    """A persisted file parses but violates a documented invariant (exit code 4)."""


class BudgetExceededError(RelayAllocError):
    """The solver's evaluation cap was hit before reaching the target resolution
    (exit code 6)."""


class NonFiniteLossError(RelayAllocError):
    """Training produced a non-finite loss (exit code 5)."""

    def __init__(self, message, epoch=None, batch_index=None, loss=None):
        super().__init__(message)
        self.epoch = epoch
        self.batch_index = batch_index
        self.loss = loss


class NumericConsistencyError(RelayAllocError):
    """An internal numeric sanity check failed, e.g. a probability escaped
    [0, 1] by more than the documented tolerance (exit code 5)."""
