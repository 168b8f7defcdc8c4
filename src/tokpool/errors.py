"""Exception types, which the CLI maps onto exit codes, and the shared
finite-and-positive argument check."""

import sys


class TokpoolError(Exception):
    """Base class for all package errors."""


class UsageError(TokpoolError):
    """Caller misuse: bad arguments or unsatisfied preconditions (exit code 1)."""


class DataError(TokpoolError):
    """Malformed or out-of-contract data: bad files, NaNs, schema violations (exit code 2)."""


def check_finite_positive(value, name: str) -> None:
    """Raise ``UsageError`` unless ``0 < value <= max double`` (NaN fails too)."""
    if not 0 < value <= sys.float_info.max:
        raise UsageError(f"{name} must be finite and positive")
