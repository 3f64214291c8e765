"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: configuration and input problems are
usage errors (exit 2), OS-level failures are I/O errors (exit 3), and
anything raised as NumericalError aborts with exit 4.
"""


class BjdaError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(BjdaError):
    """Matrix shapes are incompatible with the requested operation."""


class DomainError(BjdaError):
    """An entry lies outside the mathematical domain of an operation."""


class InputError(BjdaError):
    """Runtime data violates a documented precondition."""


class ConfigError(BjdaError):
    """A configuration value or combination of values is invalid."""


class ParseError(BjdaError):
    """A file could not be parsed; the message carries the location."""


class ValidationError(BjdaError):
    """Parsed file content failed validation; the message carries the location."""


class NumericalError(BjdaError):
    """A numerical routine failed (non-convergence, NaN loss, ...). One that
    ends a train() run carries that run's RunMetrics as metrics."""

    metrics = None
