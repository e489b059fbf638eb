"""Exception hierarchy shared by all oodseg modules.

The CLI maps these onto exit codes: ``IoError`` exits with 3, every other
``OodsegError`` with 2.
"""


class OodsegError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(OodsegError):
    """A file is not syntactically valid (bad magic, header, or payload size)."""


class SchemaError(OodsegError):
    """A file or table is well-formed but does not match the expected schema."""


class ValidationError(OodsegError):
    """Tensor content violates a domain invariant (e.g. probabilities off the simplex)."""


class DomainError(OodsegError):
    """An argument is outside its mathematical domain."""


class NumericalError(OodsegError):
    """An iterative solver produced a non-finite iterate."""

    def __init__(self, message, iteration=None):
        super().__init__(message)
        self.iteration = iteration


class ConfigError(OodsegError):
    """A scene or benchmark configuration is unsatisfiable."""


class IoError(OodsegError):
    """An underlying I/O operation failed."""


def _in_interval(name, value, interval) -> float:
    """``float(value)`` if it lies in ``interval``, one of "[0, 1]", "(0, 1]" and "(0, 1)"; else DomainError."""
    x = float(value)
    if not 0.0 <= x <= 1.0 or (x == 0.0 and interval[0] == "(") or (x == 1.0 and interval[-1] == ")"):
        raise DomainError(f"{name} {x!r} outside {interval}")
    return x
