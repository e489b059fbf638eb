"""Exception hierarchy shared by all oodseg modules.

The CLI maps these onto exit codes: ``IoError`` exits with 3, every other
``OodsegError`` with 2.
"""

import numbers
import sys
from contextlib import contextmanager

import numpy as np

__all__ = ["OodsegError", "FormatError", "SchemaError", "ValidationError", "DomainError", "NumericalError",
           "ConfigError", "IoError"]


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


@contextmanager
def _prefix(prefix, kinds=OodsegError):
    """Re-raise an error of ``kinds`` from the block as its own type, its message prefixed ``<prefix>: ``."""
    try:
        yield
    except kinds as exc:
        raise type(exc)(f"{prefix}: {exc}") from exc


def _plain(value) -> str:
    """``value`` as a message shows it: a NumPy scalar's number, an integer beyond the float range by its size."""
    value = value.item() if isinstance(value, np.generic) else value
    if _is_a(value, numbers.Integral) and _float(value) is None:  # its digits may be too many to print
        return f"{'a negative' if value < 0 else 'an'} integer of {value.bit_length()} bits"
    return repr(value)


def _is_a(value, kind) -> bool:
    """Whether ``value`` is an instance of the numbers ABC ``kind`` other than a bool."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _float(value):
    """``float(value)`` of a number other than a bool, or None; an integer beyond the float range is never converted."""
    if not _is_a(value, numbers.Real) or _is_a(value, numbers.Integral) and abs(int(value)) > sys.float_info.max:
        return None
    return float(value)


def _finite(value) -> bool:
    """Whether ``value`` is a number other than a bool whose float is finite."""
    return (x := _float(value)) is not None and abs(x) <= sys.float_info.max


def _count(name, value, lo: int, error=DomainError, hi=None) -> None:
    """``error`` unless ``value`` is an integer >= ``lo``, and <= ``hi`` if given, other than a bool."""
    if not _is_a(value, numbers.Integral) or value < lo:
        raise error(f"{name} must be an integer >= {lo}, got {_plain(value)}")
    if hi is not None and value > hi:
        raise error(f"{name} must be at most {hi}, got {_plain(value)}")


def _in_interval(name, value, interval) -> float:
    """``float(value)`` if it lies in ``interval``, one of "[0, 1]", "(0, 1]" and "(0, 1)"; else DomainError."""
    if (x := _float(value)) is None:
        raise DomainError(f"{name} must be a number in {interval}, got {_plain(value)}")
    if not 0.0 <= x <= 1.0 or (x == 0.0 and interval[0] == "(") or (x == 1.0 and interval[-1] == ")"):
        raise DomainError(f"{name} {x!r} outside {interval}")
    return x


def _check_ids(ids: np.ndarray, image: np.ndarray) -> int:
    """The largest label of a label image; SchemaError naming its first negative label and pixel, or else the first
    segment id whose label ``id + 1`` lies outside the image's 1..largest."""
    top = int(image.max(initial=0))
    if image.min(initial=0) < 0:
        at = np.unravel_index(int(np.argmax(image < 0)), image.shape)
        raise SchemaError(f"pixel {tuple(map(int, at))}: negative label {image[at]} in the label image")
    outside = ids[(ids < 0) | (ids >= top)]
    if outside.size:
        raise SchemaError(f"segment id {outside[0]} is outside the label image, whose largest label is {top}")
    return top


_KIND_NAMES = {"iu": "integer", "f": "floating-point", "biuf": "boolean or real"}


def _array(name, value, ranks, kinds) -> np.ndarray:
    """``value`` as an array, an array itself uncopied; SchemaError unless its rank is ``ranks`` (an int or a tuple)
    and its dtype kind is in ``kinds``, or its dtype is ``kinds`` when that is no string."""
    try:
        array = np.asarray(value)
    except (ValueError, TypeError):  # a ragged sequence, for one
        array = None
    ranks = ranks if isinstance(ranks, tuple) else (ranks,)
    if array is not None and array.ndim in ranks and (
            array.dtype.kind in kinds if isinstance(kinds, str) else array.dtype == kinds):
        return array
    got = f"rank-{array.ndim} {array.dtype}" if array is not None else f"a {type(value).__name__} numpy cannot convert"
    kind = _KIND_NAMES[kinds] if isinstance(kinds, str) else np.dtype(kinds).name
    raise SchemaError(f"{name} must be a {' or '.join(f'rank-{r}' for r in ranks)} {kind} array, got {got}")
