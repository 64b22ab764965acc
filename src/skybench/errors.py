"""Exception hierarchy shared across the harness, and the check every
validating value type runs when it is made."""

import functools


class SkybenchError(Exception):
    """Base class for all harness errors."""


class ParseError(SkybenchError):
    """Raised when input bytes are not well-formed JSON or cannot be built into a record."""


class InvalidInput(SkybenchError):
    """Raised when a physics operation is called with out-of-contract arguments."""


class CalibrationError(SkybenchError):
    """Raised when network calibration targets are inconsistent or verification fails."""


class DegenerateInput(SkybenchError):
    """Raised when an efficiency metric is requested for zero timings or token counts."""


class ScenarioError(SkybenchError):
    """Raised when a scenario document is malformed."""


def checked(cls):
    """Make every construction of the NamedTuple `cls`, _make and _replace
    included, return `value._checked()`: the value to keep, after raising
    on a bad one.  namedtuple's own _make builds the tuple directly, which
    would skip the check."""
    new = cls.__new__

    @functools.wraps(new)
    def __new__(cls, /, *args, **kwargs):
        return new(cls, *args, **kwargs)._checked()

    cls.__new__ = staticmethod(__new__)
    cls._make = classmethod(lambda cls, values: cls(*values))
    return cls
