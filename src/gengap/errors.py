"""Exception taxonomy shared across the package.

Every failure mode that callers are expected to handle gets its own class so
that test suites and the CLI can branch on type rather than on message text.
"""

import contextlib


class GengapError(Exception):
    """Base class for all package-specific errors."""


class OutOfRange(GengapError, ValueError):
    """A parameter is outside the supported range (e.g. too many directions)."""


class AttemptsExhausted(GengapError):
    """Rejection sampling hit its attempt budget without finding a candidate."""


class AmbiguousBlock(GengapError):
    """A 2-dim encoding block is occupied but its norm is not consistent with
    a single codepoint, so decoding it would be guesswork."""


class OracleDomain(GengapError):
    """The fast (decode-based) loss oracle was evaluated at a point outside
    the trajectory regime it is valid for."""


class ReferenceTooLarge(GengapError):
    """The exhaustive reference enumeration was requested at a scale where the
    candidate set exceeds the enumeration budget."""


class InfeasibleForcing(GengapError):
    """The forced good-event sampler cannot succeed for these parameters."""


class EventViolated(GengapError):
    """A computation that is only valid under a good event was handed a
    dataset that does not satisfy it."""


class DegenerateDraw(GengapError):
    """A random direction draw has an underflowing norm (effectively
    zero), which cannot be normalized."""


class InvalidClosedForm(GengapError):
    """A closed-form iterate/risk expression was requested outside the range
    of steps it describes."""


@contextlib.contextmanager
def reading(path, what, parse_errors=()):
    """Re-raise a file that is missing, unreadable, not in its format (also
    parse_errors) or without its fields as OutOfRange naming the file."""
    try:
        yield
    except GengapError:
        raise
    except (OSError, ValueError, KeyError, TypeError, AttributeError,
            *parse_errors) as exc:
        detail = f"no {exc} field" if isinstance(exc, KeyError) else exc
        raise OutOfRange(f"cannot read {what} {path}: {detail}") from exc


def as_int(value):
    """An integer or an integer string as an int; a float or a bool (which
    int() would truncate or read as 0/1) is a TypeError, which reading
    turns into OutOfRange naming the file."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise TypeError(f"{value!r} is not an integer")
    return int(value)
