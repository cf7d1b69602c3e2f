"""Exception types shared across the package, and the argument rules they guard."""

import math
import numbers


class RwrcError(ValueError):
    """Base class for all package-specific errors."""


# domain construction and compatibility

class DimensionMismatch(RwrcError):
    pass


class DuplicateSite(RwrcError):
    pass


class OriginMissing(RwrcError):
    pass


class DisconnectedDomain(RwrcError):
    pass


class DomainTooLarge(RwrcError):
    pass


class DomainMismatch(RwrcError):
    pass


class UnsupportedDomain(RwrcError):
    pass


# scalar argument validation

class ArgumentOutOfRange(RwrcError):
    pass


class NonPositiveArgument(ArgumentOutOfRange):
    pass


class NonPositiveWeight(RwrcError):
    pass


# fields, profiles, and measure changes

class InvalidProfile(RwrcError):
    pass


class FieldMismatch(DomainMismatch):
    """A field's domain differs from the one an operation was given."""


class EpsilonTooLarge(RwrcError):
    pass


# solvers and estimators

class NonConvergence(RwrcError):
    pass


class DegenerateWeights(RwrcError):
    pass


def require_time(t) -> float:
    """A time or horizon: finite and nonnegative, returned as a float."""
    if not (math.isfinite(t) and t >= 0):
        raise ArgumentOutOfRange(f"time must be finite and nonnegative, got {t!r}")
    return float(t)


def require_positive(x, what: str) -> float:
    """A scale, exponent or bound: finite and positive, returned as a float."""
    if not (math.isfinite(x) and x > 0):
        raise NonPositiveArgument(f"{what} must be positive and finite, got {x!r}")
    return float(x)


def require_count(value, least: int, what: str) -> int:
    """A count, size or seed: an integral number (not a bool) of at least
    ``least``, returned as an int; 2 wherever a standard error is reported."""
    if isinstance(value, bool) or not (
        isinstance(value, numbers.Integral) or (isinstance(value, float) and value.is_integer())
    ):
        raise ArgumentOutOfRange(f"{what} must be an integer, got {value!r}")
    if value < least:
        raise ArgumentOutOfRange(f"{what} must be at least {least}, got {value!r}")
    return int(value)
