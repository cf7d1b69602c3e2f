"""Exception types shared across the package, and the argument rules they guard."""

import math


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

class NonPositiveArgument(RwrcError):
    pass


class ArgumentOutOfRange(RwrcError):
    pass


class NonPositiveScale(RwrcError):
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


class UnsupportedSetShape(RwrcError):
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


def require_trials(n, least: int) -> int:
    """A trial count of at least ``least``: 2 where a standard error is reported."""
    if n < least:
        raise ArgumentOutOfRange(f"need at least {least} trials, got {n}")
    return int(n)
