"""Exception types shared across the package.

All argument-validation failures raise one of the types below so that callers
can distinguish "this input is outside the mathematical domain" from "this
input is legal but the implementation does not cover it".
"""

from __future__ import annotations

import math

__all__ = ["CapabilityError", "DomainError", "ParameterError", "PrecisionError"]


class DomainError(ValueError):
    """The argument lies outside the mathematical domain of the function."""


class CapabilityError(ValueError):
    """The argument is mathematically legal but beyond implemented coverage."""


class PrecisionError(ArithmeticError):
    """The result cannot be computed to acceptable accuracy at this input."""


class ParameterError(ValueError):
    """A configuration or tuning parameter is inconsistent or out of range."""


def require_real(value, name: str) -> float:
    """value as a float; DomainError when it is not a real number."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{name} must be a real number, got {value!r}") from None


def is_finite(value) -> bool:
    """math.isfinite(value), except that an int beyond the float range is not finite."""
    try:
        return math.isfinite(value)
    except OverflowError:  # int too large to convert to float
        return False


def require_positive(value: float, name: str) -> float:
    """value as a float; DomainError unless it is a finite real > 0."""
    try:
        value = float(value)
        ok = math.isfinite(value) and value > 0.0
    except (TypeError, ValueError, OverflowError):  # not a real number
        ok = False
    if not ok:
        raise DomainError(f"{name} must be a finite positive real, got {value!r}")
    return value


def require_finite(value: float, fn: str, *args: float) -> float:
    """value itself; CapabilityError naming the call fn(*args) when it is not finite."""
    if not math.isfinite(value):
        raise CapabilityError(f"{fn}({', '.join(map(repr, args))}) = {value!r} "
                              "is outside the double-precision range")
    return value
