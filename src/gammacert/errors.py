"""Exception types shared across the package.

All argument-validation failures raise one of the types below so that callers
can distinguish "this input is outside the mathematical domain" from "this
input is legal but the implementation does not cover it".

The helpers after the types validate arguments.  real_points, require_all
and first_bad_point serve the builders that take one point or a grid: a grid
raises the error that its first bad point raises in a call of its own.
"""

from __future__ import annotations

import functools
import math

import numpy as np

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


def require_type(value, kind: type, name: str):
    """value itself; ParameterError naming it unless it is a kind (a record
    argument such as params or grid)."""
    if not isinstance(value, kind):
        raise ParameterError(f"{name} must be a {kind.__name__}, got {value!r}")
    return value


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


def real_points(value, name: str, require=require_real) -> np.ndarray:
    """The points of value, one point or a 1-D grid, as a 1-D float array.

    A numeric grid whose points all pass is converted in one pass; anything
    else goes point by point through require (require_real, or
    require_positive), which raises for the first point that fails it.
    """
    a = np.asarray(value)
    if a.ndim <= 1 and a.dtype.kind in "biuf":
        xs = a.astype(float).reshape(-1)
        if require is require_real or np.all(np.isfinite(xs) & (xs > 0.0)):
            return xs
    return np.array([require(v, name) for v in ([value] if a.ndim == 0 else a.tolist())],
                    dtype=float)


def require_all(ok: np.ndarray, error: type, message: str, *columns: np.ndarray) -> None:
    """error(message.format(...)) unless ok holds at every point; the message
    takes the columns' values at the first point where it does not."""
    if not ok.all():
        raise error(message.format(*(c[~ok][0].item() for c in columns)))


PACKAGE_ERRORS = (CapabilityError, DomainError, ParameterError, PrecisionError)


def first_bad_point(build):
    """build, raising on a grid the error that its first bad point raises alone.

    build takes positional arguments that are each one point or a 1-D grid,
    grids of one common length, and evaluates every point at once.  When
    that raises a package error, build runs again on each point in turn
    (keyword arguments as given), so the error raised is the one the first
    bad point raises in its own call.
    """
    @functools.wraps(build)
    def checked(*args, **kwargs):
        try:
            return build(*args, **kwargs)
        except PACKAGE_ERRORS:
            grids = [None if np.ndim(v) != 1 else v.tolist() if isinstance(v, np.ndarray)
                     else list(v) for v in args]
            for i in range(min((len(g) for g in grids if g is not None), default=0)):
                build(*(v if g is None else g[i] for v, g in zip(args, grids)), **kwargs)
            raise
    return checked
