"""Exception types shared across the package, and its input rules.

All argument-validation failures raise one of the types below so that callers
can distinguish "this input is outside the mathematical domain" from "this
input is legal but the implementation does not cover it".

The helpers after the types validate arguments; no other module decides
what a number, a y, an integer or a flag is (README, "Inputs").  real_points,
require_all and first_bad_point serve the builders that take one point or a
grid: a grid raises the error that its first bad point raises in a call of
its own.  A grid is a plain list, tuple or range, or a 1-D array; a record
(a tuple subclass such as GridSpec or HParams) is one argument, never a
grid.  log_grid builds the package's log-spaced grids.
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


def is_real(value) -> bool:
    """value is a real number: an int or a float, numpy's included, not a bool."""
    return value.__class__ is float or (isinstance(value, (int, float, np.integer, np.floating))
                                        and value.__class__ is not bool)


def is_finite(value) -> bool:
    """value is a real number and finite as a binary64 (an int beyond it is not)."""
    try:
        return is_real(value) and math.isfinite(value)
    except OverflowError:  # an int beyond binary64
        return False


def require_real(value, name: str) -> float:
    """value as a float; DomainError unless it is a real number within
    binary64's range (nan and inf included)."""
    try:
        if is_real(value):
            return float(value)
    except OverflowError:  # an int beyond binary64
        pass
    raise DomainError(f"{name} must be a real number, got {value!r}")


def require_positive(value, name: str) -> float:
    """value as a float; DomainError unless it is a finite real > 0."""
    if not (is_finite(value) and value > 0.0):
        raise DomainError(f"{name} must be a finite positive real, "
                          f"got {float(value) if is_finite(value) else value!r}")
    return float(value)


def require_y(value, name: str = "y") -> float:
    """value as a float; DomainError unless it is a real number, then unless
    it is finite and > -1 (the HParams rule)."""
    if not (is_finite(value) and value > -1.0):
        raise DomainError(f"{name} must be a real number, got {value!r}" if not is_real(value)
                          else f"{name} must be a finite real > -1, got {value!r}")
    return float(value)


def as_integer(value) -> int | None:
    """value as a Python int if it is an int or a numpy integer (not a bool), else None."""
    ok = isinstance(value, (int, np.integer)) and value.__class__ is not bool
    return int(value) if ok else None


def require_type(value, kind: type | tuple[type, ...], name: str):
    """value itself; ParameterError naming it unless it is a kind, or one of
    a tuple of kinds (a record argument such as params or grid)."""
    if not isinstance(value, kind):
        kinds = " or ".join("None" if k is type(None) else k.__name__
                            for k in (kind if isinstance(kind, tuple) else (kind,)))
        raise ParameterError(f"{name} must be a {kinds}, got {value!r}")
    return value


def require_finite(value: float, fn: str, *args: float) -> float:
    """value itself; CapabilityError naming the call fn(*args) when it is not finite."""
    if not math.isfinite(value):
        raise CapabilityError(f"{fn}({', '.join(map(repr, args))}) = {value!r} "
                              "is outside the double-precision range")
    return value


#: The open lower bound of each range rule for real_points' one-pass form.
_LOWER = {require_positive: 0.0, require_y: -1.0}


def as_grid(value) -> list | None:
    """The points of value if it is a grid (a plain list, tuple or range, or a
    1-D array), else None: a record (a tuple subclass) is one argument."""
    if isinstance(value, np.ndarray):
        return value.tolist() if value.ndim == 1 else None
    return list(value) if value.__class__ in (list, tuple, range) else None


def real_points(value, name: str, require=require_real) -> np.ndarray:
    """The points of value, one point or a 1-D grid, as a 1-D float array.

    A numeric 1-D numpy array (int or float dtype) is converted in one pass
    when require sets no range (_LOWER) or all its points are finite and
    within it.  Anything else goes point by point through require, which
    returns the point as a float or raises for it (a 0-d array is no real
    number).  A 2-D value raises DomainError.
    """
    if isinstance(value, np.ndarray) and value.ndim == 1 and value.dtype.kind in "iuf":
        xs = value.astype(float)
        lower = _LOWER.get(require)
        if lower is None or np.all(np.isfinite(xs) & (xs > lower)):
            return xs
    points = as_grid(value)
    if points is None and not (isinstance(value, np.ndarray) and value.ndim > 1):
        return np.array([require(value, name)])  # one point
    if points is None or any(isinstance(v, (list, tuple, np.ndarray)) for v in points):
        raise DomainError(f"{name} must be one point or a 1-D grid, got {value!r}")
    return np.array([require(v, name) for v in points], dtype=float)


def broadcast_points(names: str, *grids: np.ndarray) -> list[np.ndarray]:
    """The 1-D grids at one length, a one-point grid repeated; ParameterError
    naming them (names, comma-separated) when their lengths do not agree."""
    try:
        return np.broadcast_arrays(*grids)
    except ValueError:
        raise ParameterError(f"{names} must be grids of one length, got lengths "
                             f"{', '.join(str(grid.size) for grid in grids)}") from None


def require_all(ok: np.ndarray, error: type, message: str, *columns: np.ndarray) -> None:
    """error(message.format(...)) unless ok holds at every point; the message
    takes the columns' values at the first point where it does not."""
    if not ok.all():
        raise error(message.format(*(c[~ok][0].item() for c in columns)))


def log_grid(lo: float, hi: float, points: int) -> np.ndarray:
    """np.geomspace(lo, hi, points); CapabilityError naming points where
    numpy refuses an array that long before allocating it."""
    try:
        return np.geomspace(lo, hi, points)
    except ValueError:  # "array is too big" / "Maximum allowed size exceeded"
        raise CapabilityError(
            f"points = {points!r} is more grid points than one array can hold") from None


PACKAGE_ERRORS = (CapabilityError, DomainError, ParameterError, PrecisionError)


def first_bad_point(build):
    """build, raising on a grid the error that its first bad point raises alone.

    build takes arguments, positional or keyword, that are each one point or
    a 1-D grid (as_grid), grids of one common length, and evaluates every
    point at once.  When that raises a package error, build runs again on
    each point in turn, every grid argument split alike and every other
    argument (a record among them) passed whole, so the error raised is the
    one the first bad point raises in its own call.
    """
    @functools.wraps(build)
    def checked(*args, **kwargs):
        try:
            return build(*args, **kwargs)
        except PACKAGE_ERRORS:
            grids = [as_grid(v) for v in args]
            named = {k: as_grid(v) for k, v in kwargs.items()}
            for i in range(min((len(g) for g in [*grids, *named.values()] if g is not None),
                               default=0)):
                build(*(v if g is None else g[i] for v, g in zip(args, grids)),
                      **{k: v if named[k] is None else named[k][i] for k, v in kwargs.items()})
            raise
    return checked
