"""The certificate and scan records.

A Certificate is the verdict of a grid certifier on a parameter pair
(HParams) and a GridSpec, with a DerivSample witness for a FAIL; a ScanCell
is one classified (alpha, y) cell.  ``gammacert.certify`` builds them, on
grids whose defaults are ``gammacert.checks``' DEFAULT_* constants.

Reports and the CLI read every record without loading the certificate
engine, and a process that builds no record, such as a certificate-free
suite's, never loads this module.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .checks import DEFAULT_POINTS, ValidatedRecord
from .errors import DomainError, ParameterError, integer_in, is_finite, require_type, require_y
from .gammakit import MAX_DERIV_ORDER

__all__ = [
    "Certificate",
    "Classification",
    "DerivSample",
    "Direction",
    "GridSpec",
    "HParams",
    "ScanCell",
    "Verdict",
]


class Direction(str, Enum):
    LCM = "LCM"
    RECIPROCAL = "RECIPROCAL"


class Verdict(str, Enum):
    PASS = "PASS"
    FAIL = "FAIL"


class Classification(str, Enum):
    LCM = "LCM"
    RECIPROCAL = "RECIPROCAL"
    NEITHER = "NEITHER"
    UNDECIDED = "UNDECIDED"


class _HParamsFields(NamedTuple):
    alpha: float
    y: float


class HParams(ValidatedRecord, _HParamsFields):
    """Parameter pair (alpha, y) of the family, an immutable named 2-tuple
    of floats; requires a finite real alpha and a finite real y > -1
    (DomainError otherwise)."""

    __slots__ = ()

    def __new__(cls, alpha, y):
        if not is_finite(alpha):
            raise DomainError(f"alpha must be finite, got {alpha!r}")
        return tuple.__new__(cls, (float(alpha), require_y(y)))


class DerivSample(NamedTuple):
    """One evaluated derivative sign sample: order k at abscissa x."""

    k: int
    x: float
    value: float


class _GridFields(NamedTuple):
    x_min_offset: float
    x_max: float
    points: int


class GridSpec(ValidatedRecord, _GridFields):
    """Evaluation grid in x for one parameter pair, an immutable named 3-tuple.

    The grid is log-spaced in u = x + y + 1, from x_min_offset (distance
    above the left endpoint -(y+1)) up to x_max + y + 1.  grid_points drops
    the abscissae inside hfamily's |x| < X_EPSILON exclusion zone.  The
    fields are held as two floats and an int; a field that breaks the input
    rule (README, "Inputs") or its range raises ParameterError.
    """

    __slots__ = ()

    def __new__(cls, x_min_offset, x_max, points=DEFAULT_POINTS):
        if not (is_finite(x_min_offset) and x_min_offset > 0.0):
            raise ParameterError(
                f"x_min_offset must be a finite positive real, got {x_min_offset!r}")
        if not is_finite(x_max):
            raise ParameterError(f"x_max must be finite, got {x_max!r}")
        return tuple.__new__(cls, (float(x_min_offset), float(x_max),
                                   integer_in(points, "points", 2)))


class _CertificateFields(NamedTuple):
    params: HParams
    direction: Direction | None
    k_max: int
    grid: GridSpec
    verdict: Verdict
    witness: DerivSample | None
    undecided_points: int
    check: str
    semantics: str


class Certificate(ValidatedRecord, _CertificateFields):
    """Outcome of a sign-pattern check over a grid, an immutable named 9-tuple.

    check is "lcm-sign" for derivative-sign certificates (direction set,
    witness.k is the derivative order) or "surface-negativity" for the
    q-surface check (direction None; witness.k = 0 flags a non-negative
    surface value, witness.k = 1 a non-decreasing adjacent step).
    PASS semantics are always grid-verified, never analytic.  A field of
    the wrong type or range, a FAIL without a witness, or a witness without
    a FAIL raises ParameterError.
    """

    __slots__ = ()

    def __new__(cls, params, direction, k_max, grid, verdict, witness,
                undecided_points=0, check="lcm-sign", semantics="grid-verified"):
        for name, value, kind in (("params", params, HParams), ("grid", grid, GridSpec),
                                  ("verdict", verdict, Verdict), ("check", check, str),
                                  ("semantics", semantics, str),
                                  ("direction", direction, (Direction, type(None))),
                                  ("witness", witness, (DerivSample, type(None)))):
            require_type(value, kind, name)
        undecided = integer_in(undecided_points, "undecided_points", 0)
        if (verdict is Verdict.FAIL) != (witness is not None):
            raise ParameterError(
                "certificate invariant violated: FAIL iff witness present")
        return tuple.__new__(cls, (params, direction,
                                   integer_in(k_max, "k_max", 1, MAX_DERIV_ORDER), grid,
                                   verdict, witness, undecided, check, semantics))


class ScanCell(NamedTuple):
    """Classification of one (alpha, y) cell from its two certificates.

    The LCM certificate passes iff alpha lies above the row's LCM grid cut,
    the RECIPROCAL one iff alpha lies below its RECIPROCAL grid cut
    (grid_cuts).  For cells inside the conjecture zone,
    reciprocal_violation records whether alpha is at or above that cut, so
    that the RECIPROCAL certificate FAILs with a conclusive witness
    (evidence only — the zone never classifies RECIPROCAL).
    """

    alpha: float
    y: float
    classification: Classification
    conjecture_zone: bool = False
    reciprocal_violation: bool | None = None
