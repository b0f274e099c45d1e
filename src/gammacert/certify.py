"""Grid certifiers for logarithmic complete monotonicity of the h family.

A PASS certificate means "no sign violation found on the specified finite
grid up to derivative order k_max" — grid-verified evidence, strictly weaker
than an analytic proof.  A FAIL is conclusive: it carries a concrete witness
(k, x, signed value) whose magnitude clears a noise floor proportional to the
local evaluation scale.  Sign anomalies below the floor are counted as
undecided points and never flip a verdict; boundary parameter choices (alpha
exactly at a monotonicity threshold) therefore certify PASS.

Sign contract: h is logarithmically completely monotonic (LCM) when
(-1)^k (ln h)^(k) > 0 for all k >= 1; its reciprocal is LCM when the same
quantity is < 0.  The two directions are pointwise negations of each other.

Every certificate runs on a GridSpec, log-spaced in u = x + y + 1.  The grid
defaults (k_max, points, x_max) are the DEFAULT_* constants below, the one
place the package and the CLI take them from.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ParameterError, require_real
from .gammakit import MAX_DERIV_ORDER
from .hfamily import (
    ENDPOINT_CLEARANCE,
    X_EPSILON,
    DerivSample,
    HParams,
    alpha_necessary_bound,
    log_h,
    logh_deriv_table,
    logh_derivs_with_scale,
    q_surface_table,
    reciprocal_threshold,
)

__all__ = [
    "Certificate",
    "Classification",
    "DEFAULT_K_MAX",
    "DEFAULT_POINTS",
    "DEFAULT_X_MAX",
    "Direction",
    "GridSpec",
    "NOISE_FLOOR_REL",
    "ScanCell",
    "Verdict",
    "certify_lcm",
    "classify",
    "default_grid",
    "finite_diff_crosscheck",
    "grid_points",
    "in_conjecture_zone",
    "lcm_certifier",
    "necessity_limits",
    "scan_values",
    "verify_thm3",
]

#: Violations below this fraction of the local evaluation scale are
#: inconclusive (counted, never failed).
NOISE_FLOOR_REL = 1e-9

#: Defaults of every certificate grid: highest derivative order, grid points
#: and upper end x_max.
DEFAULT_K_MAX = 8
DEFAULT_POINTS = 200
DEFAULT_X_MAX = 1e3


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


@dataclass(frozen=True)
class GridSpec:
    """Evaluation grid in x for one parameter pair.

    The grid is log-spaced in u = x + y + 1, from x_min_offset (distance
    above the left endpoint -(y+1)) up to x_max + y + 1.  grid_points drops
    the abscissae inside hfamily's |x| < X_EPSILON exclusion zone.
    """

    x_min_offset: float
    x_max: float
    points: int = DEFAULT_POINTS

    def __post_init__(self) -> None:
        if not (isinstance(self.x_min_offset, (int, float))
                and math.isfinite(self.x_min_offset) and self.x_min_offset > 0.0):
            raise ParameterError(
                f"x_min_offset must be a finite positive real, got {self.x_min_offset!r}")
        if not (isinstance(self.x_max, (int, float)) and math.isfinite(self.x_max)):
            raise ParameterError(f"x_max must be finite, got {self.x_max!r}")
        if not (isinstance(self.points, int) and not isinstance(self.points, bool)
                and self.points >= 2):
            raise ParameterError(f"points must be an integer >= 2, got {self.points!r}")


def default_grid(y: float, points: int = DEFAULT_POINTS,
                 x_max: float = DEFAULT_X_MAX) -> GridSpec:
    """Grid from x = -(y+1) + 1e-4*(y+1) up to x_max (both sub-domains)."""
    return GridSpec(x_min_offset=1e-4 * (y + 1.0), x_max=float(x_max), points=points)


def grid_points(spec: GridSpec, y: float) -> np.ndarray:
    """Concrete x abscissae of spec for parameter y, exclusion zone removed."""
    u_lo = max(spec.x_min_offset, ENDPOINT_CLEARANCE)
    u_hi = spec.x_max + y + 1.0
    if not u_hi > u_lo:
        raise ParameterError(
            f"empty grid: x_max={spec.x_max!r} gives u range [{u_lo:g}, {u_hi:g}] "
            f"for y={y!r}")
    x = np.geomspace(u_lo, u_hi, spec.points) - (y + 1.0)
    x = x[np.abs(x) >= X_EPSILON]
    if x.size == 0:
        raise ParameterError("grid is empty after exclusion-zone filtering")
    return x


@dataclass(frozen=True)
class Certificate:
    """Outcome of a sign-pattern check over a grid.

    check is "lcm-sign" for derivative-sign certificates (direction set,
    witness.k is the derivative order) or "surface-negativity" for the
    q-surface check (direction None; witness.k = 0 flags a non-negative
    surface value, witness.k = 1 a non-decreasing adjacent step).
    PASS semantics are always grid-verified, never analytic.
    """

    params: HParams
    direction: Direction | None
    k_max: int
    grid: GridSpec
    verdict: Verdict
    witness: DerivSample | None
    undecided_points: int = 0
    check: str = "lcm-sign"
    semantics: str = "grid-verified"

    def __post_init__(self) -> None:
        if (self.verdict is Verdict.FAIL) != (self.witness is not None):
            raise ParameterError(
                "certificate invariant violated: FAIL iff witness present")


def _first_violation(margin: np.ndarray, scale: np.ndarray) -> tuple[int | None, int]:
    """First flat index (C order) where margin > 0 fails conclusively, or None,
    and the count of failures before it that sit below the noise floor
    NOISE_FLOOR_REL * scale (a NaN margin or scale is conclusive)."""
    failing = ~(margin > 0.0)
    sub_floor = np.abs(margin) < NOISE_FLOOR_REL * scale
    conclusive = np.flatnonzero(failing & ~sub_floor)
    first = int(conclusive[0]) if conclusive.size else None
    return first, int(np.count_nonzero((failing & sub_floor).ravel()[:first]))


def lcm_certifier(y: float, k_max: int = DEFAULT_K_MAX, grid: GridSpec | None = None
                  ) -> Callable[[float, Direction | str], Certificate]:
    """certify(alpha, direction): sign of (-1)^k (ln h)^(k), k = 1..k_max, on the grid.

    One derivative table at y serves every certificate.  direction LCM
    requires the signed quantity positive, RECIPROCAL negative.  The witness
    is the first conclusive violation by increasing k, then grid order.
    """
    HParams(alpha=0.0, y=y)  # reuse the domain validation for y
    if not (isinstance(k_max, int) and not isinstance(k_max, bool)
            and 1 <= k_max <= MAX_DERIV_ORDER):
        raise ParameterError(
            f"k_max must be an integer in 1..{MAX_DERIV_ORDER}, got {k_max!r}")
    if grid is None:
        grid = default_grid(y)
    xs = grid_points(grid, y)
    table = logh_deriv_table(k_max, y, xs)
    odd_sign = (-1.0) ** np.arange(1, k_max + 1)[:, None]  # (-1)^k

    def certify(alpha: float, direction: Direction | str) -> Certificate:
        direction = Direction(direction)
        params = HParams(alpha=alpha, y=y)
        values, scales = table(params.alpha)
        signed = odd_sign * values
        first, undecided = _first_violation(
            signed if direction is Direction.LCM else -signed, scales)
        witness = None if first is None else DerivSample(
            k=first // xs.size + 1, x=float(xs[first % xs.size]),
            value=float(signed.flat[first]))
        return Certificate(params=params, direction=direction, k_max=k_max, grid=grid,
                           verdict=Verdict.PASS if witness is None else Verdict.FAIL,
                           witness=witness, undecided_points=undecided)

    return certify


def certify_lcm(params: HParams, direction: Direction | str,
                k_max: int = DEFAULT_K_MAX, grid: GridSpec | None = None) -> Certificate:
    """One certificate of lcm_certifier(params.y, k_max, grid)."""
    return lcm_certifier(params.y, k_max, grid)(params.alpha, direction)


def necessity_limits(y: float) -> tuple[float, float]:
    """Probes of the monotonicity threshold surface at its two limits.

    Returns alpha_necessary_bound at x = -(y+1) + 1e-6*(y+1) (limit value
    1/(y+1)) and at x = 1e6 (limit value 1).
    """
    HParams(alpha=0.0, y=y)  # reuse the domain validation for y
    x_inner = -(y + 1.0) + 1e-6 * (y + 1.0)
    return (alpha_necessary_bound(x_inner, y), alpha_necessary_bound(1e6, y))


def verify_thm3(y: float, grid: GridSpec | None = None) -> Certificate:
    """Negativity and strict decrease of q_surface(x, y) on [x_left, inf).

    x_left = -2(y+1)^2/(1+2y) > 0 for y in (-1, -1/2); the grid starts
    exactly at x_left (the claim includes the endpoint) and uses the
    GridSpec's points and x_max.
    """
    y = require_real(y, "y")
    if not (math.isfinite(y) and -1.0 < y < -0.5):
        raise ParameterError(f"y must lie in (-1, -1/2), got {y!r}")
    if grid is None:
        grid = default_grid(y)
    x_left = -2.0 * (y + 1.0) ** 2 / (1.0 + 2.0 * y)
    if not grid.x_max > x_left:
        raise ParameterError(
            f"x_max={grid.x_max!r} must exceed the left endpoint {x_left:g}")
    xs = np.geomspace(x_left, grid.x_max, grid.points)
    values, scales = q_surface_table(y, xs)
    # k = 0: q < 0 at every x; then k = 1: q decreases over every adjacent pair
    margin = -np.concatenate([values, np.diff(values)])
    first, undecided = _first_violation(
        margin, np.concatenate([scales, np.maximum(scales[:-1], scales[1:])]))
    witness = None if first is None else DerivSample(
        k=int(first >= xs.size), x=float(np.concatenate([xs, xs[1:]])[first]),
        value=float(-margin[first]))
    verdict = Verdict.FAIL if witness is not None else Verdict.PASS
    return Certificate(params=HParams(alpha=0.5 / (y + 1.0), y=y), direction=None,
                       k_max=1, grid=grid, verdict=verdict, witness=witness,
                       undecided_points=undecided, check="surface-negativity")


def in_conjecture_zone(alpha: float, y: float) -> bool:
    """Parameter region where reciprocal complete monotonicity is conjectured
    to fail: y > -1/2 with min{1, 1/(2(y+1))} < alpha <= 1."""
    return y > -0.5 and reciprocal_threshold(y) < alpha <= 1.0


@dataclass(frozen=True)
class ScanCell:
    """Classification of one (alpha, y) cell from its two certificates.

    For cells inside the conjecture zone, reciprocal_violation records
    whether the RECIPROCAL certificate found a conclusive violation
    (evidence only — the zone never classifies RECIPROCAL).
    """

    alpha: float
    y: float
    classification: Classification
    conjecture_zone: bool = False
    reciprocal_violation: bool | None = None


def classify(lcm_cert: Certificate, recip_cert: Certificate,
             conjecture_zone: bool) -> Classification:
    """Combine the two directional certificates into a cell classification."""
    lcm_pass = lcm_cert.verdict is Verdict.PASS
    rec_pass = recip_cert.verdict is Verdict.PASS
    if lcm_pass and not rec_pass:
        return Classification.LCM
    if rec_pass and not lcm_pass:
        return Classification.UNDECIDED if conjecture_zone else Classification.RECIPROCAL
    if not lcm_pass and not rec_pass:
        return Classification.NEITHER
    return Classification.UNDECIDED


def scan_values(alphas, ys, k_max: int = DEFAULT_K_MAX, points: int = DEFAULT_POINTS,
                x_max: float = DEFAULT_X_MAX) -> list[ScanCell]:
    """Classify every (alpha, y) combination; y-major, then alpha order.

    Each y builds one derivative table on default_grid(y, points, x_max),
    shared by all its cells.
    """
    alphas = [require_real(v, "alpha") for v in alphas]
    cells: list[ScanCell] = []
    for y in (require_real(v, "y") for v in ys):
        certify = lcm_certifier(y, k_max, default_grid(y, points=points, x_max=x_max))
        for alpha in alphas:
            lcm_cert = certify(alpha, Direction.LCM)
            rec_cert = certify(alpha, Direction.RECIPROCAL)
            zone = in_conjecture_zone(alpha, y)
            cells.append(ScanCell(
                alpha=alpha, y=y,
                classification=classify(lcm_cert, rec_cert, zone),
                conjecture_zone=zone,
                reciprocal_violation=(rec_cert.verdict is Verdict.FAIL)
                if zone else None))
    return cells


def finite_diff_crosscheck(k: int, params: HParams, x: float,
                           step: float = 1e-5) -> float:
    """Relative residual between the closed-form derivative and a central
    finite difference of the next-lower order (ln h itself for k = 1)."""
    if not (isinstance(k, int) and not isinstance(k, bool) and 1 <= k <= 4):
        raise ParameterError(f"k must be an integer in 1..4, got {k!r}")
    step = require_real(step, "step")
    if not (math.isfinite(step) and step > 0.0):
        raise ParameterError(f"step must be a positive real, got {step!r}")
    x = require_real(x, "x")
    if k == 1:  # order 0 is ln h itself
        value = logh_derivs_with_scale(1, params, x)[0][0]
        lo, hi = log_h(params, x - step), log_h(params, x + step)
    else:  # one table: order k at x, order k - 1 at x - step and x + step
        values = logh_deriv_table(k, params.y, [x - step, x, x + step])(params.alpha)[0]
        value, lo, hi = (float(v) for v in (values[k - 1, 1], values[k - 2, 0],
                                            values[k - 2, 2]))
    fd = (hi - lo) / (2.0 * step)
    return abs(value - fd) / max(1.0, abs(value))
