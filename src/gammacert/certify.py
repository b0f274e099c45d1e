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

alpha enters that quantity at order k and abscissa x only through the term
alpha*b, b = (k-1)!/u^k > 0, so each grid point decides by comparing alpha
with three numbers of its own (_alpha_cuts): its LCM cut, at and below which
the LCM test fails beyond the floor; its RECIPROCAL cut, at and above which
the RECIPROCAL test does; and its raw root, where the quantity changes sign.
The LCM certificate FAILs iff alpha <= some point's LCM cut.  Its witness
is the first such point by increasing k, then grid order, with that point's
signed value at alpha, and its undecided points are the points before the
witness (all points on a PASS) with LCM cut < alpha <= raw root.  The
RECIPROCAL certificate mirrors this: it FAILs iff alpha >= some point's
RECIPROCAL cut, and counts raw root <= alpha < RECIPROCAL cut as undecided.
The cuts are the definition of the verdict, so the scanner, which compares
alpha with the largest LCM cut and the smallest RECIPROCAL cut, gives every
certificate's verdict at every alpha.

Every certificate runs on a GridSpec, log-spaced in u = x + y + 1, with the
grid defaults (k_max, points, x_max) of ``gammacert.checks``.
``gammacert.records`` holds the records this module builds: Certificate,
ScanCell and their fields.  The finite-difference cross-check lives in
``gammacert.auxchain``, with the aux suite that runs it.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from itertools import accumulate

import numpy as np

from .checks import DEFAULT_K_MAX, DEFAULT_POINTS, DEFAULT_X_MAX
from .errors import (
    CapabilityError, DomainError, ParameterError, PrecisionError, as_grid, first_bad_point,
    integer_in, is_finite, log_grid, real_points, require_all, require_type, require_y)
from .gammakit import MAX_DERIV_ORDER
from .hfamily import (
    ENDPOINT_CLEARANCE,
    X_EPSILON,
    DerivTable,
    alpha_necessary_bound,
    logh_deriv_table,
    logh_derivs_with_scale,  # noqa: F401  (unused; perfbench/test_perfbench.py reads it)
    q_surface_table,
    reciprocal_threshold,
    stacked,
)
from .records import (
    Certificate, Classification, DerivSample, Direction, GridSpec, HParams, ScanCell, Verdict)

__all__ = [
    "NOISE_FLOOR_REL",
    "certify_lcm",
    "classify",
    "default_grid",
    "grid_cuts",
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


def _two_sided_x_max(x_max):
    """x_max unchanged; ParameterError unless it is a finite real > X_EPSILON."""
    if not (is_finite(x_max) and x_max > X_EPSILON):
        raise ParameterError(
            f"x_max must be a finite real > {X_EPSILON:g} for a grid on both sides "
            f"of x = 0, got {x_max!r}")
    return x_max


def default_grid(y: float, points: int = DEFAULT_POINTS,
                 x_max: float = DEFAULT_X_MAX) -> GridSpec:
    """Grid from x = -(y+1) + 1e-4*(y+1) up to x_max (both sub-domains).

    y gets the HParams rule (DomainError); ParameterError unless x_max is a
    finite real > X_EPSILON, the first x the right sub-domain keeps.
    """
    y = require_y(y)
    return GridSpec(x_min_offset=1e-4 * (y + 1.0), x_max=_two_sided_x_max(x_max),
                    points=points)


def grid_points(spec: GridSpec, y: float) -> np.ndarray:
    """Concrete x abscissae of spec for y (HParams rule), exclusion zone removed."""
    require_type(spec, GridSpec, "spec")
    y = require_y(y)
    u_lo = max(spec.x_min_offset, ENDPOINT_CLEARANCE)
    u_hi = spec.x_max + y + 1.0
    if not u_hi > u_lo:
        raise ParameterError(
            f"empty grid: x_max={spec.x_max!r} gives u range [{u_lo:g}, {u_hi:g}] "
            f"for y={y!r}")
    x = log_grid(u_lo, u_hi, spec.points) - (y + 1.0)
    x = x[np.abs(x) >= X_EPSILON]
    if x.size == 0:
        raise ParameterError("grid is empty after exclusion-zone filtering")
    return x


def _alpha_cuts(table: DerivTable) -> np.ndarray:
    """Shape (3, k_max, len(xs)): per grid point, its LCM cut (row 0), its
    RECIPROCAL cut (row 1) and its raw root (row 2).

    At a point the signed value is c + alpha*b, with c = (-1)^k core and
    b = (k-1)!/u^k > 0, and its noise floor is nu*(|alpha|*b + s), with
    nu = NOISE_FLOOR_REL and s = core_scale.  The LCM test fails
    conclusively iff F(alpha) = c + alpha*b + nu*(|alpha|*b + s) <= 0, the
    RECIPROCAL test iff G(alpha) = c + alpha*b - nu*(|alpha|*b + s) >= 0.
    Both increase with slope at least b*(1 - nu), so each test fails on one
    side of the root of F or G: the cut.  The signed value changes sign at
    the raw root -c/b, which lies between the two cuts.  A cut or root
    outside the binary64 range raises CapabilityError naming y.
    """
    odd_sign = np.sign(table.alpha_coef)  # (-1)^k
    c = odd_sign * table.core
    b = np.abs(table.alpha_coef) / table.u_pow
    floor = NOISE_FLOOR_REL * table.core_scale
    cuts = np.stack([-c - floor, floor - c, -c])  # the roots times their slope
    slope_nu = NOISE_FLOOR_REL * np.array([[[1.0]], [[-1.0]], [[0.0]]])  # F, G, raw
    try:
        with np.errstate(over="raise"):
            cuts /= b * (1.0 + np.where(cuts >= 0.0, slope_nu, -slope_nu))
    except FloatingPointError:
        raise CapabilityError(
            f"the alpha cuts of (ln h)^(k) for k <= {len(table.core)} at y={table.y!r} "
            "lie outside the double-precision range") from None
    return cuts


def _cut_tables(ys, k_max: int, grids
                ) -> list[tuple[GridSpec, np.ndarray, DerivTable, np.ndarray]]:
    """Setup shared by every certificate.  For each y and its grid
    (default_grid(y) for None), validated in turn with k_max: the grid, its
    abscissae xs, the derivative table and its _alpha_cuts.  The tables are
    blocks of one logh_deriv_table stacked over the ys."""
    setups = []
    for y, grid in zip(ys, grids):
        y, k = require_y(y), integer_in(k_max, "k_max", 1, MAX_DERIV_ORDER)
        grid = default_grid(y) if grid is None else require_type(grid, GridSpec, "grid")
        setups.append((y, grid, grid_points(grid, y)))
    if not setups:
        return []
    valid_ys, _, xss = zip(*setups)
    sizes = [xs.size for xs in xss]
    table = logh_deriv_table(k, stacked(valid_ys, sizes), np.concatenate(xss))
    cuts = _alpha_cuts(table)
    stops = accumulate(sizes)
    return [(grid, xs, block, cuts[..., stop - xs.size:stop])
            for (_, grid, xs), block, stop in zip(setups, table.blocks(sizes), stops)]


@first_bad_point
def lcm_certifier(y, k_max: int = DEFAULT_K_MAX, grid=None):
    """certify(alpha, direction): sign of (-1)^k (ln h)^(k), k = 1..k_max, on the grid.

    One derivative table at y, and its alpha cuts, serve every certificate.
    direction LCM requires the signed quantity positive, RECIPROCAL
    negative.  The certificate FAILs iff alpha is at or beyond some point's
    cut; the witness is the first such point by increasing k, then grid
    order (see the module docstring).  y is one value or a 1-D grid; grid
    is None (default_grid(y)), one GridSpec, or a grid of one GridSpec or
    None per y.  One y on one grid returns one certify; otherwise a list of
    them, one per y (one y stands for every grid of a grid of grids), from
    one table stacked over the ys.
    """
    ys, grids = as_grid(y), as_grid(grid)
    if ys is None and grids is None:
        return _certifier(k_max, *_cut_tables([y], k_max, [grid])[0])
    if ys is None:
        ys = [y] * len(grids)
    elif grids is None:
        grids = [grid] * len(ys)
    elif len(grids) != len(ys):
        raise ParameterError(f"grid must be None, a GridSpec or one per y, got {grid!r}")
    return [_certifier(k_max, *setup) for setup in _cut_tables(ys, k_max, grids)]


def _certifier(k_max: int, grid: GridSpec, xs: np.ndarray, table: DerivTable,
               cuts: np.ndarray) -> Callable[[float, Direction | str], Certificate]:
    """lcm_certifier's certify on one y's setup (_cut_tables)."""
    y = table.y
    lcm_cuts, rec_cuts, roots = (row.ravel() for row in cuts)

    def certify(alpha: float, direction: Direction | str) -> Certificate:
        try:
            direction = Direction(direction)
        except (TypeError, ValueError):
            raise ParameterError(f"direction must be one of "
                                 f"{', '.join(d.value for d in Direction)}, "
                                 f"got {direction!r}") from None
        params = HParams(alpha=alpha, y=y)
        values, _ = table(params.alpha)  # raises for an alpha outside binary64's reach
        alpha = params.alpha
        lcm = direction is Direction.LCM
        fails = lcm_cuts >= alpha if lcm else rec_cuts <= alpha
        first = int(fails.argmax())
        end = first if fails[first] else fails.size
        before = roots[:end]
        undecided = int(np.count_nonzero(before >= alpha if lcm else before <= alpha))
        k = first // xs.size + 1
        witness = None if end == fails.size else DerivSample(
            k=k, x=float(xs[first % xs.size]),
            value=(-1.0) ** k * float(values.flat[first]))
        return Certificate(params=params, direction=direction, k_max=k_max, grid=grid,
                           verdict=Verdict.PASS if witness is None else Verdict.FAIL,
                           witness=witness, undecided_points=undecided)

    return certify


def grid_cuts(y: float, k_max: int = DEFAULT_K_MAX, grid: GridSpec | None = None
              ) -> tuple[tuple[float, int, float], tuple[float, int, float]]:
    """The two alpha cuts of the certificates on the grid.

    Returns ((alpha_lcm, k, x), (alpha_rec, k, x)) with the order k and
    abscissa x that set each cut: certify(alpha, LCM) of
    lcm_certifier(y, k_max, grid) FAILs iff alpha <= alpha_lcm, and
    certify(alpha, RECIPROCAL) FAILs iff alpha >= alpha_rec.
    """
    [(_, xs, _, cuts)] = _cut_tables([y], k_max, [grid])
    lcm, rec = int(cuts[0].argmax()), int(cuts[1].argmin())
    return tuple((float(cut.flat[i]), i // xs.size + 1, float(xs[i % xs.size]))
                 for cut, i in ((cuts[0], lcm), (cuts[1], rec)))


def certify_lcm(params: HParams, direction: Direction | str,
                k_max: int = DEFAULT_K_MAX, grid: GridSpec | None = None) -> Certificate:
    """One certificate of lcm_certifier(params.y, k_max, grid)."""
    require_type(params, HParams, "params")
    if grid is not None:  # one GridSpec: a grid of them would make several certifiers
        require_type(grid, GridSpec, "grid")
    return lcm_certifier(params.y, k_max, grid)(params.alpha, direction)


@first_bad_point
def necessity_limits(y):
    """Probes of the monotonicity threshold surface at its two limits.

    Returns alpha_necessary_bound at x = -(y+1) + 1e-6*(y+1) (limit value
    1/(y+1)) and at x = 1e6 (limit value 1).  y is one value (one pair is
    returned) or a 1-D grid (a list of pairs), and all the probes come from
    one table.
    """
    ys = real_points(y, "y", require_y)
    c = ys + 1.0
    xs = np.stack([-c + 1e-6 * c, np.full_like(c, 1e6)], axis=1).ravel()
    pairs = list(map(tuple, alpha_necessary_bound(xs, np.repeat(ys, 2)).reshape(-1, 2).tolist()))
    return pairs[0] if np.ndim(y) == 0 else pairs


@first_bad_point
def verify_thm3(y, points: int = DEFAULT_POINTS, x_max: float = DEFAULT_X_MAX):
    """Negativity and strict decrease of q_surface(x, y) on [x_left, inf).

    x_left = -2(y+1)^2/(1+2y) > 0 for y in (-1, -1/2).  The grid is
    GridSpec(x_left + y + 1, x_max, points), so it starts at x_left (the
    claim includes the endpoint) and follows the grid_points rule of every
    certificate.  For y below about -0.978, x_left < X_EPSILON: the grid
    would skip [x_left, X_EPSILON), where q has no correct digits, so a
    PASS would not cover the claim, and PrecisionError is raised instead.
    y is one value (a Certificate is returned) or a 1-D grid (a list of
    them, from one q_surface_table call).
    """
    setups = []
    for y_i in real_points(y, "y").tolist():
        if not (math.isfinite(y_i) and -1.0 < y_i < -0.5):
            raise ParameterError(f"y must lie in (-1, -1/2), got {y_i!r}")
        c = y_i + 1.0
        x_left = -2.0 * c * c / (1.0 + 2.0 * y_i)
        if x_left < X_EPSILON:
            raise PrecisionError(
                f"verify_thm3({y_i!r}) cannot check [x_left, {X_EPSILON:g}) = "
                f"[{x_left:.3e}, {X_EPSILON:g}): it lies inside the |x| < {X_EPSILON:g} "
                "exclusion zone")
        grid = GridSpec(x_min_offset=x_left + c, x_max=x_max, points=points)
        setups.append((y_i, grid, grid_points(grid, y_i)))  # ParameterError unless x_max > x_left
    certs = []
    if setups:
        sizes = [xs.size for _, _, xs in setups]
        q_values, q_scales = q_surface_table(stacked([y for y, _, _ in setups], sizes),
                                             np.concatenate([xs for _, _, xs in setups]))
        for (y_i, grid, xs), stop in zip(setups, accumulate(sizes)):
            cut = slice(stop - xs.size, stop)
            certs.append(_surface_certificate(y_i, grid, xs, q_values[cut], q_scales[cut]))
    return certs[0] if np.ndim(y) == 0 else certs


def _surface_certificate(y: float, grid: GridSpec, xs: np.ndarray, values: np.ndarray,
                         scales: np.ndarray) -> Certificate:
    """verify_thm3's certificate at y from q's values and scales on its grid xs."""
    # k = 0: q < 0 at every x; then k = 1: q decreases over every adjacent pair.
    # The witness is the first conclusive failure in that order (a NaN margin
    # or scale is conclusive); failures below the floor before it are counted.
    margin = -np.concatenate([values, np.diff(values)])
    scale = np.concatenate([scales, np.maximum(scales[:-1], scales[1:])])
    failing = ~(margin > 0.0)
    conclusive = failing & ~(np.abs(margin) < NOISE_FLOOR_REL * scale)
    first = int(conclusive.argmax())
    end = first if conclusive[first] else margin.size
    witness = None if end == margin.size else DerivSample(
        k=int(first >= xs.size), x=float(np.concatenate([xs, xs[1:]])[first]),
        value=float(-margin[first]))
    verdict = Verdict.FAIL if witness is not None else Verdict.PASS
    return Certificate(params=HParams(alpha=0.5 / (y + 1.0), y=y), direction=None,
                       k_max=1, grid=grid, verdict=verdict, witness=witness,
                       undecided_points=int(np.count_nonzero(failing[:end])),
                       check="surface-negativity")


def in_conjecture_zone(alpha, y: float):
    """Parameter region where reciprocal complete monotonicity is conjectured
    to fail: y > -1/2 with min{1, 1/(2(y+1))} < alpha <= 1.  For a 1-D
    grid of alphas, one flag per alpha."""
    alphas = real_points(alpha, "alpha")
    zone = (reciprocal_threshold(y) < alphas) & (alphas <= 1.0)
    return bool(zone[0]) if np.ndim(alpha) == 0 else zone


#: _CLASSIFICATION[LCM passes][RECIPROCAL passes][in the conjecture zone]
_CLASSIFICATION = (
    ((Classification.NEITHER, Classification.NEITHER),
     (Classification.RECIPROCAL, Classification.UNDECIDED)),
    ((Classification.LCM, Classification.LCM),
     (Classification.UNDECIDED, Classification.UNDECIDED)),
)


def classify(lcm_cert: Certificate, recip_cert: Certificate,
             conjecture_zone: bool) -> Classification:
    """Combine the two directional certificates into a cell classification."""
    for name, value, kind in (("lcm_cert", lcm_cert, Certificate),
                              ("recip_cert", recip_cert, Certificate),
                              ("conjecture_zone", conjecture_zone, bool)):
        require_type(value, kind, name)
    return _CLASSIFICATION[lcm_cert.verdict is Verdict.PASS][
        recip_cert.verdict is Verdict.PASS][conjecture_zone]


def scan_values(alphas, ys, k_max: int = DEFAULT_K_MAX, points: int = DEFAULT_POINTS,
                x_max: float = DEFAULT_X_MAX) -> list[ScanCell]:
    """Classify every (alpha, y) combination; y-major, then alpha order.
    alphas and ys are each one value or a 1-D grid.

    Each y is one row pass: it builds one derivative table on
    default_grid(y, points, x_max) and compares the whole row of alphas
    with the table's two grid cuts (grid_cuts).  LCM passes above the
    largest LCM cut and RECIPROCAL below the smallest RECIPROCAL cut, the
    verdicts of the two certificates of each cell at every alpha, so every
    cell is classified as classify would classify those certificates.
    """
    alphas = real_points(alphas, "alpha")
    ys = real_points(ys, "y", require_y)  # every y, in order, before a grid is built
    # every other argument too, in the order one y's grid and table check them,
    # so no y is needed to refuse one
    _two_sided_x_max(x_max)
    integer_in(points, "points", 2)
    integer_in(k_max, "k_max", 1, MAX_DERIV_ORDER)
    require_all(np.isfinite(alphas), DomainError, "alpha must be finite, got {!r}", alphas)
    cells: list[ScanCell] = []
    for y in ys.tolist():
        [(_, _, _, cuts)] = _cut_tables(
            [y], k_max, [default_grid(y, points=points, x_max=x_max)])
        lcm_pass = alphas > cuts[0].max()
        rec_pass = alphas < cuts[1].min()
        zones = in_conjecture_zone(alphas, y).tolist()
        cells += [ScanCell(alpha=alpha, y=y,
                           classification=_CLASSIFICATION[lcm][rec][zone],
                           conjecture_zone=zone,
                           reciprocal_violation=(not rec) if zone else None)
                  for alpha, lcm, rec, zone in zip(alphas.tolist(), lcm_pass.tolist(),
                                                   rec_pass.tolist(), zones)]
    return cells
