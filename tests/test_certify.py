"""Tests for the grid certifiers, scanner, and classification logic."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gammacert import (
    CapabilityError,
    Certificate,
    Classification,
    Direction,
    DomainError,
    GridSpec,
    HParams,
    ParameterError,
    PrecisionError,
    ScanCell,
    Verdict,
    certify_lcm,
    classify,
    default_grid,
    finite_diff_crosscheck,
    grid_cuts,
    grid_points,
    in_conjecture_zone,
    lcm_certifier,
    logh_derivs_with_scale,
    necessity_limits,
    q_surface_table,
    scan_values,
    verify_thm3,
)
import _referee as referee
import gammacert.certify as certify_module
from gammacert.certify import NOISE_FLOOR_REL
from gammacert.cli import (
    _NECESSITY_YS, _SUFFICIENCY_DELTAS, _SUFFICIENCY_YS, _THM3_YS, build_suite)
from gammacert.hfamily import (
    X_EPSILON, DerivSample, DerivTable, lcm_threshold, logh_deriv_table,
    reciprocal_threshold)

FAST_GRID = GridSpec(x_min_offset=1e-4, x_max=100.0, points=60)


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def test_grid_spec_validation():
    with pytest.raises(ParameterError):
        GridSpec(x_min_offset=0.0, x_max=10.0)
    with pytest.raises(ParameterError):
        GridSpec(x_min_offset=-1.0, x_max=10.0)
    with pytest.raises(ParameterError):
        GridSpec(x_min_offset=1e-4, x_max=math.inf)
    with pytest.raises(ParameterError):
        GridSpec(x_min_offset=1e-4, x_max=10.0, points=1)
    with pytest.raises(ParameterError):
        GridSpec(x_min_offset=1e-4, x_max=10.0, points=True)


def test_default_grid_reaches_both_sub_domains_or_names_x_max():
    for x_max in (0.0, 1e-3, -0.5, math.inf, math.nan, "abc", None):
        with pytest.raises(ParameterError, match=r"^x_max must be a finite real > 0\.001"):
            default_grid(0.0, x_max=x_max)
    assert default_grid(0.0, x_max=2e-3).x_max == 2e-3


def test_grid_points_cover_both_sub_domains():
    xs = grid_points(default_grid(0.0, points=100), 0.0)
    assert xs[0] == pytest.approx(-1.0 + 1e-4, rel=1e-12)
    assert xs[-1] == pytest.approx(1e3, rel=1e-12)
    assert (xs[:-1] < xs[1:]).all()
    assert (abs(xs) >= 1e-3).all()
    assert (xs < 0).any() and (xs > 0).any()


@pytest.mark.parametrize("build", [
    lambda y: default_grid(y), lambda y: grid_points(GridSpec(1e-3, 10.0, 5), y)],
    ids=["default_grid", "grid_points"])
@pytest.mark.parametrize("y,shown", [(-2.0, "-2.0"), (10 ** 400, "1" + "0" * 400)],
                         ids=["-2.0", "10**400"])
def test_grids_give_y_the_hparams_rule(build, y, shown):
    # -2.0 used to give abscissae (grid_points) or blame x_min_offset
    # (default_grid); 10**400 a bare OverflowError
    with pytest.raises(DomainError) as info:
        build(y)
    assert str(info.value) == f"y must be a finite real > -1, got {shown}"


def test_grid_points_empty_or_inverted():
    with pytest.raises(ParameterError):
        grid_points(GridSpec(x_min_offset=50.0, x_max=10.0), 0.0)
    # every abscissa of x in [-5e-4, 5e-4] lies inside the exclusion zone
    with pytest.raises(ParameterError, match="empty after exclusion-zone filtering"):
        grid_points(GridSpec(x_min_offset=1 - 5e-4, x_max=5e-4, points=10), 0.0)


def test_grid_points_beyond_an_array_name_points():
    # numpy refuses 2**62 float64 values before it allocates anything
    with pytest.raises(CapabilityError) as info:
        grid_points(GridSpec(1e-3, 10.0, 2 ** 62), 0.0)
    assert str(info.value) == (
        f"points = {2 ** 62} is more grid points than one array can hold")


@pytest.mark.parametrize("y", [-0.5, 0.0, 1.0])
def test_certifiers_default_to_default_grid(y):
    alphas = [0.25, 0.5, 1.0, 1.5]
    implicit, explicit = lcm_certifier(y), lcm_certifier(y, grid=default_grid(y))
    for alpha in alphas:
        for direction in Direction:
            assert implicit(alpha, direction) == explicit(alpha, direction)
    assert grid_cuts(y) == grid_cuts(y, grid=default_grid(y))


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def test_certificate_invariant():
    p = HParams(alpha=1.0, y=0.0)
    g = default_grid(0.0)
    with pytest.raises(ParameterError):
        Certificate(params=p, direction=Direction.LCM, k_max=8, grid=g,
                    verdict=Verdict.FAIL, witness=None)
    with pytest.raises(ParameterError):
        Certificate(params=p, direction=Direction.LCM, k_max=8, grid=g,
                    verdict=Verdict.PASS,
                    witness=DerivSample(k=1, x=1.0, value=-1.0))


def test_certify_lcm_above_threshold_passes():
    cert = certify_lcm(HParams(alpha=1.0, y=0.0), Direction.LCM,
                       grid=FAST_GRID)
    assert cert.verdict is Verdict.PASS
    assert cert.witness is None
    assert cert.check == "lcm-sign"
    assert cert.semantics == "grid-verified"


def test_certify_reciprocal_below_threshold_passes():
    cert = certify_lcm(HParams(alpha=0.4, y=0.0), Direction.RECIPROCAL,
                       grid=FAST_GRID)
    assert cert.verdict is Verdict.PASS


def test_certify_lcm_below_threshold_fails_with_witness():
    cert = certify_lcm(HParams(alpha=0.9, y=0.0), Direction.LCM,
                       grid=FAST_GRID)
    assert cert.verdict is Verdict.FAIL
    w = cert.witness
    assert w is not None
    assert w.k >= 1
    assert w.value <= 0.0
    # the witness must be reproducible as an actual sign violation
    from gammacert import logh_deriv
    signed = logh_deriv(w.k, cert.params, w.x)
    if w.k % 2 == 1:
        signed = -signed
    assert signed == pytest.approx(w.value, rel=1e-12)


def test_certify_accepts_direction_strings():
    cert = certify_lcm(HParams(alpha=1.0, y=0.0), "LCM", grid=FAST_GRID)
    assert cert.direction is Direction.LCM
    with pytest.raises(ValueError):
        certify_lcm(HParams(alpha=1.0, y=0.0), "BOTH", grid=FAST_GRID)


def test_certify_k_max_validation():
    p = HParams(alpha=1.0, y=0.0)
    for bad in (0, 13, -1, True, 2.0):
        with pytest.raises(ParameterError):
            certify_lcm(p, Direction.LCM, k_max=bad, grid=FAST_GRID)


def test_directions_are_pointwise_negations():
    # where violations are conclusive, at most one direction can PASS
    p = HParams(alpha=0.9, y=0.0)
    lcm = certify_lcm(p, Direction.LCM, grid=FAST_GRID)
    rec = certify_lcm(p, Direction.RECIPROCAL, grid=FAST_GRID)
    assert Verdict.FAIL in (lcm.verdict, rec.verdict)


def test_sub_domain_consistency():
    # certifying the two sub-domains separately must agree with spec behavior
    ys = [0.0, 1.0]
    for y in ys:
        left = GridSpec(x_min_offset=1e-4 * (y + 1.0), x_max=-1.5e-3,
                        points=40)
        right = GridSpec(x_min_offset=(y + 1.0) + 1e-3, x_max=1e3, points=40)
        p_good = HParams(alpha=max(1.0, 1.0 / (y + 1.0)) + 0.5, y=y)
        for g in (left, right):
            assert certify_lcm(p_good, Direction.LCM,
                               grid=g).verdict is Verdict.PASS
        p_bad = HParams(alpha=0.9, y=0.0)
        verdicts = {certify_lcm(p_bad, Direction.LCM, grid=g).verdict
                    for g in (left, right)}
        assert Verdict.FAIL in verdicts


def test_certify_is_deterministic():
    p = HParams(alpha=0.9, y=0.0)
    a = certify_lcm(p, Direction.LCM, grid=FAST_GRID)
    b = certify_lcm(p, Direction.LCM, grid=FAST_GRID)
    assert a == b


# ---------------------------------------------------------------------------
# the vectorized search against the per-point reference loop
# ---------------------------------------------------------------------------

def _reference_lcm(params, direction, k_max, grid):
    """(verdict, witness, undecided) from the point-by-point search order."""
    xs = grid_points(grid, params.y)
    want_positive = Direction(direction) is Direction.LCM
    rows = [logh_derivs_with_scale(k_max, params, float(x)) for x in xs]
    undecided = 0
    for k in range(1, k_max + 1):
        for x, row in zip(xs, rows):
            value, scale = row[k - 1]
            signed = value if k % 2 == 0 else -value
            if (signed > 0.0) if want_positive else (signed < 0.0):
                continue
            if abs(signed) < NOISE_FLOOR_REL * scale:
                undecided += 1
                continue
            return Verdict.FAIL, (k, float(x).hex(), float(signed).hex()), undecided
    return Verdict.PASS, None, undecided


def _outcome(cert):
    w = cert.witness
    return (cert.verdict, None if w is None else (w.k, w.x.hex(), w.value.hex()),
            cert.undecided_points)


def _assert_both_paths_match_reference(y, cells, k_max, grid):
    certify = lcm_certifier(y, k_max, grid)
    outcomes = []
    for alpha, direction in cells:
        ref = _reference_lcm(HParams(alpha, y), direction, k_max, grid)
        assert _outcome(certify(alpha, direction)) == ref, (alpha, y, direction)
        assert _outcome(certify_lcm(HParams(alpha, y), direction, k_max=k_max,
                                    grid=grid)) == ref, (alpha, y, direction)
        outcomes.append(ref)
    return outcomes


@pytest.mark.parametrize("y", _SUFFICIENCY_YS)
def test_thm1_cells_match_the_reference_search(y):
    cells = [(lcm_threshold(y) + d, Direction.LCM) for d in _SUFFICIENCY_DELTAS]
    cells += [(reciprocal_threshold(y) - d, Direction.RECIPROCAL)
              for d in _SUFFICIENCY_DELTAS]
    if y in _NECESSITY_YS:
        cells.append((lcm_threshold(y) - 0.1, Direction.LCM))
    _assert_both_paths_match_reference(y, cells, 8, default_grid(y))


@pytest.mark.parametrize("alpha,y,direction", [
    (0.5, 0.0, Direction.RECIPROCAL), (0.25, 1.0, Direction.RECIPROCAL),
    (1.0, 5.0, Direction.LCM)])
def test_threshold_cells_count_their_sub_floor_points(alpha, y, direction):
    cert = certify_lcm(HParams(alpha, y), direction, grid=default_grid(y))
    assert cert.verdict is Verdict.PASS and cert.undecided_points == 2
    assert _outcome(cert) == _reference_lcm(HParams(alpha, y), direction, 8,
                                            default_grid(y))


def test_random_cells_match_the_reference_search():
    rng = np.random.default_rng(20261018)
    outcomes = []
    for _ in range(40):
        y = float(rng.uniform(-0.95, 5.0))
        k_max = int(rng.integers(1, 13))
        grid = GridSpec(x_min_offset=(y + 1.0) * 10.0 ** rng.uniform(-4.0, 0.5),
                        x_max=float(10.0 ** rng.uniform(1.5, 3.0)),
                        points=int(rng.integers(20, 121)))
        cells = [(float(rng.uniform(-1.0, 3.0)), d) for d in Direction]
        outcomes += _assert_both_paths_match_reference(y, cells, k_max, grid)
    assert any(w is not None for _, w, _ in outcomes)
    assert any(undecided > 0 for _, _, undecided in outcomes)


@pytest.mark.parametrize("k_max", [8, 12])
def test_higher_order_witnesses_match_the_reference_search(k_max):
    # on x in (0, 2] at y = -0.8 the first derivative keeps its sign for
    # these alphas, so the first violation sits at an order k > 1
    grid = GridSpec(x_min_offset=1.0, x_max=2.0, points=40)
    cells = [(alpha, d) for alpha in (1.75, 2.0, 2.25, 2.5, 2.75, 3.0)
             for d in Direction]
    outcomes = _assert_both_paths_match_reference(-0.8, cells, k_max, grid)
    assert {w[0] for _, w, _ in outcomes if w is not None} >= {2, 3, 4, 5, 6}


@pytest.mark.parametrize("y", _THM3_YS)
@pytest.mark.parametrize("span", [None, 1e-12])
def test_verify_thm3_matches_the_reference_search(y, span):
    x_left = -2.0 * (y + 1.0) ** 2 / (1.0 + 2.0 * y)
    # span: a grid only span * x_left wide, whose steps sink below the floor
    points, x_max = (150, 1e3) if span is None else (30, x_left * (1.0 + span))
    xs = grid_points(GridSpec(x_left + (y + 1.0), x_max, points), y)
    values, scales = q_surface_table(y, xs)
    rows = list(zip(values.tolist(), scales.tolist()))
    undecided, witness = 0, None
    for i, (value, scale) in enumerate(rows):
        if value < 0.0:
            continue
        if abs(value) < NOISE_FLOOR_REL * scale:
            undecided += 1
            continue
        witness = (0, float(xs[i]).hex(), value.hex())
        break
    for i in range(len(rows) - 1 if witness is None else 0):
        step = rows[i + 1][0] - rows[i][0]
        if step < 0.0:
            continue
        if abs(step) < NOISE_FLOOR_REL * max(rows[i][1], rows[i + 1][1]):
            undecided += 1
            continue
        witness = (1, float(xs[i + 1]).hex(), step.hex())
        break
    verdict = Verdict.PASS if witness is None else Verdict.FAIL
    assert _outcome(verify_thm3(y, points, x_max)) == (verdict, witness, undecided)
    assert (undecided > 0) == (span is not None)


@pytest.mark.parametrize("surface,verdict,witness_k,undecided", [
    (lambda x: -(x - 3.0) ** 2 - 1.0, Verdict.FAIL, 1, 0),  # rises up to x = 3
    (lambda x: x - 5.0, Verdict.FAIL, 0, 0),                # positive past x = 5
    (lambda x: -1e-12, Verdict.PASS, None, 19),             # flat: sub-floor steps
])
def test_verify_thm3_search_on_a_stand_in_surface(monkeypatch, surface, verdict,
                                                  witness_k, undecided):
    import gammacert.certify as certify_module
    monkeypatch.setattr(certify_module, "q_surface_table",
                        lambda y, xs: (np.array([surface(x) for x in xs]), np.ones(len(xs))))
    xs = grid_points(GridSpec(0.5, 10.0, 20), -0.75)  # x_left = 0.25 at y = -0.75
    cert = verify_thm3(-0.75, points=20, x_max=10.0)
    assert (cert.verdict, cert.undecided_points) == (verdict, undecided)
    if witness_k == 0:
        i = int(np.argmax(xs > 5.0))
        assert (cert.witness.k, cert.witness.x, cert.witness.value) == (
            0, xs[i], surface(xs[i]))
    elif witness_k == 1:
        assert (cert.witness.k, cert.witness.x, cert.witness.value) == (
            1, xs[1], surface(xs[1]) - surface(xs[0]))


def test_first_violation_order_floor_and_nan(monkeypatch):
    # verify_thm3's margins run k = 0 (q < 0) over the grid, then k = 1 (q
    # decreases) over its steps; failures below the floor before the first
    # conclusive one are counted, and a NaN margin or scale is conclusive
    xs = grid_points(GridSpec(0.5, 10.0, 4), -0.75)  # x_left = 0.25 at y = -0.75
    nan = math.nan
    cases = [
        ([-2.0, -2.0, 1e-12, -1.0], [1.0] * 4, (1, 2, 2.0 + 1e-12), 2),
        ([-1.0, -2.0, -3.0, -4.0], [1.0] * 4, None, 0),
        ([-1e-12] * 4, [1.0] * 4, None, 3),
        ([-1.0, nan, -3.0, -4.0], [1.0] * 4, (0, 1, nan), 0),
        ([1e-12, -2.0, -3.0, -4.0], [nan, 1.0, 1.0, 1.0], (0, 0, 1e-12), 0),
    ]
    for values, scales, witness, undecided in cases:
        monkeypatch.setattr(certify_module, "q_surface_table",
                            lambda y, x: (np.array(values), np.array(scales)))
        cert = verify_thm3(-0.75, points=4, x_max=10.0)
        want = None if witness is None else (
            witness[0], float(xs[witness[1]]).hex(), float(witness[2]).hex())
        assert _outcome(cert) == (
            Verdict.PASS if witness is None else Verdict.FAIL, want, undecided)


# ---------------------------------------------------------------------------
# threshold limits and the q-surface certificate
# ---------------------------------------------------------------------------

def test_necessity_limits_spot_values():
    for y in (-0.5, 0.0, 1.0, 5.0):
        near, far = necessity_limits(y)
        assert abs(near - 1.0 / (y + 1.0)) <= 1e-2 * max(1.0, 1.0 / (y + 1.0))
        assert abs(far - 1.0) <= 1e-3


def test_necessity_limits_validates_y():
    with pytest.raises(Exception):
        necessity_limits(-1.0)


def test_verify_thm3_evaluates_exactly_the_grid_it_reports(monkeypatch):
    import gammacert.certify as certify_module
    seen = []
    table = certify_module.q_surface_table
    monkeypatch.setattr(certify_module, "q_surface_table",
                        lambda y, xs: seen.append((y, xs)) or table(y, xs))
    certs = build_suite("thm3")
    assert [c.params.y for c in certs] == list(_THM3_YS)
    [(ys, stacked)] = seen  # one table for the whole suite
    grids = [grid_points(c.grid, c.params.y) for c in certs]
    assert np.array_equal(np.concatenate(grids), stacked)
    assert np.array_equal(np.repeat(_THM3_YS, [xs.size for xs in grids]), ys)
    for cert, xs in zip(certs, grids):
        y = cert.params.y
        # the grid starts at u = x_left + y + 1: one rounding of u away
        x_left = -2.0 * (y + 1.0) ** 2 / (1.0 + 2.0 * y)
        assert abs(xs[0] - x_left) <= math.ulp(x_left + (y + 1.0))


def test_verify_thm3_passes_inside_its_band():
    cert = verify_thm3(-0.75)
    assert cert.verdict is Verdict.PASS
    assert cert.check == "surface-negativity"
    assert cert.direction is None
    assert cert.params.y == -0.75


def test_verify_thm3_y_validation():
    for bad in (-0.5, -1.0, -0.4, 0.0, math.nan):
        with pytest.raises(ParameterError):
            verify_thm3(bad)


def test_verify_thm3_requires_x_max_beyond_left_endpoint():
    # x_left = -2(y+1)^2/(1+2y) = 24.01 at y = -0.51
    with pytest.raises(ParameterError):
        verify_thm3(-0.51, x_max=20.0)
    assert verify_thm3(-0.51, points=80, x_max=100.0).verdict is Verdict.PASS


def test_verify_thm3_refuses_a_left_end_inside_the_exclusion_zone():
    # x_left = 2.04e-4 at y = -0.99: the grid would start past X_EPSILON and
    # leave [x_left, X_EPSILON) unchecked under a PASS
    with pytest.raises(PrecisionError, match=r"\[2\.041e-04, 0\.001\)"):
        verify_thm3(-0.99)
    # x_left = 1.9e-3 at y = -0.97: every grid point is evaluated
    x_left = -2.0 * 0.03 ** 2 / (1.0 - 2.0 * 0.97)
    assert x_left > X_EPSILON
    cert = verify_thm3(-0.97)
    assert cert.verdict is Verdict.PASS
    assert grid_points(cert.grid, -0.97).size == cert.grid.points


# ---------------------------------------------------------------------------
# conjecture zone, classification, scanning
# ---------------------------------------------------------------------------

def test_in_conjecture_zone_spots():
    assert in_conjecture_zone(0.75, 0.0)
    assert in_conjecture_zone(1.0, 0.0)
    assert not in_conjecture_zone(0.5, 0.0)   # at the lower threshold: outside
    assert not in_conjecture_zone(1.01, 0.0)
    assert not in_conjecture_zone(0.75, -0.6)  # y <= -1/2
    with pytest.raises(DomainError):
        in_conjecture_zone(0.75, -1.5)


def _mk_cert(verdict: Verdict) -> Certificate:
    return Certificate(
        params=HParams(alpha=1.0, y=0.0), direction=Direction.LCM, k_max=8,
        grid=default_grid(0.0), verdict=verdict,
        witness=None if verdict is Verdict.PASS
        else DerivSample(k=1, x=1.0, value=-1.0))


def test_classify_mapping():
    p, f = _mk_cert(Verdict.PASS), _mk_cert(Verdict.FAIL)
    assert classify(p, f, False) is Classification.LCM
    assert classify(f, p, False) is Classification.RECIPROCAL
    assert classify(f, p, True) is Classification.UNDECIDED
    assert classify(f, f, False) is Classification.NEITHER
    assert classify(p, p, False) is Classification.UNDECIDED


def test_scan_values_spot_classifications():
    cells = scan_values([0.0, 0.75, 1.0, 2.0], [0.0], k_max=6, points=80,
                        x_max=100.0)
    by_alpha = {c.alpha: c for c in cells}
    assert by_alpha[2.0].classification is Classification.LCM
    assert by_alpha[1.0].classification is Classification.LCM
    assert by_alpha[0.0].classification is Classification.RECIPROCAL
    zone_cell = by_alpha[0.75]
    assert zone_cell.classification is Classification.UNDECIDED
    assert zone_cell.conjecture_zone
    assert zone_cell.reciprocal_violation is not None
    assert by_alpha[0.0].reciprocal_violation is None


def test_scan_values_is_y_major():
    cells = scan_values([0.0, 2.0], [0.0, 1.0], k_max=4, points=40,
                        x_max=50.0)
    assert [(c.alpha, c.y) for c in cells] == [
        (0.0, 0.0), (2.0, 0.0), (0.0, 1.0), (2.0, 1.0)]


def test_classification_is_monotone_along_alpha():
    # along increasing alpha at fixed y, the grid classification moves
    # RECIPROCAL -> (UNDECIDED zone) -> LCM without reversals
    alphas = [0.1, 0.3, 0.5, 0.75, 1.0, 1.5, 2.0]
    cells = scan_values(alphas, [0.0], k_max=6, points=60, x_max=100.0)
    ranks = {Classification.RECIPROCAL: 0, Classification.UNDECIDED: 1,
             Classification.NEITHER: 1, Classification.LCM: 2}
    seq = [ranks[c.classification] for c in cells]
    assert seq == sorted(seq)


# ---------------------------------------------------------------------------
# alpha cuts: the scanner's row pass, the certificates and the referee search
# ---------------------------------------------------------------------------

ROW_YS = (-0.95, -0.5, 0.0, 1.0, 5.0)


def _row_alphas(y):
    """Negatives, 0, both Theorem 1 thresholds exactly and +-1e6."""
    return [-1e6, -3.0, -0.5, 0.0, reciprocal_threshold(y), 0.75, 1.0,
            lcm_threshold(y), 2.5, 1e6]


def _reference_scan(alphas, ys, k_max, points, x_max):
    cells = []
    for y in ys:
        certify = lcm_certifier(y, k_max, default_grid(y, points=points, x_max=x_max))
        for alpha in alphas:
            lcm, rec = certify(alpha, Direction.LCM), certify(alpha, Direction.RECIPROCAL)
            zone = in_conjecture_zone(alpha, y)
            cells.append(ScanCell(alpha, y, classify(lcm, rec, zone), zone,
                                  (rec.verdict is Verdict.FAIL) if zone else None))
    return cells


@pytest.mark.parametrize("y", ROW_YS)
@pytest.mark.parametrize("k_max", [1, 8, 12])
def test_row_pass_matches_one_alpha_certificates(y, k_max):
    # scan_values' row pass classifies as the certificates do, and at these
    # alphas each certificate is the referee search's, witness bits included
    alphas = _row_alphas(y)
    for points in (2, 57, 200):
        grid = default_grid(y, points=points)
        assert scan_values(alphas, [y], k_max, points) == _reference_scan(
            alphas, [y], k_max, points, grid.x_max)
        certify = lcm_certifier(y, k_max, grid)
        search = referee.search_certifier(y, k_max, grid)
        for alpha in alphas:
            for direction in Direction:
                assert _outcome(certify(alpha, direction)) == _outcome(
                    search(alpha, direction)), (alpha, y, direction, points)


@settings(max_examples=25)
@given(y=st.sampled_from(ROW_YS), k_max=st.sampled_from([1, 8, 12]),
       points=st.sampled_from([2, 57, 200]),
       alphas=st.lists(st.floats(min_value=-5.0, max_value=5.0), max_size=12))
def test_row_pass_matches_certificates_on_drawn_alphas(y, k_max, points, alphas):
    assert scan_values(alphas, [y], k_max, points) == _reference_scan(
        alphas, [y], k_max, points, default_grid(y).x_max)


@pytest.mark.parametrize("k_max,points,x_max", [
    (8, 200, 1e3), (4, 57, 80.0), (1, 2, 1e3), (12, 200, 1e3)])
def test_scan_values_matches_two_certificates_per_cell(k_max, points, x_max):
    ys = [*ROW_YS, -0.7, 0.7]
    alphas = [0.05 * i for i in range(-4, 45)] + [0.5, 2.0 / 3.0, 1.0 / 6.0]
    cells = scan_values(alphas, ys, k_max, points, x_max)
    assert cells == _reference_scan(alphas, ys, k_max, points, x_max)
    assert {c.classification for c in cells} == set(Classification)
    assert all(type(c.conjecture_zone) is bool for c in cells)


def _ulps(value: float, steps: int) -> float:
    """value moved by steps units in the last place (down for steps < 0)."""
    for _ in range(abs(steps)):
        value = math.nextafter(value, math.copysign(math.inf, steps))
    return value


@pytest.mark.parametrize("k_max,points,x_max", [(8, 200, 1e3), (1, 2, 1e3), (12, 57, 80.0)])
@pytest.mark.parametrize("y", [-0.95, -0.7, -0.5, 0.0, 0.7, 5.0])
def test_scan_values_agrees_with_certify_at_its_cuts(y, k_max, points, x_max):
    # the cuts are the verdicts: every ulp offset -8..8 of a cut lands on
    # the side of the cut that certify and scan_values both report
    grid = default_grid(y, points, x_max)
    (lcm_cut, _, _), (rec_cut, _, _) = grid_cuts(y, k_max, grid)
    alphas = [_ulps(cut, n) for cut in (lcm_cut, rec_cut) for n in range(-8, 9)]
    certify = lcm_certifier(y, k_max, grid)
    assert [certify(a, Direction.LCM).verdict is Verdict.FAIL for a in alphas] == [
        a <= lcm_cut for a in alphas]
    assert [certify(a, Direction.RECIPROCAL).verdict is Verdict.FAIL for a in alphas] == [
        a >= rec_cut for a in alphas]
    assert scan_values(alphas, [y], k_max, points, x_max) == _reference_scan(
        alphas, [y], k_max, points, x_max)


def test_a_row_whose_cuts_overflow_raises_naming_y(monkeypatch):
    # a stand-in table whose cuts leave binary64 (c/b = 10/1e-308 at k = 1);
    # no table of the package has shown one: the table build raises first
    def overflowing(k_max, y, xs):
        table = logh_deriv_table(k_max, y, xs)
        return DerivTable(y, np.full_like(table.core, 10.0), table.core_scale,
                          np.full_like(table.u_pow, 1e308), table.alpha_coef)

    monkeypatch.setattr(certify_module, "logh_deriv_table", overflowing)
    grid = default_grid(0.0, points=40, x_max=50.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning either
        for build in (lambda: scan_values([-0.5, 0.1, 0.6, 1.5], [0.0], 4, 40, 50.0),
                      lambda: lcm_certifier(0.0, 4, grid), lambda: grid_cuts(0.0, 4, grid)):
            with pytest.raises(CapabilityError) as info:
                build()
            assert str(info.value) == (
                "the alpha cuts of (ln h)^(k) for k <= 4 at y=0.0 lie outside the "
                "double-precision range")


@pytest.mark.parametrize("y", [-0.95, 0.0, 5.0])
@pytest.mark.parametrize("k_max", [1, 8, 12])
def test_tables_raise_before_their_cuts_overflow(y, k_max):
    # up to x_max = 1e300 a table either has finite cuts or names the value
    # it cannot hold (the table's or the kernel's own CapabilityError)
    for x_max in (1e3, 1e10, 1e30, 1e100, 1e150, 1e200, 1e300):
        try:
            cuts = grid_cuts(y, k_max, default_grid(y, x_max=x_max))
        except CapabilityError as error:
            assert "alpha cuts" not in str(error), (x_max, str(error))
        else:
            assert all(math.isfinite(cut) for cut, _, _ in cuts), x_max


@settings(max_examples=30, deadline=None)
@given(y=st.floats(min_value=-0.99, max_value=8.0), k_max=st.sampled_from([1, 3, 8, 12]),
       points=st.sampled_from([2, 57, 200]),
       alphas=st.lists(st.floats(min_value=-3.0, max_value=4.0), max_size=8),
       bands=st.lists(st.tuples(st.integers(min_value=0), st.floats(0.0, 1.0)),
                      max_size=6))
def test_certificates_match_the_referee_search(y, k_max, points, alphas, bands):
    # bands: alphas between a drawn point's LCM cut and raw root, or raw root
    # and RECIPROCAL cut, where that point is undecided
    grid = default_grid(y, points=points)
    table = logh_deriv_table(k_max, y, grid_points(grid, y))
    cuts = certify_module._alpha_cuts(table).reshape(3, -1)
    for i, t in bands:
        lcm, rec, root = cuts[:, i % cuts.shape[1]]
        alphas = alphas + [lcm + t * (root - lcm), root + t * (rec - root)]
    alphas = alphas + [reciprocal_threshold(y), lcm_threshold(y)]
    # rounding in the search decides within about 1e-14 (relative to the
    # point's cuts and raw root) of a cut or raw root: keep clear of those
    tolerance = 1e-13 * np.abs(cuts).sum(axis=0) + 1e-300
    certify = lcm_certifier(y, k_max, grid)
    search = referee.search_certifier(y, k_max, grid)
    for alpha in [a for a in alphas if (np.abs(cuts - a) > tolerance).all()]:
        for direction in Direction:
            assert _outcome(certify(alpha, direction)) == _outcome(
                search(alpha, direction)), (alpha, y, direction)


@settings(max_examples=30, deadline=None)
@given(y=st.floats(min_value=-0.99, max_value=8.0), k_max=st.sampled_from([1, 3, 8, 12]),
       points=st.sampled_from([2, 57, 200]),
       alphas=st.lists(st.floats(min_value=-3.0, max_value=4.0), max_size=8),
       offsets=st.lists(st.floats(min_value=1e-13, max_value=1e-3).flatmap(
           lambda e: st.sampled_from([e, -e])), max_size=8))
def test_grid_cuts_split_the_search_verdicts(y, k_max, points, alphas, offsets):
    grid = default_grid(y, points=points)
    (lcm_cut, lcm_k, lcm_x), (rec_cut, rec_k, rec_x) = grid_cuts(y, k_max, grid)
    xs = grid_points(grid, y)
    assert lcm_x in xs.tolist() and rec_x in xs.tolist() and 1 <= lcm_k <= k_max
    near = [cut * (1.0 + e) for cut in (lcm_cut, rec_cut) for e in offsets]
    alphas = [a for a in alphas + near
              if min(abs(a - lcm_cut), abs(a - rec_cut)) > 1e-13 * (abs(a) + 1e-300)]
    search = referee.search_certifier(y, k_max, grid)
    assert [search(a, Direction.LCM).verdict is Verdict.FAIL for a in alphas] == [
        a <= lcm_cut for a in alphas]
    assert [search(a, Direction.RECIPROCAL).verdict is Verdict.FAIL for a in alphas] == [
        a >= rec_cut for a in alphas]


@pytest.mark.parametrize("alphas,ys,kwargs,error,message", [
    ([0.5, math.inf], [0.0], {}, DomainError, "alpha must be finite, got inf"),
    ([-math.nan], [1.0], {}, DomainError, "alpha must be finite, got nan"),
    # y is checked by the HParams rule before its grid is built
    ([0.5], [-1.0], {}, DomainError, "y must be a finite real > -1, got -1.0"),
    ([0.5], [math.nan], {}, DomainError, "y must be a finite real > -1, got nan"),
    ([0.5], ["abc"], {}, DomainError, "y must be a real number, got 'abc'"),
    # a bad y comes before a bad alpha
    ([math.inf], [-2.0], {}, DomainError, "y must be a finite real > -1, got -2.0"),
    ([0.5], [0.0], {"k_max": 0}, ParameterError,
     "k_max must be an integer in 1..12, got 0"),
    ([0.5], [0.0], {"k_max": 13}, ParameterError,
     "k_max must be an integer in 1..12, got 13"),
    ([], [0.0], {"k_max": True}, ParameterError,
     "k_max must be an integer in 1..12, got True"),
    # a bad y after a good one
    ([0.5], [0.0, -1.5], {}, DomainError, "y must be a finite real > -1, got -1.5"),
    # the first bad y, whichever rule it breaks
    ([0.5], [-2.0, "a"], {}, DomainError, "y must be a finite real > -1, got -2.0"),
    # every argument is checked before the y loop, so no y is needed to refuse one
    ([math.inf], [], {}, DomainError, "alpha must be finite, got inf"),
    ([0.5], [], {"k_max": 99}, ParameterError, "k_max must be an integer in 1..12, got 99"),
    ([0.5], [], {"points": 1}, ParameterError, "points must be an integer >= 2, got 1"),
    ([0.5], [], {"x_max": -5.0}, ParameterError,
     "x_max must be a finite real > 0.001 for a grid on both sides of x = 0, got -5.0"),
    # in the order one y's grid and table check them
    ([math.inf], [], {"k_max": 0, "points": 1, "x_max": math.nan}, ParameterError,
     "x_max must be a finite real > 0.001 for a grid on both sides of x = 0, got nan"),
    ([math.inf], [0.0], {"k_max": 0, "points": 1}, ParameterError,
     "points must be an integer >= 2, got 1"),
    ([math.inf], [], {"k_max": 0}, ParameterError, "k_max must be an integer in 1..12, got 0"),
])
def test_scan_values_errors(alphas, ys, kwargs, error, message):
    with pytest.raises(error) as info:
        scan_values(alphas, ys, **kwargs)
    assert type(info.value) is error and str(info.value) == message


def test_huge_alphas_leave_certificates_but_not_scans():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning either
        for alpha in (1e308, -1e308):
            for direction in Direction:
                with pytest.raises(CapabilityError) as info:
                    certify_lcm(HParams(alpha, 0.0), direction)
                assert f" at alpha={alpha!r}, y=0.0 " in str(info.value)
        cells = scan_values([1e308, -1e308], [0.0, 5.0])
    assert [c.classification for c in cells] == [
        Classification.LCM, Classification.RECIPROCAL] * 2


def test_scan_values_of_no_cells():
    assert scan_values([], [0.0, 1.0]) == []
    assert scan_values([0.5, 1.0], []) == []


# ---------------------------------------------------------------------------
# finite-difference cross-check
# ---------------------------------------------------------------------------

def test_finite_diff_crosscheck_spot_residuals():
    assert finite_diff_crosscheck(1, HParams(alpha=1.0, y=0.0), 1.0,
                                  step=1e-5) <= 1e-6
    assert finite_diff_crosscheck(2, HParams(alpha=2.0, y=1.0), 3.0,
                                  step=1e-4) <= 1e-6
    assert finite_diff_crosscheck(1, HParams(alpha=0.0, y=0.0), 10.0,
                                  step=1e-5) <= 1e-6


def test_finite_diff_crosscheck_validation():
    p = HParams(alpha=1.0, y=0.0)
    for bad in (0, 5, True, 2.5):
        with pytest.raises(ParameterError):
            finite_diff_crosscheck(bad, p, 1.0)
    with pytest.raises(ParameterError):
        finite_diff_crosscheck(1, p, 1.0, step=0.0)
    with pytest.raises(ParameterError):
        finite_diff_crosscheck(1, p, 1.0, step=-1e-5)
