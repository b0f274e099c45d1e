"""Tests for the grid certifiers, scanner, and classification logic."""

from __future__ import annotations

import math

import numpy as np
import pytest

from gammacert import (
    Certificate,
    Classification,
    Direction,
    GridSpec,
    HParams,
    ParameterError,
    Verdict,
    certify_lcm,
    classify,
    default_grid,
    finite_diff_crosscheck,
    grid_points,
    in_conjecture_zone,
    lcm_certifier,
    logh_derivs_with_scale,
    necessity_limits,
    q_surface_with_scale,
    scan_values,
    verify_thm3,
)
from gammacert.certify import NOISE_FLOOR_REL, _first_violation
from gammacert.cli import _NECESSITY_YS, _SUFFICIENCY_DELTAS, _SUFFICIENCY_YS, _THM3_YS
from gammacert.hfamily import DerivSample, lcm_threshold, reciprocal_threshold

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


def test_grid_points_cover_both_sub_domains():
    xs = grid_points(default_grid(0.0, points=100), 0.0)
    assert xs[0] == pytest.approx(-1.0 + 1e-4, rel=1e-12)
    assert xs[-1] == pytest.approx(1e3, rel=1e-12)
    assert (xs[:-1] < xs[1:]).all()
    assert (abs(xs) >= 1e-3).all()
    assert (xs < 0).any() and (xs > 0).any()


def test_grid_points_empty_or_inverted():
    with pytest.raises(ParameterError):
        grid_points(GridSpec(x_min_offset=50.0, x_max=10.0), 0.0)


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
    grid = (default_grid(y, points=150) if span is None else
            GridSpec(x_min_offset=1e-4, x_max=x_left * (1.0 + span), points=30))
    xs = np.geomspace(x_left, grid.x_max, grid.points)
    rows = [q_surface_with_scale(float(x), y) for x in xs]
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
    assert _outcome(verify_thm3(y, grid=grid)) == (verdict, witness, undecided)
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
    grid = GridSpec(x_min_offset=1e-4, x_max=10.0, points=20)
    xs = np.geomspace(0.25, 10.0, 20)  # x_left = 0.25 at y = -0.75
    cert = verify_thm3(-0.75, grid=grid)
    assert (cert.verdict, cert.undecided_points) == (verdict, undecided)
    if witness_k == 0:
        i = int(np.argmax(xs > 5.0))
        assert (cert.witness.k, cert.witness.x, cert.witness.value) == (
            0, xs[i], surface(xs[i]))
    elif witness_k == 1:
        assert (cert.witness.k, cert.witness.x, cert.witness.value) == (
            1, xs[1], surface(xs[1]) - surface(xs[0]))


def test_first_violation_order_floor_and_nan():
    scale = np.ones((2, 3))
    # C order: row k = 1 first; sub-floor entries before the hit are counted
    margin = np.array([[1.0, -1e-12, 0.0], [-1e-12, -1.0, -1e-12]])
    assert _first_violation(margin, scale) == (4, 3)
    assert _first_violation(np.abs(margin) + 1.0, scale) == (None, 0)
    assert _first_violation(np.array([-1e-12, -1e-12]), np.ones(2)) == (None, 2)
    assert _first_violation(np.array([1.0, math.nan, -1.0]), np.ones(3)) == (1, 0)
    assert _first_violation(np.array([-1e-12, 1.0]),
                            np.array([math.nan, 1.0])) == (0, 0)


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
        verify_thm3(-0.51, grid=GridSpec(x_min_offset=1e-4, x_max=20.0))
    assert verify_thm3(-0.51, grid=GridSpec(
        x_min_offset=1e-4, x_max=100.0, points=80)).verdict is Verdict.PASS


# ---------------------------------------------------------------------------
# conjecture zone, classification, scanning
# ---------------------------------------------------------------------------

def test_in_conjecture_zone_spots():
    assert in_conjecture_zone(0.75, 0.0)
    assert in_conjecture_zone(1.0, 0.0)
    assert not in_conjecture_zone(0.5, 0.0)   # at the lower threshold: outside
    assert not in_conjecture_zone(1.01, 0.0)
    assert not in_conjecture_zone(0.75, -0.6)  # y <= -1/2


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
