"""Acceptance gate: twelve release criteria, one test per criterion.

Each test states its full tolerance inline; the terminal summary section
"acceptance criteria" prints one PASS/FAIL line per criterion (see conftest).
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

import _oracle as oracle
from gammacert import (
    AuxFn,
    Direction,
    HParams,
    Verdict,
    aux_eval,
    ball_ratio_checks,
    build_report,
    certify_lcm,
    default_grid,
    digamma,
    finite_diff_crosscheck,
    lngamma,
    necessity_limits,
    polygamma,
    psi_log_bounds,
    polygamma_bounds,
    qcub_root,
    recurrence_check,
    result_status,
    thm2_ineq,
    verify_thm3,
)
from gammacert.cli import main
from gammacert.suites import ratio_samples


def test_c01_kernel_accuracy_against_oracle():
    start = time.perf_counter()
    worst = 0.0
    for x in np.geomspace(1e-2, 1e3, 50):
        x = float(x)
        pairs = [(lngamma(x), oracle.lngamma(x)),
                 (digamma(x), oracle.digamma(x))]
        pairs += [(polygamma(k, x), oracle.polygamma(k, x))
                  for k in range(1, 7)]
        for got, ref in pairs:
            ref = float(ref)
            worst = max(worst, abs(got - ref) / max(abs(ref), 1e-300))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10
    assert elapsed < 5.0


def test_c02_lemma_suites_hold_with_positive_margin():
    for x in np.geomspace(1e-2, 1e3, 200):
        x = float(x)
        rows = psi_log_bounds(x)
        for k in range(1, 7):
            rows += polygamma_bounds(k, x)
        for r in rows:
            assert r.margin > 0.0, (r.name, x, r.margin)
            assert result_status(r) != "failed", (r.name, x)


def test_c03_sufficiency_certificates_pass():
    start = time.perf_counter()
    for y in (-0.9, -0.5, 0.0, 1.0, 5.0):
        grid = default_grid(y, points=200)
        for delta in (0.0, 0.5, 2.0):
            lcm = certify_lcm(HParams(alpha=max(1.0, 1.0 / (y + 1.0)) + delta,
                                      y=y),
                              Direction.LCM, k_max=8, grid=grid)
            rec = certify_lcm(HParams(alpha=min(1.0, 0.5 / (y + 1.0)) - delta,
                                      y=y),
                              Direction.RECIPROCAL, k_max=8, grid=grid)
            assert lcm.verdict is Verdict.PASS, (y, delta)
            assert rec.verdict is Verdict.PASS, (y, delta)
    assert time.perf_counter() - start < 30.0


def test_c04_necessity_failures_carry_witnesses():
    for y in (-0.5, 0.0, 1.0):
        alpha = max(1.0, 1.0 / (y + 1.0)) - 0.1
        cert = certify_lcm(HParams(alpha=alpha, y=y), Direction.LCM,
                           k_max=8, grid=default_grid(y, points=200))
        assert cert.verdict is Verdict.FAIL, y
        assert cert.witness is not None
        assert cert.witness.k >= 1
        assert math.isfinite(cert.witness.x)
        assert cert.witness.value <= 0.0


def test_c05_necessity_limit_values():
    for y in (-0.5, 0.0, 1.0, 5.0):
        near, far = necessity_limits(y)
        assert abs(near - 1.0 / (y + 1.0)) <= 1e-2
        assert abs(far - 1.0) <= 1e-3


def test_c06_difference_quotient_bound():
    for t in np.geomspace(1e-4, 1e3, 300):
        r = thm2_ineq(float(t))
        assert r.holds and r.margin > 0.0, t
    margin_1 = thm2_ineq(1.0).margin
    assert abs(margin_1 - 0.099) <= 0.005
    assert abs(margin_1 - float(oracle.thm2_margin(1))) <= 1e-12


def test_c07_auxiliary_spot_values_and_root():
    assert aux_eval(AuxFn.QCUB, 0.0) == -3.0
    assert aux_eval(AuxFn.QCUB, 1.0) == 14.0
    assert abs(aux_eval(AuxFn.QCUB, 1.0 / 3.0) - (-2.0 / 3.0)) <= 1e-12
    ref = -700.0 / 81.0
    assert abs(aux_eval(AuxFn.HPOLY, 1.0 / 3.0) - ref) <= 1e-12 * abs(ref)
    ref = -404759.0 / 117649.0
    assert abs(aux_eval(AuxFn.HPOLY, 8.0 / 7.0) - ref) <= 1e-12 * abs(ref)
    assert 0.002 < aux_eval(AuxFn.QLOG, 8.0 / 7.0) < 0.003
    root = qcub_root(tol=1e-10)
    assert 1.0 / 3.0 < root < 1.0
    assert abs(aux_eval(AuxFn.QCUB, root)) <= 1e-8
    for t in np.linspace(1.0 / 3.0, 8.0 / 7.0, 102)[1:-1]:
        assert aux_eval(AuxFn.HPOLY, float(t)) < 0.0, t


def test_c08_surface_negativity_certificates():
    for y in (-0.9, -0.75, -0.6, -0.51):
        cert = verify_thm3(y)
        assert cert.grid.points == 200
        assert cert.verdict is Verdict.PASS, y


def test_c09_ball_volume_inequalities():
    for n in range(1, 61):
        rows = ball_ratio_checks(n)
        for r in rows:
            assert r.holds, (n, r.name)
        if n >= 3:
            assert rows[3].name == "ball_adjacent_refines_sandwich"
            assert rows[3].holds
    for n in range(2, 101):
        r = recurrence_check(n)
        assert r.holds
        assert abs(dict(r.inputs)["mid"]) <= 1e-12


def test_c10_randomized_gamma_ratio_window():
    rows = ratio_samples(1000)
    assert len(rows) == 1000
    assert all(r.holds for r in rows)


def test_c11_finite_difference_crosscheck():
    params = [HParams(alpha=1.0, y=0.0), HParams(alpha=0.5, y=1.0),
              HParams(alpha=2.0, y=-0.5), HParams(alpha=0.0, y=0.25),
              HParams(alpha=1.5, y=2.0)]
    xs = (0.7, 1.5, 4.0, 12.0)
    points = [(p, x) for p in params for x in xs]
    assert len(points) == 20
    for p, x in points:
        for k in range(1, 5):
            assert finite_diff_crosscheck(k, p, x, step=1e-4) <= 1e-6, (p, x, k)


def test_c12_end_to_end_cli(tmp_path):
    out = tmp_path / "all.json"
    start = time.perf_counter()
    assert main(["verify", "--suite", "all", "--out", str(out)]) == 0
    assert time.perf_counter() - start < 60.0
    report = json.loads(out.read_text())
    assert report["summary"]["failed"] == 0
    fault_out = tmp_path / "fault.json"
    assert main(["verify", "--suite", "selftest-fault",
                 "--out", str(fault_out)]) == 1
