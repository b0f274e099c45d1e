"""The verification suites of ``gammacert verify``, one builder per name.

Each builder takes (k_max, points, x_max), ignores what it does not use, and
returns a CheckTable or the parts of ``report.Results.of``.  The CLI holds
the ordered tuple of suite names and imports this module the first time it
builds a suite, so a scan never loads the check catalogue.  Every suite
runs the catalogue (``ineq``); a builder imports any other engine it calls
itself (``certify`` for thm1, thm3 and aux, ``ballvol`` for ball), so a
process compiles only the engines of the suites it builds.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .checks import Certificate, CheckResult, CheckTable, Direction, HParams, Verdict
from .errors import ParameterError, as_integer, log_grid
from .gammakit import libm
from .ineq import (
    CHAIN_SUP,
    AuxFn,
    aux_eval,
    batir_ineq,
    gamma_ratio_ineq,
    lemma_windows,
    log_upper_bound_ineq,
    one_sided,
    one_sided_rows,
    psi_integral_mean_ineq,
    qcub_root,
    suffice_chain,
    thm2_ineq,
    two_sided,
)

__all__ = ["aux", "ball", "lemmas", "ratio_samples", "selftest_fault", "thm1", "thm2",
           "thm3"]

RATIO_SAMPLE_SEED = 20260815

SUFFICIENCY_YS = (-0.9, -0.5, 0.0, 1.0, 5.0)
SUFFICIENCY_DELTAS = (0.0, 0.5, 2.0)
NECESSITY_YS = (-0.5, 0.0, 1.0)
LIMIT_YS = (-0.5, 0.0, 1.0, 5.0)
THM3_YS = (-0.9, -0.75, -0.6, -0.51)


def lemmas(k_max: int, points: int, x_max: float) -> CheckTable:
    """The 17 lemma windows of lemma_windows at each point of the log grid
    [1e-2, x_max], each x's rows in turn, built in one pass."""
    if not (math.isfinite(x_max) and x_max > 1e-2):
        raise ParameterError(
            f"x_max must be a finite real > 1e-2 for the lemma grid [1e-2, x_max], "
            f"got {x_max!r}")
    return lemma_windows(log_grid(1e-2, x_max, points))


def _expected_failure_check(cert: Certificate) -> CheckResult:
    """Wrap an expected-FAIL certificate: holds iff the verdict is FAIL."""
    inputs = [("alpha", cert.params.alpha), ("y", cert.params.y)]
    size = 0.0
    if cert.witness is not None:
        size = abs(cert.witness.value)
        inputs += [("witness_k", cert.witness.k),
                   ("witness_x", cert.witness.x),
                   ("witness_value", cert.witness.value)]
    return CheckResult(name="lcm_certificate_fails_below_threshold",
                       inputs=inputs,
                       lhs=0.0, rhs=size, margin=size,
                       holds=cert.verdict is Verdict.FAIL, strict=True)


def _integer(value, name: str) -> int:
    n = as_integer(value)
    if n is None or n < 0:
        raise ParameterError(f"{name} must be an integer >= 0, got {value!r}")
    return n


def ratio_samples(count: int, seed: int = RATIO_SAMPLE_SEED) -> CheckTable:
    """Seeded random admissible (x, y, t) samples of the gamma-ratio window.

    count and seed are integers >= 0 (ParameterError otherwise).  The
    candidates come from np.random.default_rng(seed)'s PCG64 stream,
    reproduced in gammacert._pcg64, in batches of one uniform draw of shape
    (m, 3): row i is candidate i's (y, log10 t, log10(x + y + 1)), in the
    order of one scalar draw after another, and the first count admissible
    candidates are checked in one call.
    """
    points = _ratio_points(_integer(count, "count"), _integer(seed, "seed"))
    return gamma_ratio_ineq(*map(np.array, points))


@functools.lru_cache(maxsize=8)  # a pure function of (count, seed): drawn once
def _ratio_points(count: int, seed: int) -> tuple[tuple[float, ...], ...]:
    """The (xs, ys, ts) of ratio_samples(count, seed)."""
    from ._pcg64 import PCG64  # compiled only where thm1 runs

    stream = PCG64(seed)
    xs: list[float] = []
    ys: list[float] = []
    ts: list[float] = []
    while len(xs) < count:
        for y, t_exp, u_exp in stream.uniform((-0.9, -2.0, -2.0), (5.0, 2.0, 3.0),
                                              count - len(xs)):
            t = 10.0 ** t_exp
            x = 10.0 ** u_exp - (y + 1.0)  # u1 = x + y + 1
            if abs(x) < 1e-2 or abs(x + t) < 1e-2:
                continue  # keep the difference quotients well conditioned
            xs.append(x)
            ys.append(y)
            ts.append(t)
    return tuple(xs[:count]), tuple(ys[:count]), tuple(ts[:count])


def thm1(k_max: int, points: int, x_max: float) -> list:
    from .certify import default_grid, lcm_certifier, necessity_limits
    from .hfamily import lcm_threshold, reciprocal_threshold

    out: list = []
    # one table for every y; the necessity cells reuse the sufficiency certifiers
    certifiers = dict(zip(SUFFICIENCY_YS, lcm_certifier(
        SUFFICIENCY_YS, k_max,
        [default_grid(y, points=points, x_max=x_max) for y in SUFFICIENCY_YS])))
    for y, certify in certifiers.items():
        for delta in SUFFICIENCY_DELTAS:
            out.append(certify(lcm_threshold(y) + delta, Direction.LCM))
            out.append(certify(reciprocal_threshold(y) - delta, Direction.RECIPROCAL))
    for y in NECESSITY_YS:
        cert = certifiers[y](lcm_threshold(y) - 0.1, Direction.LCM)
        out.append(_expected_failure_check(cert))
    for y, (inner, tail) in zip(LIMIT_YS, necessity_limits(LIMIT_YS)):
        for name, estimate, target, tol in (
                ("alpha_threshold_left_endpoint_limit", inner, 1.0 / (y + 1.0), 1e-2),
                ("alpha_threshold_tail_limit", tail, 1.0, 1e-3)):
            out.append(one_sided(name, (("y", y), ("estimate", estimate),
                                        ("target", target), ("tolerance", tol)),
                                 abs(estimate - target), tol, strict=False))
    out.append(ratio_samples(200))
    return out


def thm2(k_max: int, points: int, x_max: float) -> CheckTable:
    return thm2_ineq(np.geomspace(1e-4, 1e3, 300))


def thm3(k_max: int, points: int, x_max: float) -> list[Certificate]:
    from .certify import verify_thm3

    return verify_thm3(THM3_YS, points, x_max)


def ball(k_max: int, points: int, x_max: float) -> CheckTable:
    from .ballvol import ball_ratio_checks, recurrence_check

    return ball_ratio_checks(range(1, 61)) + recurrence_check(range(2, 101))


def aux(k_max: int, points: int, x_max: float) -> CheckTable:
    from .certify import finite_diff_crosschecks

    out: list = []  # tables and single rows, joined at the end
    third = 1.0 / 3.0

    # exact spot values of the auxiliary polynomials (abs tol for the cubic,
    # rel tol for the sextic whose values are O(1)..O(10))
    spots = (
        ("aux_cubic_spot_value", AuxFn.QCUB, (0.0, 1.0, third),
         (-3.0, 14.0, -2.0 / 3.0), (1e-12,) * 3),
        ("aux_polynomial_spot_value", AuxFn.HPOLY, (third, CHAIN_SUP),
         (-700.0 / 81.0, -404759.0 / 117649.0),
         (1e-12 * (700.0 / 81.0), 1e-12 * (404759.0 / 117649.0))))
    for name, fn, ts, expected, tol in spots:
        values = aux_eval(fn, np.array(ts))
        out.append(one_sided_rows(name, (("t", ts), ("expected", expected),
                                         ("value", values), ("tolerance", tol)),
                                  abs(values - expected), tol, strict=False))

    # the logarithmic helper is barely positive at t = 8/7 ...
    out.append(two_sided("aux_qlog_band", (("t", CHAIN_SUP),),
                         0.002, aux_eval(AuxFn.QLOG, CHAIN_SUP), 0.003))
    # ... positive from there on, and increasing beyond t = 1/4
    ts = np.geomspace(CHAIN_SUP, 1e3, 100)
    out.append(one_sided_rows("aux_qlog_positive_from_chain_sup", (("t", ts),),
                              0.0, aux_eval(AuxFn.QLOG, ts)))
    ts = np.geomspace(0.26, 1e3, 100)
    values = aux_eval(AuxFn.QLOG, ts)
    out.append(one_sided_rows("aux_qlog_increasing_beyond_quarter",
                              (("t_lo", ts[:-1]), ("t_hi", ts[1:])), values[:-1],
                              values[1:]))

    # cubic root bracket and residual
    root = qcub_root(1e-10)
    out.append(two_sided("aux_cubic_root_bracket",
                         (("root", root),), third, root, 1.0))
    out.append(one_sided("aux_cubic_root_residual",
                         (("root", root),),
                         abs(aux_eval(AuxFn.QCUB, root)), 1e-8, strict=False))

    # the sextic stays negative across the open chain interval
    ts = np.linspace(third, CHAIN_SUP, 102)[1:-1]
    out.append(one_sided_rows("aux_polynomial_negative_interior", (("t", ts),),
                              aux_eval(AuxFn.HPOLY, ts), 0.0))

    # chained sufficiency inequalities across (0, 8/7)
    out.append(suffice_chain(np.geomspace(1e-3, CHAIN_SUP * (1.0 - 1e-9), 100)))

    # digamma-at-log-mean bound, printed product form, on its worked pairs
    # (the product form does not hold for arbitrary pairs; see the quotient
    # reading exposed in the result inputs)
    out.append(batir_ineq(np.array([2.0, 1.0, 1.0]), np.array([1.0, 2.0, third])))

    # mean-value windows for integral means of psi and psi' on worked pairs
    # (p = -i-1, q = -i) ...
    s = np.array([0.5, 1.0, 2.0, 0.25])
    t = np.array([2.5, 3.0, 7.0, 0.75])
    out.append(psi_integral_mean_ineq(0, s, t, p=-1.0, q=0.0))
    # ... and along the chain's own pairs s = 2t^2/((2t+1)ln(2t+1)) < t,
    # whose p = -2 lower point is exactly the chain's sqrt evaluation point
    ts = np.geomspace(1e-2, 1e2, 100)
    w = (2.0 * ts + 1.0) * libm(math.log1p, 2.0 * ts)
    out.append(psi_integral_mean_ineq(1, np.concatenate([s, 2.0 * ts * ts / w]),
                                      np.concatenate([t, ts]), p=-2.0, q=-1.0))

    # rational upper bound for ln(1+t)
    out.append(log_upper_bound_ineq(np.geomspace(1e-2, 1e3, 200)))

    # closed-form derivatives against central finite differences
    fd_cases = (
        (1, 1.0, 0.0, 1.0, 1e-5),
        (2, 2.0, 1.0, 3.0, 1e-4),
        (3, 0.5, -0.5, 2.0, 1e-4),
        (4, 1.5, 0.0, 5.0, 1e-3),
        (1, 0.0, 0.0, 10.0, 1e-5),
        (2, 1.0, 4.0, 0.5, 1e-4),
    )
    residuals = finite_diff_crosschecks([(k, HParams(alpha, y), x, step)
                                         for k, alpha, y, x, step in fd_cases])
    for (k, alpha, y, x, step), residual in zip(fd_cases, residuals):
        out.append(one_sided(
            "logh_derivative_matches_finite_difference",
            (("k", k), ("alpha", alpha), ("y", y), ("x", x),
             ("step", step), ("residual", residual)),
            residual, 1e-6, strict=False))
    return CheckTable.concat(out)


def selftest_fault(k_max: int, points: int, x_max: float) -> list[CheckResult]:
    """One check that holds and one deliberately false one, for the CLI's
    undocumented fault suite (its exit-code contract end to end)."""
    return [thm2_ineq(1.0),
            one_sided("injected_fault_unit_interval_flip", (("t", 1.0),), 1.0, 0.0)]
