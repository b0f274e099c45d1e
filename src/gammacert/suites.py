"""The verification suites of ``gammacert verify``, one builder per name.

Each builder takes (k_max, points, x_max), ignores what it does not use, and
returns a CheckTable or the parts of ``report.Results.of``.  The CLI holds
the ordered tuple of suite names and imports this module the first time it
builds a suite, so a scan never loads the check catalogue.  Every suite
runs the catalogue (``ineq``); a builder imports any other module it calls
itself (``psiwindows`` for lemmas, ``certify`` and the records for thm1
and thm3, ``ballvol`` for ball, ``auxchain`` for aux), so a process
compiles only the modules of the suites it builds.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING

import numpy as np

from .checks import CheckResult, CheckTable
from .errors import ParameterError, as_integer, log_grid
from .ineq import gamma_ratio_ineq, one_sided, thm2_ineq

if TYPE_CHECKING:
    from .records import Certificate

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
    from .psiwindows import lemma_windows

    if not (math.isfinite(x_max) and x_max > 1e-2):
        raise ParameterError(
            f"x_max must be a finite real > 1e-2 for the lemma grid [1e-2, x_max], "
            f"got {x_max!r}")
    return lemma_windows(log_grid(1e-2, x_max, points))


def _expected_failure_check(cert: Certificate) -> CheckResult:
    """Wrap an expected-FAIL certificate: holds iff the verdict is FAIL."""
    from .records import Verdict

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
    from .certify import certifiers_with_limits, default_grid
    from .hfamily import lcm_threshold, reciprocal_threshold
    from .records import Direction

    out: list = []
    # one table for every y and the limit probes; the necessity cells reuse
    # the sufficiency certifiers
    certify_each, limits = certifiers_with_limits(
        SUFFICIENCY_YS, k_max,
        [default_grid(y, points=points, x_max=x_max) for y in SUFFICIENCY_YS], LIMIT_YS)
    certifiers = dict(zip(SUFFICIENCY_YS, certify_each))
    for y, certify in certifiers.items():
        for delta in SUFFICIENCY_DELTAS:
            out.append(certify(lcm_threshold(y) + delta, Direction.LCM))
            out.append(certify(reciprocal_threshold(y) - delta, Direction.RECIPROCAL))
    for y in NECESSITY_YS:
        cert = certifiers[y](lcm_threshold(y) - 0.1, Direction.LCM)
        out.append(_expected_failure_check(cert))
    for y, (inner, tail) in zip(LIMIT_YS, limits):
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
    from .auxchain import worked_checks

    return worked_checks()


def selftest_fault(k_max: int, points: int, x_max: float) -> list[CheckResult]:
    """One check that holds and one deliberately false one, for the CLI's
    undocumented fault suite (its exit-code contract end to end)."""
    return [thm2_ineq(1.0),
            one_sided("injected_fault_unit_interval_flip", (("t", 1.0),), 1.0, 0.0)]
