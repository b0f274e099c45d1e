"""Command-line front end: verification suites, parameter scans, reports.

Two subcommands:

- ``gammacert verify --suite NAME`` runs a named check suite and emits one
  Report (JSON by default, flat CSV rows with ``--format csv``).
- ``gammacert scan --alpha A0:A1:STEP --y Y0:Y1:STEP`` classifies a grid of
  (alpha, y) cells and emits a CSV table plus a JSON report.

Exit codes: 0 when no result failed, 1 on any failure, 2 on usage errors and
on every package error (``gammacert.errors``).  CSV bodies contain no
timestamps, so identical invocations produce byte-identical CSV output.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from itertools import chain, compress, groupby
from operator import attrgetter, not_
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .ballvol import ball_ratio_checks, recurrence_check
from .certify import (
    DEFAULT_K_MAX,
    DEFAULT_POINTS,
    DEFAULT_X_MAX,
    Certificate,
    Direction,
    ScanCell,
    Verdict,
    certify_lcm,  # noqa: F401  (unused; perfbench/test_perfbench.py reads cli.certify_lcm)
    default_grid,
    finite_diff_crosscheck,
    lcm_certifier,
    necessity_limits,
    scan_values,
    verify_thm3,
)
from .errors import CapabilityError, DomainError, ParameterError, PrecisionError
from .gammakit import libm
from .hfamily import HParams, lcm_threshold, reciprocal_threshold
from .ineq import (
    CHAIN_SUP,
    AuxFn,
    CheckResult,
    aux_eval,
    batir_ineq,
    gamma_ratio_ineq,
    log_upper_bound_ineq,
    one_sided,
    one_sided_rows,
    polygamma_bounds,
    psi_integral_mean_ineq,
    psi_log_bounds,
    psi_upper_refinement,
    qcub_root,
    suffice_chain,
    thm2_ineq,
    two_sided,
)
from .report import Report, build_report, dumps, result_status

__all__ = ["EXIT_FAIL", "EXIT_OK", "EXIT_USAGE", "main"]

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

#: most values one start:end:step range may hold (the cell count of a scan
#: is the product of its two ranges)
MAX_RANGE_VALUES = 1_000_000

#: Accepted but undocumented: a suite with one deliberately false check,
#: used to exercise the exit-code contract end to end.
FAULT_SUITE = "selftest-fault"

RATIO_SAMPLE_SEED = 20260815

_SUFFICIENCY_YS = (-0.9, -0.5, 0.0, 1.0, 5.0)
_SUFFICIENCY_DELTAS = (0.0, 0.5, 2.0)
_NECESSITY_YS = (-0.5, 0.0, 1.0)
_LIMIT_YS = (-0.5, 0.0, 1.0, 5.0)
_THM3_YS = (-0.9, -0.75, -0.6, -0.51)


# ---------------------------------------------------------------------------
# suite builders: each takes (k_max, points, x_max) and ignores what it
# does not use
# ---------------------------------------------------------------------------

def _suite_lemmas(k_max: int, points: int, x_max: float) -> list[CheckResult]:
    if not (math.isfinite(x_max) and x_max > 1e-2):
        raise ParameterError(
            f"x_max must be a finite real > 1e-2 for the lemma grid [1e-2, x_max], "
            f"got {x_max!r}")
    xs = np.geomspace(1e-2, x_max, points)
    rows = psi_log_bounds(xs) + psi_upper_refinement(xs)
    for k in range(1, 7):
        rows += polygamma_bounds(k, xs)
    # the windows give their rows window by window; list each x's rows in turn
    windows = [rows[i:i + points] for i in range(0, len(rows), points)]
    return list(chain.from_iterable(zip(*windows)))


def _expected_failure_check(cert: Certificate) -> CheckResult:
    """Wrap an expected-FAIL certificate: holds iff the verdict is FAIL."""
    inputs = [("alpha", cert.params.alpha), ("y", cert.params.y)]
    size = 0.0
    if cert.witness is not None:
        size = abs(cert.witness.value)
        inputs += [("witness_k", float(cert.witness.k)),
                   ("witness_x", cert.witness.x),
                   ("witness_value", cert.witness.value)]
    return CheckResult(name="lcm_certificate_fails_below_threshold",
                       inputs=tuple((n, float(v)) for n, v in inputs),
                       lhs=0.0, rhs=size, margin=size,
                       holds=cert.verdict is Verdict.FAIL, strict=True)


def ratio_samples(count: int, seed: int = RATIO_SAMPLE_SEED) -> list[CheckResult]:
    """Seeded random admissible (x, y, t) samples of the gamma-ratio window.

    Candidates are drawn in batches, one uniform draw of shape (m, 3) each:
    row i is candidate i's (y, log10 t, log10(x + y + 1)), in the order of
    one scalar draw after another, and the first count admissible candidates
    are checked in one call.
    """
    rng = np.random.default_rng(seed)
    xs: list[float] = []
    ys: list[float] = []
    ts: list[float] = []
    while len(xs) < count:
        draws = rng.uniform((-0.9, -2.0, -2.0), (5.0, 2.0, 3.0), (count - len(xs), 3))
        for y, t_exp, u_exp in draws.tolist():
            t = 10.0 ** t_exp
            x = 10.0 ** u_exp - (y + 1.0)  # u1 = x + y + 1
            if abs(x) < 1e-2 or abs(x + t) < 1e-2:
                continue  # keep the difference quotients well conditioned
            xs.append(x)
            ys.append(y)
            ts.append(t)
    return gamma_ratio_ineq(np.array(xs[:count]), np.array(ys[:count]),
                            np.array(ts[:count]))


def _suite_thm1(k_max: int, points: int, x_max: float) -> list:
    out: list = []
    certifiers = {}  # per y; the necessity cells reuse the sufficiency tables
    for y in _SUFFICIENCY_YS:
        certify = certifiers[y] = lcm_certifier(
            y, k_max, default_grid(y, points=points, x_max=x_max))
        for delta in _SUFFICIENCY_DELTAS:
            out.append(certify(lcm_threshold(y) + delta, Direction.LCM))
            out.append(certify(reciprocal_threshold(y) - delta, Direction.RECIPROCAL))
    for y in _NECESSITY_YS:
        cert = certifiers[y](lcm_threshold(y) - 0.1, Direction.LCM)
        out.append(_expected_failure_check(cert))
    for y in _LIMIT_YS:
        inner, tail = necessity_limits(y)
        for name, estimate, target, tol in (
                ("alpha_threshold_left_endpoint_limit", inner, 1.0 / (y + 1.0), 1e-2),
                ("alpha_threshold_tail_limit", tail, 1.0, 1e-3)):
            out.append(one_sided(name, (("y", y), ("estimate", estimate),
                                        ("target", target), ("tolerance", tol)),
                                 abs(estimate - target), tol, strict=False))
    out.extend(ratio_samples(200))
    return out


def _suite_thm2(k_max: int, points: int, x_max: float) -> list[CheckResult]:
    return thm2_ineq(np.geomspace(1e-4, 1e3, 300))


def _suite_thm3(k_max: int, points: int, x_max: float) -> list[Certificate]:
    return [verify_thm3(y, points, x_max) for y in _THM3_YS]


def _suite_ball(k_max: int, points: int, x_max: float) -> list[CheckResult]:
    return ball_ratio_checks(range(1, 61)) + recurrence_check(range(2, 101))


def _suite_aux(k_max: int, points: int, x_max: float) -> list[CheckResult]:
    out: list[CheckResult] = []
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
        out += one_sided_rows(name, (("t", ts), ("expected", expected),
                                     ("value", values), ("tolerance", tol)),
                              abs(values - expected), tol, strict=False)

    # the logarithmic helper is barely positive at t = 8/7 ...
    out.append(two_sided("aux_qlog_band", (("t", CHAIN_SUP),),
                         0.002, aux_eval(AuxFn.QLOG, CHAIN_SUP), 0.003))
    # ... positive from there on, and increasing beyond t = 1/4
    ts = np.geomspace(CHAIN_SUP, 1e3, 100)
    out += one_sided_rows("aux_qlog_positive_from_chain_sup", (("t", ts),),
                          0.0, aux_eval(AuxFn.QLOG, ts))
    ts = np.geomspace(0.26, 1e3, 100)
    values = aux_eval(AuxFn.QLOG, ts)
    out += one_sided_rows("aux_qlog_increasing_beyond_quarter",
                          (("t_lo", ts[:-1]), ("t_hi", ts[1:])), values[:-1], values[1:])

    # cubic root bracket and residual
    root = qcub_root(1e-10)
    out.append(two_sided("aux_cubic_root_bracket",
                         (("root", root),), third, root, 1.0))
    out.append(one_sided("aux_cubic_root_residual",
                         (("root", root),),
                         abs(aux_eval(AuxFn.QCUB, root)), 1e-8, strict=False))

    # the sextic stays negative across the open chain interval
    ts = np.linspace(third, CHAIN_SUP, 102)[1:-1]
    out += one_sided_rows("aux_polynomial_negative_interior", (("t", ts),),
                          aux_eval(AuxFn.HPOLY, ts), 0.0)

    # chained sufficiency inequalities across (0, 8/7)
    out += suffice_chain(np.geomspace(1e-3, CHAIN_SUP * (1.0 - 1e-9), 100))

    # digamma-at-log-mean bound, printed product form, on its worked pairs
    # (the product form does not hold for arbitrary pairs; see the quotient
    # reading exposed in the result inputs)
    out.append(batir_ineq(2.0, 1.0))
    out.append(batir_ineq(1.0, 2.0))
    out.append(batir_ineq(1.0, 1.0 / 3.0))

    # mean-value windows for integral means of psi and psi' on worked pairs
    # (p = -i-1, q = -i) ...
    s = np.array([0.5, 1.0, 2.0, 0.25])
    t = np.array([2.5, 3.0, 7.0, 0.75])
    out += psi_integral_mean_ineq(0, s, t, p=-1.0, q=0.0)
    # ... and along the chain's own pairs s = 2t^2/((2t+1)ln(2t+1)) < t,
    # whose p = -2 lower point is exactly the chain's sqrt evaluation point
    ts = np.geomspace(1e-2, 1e2, 100)
    w = (2.0 * ts + 1.0) * libm(math.log1p, 2.0 * ts)
    out += psi_integral_mean_ineq(1, np.concatenate([s, 2.0 * ts * ts / w]),
                                  np.concatenate([t, ts]), p=-2.0, q=-1.0)

    # rational upper bound for ln(1+t)
    out += log_upper_bound_ineq(np.geomspace(1e-2, 1e3, 200))

    # closed-form derivatives against central finite differences
    fd_cases = (
        (1, 1.0, 0.0, 1.0, 1e-5),
        (2, 2.0, 1.0, 3.0, 1e-4),
        (3, 0.5, -0.5, 2.0, 1e-4),
        (4, 1.5, 0.0, 5.0, 1e-3),
        (1, 0.0, 0.0, 10.0, 1e-5),
        (2, 1.0, 4.0, 0.5, 1e-4),
    )
    for k, alpha, y, x, step in fd_cases:
        residual = finite_diff_crosscheck(k, HParams(alpha, y), x, step=step)
        out.append(one_sided(
            "logh_derivative_matches_finite_difference",
            (("k", k), ("alpha", alpha), ("y", y), ("x", x),
             ("step", step), ("residual", residual)),
            residual, 1e-6, strict=False))
    return out


SUITES = {
    "lemmas": _suite_lemmas,
    "thm1": _suite_thm1,
    "thm2": _suite_thm2,
    "thm3": _suite_thm3,
    "ball": _suite_ball,
    "aux": _suite_aux,
}
PUBLIC_SUITES = (*SUITES, "all")


def build_suite(suite: str, k_max: int = DEFAULT_K_MAX, points: int = DEFAULT_POINTS,
                x_max: float = DEFAULT_X_MAX) -> list:
    """Assemble the result list for one named suite."""
    if suite == "all":
        # one build_suite call per suite, so callers that wrap it see each
        return [r for name in SUITES for r in build_suite(name, k_max, points, x_max)]
    if suite == FAULT_SUITE:
        return [thm2_ineq(1.0),
                one_sided("injected_fault_unit_interval_flip", (("t", 1.0),), 1.0, 0.0)]
    if suite not in SUITES:
        raise ParameterError(
            f"unknown suite {suite!r} (choose from {', '.join(PUBLIC_SUITES)})")
    return SUITES[suite](k_max, points, x_max)


# ---------------------------------------------------------------------------
# output rendering
# ---------------------------------------------------------------------------

#: rows per verify-CSV block: each block's lines are laid out as one word
#: matrix, so this bounds the memory the writer holds at once
_CSV_BLOCK_ROWS = 4096

# CSV numbers are "%.17g", the same digits as format(float(v), ".17g").
# verify_csv writes check numbers a column at a time with an exact numpy
# formatter; certificate and scan rows keep "%": too few numbers to pay off.
#
# The formatter scales each |v| to the 17-digit integer D = round(|v| *
# 10**(16 - e)), e = floor(log10 |v|), with Dekker's error-free product
# against 10**(16 - e) held as a double-double (hi, lo).  The remainder is
# then known to about 1e-14, far inside _TIE.  D's digits fill fixed byte
# slots, _ABSENT where "%g" writes nothing, so that "%g"'s trailing-zero and
# exponent rules become table lookups.  Zero, values outside [_EXACT_MIN,
# _EXACT_MAX] and remainders within _TIE of a rounding tie are written by
# "%.17g" itself.

_EXACT_MIN, _EXACT_MAX = 1e-250, 1e280  # every scaled product stays normal
_E_MIN, _E_MAX = -260, 290  # the exponents the tables cover, with room for e +- 1
_TIE = 1e-6
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitter for binary64
_ABSENT = b"\xff"  # no UTF-8 text holds this byte, so deleting it leaves the text
_TEXT = ("utf-8", "surrogatepass")  # any str round-trips through the word matrix


@functools.cache  # filled on first use, one exponent at a time
def _pow10_table() -> np.ndarray:
    """Rows (hi, lo) of 10**(16 - e) at column _E_MAX - e; NaN until used."""
    return np.full((2, _E_MAX - _E_MIN + 1), np.nan)


def _pow10(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """10**s as double-doubles hi + lo, |10**s - hi - lo| <= 2**-106 * 10**s."""
    table = _pow10_table()
    i = s - (16 - _E_MAX)
    hi = table[0, i]
    if np.isnan(hi).any():
        for k in set(s[np.isnan(hi)].tolist()):  # np.unique would import numpy.ma
            if k >= 0:
                p = 10 ** k
                hi_k = float(p)  # int -> float and int / int round correctly
                lo_k = float(p - int(hi_k))
            else:
                q = 10 ** -k
                hi_k = 1 / q
                num, den = hi_k.as_integer_ratio()
                lo_k = (den - num * q) / (den * q)
            table[:, k - (16 - _E_MAX)] = hi_k, lo_k
        hi = table[0, i]
    return hi, table[1, i]


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    t = a * _SPLIT
    hi = t - (t - a)
    return hi, a - hi


def _scaled(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(floor as int64, remainder) of a * 10**(16 - e), the remainder within
    about 1e-14, for a in [_EXACT_MIN, _EXACT_MAX]."""
    hi, lo = _pow10(16 - e)
    p = a * hi
    a1, a2 = _split(a)
    h1, h2 = _split(hi)
    err = ((a1 * h1 - p) + a1 * h2 + a2 * h1) + a2 * h2  # a * hi == p + err exactly
    whole = np.floor(p)
    frac = (p - whole) + (err + a * lo)
    carry = np.floor(frac)
    return whole.astype(np.int64) + carry.astype(np.int64), frac - carry


def _exact_digits(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(e, D, fallback) for a 1-D float array: |v| rounds to D * 10**(e - 16)
    at 17 digits, 10**16 <= D < 10**17, where fallback is false."""
    a = np.abs(v)
    exact = (a >= _EXACT_MIN) & (a <= _EXACT_MAX)  # false on 0, inf and nan
    a = np.where(exact, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    n, frac = _scaled(a, e)
    d = n + (frac > 0.5)
    # log10 may miss floor(log10 a) by one near powers of ten: redo those
    # rows one exponent over
    off = np.flatnonzero((n < 10 ** 16) | (d > 10 ** 17))
    if off.size:
        e[off] += np.where(n[off] < 10 ** 16, -1, 1)
        n[off], frac[off] = _scaled(a[off], e[off])
        d[off] = n[off] + (frac[off] > 0.5)
    carry = d == 10 ** 17  # a row that rounds up to the next power of ten
    e[carry] += 1
    d[carry] = 10 ** 16
    fallback = ~exact | (abs(frac - 0.5) < _TIE) | (n < 10 ** 16) | (d > 10 ** 17)
    e[fallback] = 0
    d[fallback] = 10 ** 16
    return e, d, fallback


def _words(texts: list[bytes], width: int) -> np.ndarray:
    """texts padded with _ABSENT to width bytes (a multiple of 8), as uint64 rows."""
    return np.frombuffer(b"".join(t.ljust(width, _ABSENT) for t in texts),
                         np.uint64).reshape(len(texts), width // 8)


class _SlotTables(NamedTuple):
    """Word tables of a number's slot, six uint64 words (48 bytes).

    Bytes 0-7 are word 0: the sign, the "0.000" lead of exponents -4 to -1,
    the first digit and its point slot.  Words 1-4 hold the other 16 digits,
    four-digit groups each laid out as "d.d.d.d.".  Word 5 is the exponent
    and the "," after the number.
    """

    lead: np.ndarray  # by e - _E_MIN: word 0 with only the lead
    exponent: np.ndarray  # by e - _E_MIN: word 5
    point: np.ndarray  # by e - _E_MIN: 1 + the digit the point follows, 0 for none
    first: np.ndarray  # by first digit: word 0 with only it and a point
    group: np.ndarray  # by four-digit group: its word
    zeros: np.ndarray  # by four-digit group: its trailing zeros
    blank: np.ndarray  # by 18 * point + significant digits: words 0-4, _ABSENT
    #                    on each digit and point slot "%.17g" leaves empty
    minus: np.uint64  # word 0 with only the sign


@functools.cache
def _slot_tables() -> _SlotTables:
    lead, exponent, point = [], [], []
    for e in range(_E_MIN, _E_MAX + 1):
        fixed = -4 <= e < 17
        lead.append(b"0." + b"0" * (-e - 1) if fixed and e < 0 else b"")
        exponent.append(b"" if fixed else b"e%+03d" % e)
        point.append((1 + e if e >= 0 else 0) if fixed else 1)
    g = np.arange(10 ** 4)
    group = np.full((g.size, 8), ord("."), np.uint8)
    for j, scale in enumerate((1000, 100, 10, 1)):
        group[:, 2 * j] = ord("0") + g // scale % 10
    p, n, i = np.ogrid[:18, :18, :17]  # point, significant digits, digit
    blank = np.zeros((18, 18, 48), np.uint8)
    blank[..., 6:40:2] = np.where(i < np.maximum(n, p), 0, 0xFF)
    blank[..., 7:40:2] = np.where((i == p - 1) & (p < n), 0, 0xFF)
    return _SlotTables(
        lead=_words([_ABSENT + t.ljust(7, _ABSENT) for t in lead], 8)[:, 0],
        exponent=_words([t.ljust(5, _ABSENT) + b"," for t in exponent], 8)[:, 0],
        point=np.array(point),
        first=_words([_ABSENT * 6 + b"%d." % k for k in range(10)], 8)[:, 0],
        group=group.view(np.uint64)[:, 0],
        zeros=sum((g % 10 ** k == 0).astype(int) for k in (1, 2, 3, 4)),
        blank=blank.view(np.uint64).reshape(18 * 18, 6)[:, :5],
        minus=_words([b"-"], 8)[0, 0])


def _number_words(values: np.ndarray) -> np.ndarray:
    """ "%.17g," % v for each v of a 1-D float array, as rows of six uint64
    words (48 bytes) with _ABSENT in every empty byte."""
    t = _slot_tables()
    e, d, fallback = _exact_digits(values)
    i = e - _E_MIN
    groups = []  # D's four-digit groups, low first; D // 10**16 is the first digit
    q = d
    for _ in range(4):
        q, g = np.divmod(q, 10 ** 4)
        groups.append(g)
    significant = 17 - t.zeros[groups[0]]
    whole = np.flatnonzero(groups[0] == 0)  # D ends in four zeros or more
    significant[whole] = [len(str(k).rstrip("0")) for k in d[whole].tolist()]
    out = np.empty((d.size, 6), np.uint64)
    out[:, 0] = np.where(values < 0, t.minus, ~np.uint64(0)) & t.lead[i] & t.first[q]
    out[:, 1:5] = t.group[np.stack(groups[::-1], axis=1)]
    out[:, :5] |= np.take(t.blank, 18 * t.point[i] + significant, axis=0)
    out[:, 5] = t.exponent[i]
    if fallback.any():
        out[fallback] = _words([("%.17g," % v).encode("ascii")
                                for v in values[fallback].tolist()], 48)
    return out


def _text_words(texts: list[str]) -> np.ndarray:
    data = [t.encode(*_TEXT) for t in texts]
    return _words(data, -(-max(map(len, data)) // 8) * 8)


_PASSED = {True: "passed"}  # a check that holds; result_status names the others
_CHECK_TAIL = _words([b",,\n"], 8)[0]  # the empty alpha, y and verdict fields


def _check_lines(rows: list[CheckResult]) -> str:
    """One line per check: "check,name,status," from a small table keyed by
    (name, status), lhs, rhs and margin each followed by ",", then ",,\n"."""
    status = list(map(_PASSED.get, map(attrgetter("holds"), rows)))
    for i in compress(range(len(rows)), map(not_, status)):
        status[i] = result_status(rows[i])  # failed, or undecided inside the noise band
    keys = list(zip(map(attrgetter("name"), rows), status))
    index = {key: i for i, key in enumerate(dict.fromkeys(keys))}
    heads = _text_words(["check,%s,%s," % key for key in index])
    head = heads[np.fromiter(map(index.__getitem__, keys), np.intp, len(keys))]
    numbers = _number_words(np.concatenate([
        np.fromiter(map(attrgetter(f), rows), np.float64, len(rows))
        for f in ("lhs", "rhs", "margin")])).reshape(3, len(rows), 6)
    tail = np.broadcast_to(_CHECK_TAIL, (len(rows), 1))
    mat = np.concatenate([head, *numbers, tail], axis=1)
    return mat.tobytes().translate(None, _ABSENT).decode(*_TEXT)


def _certificate_lines(rows: list[Certificate]) -> str:
    return "".join(["certificate,%s,%s,,,,%.17g,%.17g,%s\n" % (
        c.check, result_status(c), c.params.alpha, c.params.y, c.verdict.value)
        for c in rows])


def verify_csv(report: Report) -> str:
    """Flat CSV rows for a verify report (no timestamps: byte-stable).

    The rows are written _CSV_BLOCK_ROWS at a time, each run of checks
    inside a block as one matrix of lines, each certificate by "%".
    """
    parts = ["kind,name,status,lhs,rhs,margin,alpha,y,verdict\n"]
    results = report.results
    for start in range(0, len(results), _CSV_BLOCK_ROWS):
        for kind, run in groupby(results[start:start + _CSV_BLOCK_ROWS], type):
            if issubclass(kind, CheckResult):
                parts.append(_check_lines(list(run)))
            elif issubclass(kind, Certificate):
                parts.append(_certificate_lines(list(run)))
            else:
                raise TypeError(f"no CSV row form for {kind.__name__}")
    return "".join(parts)


def scan_csv(cells: list[ScanCell]) -> str:
    lines = ["alpha,y,classification"]
    for cell in cells:
        lines.append("%.17g,%.17g,%s" % (cell.alpha, cell.y, cell.classification.value))
    return "\n".join(lines) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def parse_range(spec: str, label: str) -> list[float]:
    """Parse "start:end:step" (step > 0, end >= start) into grid values."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ParameterError(f"{label} must be start:end:step, got {spec!r}")
    try:
        start, end, step = (float(p) for p in parts)
    except ValueError as exc:
        raise ParameterError(
            f"{label} must be numeric start:end:step, got {spec!r}") from exc
    if not (math.isfinite(start) and math.isfinite(end) and math.isfinite(step)):
        raise ParameterError(f"{label} values must be finite, got {spec!r}")
    if step <= 0.0:
        raise ParameterError(f"{label} step must be > 0, got {step!r}")
    if end < start:
        raise ParameterError(f"{label} end must be >= start, got {spec!r}")
    steps = (end - start) / step
    # also false when the step count overflows to inf
    if not steps + 1e-9 < MAX_RANGE_VALUES:
        raise ParameterError(f"{label} has too many steps to count, got {spec!r} "
                             f"(at most {MAX_RANGE_VALUES} values per range)")
    count = int(math.floor(steps + 1e-9)) + 1
    return [start + i * step for i in range(count)]


@functools.cache  # built on the first main() call, then reused
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gammacert",
        description="Verify gamma/digamma inequality suites and "
                    "classify (alpha, y) monotonicity cells.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    grid = argparse.ArgumentParser(add_help=False)  # shared by verify and scan
    grid.add_argument("--kmax", type=int, default=DEFAULT_K_MAX,
                      help="highest log-derivative order (default %(default)s)")
    grid.add_argument("--grid-points", type=int, default=DEFAULT_POINTS,
                      help="points per certificate grid (default %(default)s)")
    grid.add_argument("--x-max", type=float, default=DEFAULT_X_MAX,
                      help="upper end of certificate grids (default %(default)s)")

    p_verify = sub.add_parser(
        "verify", parents=[grid], help="run a named verification suite")
    p_verify.add_argument("--suite", required=True, metavar="SUITE",
                          help=f"one of: {', '.join(PUBLIC_SUITES)}")
    p_verify.add_argument("--out", metavar="PATH",
                          help="write the report here instead of stdout")
    p_verify.add_argument("--format", choices=("json", "csv"), default="json",
                          help="report format (default json)")

    p_scan = sub.add_parser(
        "scan", parents=[grid], help="classify a grid of (alpha, y) cells")
    p_scan.add_argument("--alpha", required=True, metavar="A0:A1:STEP",
                        help="alpha grid as start:end:step")
    p_scan.add_argument("--y", required=True, metavar="Y0:Y1:STEP",
                        help="y grid as start:end:step (y > -1)")
    p_scan.add_argument("--out", metavar="PATH",
                        help="write the CSV here (JSON then goes to stdout)")
    # argparse would read "-0.5:0:0.5" as a flag: it is no plain negative number.
    # The argparse of CPython 3.10.13, 3.11.7, 3.12.1, 3.13.0 and 3.13.13
    # still compiles ^-\d+$|^-\d*\.\d+$ as this pattern.  The attribute is
    # private: the CI matrix runs every supported minor version so that its
    # removal shows.
    p_scan._negative_number_matcher = re.compile(r"-\.?\d")
    return parser


def _cmd_verify(args: argparse.Namespace) -> int:
    results = build_suite(args.suite, k_max=args.kmax,
                          points=args.grid_points, x_max=args.x_max)
    report = build_report(args.suite, results, __version__)
    _emit(verify_csv(report) if args.format == "csv" else dumps(report) + "\n",
          args.out)
    return EXIT_OK if report.summary["failed"] == 0 else EXIT_FAIL


def _cmd_scan(args: argparse.Namespace) -> int:
    alphas = parse_range(args.alpha, "--alpha")
    ys = parse_range(args.y, "--y")
    cells = scan_values(alphas, ys, k_max=args.kmax,
                        points=args.grid_points, x_max=args.x_max)
    report = build_report("scan", cells, __version__)
    _emit(scan_csv(cells), args.out)
    # the JSON report goes wherever the CSV does not
    print(dumps(report), file=sys.stderr if args.out is None else sys.stdout)
    return EXIT_OK if report.summary["failed"] == 0 else EXIT_FAIL


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints its own message
        code = exc.code
        if isinstance(code, int):
            return code
        return EXIT_USAGE if code else EXIT_OK
    try:
        if args.grid_points < 2:
            raise ParameterError(f"--grid-points must be >= 2, got {args.grid_points}")
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_scan(args)
    except (ParameterError, DomainError, CapabilityError, PrecisionError) as exc:
        parser.print_usage(sys.stderr)
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
