"""Exact number text for the report writers, a column at a time.

Package-internal: ``cli.verify_csv`` and ``report.dumps`` import this module
on first use, so importing the CLI does not load it, and nothing here is
package API.  Two spellings share one kernel:

- CSV numbers are "%.17g", the same digits as format(float(v), ".17g");
- JSON numbers are repr(float(v)), Python's shortest round-trip spelling.

Each |v| is scaled to the 17-digit integer n and its remainder, n + frac =
|v| * 10**(16 - e), e = floor(log10 |v|), with Dekker's error-free product
against 10**(16 - e) held as a double-double (hi, lo).  The remainder is
then known to about 1e-14, far inside _TIE.  "%.17g" rounds n + frac to the
nearest integer.  repr takes, for k = 15, 16 and 17, the k-digit
candidates either side of n + frac, and the first k at which one of them
lies inside v's rounding interval: half an ulp of v above it, half the ulp
below v under it (the two differ at a binade boundary).  Where both lie
inside, the nearer one.  DBL_DIG is 15, so the 15-digit candidate is the
shortest spelling whenever one of 15 or fewer digits exists; its trailing
zeros are then dropped.

The digits fill fixed byte slots, ABSENT where the text has nothing, so that
the trailing-zero, point and exponent rules of either spelling become table
lookups.  Zero, values outside [_EXACT_MIN, _EXACT_MAX] and decisions within
_TIE of a rounding tie or of the rounding interval's edge are written by
"%.17g" or repr itself.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

__all__: list[str] = []  # package-internal

#: rows per block of a column writer: each block's rows are laid out as word
#: matrices, so this bounds the memory a writer holds at once (4,096-row
#: blocks were no faster and raised the peak memory of a verify-all process)
BLOCK_ROWS = 2048

ABSENT = b"\xff"  # no UTF-8 text holds this byte, so deleting it leaves the text
TEXT = ("utf-8", "surrogatepass")  # any str round-trips through a word matrix

_EXACT_MIN, _EXACT_MAX = 1e-250, 1e280  # every scaled product stays normal
_E_MIN, _E_MAX = -260, 290  # the exponents the tables cover, with room for e +- 1
_TIE = 1e-6
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitter for binary64


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
    """(floor as int64, remainder in [0, 1)) of a * 10**(16 - e), the
    remainder within about 1e-14, for a in [_EXACT_MIN, _EXACT_MAX]."""
    hi, lo = _pow10(16 - e)
    p = a * hi
    a1, a2 = _split(a)
    h1, h2 = _split(hi)
    err = ((a1 * h1 - p) + a1 * h2 + a2 * h1) + a2 * h2  # a * hi == p + err exactly
    whole = np.floor(p)
    frac = (p - whole) + (err + a * lo)
    carry = np.floor(frac)
    frac -= carry
    top = frac == 1.0  # a tiny negative remainder, rounded up by the subtraction
    frac[top] = 0.0
    return whole.astype(np.int64) + carry.astype(np.int64) + top, frac


def _scaled_digits(v: np.ndarray):
    """(a, e, n, frac, exact) for a 1-D float array: a = |v|, and n + frac =
    a * 10**(16 - e) with 10**16 <= n < 10**17 where exact (a 1.0 stands in
    for a where not)."""
    a = np.abs(v)
    exact = (a >= _EXACT_MIN) & (a <= _EXACT_MAX)  # false on 0, inf and nan
    a = np.where(exact, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    n, frac = _scaled(a, e)
    # log10 may miss floor(log10 a) by one near powers of ten: redo those
    # rows one exponent over
    off = np.flatnonzero((n < 10 ** 16) | (n >= 10 ** 17))
    if off.size:
        e[off] += np.where(n[off] < 10 ** 16, -1, 1)
        n[off], frac[off] = _scaled(a[off], e[off])
        exact[off] &= (n[off] >= 10 ** 16) & (n[off] < 10 ** 17)
    return a, e, n, frac, exact


def _settled(e: np.ndarray, d: np.ndarray, fallback: np.ndarray):
    """(e, D, fallback) with a D of 10**17 carried to the next exponent and
    the fallback rows set to e = 0, D = 10**16."""
    carry = d == 10 ** 17  # a row that rounds up to the next power of ten
    e[carry] += 1
    d[carry] = 10 ** 16
    e[fallback] = 0
    d[fallback] = 10 ** 16
    return e, d, fallback


def exact_digits(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(e, D, fallback) for a 1-D float array: |v| rounds to D * 10**(e - 16)
    at 17 digits, 10**16 <= D < 10**17, where fallback is false."""
    _, e, n, frac, exact = _scaled_digits(v)
    fallback = ~exact | (abs(frac - 0.5) < _TIE)
    return _settled(e, n + (frac > 0.5), fallback)


def shortest_digits(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(e, D, fallback) for a 1-D float array: D * 10**(e - 16), 10**16 <= D
    < 10**17, has the digits of repr(|v|) and then zeros, where fallback is
    false."""
    a, e, n, frac, exact = _scaled_digits(v)
    unit = _pow10(16 - e)[0]  # 10**(16 - e): n + frac's units per unit of a
    up = np.spacing(a) * unit / 2  # half an ulp above v
    binade = (a.view(np.int64) & (2 ** 52 - 1)) == 0  # a power of two
    down = np.where(binade, up / 2, up)  # half the ulp below v
    step = np.array([[100], [10], [1]])  # 15, 16 and 17 digits, one row each
    below = n % step  # n's excess over the candidate below n + frac
    r = below + frac
    low, high = r < down, step - r < up  # each candidate inside the interval
    both = low & high
    unsure = ((abs(r - down) < _TIE) | (abs(step - r - up) < _TIE)
              | (both & (abs(2 * r - step) < 2 * _TIE)))
    stop = unsure | low | high  # a 17-digit candidate always fits
    k = np.where(stop[0], 0, np.where(stop[1], 1, 2))
    i = np.arange(k.size)
    fallback = ~exact | unsure[k, i]
    nearer_high = high[k, i] & ~(both[k, i] & (2 * r[k, i] < step[k, 0]))
    d = n - below[k, i] + nearer_high * step[k, 0]
    return _settled(e, d, fallback)


def words(texts: list[bytes], width: int) -> np.ndarray:
    """texts padded with ABSENT to width bytes (a multiple of 8), as uint64 rows."""
    return np.frombuffer(b"".join(t.ljust(width, ABSENT) for t in texts),
                         np.uint64).reshape(len(texts), width // 8)


def text_words(texts: list[str]) -> np.ndarray:
    data = [t.encode(*TEXT) for t in texts]
    return words(data, -(-max(map(len, data)) // 8) * 8)


class _SlotTables(NamedTuple):
    """Word tables of a number's slot, six uint64 words (48 bytes).

    Bytes 0-7 are word 0: the sign, the "0.000" lead of exponents -4 to -1,
    the first digit and its point slot.  Words 1-4 hold the other 16 digits,
    four-digit groups each laid out as "d.d.d.d.".  Word 5 is the exponent
    and the suffix after the number.
    """

    lead: np.ndarray  # by e - _E_MIN: word 0 with only the lead
    exponent: np.ndarray  # by e - _E_MIN: word 5
    point: np.ndarray  # by e - _E_MIN: 1 + the digit the point follows, 0 for none
    least: np.ndarray  # by e - _E_MIN: fewest digits shown
    first: np.ndarray  # by first digit: word 0 with only it and a point
    group: np.ndarray  # by four-digit group: its word
    zeros: np.ndarray  # by four-digit group: its trailing zeros
    blank: np.ndarray  # by 18 * point + digits shown: words 0-4, ABSENT on
    #                    each digit and point slot left empty
    minus: np.uint64  # word 0 with only the sign


@functools.cache
def _slot_tables(fixed_below: int, point_zero: bool, suffix: bytes) -> _SlotTables:
    """The tables of a spelling that writes exponents -4 <= e < fixed_below
    without an exponent, and, if point_zero, "x.0" on an integral value."""
    lead, exponent, point, least = [], [], [], []
    for e in range(_E_MIN, _E_MAX + 1):
        fixed = -4 <= e < fixed_below
        lead.append(b"0." + b"0" * (-e - 1) if fixed and e < 0 else b"")
        exponent.append(b"" if fixed else b"e%+03d" % e)
        point.append((1 + e if e >= 0 else 0) if fixed else 1)
        least.append(point[-1] + (point_zero and fixed and e >= 0))
    g = np.arange(10 ** 4)
    group = np.full((g.size, 8), ord("."), np.uint8)
    for j, scale in enumerate((1000, 100, 10, 1)):
        group[:, 2 * j] = ord("0") + g // scale % 10
    p, m, i = np.ogrid[:18, :18, :17]  # point, digits shown, digit
    blank = np.zeros((18, 18, 48), np.uint8)
    blank[..., 6:40:2] = np.where(i < m, 0, 0xFF)
    blank[..., 7:40:2] = np.where((i == p - 1) & (p < m), 0, 0xFF)
    return _SlotTables(
        lead=words([ABSENT + t.ljust(7, ABSENT) for t in lead], 8)[:, 0],
        exponent=words([t.ljust(7, ABSENT) + suffix.ljust(1, ABSENT)
                        for t in exponent], 8)[:, 0],
        point=np.array(point),
        least=np.array(least),
        first=words([ABSENT * 6 + b"%d." % k for k in range(10)], 8)[:, 0],
        group=group.view(np.uint64)[:, 0],
        zeros=sum((g % 10 ** k == 0).astype(int) for k in (1, 2, 3, 4)),
        blank=blank.view(np.uint64).reshape(18 * 18, 6)[:, :5],
        minus=words([b"-"], 8)[0, 0])


def _slot_words(values: np.ndarray, digits, t: _SlotTables, spell) -> np.ndarray:
    """Each value of a 1-D float array in t's slots, as rows of six uint64
    words; digits gives (e, D, fallback), spell the text of a fallback value."""
    e, d, fallback = digits(values)
    i = e - _E_MIN
    groups = []  # D's four-digit groups, low first; D // 10**16 is the first digit
    q = d
    for _ in range(4):
        q, g = np.divmod(q, 10 ** 4)
        groups.append(g)
    # D's trailing zeros, from the high group down: its first digit q is not 0
    zeros = t.zeros[groups[3]]
    for g in groups[2::-1]:
        zeros = np.where(g == 0, 4 + zeros, t.zeros[g])
    out = np.empty((d.size, 6), np.uint64)
    out[:, 0] = np.where(values < 0, t.minus, ~np.uint64(0)) & t.lead[i] & t.first[q]
    out[:, 1:5] = t.group[np.stack(groups[::-1], axis=1)]
    out[:, :5] |= np.take(t.blank, 18 * t.point[i] + np.maximum(17 - zeros, t.least[i]),
                          axis=0)
    out[:, 5] = t.exponent[i]
    if fallback.any():
        out[fallback] = words([spell(v) for v in values[fallback].tolist()], 48)
    return out


def number_words(values: np.ndarray) -> np.ndarray:
    """ "%.17g," % v for each v of a 1-D float array, as rows of six uint64
    words (48 bytes) with ABSENT in every empty byte."""
    return _slot_words(values, exact_digits, _slot_tables(17, False, b","),
                       lambda v: ("%.17g," % v).encode("ascii"))


def json_number_words(values: np.ndarray) -> np.ndarray:
    """repr(v) for each v of a 1-D float array, as rows of six uint64 words
    (48 bytes) with ABSENT in every empty byte."""
    return _slot_words(values, shortest_digits, _slot_tables(16, True, b""),
                       lambda v: repr(v).encode("ascii"))
