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
zeros are then dropped.  The candidates are worked out for 17, 16 and then
15 digits on 1-D columns, each taken by np.where where it fits.

Each number fills a 32-byte slot of four words, ABSENT where the text has
nothing: the sign, the "0.000" lead, the first digit and its point; the
other 16 digits, eight per word; a spare byte and the exponent.
The trailing-zero and exponent rules of either spelling are table lookups.
A point after a later digit takes that digit's byte, and the digits from
there on move one byte on, the last into the spare byte: the slot shifted
by a byte, kept, taken and set under masks looked up by (point, digits
shown).  Zero, values outside [_EXACT_MIN, _EXACT_MAX] and decisions within
_TIE of a rounding tie or of the rounding interval's edge are written by
"%.17g" or repr itself.

row_blocks, the one writer of check rows, is the one place that knows this
layout: each block of rows is one record array of text fields and number
slots, and one bytes.translate drops its ABSENT bytes.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

__all__: list[str] = []  # package-internal

#: rows per block of row_blocks: each block's rows are laid out as one record
#: array, so this bounds the memory a writer holds at once (4,096-row blocks
#: were no faster and raised the peak memory of a verify-all process)
BLOCK_ROWS = 2048

ABSENT = b"\xff"  # no UTF-8 text holds this byte, so deleting it leaves the text
SLOT = np.dtype("V32")  # a number's slot: four uint64 words as one item
TEXT = ("utf-8", "surrogatepass")  # any str round-trips through a text item

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
    hi = table[0].take(i)
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
        hi = table[0].take(i)
    return hi, table[1].take(i)


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


def _candidate(n, below, frac, down, up, step):
    """(D, unsure, fits) of the candidates step apart either side of n +
    frac, the one below it n - below: the one inside v's rounding interval
    (the nearer where both are), whether that decision is within _TIE of a
    tie or of the interval's edge, and whether either candidate is inside."""
    r = below + frac
    low, high = r < down, step - r < up
    both = low & high
    unsure = ((abs(r - down) < _TIE) | (abs(step - r - up) < _TIE)
              | (both & (abs(2 * r - step) < 2 * _TIE)))
    return n - below + (high & ~(both & (2 * r < step))) * step, unsure, unsure | low | high


def shortest_digits(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(e, D, fallback) for a 1-D float array: D * 10**(e - 16), 10**16 <= D
    < 10**17, has the digits of repr(|v|) and then zeros, where fallback is
    false."""
    a, e, n, frac, exact = _scaled_digits(v)
    bits = a.view(np.int64)
    # half an ulp above v: a's power of two times 2**-53, in n + frac's
    # units, 10**(16 - e) per unit of a
    up = (bits & (0x7FF << 52)).view(np.float64) * 2.0 ** -53 * _pow10(16 - e)[0]
    down = np.where(bits & (2 ** 52 - 1), up, up / 2)  # half the ulp below v
    d, unsure, _ = _candidate(n, 0, frac, down, up, 1)  # 17 digits always fit
    for step in (10, 100):  # then 16 and 15 digits, each where it fits
        d_k, unsure_k, fits = _candidate(n, n - n // step * step, frac, down, up, step)
        d = np.where(fits, d_k, d)
        unsure = np.where(fits, unsure_k, unsure)
    return _settled(e, d, ~exact | unsure)


def words(texts: list[bytes], width: int) -> np.ndarray:
    """texts padded with ABSENT to width bytes (a multiple of 8), as uint64 rows."""
    return np.frombuffer(b"".join(t.ljust(width, ABSENT) for t in texts),
                         np.uint64).reshape(len(texts), width // 8)


def text_items(texts: list[str]) -> np.ndarray:
    """texts padded with ABSENT to the longest of them, one void item each."""
    data = [t.encode(*TEXT) for t in texts]
    width = max(map(len, data))
    return np.frombuffer(b"".join(t.ljust(width, ABSENT) for t in data), f"V{width}")


class _SlotTables(NamedTuple):
    """Word tables of a number's slot, four uint64 words (32 bytes).

    Word 0 holds the sign, the "0.000" lead of exponents -4 to -1, the first
    digit and the point after it.  Words 1 and 2 hold the other 16 digits,
    eight each.  Word 3 holds a spare byte and the exponent.  A point after
    digit p >= 2 is written in the byte of the digit after it, and the
    digits from there on move one byte on, the last into the spare byte.
    """

    lead: np.ndarray  # by e - _E_MIN: word 0 with only the lead
    exponent: np.ndarray  # by e - _E_MIN: word 3 with only the exponent
    point: np.ndarray  # by e - _E_MIN: 1 + the digit the point follows, 0 for none
    least: np.ndarray  # by e - _E_MIN: fewest digits shown
    first: np.ndarray  # by first digit: word 0 with only it and a point
    low: np.ndarray  # by four-digit group: its text in bytes 0-3 of a word
    high: np.ndarray  # by four-digit group: its text in bytes 4-7 of a word
    zeros: np.ndarray  # by four-digit group: its trailing zeros
    shape: np.ndarray  # rows by 18 * point + digits shown: what word 0 sets;
    #                    what words 1 and 2 keep, take from the byte before
    #                    and set; and word 3's spare byte (ABSENT unless it
    #                    takes digit 17).  Set bytes hold the point, and
    #                    ABSENT on each digit and point byte left empty.
    minus: np.uint64  # word 0 with only the sign


@functools.cache
def _slot_tables(fixed_below: int, point_zero: bool) -> _SlotTables:
    """The tables of a spelling that writes exponents -4 <= e < fixed_below
    without an exponent, and, if point_zero, "x.0" on an integral value."""
    e = np.arange(_E_MIN, _E_MAX + 1)
    fixed = (e >= -4) & (e < fixed_below)
    point = np.where(fixed, np.maximum(e + 1, 0), 1)
    lead = np.full(e.size, ~np.uint64(0))  # ABSENT
    lead[-4 - _E_MIN:-_E_MIN] = words([ABSENT + b"0.000"[:k].ljust(7, ABSENT)
                                       for k in range(5, 1, -1)], 8)[:, 0]
    exponent = words([b"\0" + (b"" if f else b"e%+03d" % k)
                      for k, f in zip(e.tolist(), fixed.tolist())], 8)[:, 0]
    d = np.arange(10, dtype=np.uint64)  # the digits of a four-digit group, first to last
    low = (d[:, None, None, None] | d[:, None, None] << np.uint64(8) | d[:, None] << np.uint64(16)
           | d << np.uint64(24) | np.uint64(0x30303030)).ravel()  # "0" is 0x30
    z = (d == 0).astype(int)
    zeros = z * (1 + z[:, None] * (1 + z[:, None, None] * (1 + z[:, None, None, None])))
    # bytes 0-5: sign and lead; 6: the first digit; 7: its point; 8-23: digits
    # 2 to 17; 24: the spare byte; 25-29: the exponent
    p, m, b = np.ogrid[:18, :18, :32]  # point, digits shown, byte
    moves = (p >= 2) & (p < m)  # the point after digit p >= 2 is at byte 7 + p
    taken = moves & (b > 7 + p) & (b <= 24)  # bytes that take the byte before
    digit = np.where(taken, b - 7, b - 6)  # the digit at byte b, from byte 8 on
    empty = ((b >= 8) & (b <= 24) & (digit > m) & (digit <= 17)
             | (b == 7) & ((p != 1) | (m < 2)))
    dot = moves & (b == 7 + p)
    keep, take, put = (np.ascontiguousarray(a, np.uint8).view(np.uint64).reshape(18 * 18, 4).T
                       for a in (np.where(taken | dot, 0, 0xFF), np.where(taken, 0xFF, 0),
                                 np.where(empty, 0xFF, np.where(dot, ord("."), 0))))
    spare = (put[3] | ~take[3]) & np.uint64(0xFF)
    return _SlotTables(
        lead=lead,
        exponent=exponent,
        point=point,
        least=point + (point_zero & fixed & (e >= 0)),
        first=words([ABSENT * 6 + b"%d." % k for k in range(10)], 8)[:, 0],
        low=low,
        high=low << np.uint64(32),
        zeros=zeros.ravel(),
        shape=np.stack([put[0], keep[1], take[1], put[1], keep[2], take[2], put[2], spare]),
        minus=words([b"-"], 8)[0, 0])


def _slot_words(values: np.ndarray, digits, t: _SlotTables, spell) -> np.ndarray:
    """Each value of a 1-D float array in t's slot, one SLOT item each;
    digits gives (e, D, fallback), spell the text of a fallback value."""
    e, d, fallback = digits(values)
    i = e - _E_MIN
    groups = []  # D's four-digit groups, low first; D // 10**16 is the first digit
    q = d
    for _ in range(4):
        r = q // 10 ** 4
        groups.append(q - r * 10 ** 4)
        q = r
    # D's trailing zeros, from the high group down: its first digit q is not 0
    zeros = t.zeros.take(groups[3])
    for g in groups[2::-1]:
        zeros = np.where(g == 0, 4 + zeros, t.zeros.take(g))
    point0, keep1, take1, put1, keep2, take2, put2, spare = t.shape.take(
        18 * t.point.take(i) + np.maximum(17 - zeros, t.least.take(i)), axis=1)
    w1 = t.low.take(groups[3]) | t.high.take(groups[2])
    w2 = t.low.take(groups[1]) | t.high.take(groups[0])
    eight, last = np.uint64(8), np.uint64(56)
    out = np.empty((d.size, 4), np.uint64)
    out[:, 0] = (np.where(values < 0, t.minus, ~np.uint64(0)) & t.lead.take(i)
                 & t.first.take(q) | point0)
    out[:, 1] = w1 & keep1 | (w1 << eight) & take1 | put1
    out[:, 2] = w2 & keep2 | (w2 << eight | w1 >> last) & take2 | put2
    out[:, 3] = t.exponent.take(i) | w2 >> last | spare
    if fallback.any():
        out[fallback] = words([spell(v) for v in values[fallback].tolist()], SLOT.itemsize)
    return out.view(SLOT).ravel()


def number_words(values: np.ndarray) -> np.ndarray:
    """ "%.17g" % v for each v of a 1-D float array, one SLOT item each
    with ABSENT in every empty byte."""
    return _slot_words(values, exact_digits, _slot_tables(17, False),
                       lambda v: ("%.17g" % v).encode("ascii"))


def json_number_words(values: np.ndarray) -> np.ndarray:
    """repr(v) for each v of a 1-D float array, one SLOT item each with
    ABSENT in every empty byte."""
    return _slot_words(values, shortest_digits, _slot_tables(16, True),
                       lambda v: repr(v).encode("ascii"))


def row_blocks(kind, segments, filled, columns, spell) -> list[str]:
    """The text of rows, one string per block of BLOCK_ROWS rows.

    Row i is of kind kind[i].  Its text is segments[kind[i]][0], then for
    each number column j in turn the value columns[j][i] as spell (one of
    number_words and json_number_words) writes it where filled[kind[i]][j]
    is true, and segments[kind[i]][j + 1].  columns are 1-D float arrays.
    """
    kind = np.asarray(kind, np.intp)
    filled = np.array(filled, bool).T  # by column, then kind
    texts = [text_items(column) for column in zip(*segments)]
    layout = np.dtype([(f"{part}{j}", column.dtype if part == "s" else SLOT)
                       for j, column in enumerate(texts) for part in "sn"][:-1])
    blocks = []
    for start in range(0, kind.size, BLOCK_ROWS):
        rows = slice(start, start + BLOCK_ROWS)
        k = kind[rows]
        # the rows that fill each column: all of them where every kind does
        fill = [slice(None) if f.all() else f.take(k) for f in filled]
        values = [column[rows][f] for column, f in zip(columns, fill)]
        numbers = spell(np.concatenate(values))
        block = np.empty(k.size, layout)
        for j, column in enumerate(texts):
            block[f"s{j}"] = column.take(k)
        end = 0
        for j, (f, v) in enumerate(zip(fill, values)):
            slot = block[f"n{j}"]
            if v.size < k.size:
                slot[~f] = np.void(ABSENT * SLOT.itemsize)
            slot[f] = numbers[end:end + v.size]
            end += v.size
        blocks.append(block.tobytes().translate(None, ABSENT).decode(*TEXT))
    return blocks
