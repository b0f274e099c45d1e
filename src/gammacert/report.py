"""Report assembly and JSON serialization for verification runs.

One Report wraps the results of a suite run (CheckResult, Certificate and
ScanCell instances) together with a status tally.  Serialization rules:

- dumps is the one renderer: it writes the JSON text in one pass over the
  results, with no intermediate dict tree.  Certificates and scan cells
  each fill one template.  Check rows, most of a verify report, are written
  BLOCK_ROWS (2,048) items at a time and a column at a time: per input
  count one word matrix, whose text comes from a table with one row per
  key (name, input names, holds, strict) and whose numbers come from the
  column formatter of gammacert._numtext;
- to_jsonable is that text parsed back (json.loads), so the schema is
  written down once, in the templates (check rows split the check template
  at its number slots);
- every float is rendered in Python's shortest round-trip form (repr), so it
  parses back to the same binary64 value; the column formatter finds repr's
  digits in numpy and leaves zeros, |v| outside [1e-250, 1e280] and digits
  within 1e-6 of a tie to repr itself; strings are escaped to ASCII as
  json.dumps does;
- non-finite numbers and ints beyond binary64 are refused with ValueError,
  by dumps and to_jsonable alike (reports must be machine-consumable);
- from_jsonable(to_jsonable(report)) reconstructs an equal Report; a missing
  key or an unknown result type raises ParameterError naming it.

Status mapping: a CheckResult is "passed" when it holds, "undecided" when its
margin sat inside the floating-noise band (the margin_within_noise marker),
otherwise "failed".  A Certificate maps PASS/FAIL to passed/failed (sub-noise
anomalies are counted inside the certificate, not here).  A ScanCell is
"undecided" exactly for UNDECIDED classifications.  The process exit contract
keys off failed == 0.
"""

from __future__ import annotations

import json
import math
from datetime import datetime, timezone
from itertools import chain, compress, count
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .certify import (
    Certificate,
    Classification,
    Direction,
    GridSpec,
    ScanCell,
    Verdict,
)
from .errors import ParameterError
from .hfamily import DerivSample, HParams
from .ineq import CheckResult

__all__ = [
    "Report",
    "build_report",
    "dumps",
    "from_jsonable",
    "make_timestamp",
    "result_status",
    "to_jsonable",
]

ResultItem = CheckResult | Certificate | ScanCell


class Report(NamedTuple):
    """One suite run: its results and their status tally, an immutable named 5-tuple."""

    tool_version: str
    timestamp: str
    suite: str
    results: tuple[ResultItem, ...]
    summary: dict[str, int]


def make_timestamp() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def result_status(item: ResultItem) -> str:
    """passed / failed / undecided for one result item."""
    if isinstance(item, CheckResult):
        if item.holds:
            return "passed"
        if any(name == "margin_within_noise" for name, _ in item.inputs):
            return "undecided"
        return "failed"
    if isinstance(item, Certificate):
        return "passed" if item.verdict is Verdict.PASS else "failed"
    if isinstance(item, ScanCell):
        return ("undecided" if item.classification is Classification.UNDECIDED
                else "passed")
    raise TypeError(f"unsupported result item type {type(item).__name__}")


def build_report(suite: str, results, tool_version: str,
                 timestamp: str | None = None) -> Report:
    results = tuple(results)
    tally = {"total": len(results), "passed": 0, "failed": 0, "undecided": 0}
    for item in results:
        tally[result_status(item)] += 1
    return Report(tool_version=tool_version,
                  timestamp=timestamp if timestamp is not None else make_timestamp(),
                  suite=suite, results=results, summary=tally)


# ---------------------------------------------------------------------------
# JSON text, and plain structures parsed from it
# ---------------------------------------------------------------------------

# One template per item kind, keys in schema order.  The separators are
# json.dumps's defaults (", " and ": ").
_CHECK = ('{"type": "check", "name": %s, "inputs": [%s], "lhs": %s, "rhs": %s, '
          '"margin": %s, "holds": %s, "strict": %s, "status": "%s"}')
_CERTIFICATE = ('{"type": "certificate", "check": %s, "semantics": %s, '
                '"params": {"alpha": %s, "y": %s}, "direction": %s, "k_max": %d, '
                '"grid": {"x_min_offset": %s, "x_max": %s, "points": %d}, '
                '"verdict": %s, "witness": %s, "undecided_points": %d, "status": "%s"}')
_WITNESS = '{"k": %d, "x": %s, "value": %s}'
_SCAN_CELL = ('{"type": "scan_cell", "alpha": %s, "y": %s, "classification": %s, '
              '"conjecture_zone": %s, "reciprocal_violation": %s, "status": "%s"}')
_REPORT = ('{"tool_version": %s, "timestamp": %s, "suite": %s, "results": [%s], '
           '"summary": %s}')
_LITERAL = {True: "true", False: "false", None: "null"}


class _FloatReprs(dict):
    """float -> its JSON spelling (repr), filled on first use.

    An int in a float slot (HParams and GridSpec accept one) is spelled as
    the float it equals, like the float it collides with as a dict key.
    Zeros are never stored: -0.0 == 0.0 and both hash alike, so a stored
    zero would give the other zero its sign.
    """

    def __missing__(self, v):
        try:
            finite = math.isfinite(v)
        except OverflowError:  # an int beyond binary64
            finite = False
        if not finite:
            raise ValueError(f"Out of range float values are not JSON compliant: {v!r}")
        text = repr(float(v))
        if v:
            self[v] = text
        return text


class _StringReprs(dict):
    """str -> its quoted, ASCII-escaped JSON spelling, filled on first use."""

    def __missing__(self, s):
        text = self[s] = encode_basestring_ascii(s)
        return text


def _item_text(item: ResultItem, f: _FloatReprs, s: _StringReprs) -> str:
    """JSON text of one result item; f and s memoise its numbers and strings."""
    if isinstance(item, CheckResult):
        return _CHECK % (
            s[item.name],
            ", ".join(["[%s, %s]" % (s[name], f[v]) for name, v in item.inputs]),
            f[item.lhs], f[item.rhs], f[item.margin],
            _LITERAL[item.holds], _LITERAL[item.strict], result_status(item))
    if isinstance(item, Certificate):
        w, grid = item.witness, item.grid
        return _CERTIFICATE % (
            s[item.check], s[item.semantics], f[item.params.alpha], f[item.params.y],
            "null" if item.direction is None else s[item.direction.value],
            item.k_max, f[grid.x_min_offset], f[grid.x_max], grid.points,
            s[item.verdict.value],
            "null" if w is None else _WITNESS % (w.k, f[w.x], f[w.value]),
            item.undecided_points, result_status(item))
    if isinstance(item, ScanCell):
        return _SCAN_CELL % (
            f[item.alpha], f[item.y], s[item.classification.value],
            _LITERAL[item.conjecture_zone], _LITERAL[item.reciprocal_violation],
            result_status(item))
    raise TypeError(f"cannot serialize {type(item).__name__}")


def _check_segments(key, s: _StringReprs) -> list[str]:
    """The text around the numbers of every check row with this key (name,
    input names, holds, strict): before each input value, before lhs, rhs and
    margin, and after margin, with the line break that ends a matrix row."""
    name, names, holds, strict = key
    if holds:
        status = "passed"
    else:
        status = "undecided" if "margin_within_noise" in names else "failed"
    return (_CHECK % (s[name], ", ".join(["[%s, \0]" % s[n] for n in names]),
                      "\0", "\0", "\0", _LITERAL[holds], _LITERAL[strict], status)
            + "\n").split("\0")  # escaped text holds no NUL and no line break


def _check_texts(rows: list[CheckResult], f: _FloatReprs, s: _StringReprs) -> list[str]:
    """JSON text of each check row, written a column at a time.

    The rows of one input count form one word matrix: text segments from a
    table with one row per key, numbers from the shortest round-trip
    formatter.  An input value that is no float or int, or any value that
    is not finite, sends the rows through the template, which writes the
    first or raises the error that names the second.
    """
    from ._numtext import ABSENT, json_number_words, text_words

    size = len(rows)
    inputs = list(map(itemgetter(1), rows))
    args = list(map(itemgetter(1), chain.from_iterable(inputs)))
    values = None
    if set(map(type, args)) <= {float, int}:  # numpy would read "1.5" as 1.5
        try:
            values = np.fromiter(chain(map(itemgetter(2), rows), map(itemgetter(3), rows),
                                       map(itemgetter(4), rows), args), np.float64)
        except OverflowError:  # an int beyond binary64
            pass
    if values is None or not np.isfinite(values).all():
        return [_item_text(r, f, s) for r in rows]
    numbers = json_number_words(values)
    lhs, rhs, margin, arg_words = np.split(numbers, [size, 2 * size, 3 * size])
    counts = np.fromiter(map(len, inputs), np.intp, size)
    first_arg = np.cumsum(counts) - counts
    keys = [(r[0], tuple([n for n, _ in r[1]]), r[5], r[6]) for r in rows]
    firsts: dict = {}  # key -> its first row
    first = np.fromiter(map(firsts.setdefault, keys, count()), np.intp, size)
    heads = np.fromiter(firsts.values(), np.intp, len(firsts))
    table_row = np.empty(size, np.intp)
    texts: list = [None] * size
    for c in np.flatnonzero(np.bincount(counts)).tolist():
        at = np.flatnonzero(counts == c)
        own = heads[counts[heads] == c]
        table_row[own] = np.arange(own.size)
        tables = zip(*[_check_segments(keys[i], s) for i in own.tolist()])
        seg = [text_words(column)[table_row[first[at]]] for column in tables]
        cols = []
        for j in range(c):
            cols += [seg[j], arg_words[first_arg[at] + j]]
        cols += [seg[c], lhs[at], seg[c + 1], rhs[at], seg[c + 2], margin[at], seg[c + 3]]
        text = np.concatenate(cols, axis=1).tobytes().translate(None, ABSENT)
        for i, t in zip(at.tolist(), text.decode("ascii").split("\n")):
            texts[i] = t
    return texts


def _results_text(results, f: _FloatReprs, s: _StringReprs) -> str:
    """The results joined by ", ": check rows BLOCK_ROWS (2,048) items at a
    time by column, other items by their templates."""
    is_check = [isinstance(item, CheckResult) for item in results]
    if not any(is_check):
        return ", ".join([_item_text(item, f, s) for item in results])
    from ._numtext import BLOCK_ROWS

    texts = []
    for start in range(0, len(results), BLOCK_ROWS):
        block = results[start:start + BLOCK_ROWS]
        flags = is_check[start:start + BLOCK_ROWS]
        checks = _check_texts(list(compress(block, flags)), f, s)
        if len(checks) < len(block):
            row = iter(checks)
            checks = [next(row) if flag else _item_text(item, f, s)
                      for item, flag in zip(block, flags)]
        texts += checks
    return ", ".join(texts)


def dumps(report: Report) -> str:
    """Serialize a Report to JSON text; a non-finite float raises ValueError."""
    f, s = _FloatReprs(), _StringReprs()
    return _REPORT % (
        s[report.tool_version], s[report.timestamp], s[report.suite],
        _results_text(report.results, f, s),
        json.dumps(report.summary, allow_nan=False))


def to_jsonable(obj):
    """A Report or result item as the plain dict that its JSON text parses to."""
    if isinstance(obj, Report):
        return json.loads(dumps(obj))
    return json.loads(_item_text(obj, _FloatReprs(), _StringReprs()))


def _item_from_jsonable(data: dict) -> ResultItem:
    kind = data.get("type")
    if kind == "check":
        return CheckResult(
            name=data["name"],
            inputs=tuple((str(n), float(v)) for n, v in data["inputs"]),
            lhs=float(data["lhs"]),
            rhs=float(data["rhs"]),
            margin=float(data["margin"]),
            holds=bool(data["holds"]),
            strict=bool(data["strict"]),
        )
    if kind == "certificate":
        w = data["witness"]
        witness = None if w is None else DerivSample(
            k=int(w["k"]), x=float(w["x"]), value=float(w["value"]))
        g = data["grid"]
        return Certificate(
            params=HParams(alpha=float(data["params"]["alpha"]),
                           y=float(data["params"]["y"])),
            direction=(None if data["direction"] is None
                       else Direction(data["direction"])),
            k_max=int(data["k_max"]),
            grid=GridSpec(x_min_offset=float(g["x_min_offset"]),
                          x_max=float(g["x_max"]), points=int(g["points"])),
            verdict=Verdict(data["verdict"]),
            witness=witness,
            undecided_points=int(data["undecided_points"]),
            check=data["check"],
            semantics=data["semantics"],
        )
    if kind == "scan_cell":
        rv = data["reciprocal_violation"]
        return ScanCell(
            alpha=float(data["alpha"]),
            y=float(data["y"]),
            classification=Classification(data["classification"]),
            conjecture_zone=bool(data["conjecture_zone"]),
            reciprocal_violation=None if rv is None else bool(rv),
        )
    raise ParameterError(f"unknown result type {kind!r}")


def from_jsonable(data: dict) -> Report:
    """Inverse of to_jsonable for a full Report.

    A missing key or an unknown result type raises ParameterError naming it.
    """
    try:
        return Report(
            tool_version=data["tool_version"],
            timestamp=data["timestamp"],
            suite=data["suite"],
            results=tuple(_item_from_jsonable(item) for item in data["results"]),
            summary={k: int(v) for k, v in data["summary"].items()},
        )
    except KeyError as exc:
        raise ParameterError(f"report data lacks the key {exc.args[0]!r}") from None
