"""Report assembly and JSON serialization for verification runs.

One Report wraps the results of a suite run together with a status tally.
The results are a Results: runs of check rows, each a CheckTable, and runs
of other items (Certificate and ScanCell instances), each a tuple.
build_report tallies a table from its status codes.  Serialization rules:

- dumps is the one renderer: it writes the JSON text in one pass over the
  results, with no intermediate dict tree and no row object.  Certificates
  and scan cells each fill one template.  Check tables, most of a verify
  report, are written from their columns BLOCK_ROWS (2,048) rows at a time:
  one word matrix per block, whose text comes from a table with one row per
  (key, holds, within) and whose numbers come from the column formatter of
  gammacert._numtext;
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
  key, an unknown result type or a malformed value raises ParameterError
  naming the key or the result's position.

Status mapping: a CheckResult is "passed" when it holds, "undecided" when its
margin sat inside the floating-noise band (the margin_within_noise marker),
otherwise "failed".  A Certificate maps PASS/FAIL to passed/failed (sub-noise
anomalies are counted inside the certificate, not here).  A ScanCell is
"undecided" exactly for UNDECIDED classifications.  The process exit contract
keys off failed == 0.
"""

from __future__ import annotations

import json
import operator
from collections.abc import Sequence
from datetime import datetime, timezone
from itertools import accumulate, chain, groupby
from json.encoder import encode_basestring_ascii as _string  # a str as JSON text
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
from .checks import CheckResult, CheckTable
from .errors import PACKAGE_ERRORS, ParameterError, is_finite, is_real, require_type
from .hfamily import DerivSample, HParams

__all__ = [
    "Report",
    "Results",
    "build_report",
    "dumps",
    "from_jsonable",
    "make_timestamp",
    "result_status",
    "to_jsonable",
]

ResultItem = CheckResult | Certificate | ScanCell
#: What a results sequence may hold: result items, and check tables for their rows.
_PARTS = (CheckTable, CheckResult, Certificate, ScanCell)


class _NotAResult(ParameterError, TypeError):
    """An object where a result item belongs: a package error that is also a
    TypeError, Python's error for an argument of the wrong type."""


class Results(Sequence):
    """Result items held as runs: a CheckTable for each run of check rows, a
    tuple for each run of other items.

    len, indexing, iteration and == behave as on the tuple of the items,
    and == holds against any sequence of equal items; a slice is that
    tuple's slice, and repr is that of the list of the items.  Only indexing
    or iterating builds check row objects.
    """

    __slots__ = ("runs", "_ends")

    def __init__(self, runs=()):
        self.runs = tuple(runs)
        self._ends = tuple(accumulate(map(len, self.runs)))

    @classmethod
    def of(cls, results) -> Results:
        """results as runs: a Results as it is, else the items of results in
        turn, where a CheckTable stands for its rows and adjacent check rows
        and tables join one CheckTable (whose rows hold float inputs).  Any
        other part raises ParameterError naming its position."""
        if isinstance(results, Results):
            return results
        try:
            parts = [results] if isinstance(results, CheckTable) else list(results)
        except TypeError:
            raise ParameterError(f"results must be a sequence of result items, "
                                 f"got {results!r}") from None
        for i, part in enumerate(parts):
            if not isinstance(part, _PARTS):
                raise _NotAResult(f"results[{i}] must be a CheckResult, CheckTable, "
                                  f"Certificate or ScanCell, got {part!r}")
        checks = [isinstance(part, (CheckTable, CheckResult)) for part in parts]
        runs = []
        for is_check, group in groupby(zip(checks, parts), operator.itemgetter(0)):
            run = [part for _, part in group]
            runs.append(CheckTable.concat(run) if is_check else tuple(run))
        return cls(runs)

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self)[index]
        i = operator.index(index)
        if not -len(self) <= i < len(self):
            raise IndexError("results index out of range")
        i %= len(self)
        for run, end in zip(self.runs, self._ends):  # a report holds a few runs
            if i < end:
                return run[i - end + len(run)]

    def __iter__(self):
        return chain.from_iterable(self.runs)

    def __eq__(self, other):
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return repr(list(self))


class Report(NamedTuple):
    """One suite run: its results and their status tally, an immutable named 5-tuple."""

    tool_version: str
    timestamp: str
    suite: str
    results: Results
    summary: dict[str, int]


def make_timestamp() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def result_status(item: ResultItem) -> str:
    """passed / failed / undecided for one result item."""
    if isinstance(item, CheckResult):
        if item.holds:
            return "passed"
        if any(name == CheckTable.MARKER[0] for name, _ in item.inputs):
            return "undecided"
        return "failed"
    if isinstance(item, Certificate):
        return "passed" if item.verdict is Verdict.PASS else "failed"
    if isinstance(item, ScanCell):
        return ("undecided" if item.classification is Classification.UNDECIDED
                else "passed")
    raise _NotAResult(f"unsupported result item type {type(item).__name__}")


def build_report(suite: str, results, tool_version: str,
                 timestamp: str | None = None) -> Report:
    """The Report of results (see Results.of), tallied: check tables by
    their status codes, other items one at a time.  suite, tool_version and
    timestamp must be strs (ParameterError otherwise)."""
    timestamp = make_timestamp() if timestamp is None else timestamp
    for name, value in (("suite", suite), ("tool_version", tool_version),
                        ("timestamp", timestamp)):
        require_type(value, str, name)
    results = Results.of(results)
    tally = {"total": len(results), "passed": 0, "failed": 0, "undecided": 0}
    for run in results.runs:
        if isinstance(run, CheckTable):
            counts = np.bincount(run.statuses(), minlength=3).tolist()
            for status, n in zip(CheckTable.STATUSES, counts):
                tally[status] += n
        else:
            for item in run:
                tally[result_status(item)] += 1
    return Report(tool_version=tool_version, timestamp=timestamp, suite=suite,
                  results=results, summary=tally)


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
_REPORT_HEAD = '{"tool_version": %s, "timestamp": %s, "suite": %s, "results": ['
_REPORT_TAIL = '], "summary": %s}'
_LITERAL = {True: "true", False: "false", None: "null"}


def _float(v) -> str:
    """The JSON spelling of a float (repr); an int in a float slot (a plain
    ScanCell may hold one) is spelled as the float it equals.  A non-finite
    number raises ValueError."""
    if not is_finite(v):
        raise ValueError(f"Out of range float values are not JSON compliant: {v!r}")
    return repr(float(v))


def _item_text(item: ResultItem) -> str:
    """JSON text of one certificate or scan cell.  Check rows are written
    by _check_texts."""
    if isinstance(item, Certificate):
        w, grid = item.witness, item.grid
        return _CERTIFICATE % (
            _string(item.check), _string(item.semantics), _float(item.params.alpha),
            _float(item.params.y),
            "null" if item.direction is None else _string(item.direction.value),
            item.k_max, _float(grid.x_min_offset), _float(grid.x_max), grid.points,
            _string(item.verdict.value),
            "null" if w is None else _WITNESS % (w.k, _float(w.x), _float(w.value)),
            item.undecided_points, result_status(item))
    return _SCAN_CELL % (  # a ScanCell
        _float(item.alpha), _float(item.y), _string(item.classification.value),
        _LITERAL[item.conjecture_zone], _LITERAL[item.reciprocal_violation],
        result_status(item))


def _check_segments(key, holds: bool, within: bool, status: str) -> list[str]:
    """The text around the numbers of every check row with this key (name,
    input labels, strict), holds and within: before each input value, before
    lhs, rhs and margin, and after margin with the ", " that follows a row."""
    name, labels, strict = key
    pairs = ["[%s, \0]" % _string(label) for label in labels]
    if within:
        pairs.append("[%s, %r]" % (_string(CheckTable.MARKER[0]), CheckTable.MARKER[1]))
    return (_CHECK % (_string(name), ", ".join(pairs), "\0", "\0", "\0", _LITERAL[holds],
                      _LITERAL[strict], status)
            + ", ").split("\0")  # escaped text holds no NUL


def _check_texts(table: CheckTable) -> list[str]:
    """JSON text of the table's rows, each followed by ", ", one string per
    block of BLOCK_ROWS (2,048) rows.

    A block is one word matrix, rows in table order, as wide as the table's
    widest key: text segments from a table with one row per (key, holds,
    within), numbers from the shortest round-trip formatter, and ABSENT in
    the input slots that a row's key does not fill.
    """
    from ._numtext import ABSENT, BLOCK_ROWS, json_number_words, text_words

    if not len(table):
        return []
    counts = np.array([len(labels) for _, labels, _ in table.keys], np.intp)
    width = int(counts.max())
    combo = 4 * table.key + 2 * table.holds + table.within
    status = np.zeros(4 * len(table.keys), np.intp)
    status[combo] = table.statuses()  # one status per combination
    present = np.flatnonzero(np.bincount(combo))
    segments = []
    for c in present.tolist():
        n = counts[c // 4]
        words = _check_segments(table.keys[c // 4], bool(c & 2), bool(c & 1),
                                CheckTable.STATUSES[status[c]])
        segments.append(words[:n] + [""] * (width - n) + words[n:])
    segment_row = np.zeros_like(status)
    segment_row[present] = np.arange(present.size)
    segments = [text_words(column) for column in zip(*segments)]
    used = np.arange(width) < counts[table.key][:, None]
    texts = []
    for start in range(0, len(table), BLOCK_ROWS):
        rows = slice(start, start + BLOCK_ROWS)
        size = len(used[rows])
        seg = [words[segment_row[combo[rows]]] for words in segments]
        numbers = json_number_words(np.concatenate([
            table.lhs[rows], table.rhs[rows], table.margin[rows],
            table.values[rows, :width][used[rows]]]))
        args = np.full((size, width, 6), np.iinfo(np.uint64).max, np.uint64)  # ABSENT
        args[used[rows]] = numbers[3 * size:]
        cols = []
        for j in range(width):
            cols += [seg[j], args[:, j]]
        cols += [seg[width], numbers[:size], seg[width + 1], numbers[size:2 * size],
                 seg[width + 2], numbers[2 * size:3 * size], seg[width + 3]]
        texts.append(np.concatenate(cols, axis=1).tobytes().translate(None, ABSENT)
                     .decode("ascii"))
    return texts


def _result_texts(results) -> list[str]:
    """The JSON text of the results in parts that join with "" into their
    ", "-separated list: each check table's by _check_texts, other items'
    by their templates, every part but the last ending in ", ".  A part
    that is no result raises _NotAResult naming its type."""
    if not isinstance(results, Results):
        for part in results:
            if not isinstance(part, _PARTS):
                raise _NotAResult(f"cannot serialize {type(part).__name__}")
    texts = []
    for run in Results.of(results).runs:
        if isinstance(run, CheckTable):
            texts += _check_texts(run)
        else:
            texts += [_item_text(item) + ", " for item in run]
    if texts:
        texts[-1] = texts[-1][:-2]
    return texts


def dumps(report: Report) -> str:
    """Serialize a Report to JSON text; a non-finite float raises ValueError.

    The text is one join of the head, the results' parts and the tail, so
    the report is copied once."""
    require_type(report, Report, "report")
    head = _REPORT_HEAD % (_string(report.tool_version), _string(report.timestamp),
                           _string(report.suite))
    texts = _result_texts(report.results)
    return "".join([head, *texts, _REPORT_TAIL % json.dumps(report.summary,
                                                             allow_nan=False)])


def to_jsonable(obj):
    """A Report or result item as the plain dict that its JSON text parses to."""
    if isinstance(obj, Report):
        return json.loads(dumps(obj))
    return json.loads("".join(_result_texts([obj])))


def _number(value, key: str) -> float:
    """value as a float; ParameterError naming key unless it is a JSON number."""
    if not is_real(value):
        raise ParameterError(f"report data: {key} must be a number, got {value!r}")
    return float(value)


def _item_from_jsonable(data: dict) -> ResultItem:
    if not isinstance(data, dict):
        raise TypeError(f"a result must be an object, got {data!r}")
    kind = data.get("type")
    if kind == "check":
        inputs = []
        for i, pair in enumerate(data["inputs"]):
            if not (isinstance(pair, list) and len(pair) == 2):
                raise ParameterError(
                    f"report data: inputs[{i}] must be a [label, value] pair, got {pair!r}")
            inputs.append((pair[0], _number(pair[1], f"inputs[{i}]")))
        return CheckResult(
            name=data["name"],
            inputs=tuple(inputs),
            lhs=_number(data["lhs"], "'lhs'"),
            rhs=_number(data["rhs"], "'rhs'"),
            margin=_number(data["margin"], "'margin'"),
            holds=data["holds"],
            strict=data["strict"],
        )
    if kind == "certificate":
        w = data["witness"]
        witness = None if w is None else DerivSample(
            k=int(w["k"]), x=float(w["x"]), value=float(w["value"]))
        g = data["grid"]
        return Certificate(
            params=HParams(data["params"]["alpha"], data["params"]["y"]),
            direction=(None if data["direction"] is None
                       else Direction(data["direction"])),
            k_max=data["k_max"],
            grid=GridSpec(g["x_min_offset"], g["x_max"], int(g["points"])),
            verdict=Verdict(data["verdict"]),
            witness=witness,
            undecided_points=data["undecided_points"],
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
    """Inverse of to_jsonable for a full Report, built by build_report, so
    its summary is the tally of its results.

    A missing key, an unknown result type or a malformed value raises
    ParameterError naming the key or the result's position.
    """
    where = "report data"
    try:
        tool_version, timestamp, suite = data["tool_version"], data["timestamp"], data["suite"]
        items = []
        for i, item in enumerate(data["results"]):
            where = f"report data: results[{i}]"
            items.append(_item_from_jsonable(item))
        where = "report data"
        return build_report(suite, items, tool_version, require_type(timestamp, str, "timestamp"))
    except KeyError as exc:
        raise ParameterError(f"{where} lacks the key {exc.args[0]!r}") from None
    except PACKAGE_ERRORS:
        raise
    except (TypeError, ValueError, AttributeError, IndexError, OverflowError) as exc:
        raise ParameterError(f"{where} is malformed: {exc}") from None
