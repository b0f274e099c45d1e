"""JSON text of reports, and the plain structures and reports parsed from it.

Package-internal: ``report.dumps``, ``report.to_jsonable`` and
``report.from_jsonable`` call write_report, parse_text and read_report, and
this module loads, with json, on the first of those calls.  Rules:

- write_report is the one renderer: it writes the JSON text in one pass
  over the results, with no intermediate dict tree and no row object, and
  joins the head, the results' parts and the tail once.  Certificates and
  scan cells each fill one template.  Check tables, most of a verify
  report, are written from their columns by the row writer of
  gammacert._numtext: this module gives it a row kind per (key, holds,
  within), whose text is the check template split at its number slots,
  and which of the number slots each kind fills;
- parse_text is that text parsed back (json.loads), so the schema is
  written down once, in the templates (check rows split the check template
  at its number slots);
- every float is rendered in Python's shortest round-trip form (repr), so it
  parses back to the same binary64 value; the column formatter finds repr's
  digits in numpy and leaves zeros, |v| outside [1e-250, 1e280] and digits
  within 1e-6 of a tie to repr itself; strings are escaped to ASCII as
  json.dumps does;
- non-finite numbers and ints beyond binary64 are refused with ValueError,
  by write_report and parse_text alike (reports must be machine-consumable);
- read_report(parse_text(report)) reconstructs an equal Report; a missing
  key, an unknown result type or a malformed value raises ParameterError
  naming the key or the result's position.
"""

from __future__ import annotations

import json

import numpy as np

from .checks import CheckResult, CheckTable
from .errors import PACKAGE_ERRORS, ParameterError, is_finite, is_real, require_type
from .report import NotAResult, Report, Results, build_report, result_kinds, result_status

__all__: list[str] = []  # package-internal

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


#: text as a JSON string, escaped to ASCII as json.dumps does
_string = json.encoder.encode_basestring_ascii


def _float(v) -> str:
    """The JSON spelling of a float (repr); an int in a float slot (a plain
    ScanCell may hold one) is spelled as the float it equals.  A non-finite
    number raises ValueError."""
    if not is_finite(v):
        raise ValueError(f"Out of range float values are not JSON compliant: {v!r}")
    return repr(float(v))


def _item_texts(items) -> list[str]:
    """JSON text of each certificate or scan cell, each followed by ", ".
    Check rows are written by _check_texts."""
    from .records import Certificate  # loaded already: the items are records

    return [(_certificate_text(item) if isinstance(item, Certificate) else _cell_text(item))
            + ", " for item in items]


def _certificate_text(item) -> str:
    w, grid = item.witness, item.grid
    return _CERTIFICATE % (
        _string(item.check), _string(item.semantics), _float(item.params.alpha),
        _float(item.params.y),
        "null" if item.direction is None else _string(item.direction.value),
        item.k_max, _float(grid.x_min_offset), _float(grid.x_max), grid.points,
        _string(item.verdict.value),
        "null" if w is None else _WITNESS % (w.k, _float(w.x), _float(w.value)),
        item.undecided_points, result_status(item))


def _cell_text(item) -> str:
    return _SCAN_CELL % (
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
    block of _numtext's row writer: a row kind per present (key, holds,
    within), its text the check template split at its number slots, and an
    input slot per input of the widest key, of which a row fills its own."""
    from ._numtext import json_number_words, row_blocks

    counts = [len(labels) for _, labels, _ in table.keys]
    width = max(counts, default=0)
    combo = 4 * table.key + 2 * table.holds + table.within
    status = np.zeros(4 * len(table.keys), np.intp)
    status[combo] = table.statuses()  # one status per combination
    present = np.flatnonzero(np.bincount(combo))
    kind = np.zeros_like(status)
    kind[present] = np.arange(present.size)
    segments, filled = [], []
    for c in present.tolist():
        n = counts[c // 4]
        words = _check_segments(table.keys[c // 4], bool(c & 2), bool(c & 1),
                                CheckTable.STATUSES[status[c]])
        segments.append(words[:n] + [""] * (width - n) + words[n:])
        filled.append([True] * n + [False] * (width - n) + [True] * 3)
    return row_blocks(kind[combo], segments, filled,
                      [*table.values[:, :width].T, table.lhs, table.rhs, table.margin],
                      json_number_words)


def _result_texts(results) -> list[str]:
    """The JSON text of the results in parts that join with "" into their
    ", "-separated list: each check table's by _check_texts, other items'
    by their templates, every part but the last ending in ", ".  A part
    that is no result raises NotAResult naming its type."""
    if not isinstance(results, Results):
        kinds = result_kinds()
        for part in results:
            if not isinstance(part, kinds):
                raise NotAResult(f"cannot serialize {type(part).__name__}")
    texts = []
    for run in Results.of(results).runs:
        if isinstance(run, CheckTable):
            texts += _check_texts(run)
        else:
            texts += _item_texts(run)
    if texts:
        texts[-1] = texts[-1][:-2]
    return texts


def write_report(report: Report) -> str:
    """report.dumps: the Report as JSON text, one join of the head, the
    results' parts and the tail, so the report is copied once."""
    require_type(report, Report, "report")
    head = _REPORT_HEAD % (_string(report.tool_version), _string(report.timestamp),
                           _string(report.suite))
    texts = _result_texts(report.results)
    return "".join([head, *texts, _REPORT_TAIL % json.dumps(report.summary,
                                                             allow_nan=False)])


def parse_text(obj):
    """report.to_jsonable: a Report or result item as the plain dict that
    its JSON text parses to."""
    if isinstance(obj, Report):
        return json.loads(write_report(obj))
    return json.loads("".join(_result_texts([obj])))


def _number(value, key: str) -> float:
    """value as a float; ParameterError naming key unless it is a JSON number."""
    if not is_real(value):
        raise ParameterError(f"report data: {key} must be a number, got {value!r}")
    return float(value)


def _item_from_jsonable(data: dict):
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
        from .records import Certificate, DerivSample, Direction, GridSpec, HParams, Verdict

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
        from .records import Classification, ScanCell

        rv = data["reciprocal_violation"]
        return ScanCell(
            alpha=float(data["alpha"]),
            y=float(data["y"]),
            classification=Classification(data["classification"]),
            conjecture_zone=bool(data["conjecture_zone"]),
            reciprocal_violation=None if rv is None else bool(rv),
        )
    raise ParameterError(f"unknown result type {kind!r}")


def read_report(data: dict) -> Report:
    """report.from_jsonable: the Report of data, built by build_report."""
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
