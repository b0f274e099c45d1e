"""Report assembly and JSON serialization for verification runs.

One Report wraps the results of a suite run (CheckResult, Certificate and
ScanCell instances) together with a status tally.  Serialization rules:

- dumps is the one renderer: it writes the JSON text in one pass over the
  results, from one template per item kind, with no intermediate dict tree;
- to_jsonable is that text parsed back (json.loads), so the schema is
  written down once, in the templates;
- every float is rendered in Python's shortest round-trip form (repr), so it
  parses back to the same binary64 value; strings are escaped to ASCII as
  json.dumps does;
- non-finite numbers are refused with ValueError, by dumps and to_jsonable
  alike (reports must be machine-consumable);
- from_jsonable(to_jsonable(report)) reconstructs an equal Report.

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
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from .certify import (
    Certificate,
    Classification,
    Direction,
    GridSpec,
    ScanCell,
    Verdict,
)
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
        if not math.isfinite(v):
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


def dumps(report: Report) -> str:
    """Serialize a Report to JSON text; a non-finite float raises ValueError."""
    f, s = _FloatReprs(), _StringReprs()
    return _REPORT % (
        s[report.tool_version], s[report.timestamp], s[report.suite],
        ", ".join([_item_text(item, f, s) for item in report.results]),
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
    raise ValueError(f"unknown result type {kind!r}")


def from_jsonable(data: dict) -> Report:
    """Inverse of to_jsonable for a full Report."""
    return Report(
        tool_version=data["tool_version"],
        timestamp=data["timestamp"],
        suite=data["suite"],
        results=tuple(_item_from_jsonable(item) for item in data["results"]),
        summary={k: int(v) for k, v in data["summary"].items()},
    )
