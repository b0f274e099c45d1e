"""Report assembly and JSON serialization for verification runs.

One Report wraps the results of a suite run (CheckResult, Certificate and
ScanCell instances) together with a status tally.  Serialization rules:

- every float is rendered in Python's shortest round-trip form, so it parses
  back to the same binary64 value;
- non-finite numbers are refused (reports must be machine-consumable);
- parse(serialize(report)) reconstructs an equal Report.

Status mapping: a CheckResult is "passed" when it holds, "undecided" when its
margin sat inside the floating-noise band (the margin_within_noise marker),
otherwise "failed".  A Certificate maps PASS/FAIL to passed/failed (sub-noise
anomalies are counted inside the certificate, not here).  A ScanCell is
"undecided" exactly for UNDECIDED classifications.  The process exit contract
keys off failed == 0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import datetime, timezone

from .certify import (
    Certificate,
    Classification,
    Direction,
    GridSpec,
    ScanCell,
    Spacing,
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


@dataclass(frozen=True)
class Report:
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
# to/from plain JSON-compatible structures
# ---------------------------------------------------------------------------

def to_jsonable(obj):
    """Convert a Report or result item to plain dict/list/scalar structure."""
    if isinstance(obj, Report):
        return {
            "tool_version": obj.tool_version,
            "timestamp": obj.timestamp,
            "suite": obj.suite,
            "results": [to_jsonable(item) for item in obj.results],
            "summary": dict(obj.summary),
        }
    if isinstance(obj, CheckResult):
        return {
            "type": "check",
            "name": obj.name,
            "inputs": [[name, value] for name, value in obj.inputs],
            "lhs": obj.lhs,
            "rhs": obj.rhs,
            "margin": obj.margin,
            "holds": obj.holds,
            "strict": obj.strict,
            "status": result_status(obj),
        }
    if isinstance(obj, Certificate):
        witness = None
        if obj.witness is not None:
            witness = {"k": obj.witness.k, "x": obj.witness.x,
                       "value": obj.witness.value}
        return {
            "type": "certificate",
            "check": obj.check,
            "semantics": obj.semantics,
            "params": {"alpha": obj.params.alpha, "y": obj.params.y},
            "direction": None if obj.direction is None else obj.direction.value,
            "k_max": obj.k_max,
            "grid": {
                "x_min_offset": obj.grid.x_min_offset,
                "x_max": obj.grid.x_max,
                "points": obj.grid.points,
                "spacing": obj.grid.spacing.value,
                "x_epsilon": obj.grid.x_epsilon,
            },
            "verdict": obj.verdict.value,
            "witness": witness,
            "undecided_points": obj.undecided_points,
            "status": result_status(obj),
        }
    if isinstance(obj, ScanCell):
        return {
            "type": "scan_cell",
            "alpha": obj.alpha,
            "y": obj.y,
            "classification": obj.classification.value,
            "conjecture_zone": obj.conjecture_zone,
            "reciprocal_violation": obj.reciprocal_violation,
            "status": result_status(obj),
        }
    raise TypeError(f"cannot serialize {type(obj).__name__}")


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
                          x_max=float(g["x_max"]), points=int(g["points"]),
                          spacing=Spacing(g["spacing"]),
                          x_epsilon=float(g["x_epsilon"])),
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


def dumps(report: Report) -> str:
    """Serialize a Report to JSON text; a non-finite float raises ValueError."""
    return json.dumps(to_jsonable(report), allow_nan=False)
