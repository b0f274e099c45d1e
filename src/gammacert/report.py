"""Report assembly for verification runs, and its JSON entry points.

One Report wraps the results of a suite run together with a status tally.
The results are a Results: runs of check rows, each a CheckTable, and runs
of other items (Certificate and ScanCell instances), each a tuple.
build_report tallies a table from its status codes.

dumps, to_jsonable and from_jsonable are the JSON round trip; they call
the writer and reader of gammacert._jsontext, which loads with json on
the first of those calls, so a process that writes only CSV loads
neither.  Its docstring states the serialization rules.

The certificate and scan records are looked up in sys.modules, not
imported: no certificate or scan cell exists before gammacert.records
loads (result_kinds), so a run that builds none never loads it.

Status mapping: a CheckResult is "passed" when it holds, "undecided" when its
margin sat inside the floating-noise band (the margin_within_noise marker),
otherwise "failed".  A Certificate maps PASS/FAIL to passed/failed (sub-noise
anomalies are counted inside the certificate, not here).  A ScanCell is
"undecided" exactly for UNDECIDED classifications.  The process exit contract
keys off failed == 0.
"""

from __future__ import annotations

import operator
import sys
from datetime import datetime, timezone
from itertools import accumulate, chain, groupby
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .checks import CheckResult, CheckTable, ItemSequence
from .errors import ParameterError, require_type

if TYPE_CHECKING:
    from .records import Certificate, ScanCell

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

#: The module of the certificate and scan records, looked up, not imported.
_RECORDS_MODULE = f"{__package__}.records"


class NotAResult(ParameterError, TypeError):
    """An object where a result item belongs: a package error that is also a
    TypeError, Python's error for an argument of the wrong type."""


def result_kinds() -> tuple[type, ...]:
    """The types a results sequence may hold: CheckTable for its rows,
    CheckResult, and Certificate and ScanCell once gammacert.records has
    loaded (until then no instance of them exists)."""
    records = sys.modules.get(_RECORDS_MODULE)
    if records is None:
        return (CheckTable, CheckResult)
    return (CheckTable, CheckResult, records.Certificate, records.ScanCell)


class Results(ItemSequence):
    """Result items held as runs: a CheckTable for each run of check rows, a
    tuple for each run of other items.

    len, indexing, iteration and == (ItemSequence's) behave as on the tuple
    of the items, a slice is that tuple's slice, and repr is that of the
    list of the items.  Only indexing or iterating builds check row objects.
    """

    __slots__ = ("runs", "_ends")

    OUT_OF_RANGE = "results index out of range"

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
        kinds = result_kinds()
        for i, part in enumerate(parts):
            if not isinstance(part, kinds):
                raise NotAResult(f"results[{i}] must be a CheckResult, CheckTable, "
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
        i = self._index(index)
        for run, end in zip(self.runs, self._ends):  # a report holds a few runs
            if i < end:
                return run[i - end + len(run)]

    def __iter__(self):
        return chain.from_iterable(self.runs)


class Report(NamedTuple):
    """One suite run: its results and their status tally, an immutable named 5-tuple."""

    tool_version: str
    timestamp: str
    suite: str
    results: Results
    summary: dict[str, int]


def make_timestamp() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def result_status(item: CheckResult | Certificate | ScanCell) -> str:
    """passed / failed / undecided for one result item."""
    if isinstance(item, CheckResult):
        if item.holds:
            return "passed"
        if any(name == CheckTable.MARKER[0] for name, _ in item.inputs):
            return "undecided"
        return "failed"
    records = sys.modules.get(_RECORDS_MODULE)  # see result_kinds
    if records is not None:
        if isinstance(item, records.Certificate):
            return "passed" if item.verdict is records.Verdict.PASS else "failed"
        if isinstance(item, records.ScanCell):
            return ("undecided" if item.classification is records.Classification.UNDECIDED
                    else "passed")
    raise NotAResult(f"unsupported result item type {type(item).__name__}")


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


def dumps(report: Report) -> str:
    """Serialize a Report to JSON text; a non-finite float raises ValueError."""
    from ._jsontext import write_report

    return write_report(report)


def to_jsonable(obj):
    """A Report or result item as the plain dict that its JSON text parses to."""
    from ._jsontext import parse_text

    return parse_text(obj)


def from_jsonable(data: dict) -> Report:
    """Inverse of to_jsonable for a full Report, built by build_report, so
    its summary is the tally of its results.

    A missing key, an unknown result type or a malformed value raises
    ParameterError naming the key or the result's position.
    """
    from ._jsontext import read_report

    return read_report(data)
