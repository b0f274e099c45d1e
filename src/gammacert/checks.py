"""The check records: check rows and tables, and the certificate grid defaults.

A CheckResult is one evaluated inequality instance: its name, its inputs as
(label, value) pairs, both sides, the margin and the verdict.  A CheckTable
holds the same rows as columns (a key per name, input labels and
strictness, an input-value matrix, the side and margin columns, and the
holds and within-noise masks), and builds a CheckResult only when it is
indexed or iterated.  ``gammacert.ineq`` builds both.

The DEFAULT_* constants below are the defaults of every certificate grid,
the one place the package and the CLI take them from.  The certificate and
scan records live in ``gammacert.records``.

Reports and the CLI read every check record without loading the check
catalogue.  input_pairs and number are the check records' input rule, which
the builders of ``gammacert.ineq`` apply to their own inputs too.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from .errors import ParameterError, PrecisionError, is_finite, is_real, require_type

__all__ = [
    "CheckResult",
    "CheckTable",
    "DEFAULT_K_MAX",
    "DEFAULT_POINTS",
    "DEFAULT_X_MAX",
]

#: Defaults of every certificate grid: highest derivative order, grid points
#: and upper end x_max.
DEFAULT_K_MAX = 8
DEFAULT_POINTS = 200
DEFAULT_X_MAX = 1e3


class ValidatedRecord:
    """Base, before its fields' NamedTuple, of a record whose _make, and so
    _replace, builds through its constructor's checks (package-internal)."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class ItemSequence(Sequence):
    """Base of CheckTable and report.Results (package-internal): == against
    any sequence and repr as on the list of the items, no hash, and _index,
    an index as 0 <= i < len or IndexError(OUT_OF_RANGE)."""

    __slots__ = ()

    def _index(self, index) -> int:
        i = operator.index(index)
        if not -len(self) <= i < len(self):
            raise IndexError(self.OUT_OF_RANGE)
        return i % len(self)

    def __eq__(self, other):
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return repr(list(self))


class _CheckFields(NamedTuple):
    name: str
    inputs: tuple[tuple[str, float], ...]
    lhs: float
    rhs: float
    margin: float
    holds: bool
    strict: bool


class CheckResult(ValidatedRecord, _CheckFields):
    """One evaluated inequality instance, an immutable named 7-tuple.

    For strict checks, holds means margin > noise band; margins inside the
    band carry a "margin_within_noise" marker in inputs instead of a verdict.
    Non-strict checks (strict=False) accept margins down to the band's floor.
    lhs, rhs, margin and each input value must be real numbers (else
    ParameterError), finite as binary64s (else PrecisionError), and are held
    as floats.  Each input is a (label, value) pair with a str label; a name
    that is not a str, or holds or strict not a bool, raises ParameterError.
    """

    __slots__ = ()

    def __new__(cls, name, inputs, lhs, rhs, margin, holds, strict=True):
        lhs, rhs, margin = (number(name, lhs, "lhs", True), number(name, rhs, "rhs", True),
                            number(name, margin, "margin", True))
        inputs = tuple([(label, number(name, value, label))
                        for label, value in input_pairs(name, inputs)])
        return tuple.__new__(cls, (name, inputs, lhs, rhs, margin,
                                   require_type(holds, bool, "holds"),
                                   require_type(strict, bool, "strict")))


def input_pairs(name, inputs) -> tuple[tuple[str, object], ...]:
    """inputs as a tuple of (label, value) pairs; ParameterError unless name
    is a str and inputs an iterable of pairs with str labels."""
    require_type(name, str, "name")
    try:
        inputs = list(inputs)
    except TypeError:  # inputs is not iterable
        raise ParameterError(
            f"check {name!r}: inputs must be (label, value) pairs, got {inputs!r}") from None
    for i, pair in enumerate(inputs):
        try:
            label, _ = inputs[i] = pair if pair.__class__ is tuple else tuple(pair)
        except (TypeError, ValueError):
            raise ParameterError(f"check {name!r}: an input must be a (label, value) pair, "
                                 f"got {pair!r}") from None
        if not isinstance(label, str):
            raise ParameterError(f"check {name!r}: input label {label!r} is not a str")
    return tuple(inputs)


def number(name, value, label: str, side: bool = False) -> float:
    """value as a float; ParameterError unless it is a real number,
    PrecisionError unless it is finite as a binary64.  label names an input,
    or a side."""
    if is_finite(value):
        return float(value)
    what = label if side else f"input {label!r}"
    if not is_real(value):
        raise ParameterError(f"check {name!r}: {what} must be an int or float, got {value!r}")
    raise PrecisionError(f"check {name!r}: non-finite {what} = {value!r}")


class CheckTable(ItemSequence):
    """Check rows held as columns: an immutable Sequence[CheckResult].

    Row i has the key keys[key[i]], a (name, input labels, strict) triple,
    its input values in values[i, :len(labels)] (the matrix is as wide as
    the widest key), lhs[i], rhs[i], margin[i] and holds[i]; within[i] marks
    a margin inside the noise band, whose row ends with the MARKER input.
    len, indexing, slicing, iteration, +, == and repr behave as on the list
    of rows, and == holds against any sequence of equal rows.  A row object
    is built only when the table is indexed or iterated; table[i] is
    CheckResult(name, inputs, lhs, rhs, margin, holds, strict) with Python
    floats; take(order) is the one reorder.  A non-finite number in a
    column raises the PrecisionError of the first row that holds one,
    through CheckResult.
    """

    __slots__ = ("keys", "key", "values", "lhs", "rhs", "margin", "holds", "within")

    MARKER = ("margin_within_noise", 1.0)
    STATUSES = ("passed", "failed", "undecided")  # by the codes of statuses()
    OUT_OF_RANGE = "check table index out of range"

    def __init__(self, keys, key, values, lhs, rhs, margin, holds, within):
        # copies: the caller's arrays stay writable
        self._own(keys, np.array(key, np.intp), np.array(values, float),
                  *(np.array(c, float) for c in (lhs, rhs, margin)),
                  np.array(holds, bool), np.array(within, bool))._finite()

    @classmethod
    def holding(cls, keys, *columns: np.ndarray) -> CheckTable:
        """The table whose columns are the new arrays key, values, lhs, rhs,
        margin, holds and within, held read-only as they are (no copy)."""
        return cls.__new__(cls)._own(keys, *columns)._finite()

    def _own(self, keys, *columns: np.ndarray) -> CheckTable:
        """Hold the new arrays key, values, lhs, rhs, margin, holds and
        within, read-only, as the table's columns."""
        self.keys = tuple(keys)
        for c in columns:
            c.flags.writeable = False
        self.key, self.values, self.lhs, self.rhs, self.margin, self.holds, self.within = columns
        return self

    def _finite(self) -> CheckTable:
        """The table, unless a number is not finite: then its first row's PrecisionError."""
        if not all(np.isfinite(c).all() for c in (self.lhs, self.rhs, self.margin, self.values)):
            width = np.array([len(labels) for _, labels, _ in self.keys], np.intp)[self.key]
            padding = np.arange(self.values.shape[1]) >= width[:, None]  # no row's input
            finite = (np.isfinite(self.lhs) & np.isfinite(self.rhs) & np.isfinite(self.margin)
                      & (np.isfinite(self.values) | padding).all(axis=1))
            if not finite.all():
                i = int(np.argmin(finite))  # the first bad row
                CheckResult(*self._make_rows(i, i + 1)[0])  # raises
        return self

    @classmethod
    def concat(cls, parts) -> CheckTable:
        """The rows of parts in turn; a part is a CheckTable, a CheckResult or
        a list of CheckResults.  Equal keys merge."""
        tables, rows = [], []
        for part in parts:
            if isinstance(part, CheckTable):
                if rows:
                    tables.append(cls._from_rows(rows))
                    rows = []
                tables.append(part)
            else:
                rows += [part] if isinstance(part, CheckResult) else part
        if rows or not tables:
            tables.append(cls._from_rows(rows))
        if len(tables) == 1:
            return tables[0]
        index: dict = {}  # key -> its row in the merged keys
        key = np.concatenate([np.array([index.setdefault(k, len(index)) for k in t.keys],
                                       np.intp)[t.key] for t in tables])
        width = max(t.values.shape[1] for t in tables)
        values = np.zeros((key.size, width))
        end = 0
        for t in tables:
            values[end:end + len(t), :t.values.shape[1]] = t.values
            end += len(t)
        return cls.__new__(cls)._own(index, key, values, *(
            np.concatenate([getattr(t, c) for t in tables])
            for c in ("lhs", "rhs", "margin", "holds", "within")))

    @classmethod
    def _from_rows(cls, rows) -> CheckTable:
        """The table of CheckResult rows; a row ending with MARKER has it as within."""
        index: dict = {}
        key, values, within = [], [], []
        for r in rows:
            require_type(r, CheckResult, "a check table row")
            inputs = r.inputs
            w = bool(inputs) and inputs[-1] == cls.MARKER
            if w:
                inputs = inputs[:-1]
            key.append(index.setdefault((r.name, tuple([n for n, _ in inputs]), r.strict),
                                        len(index)))
            values.append([v for _, v in inputs])
            within.append(w)
        width = max(map(len, values), default=0)
        matrix = np.zeros((len(values), width))
        for i, row in enumerate(values):
            matrix[i, :len(row)] = row
        return cls(index, key, matrix, *(
            [getattr(r, c) for r in rows] for c in ("lhs", "rhs", "margin", "holds")),
            within)

    def take(self, order) -> CheckTable:
        """The rows at the indices of order, in its order."""
        order = np.asarray(order, np.intp)
        return CheckTable.__new__(CheckTable)._own(self.keys, *(c.take(order, axis=0) for c in (
            self.key, self.values, self.lhs, self.rhs, self.margin, self.holds, self.within)))

    def statuses(self) -> np.ndarray:
        """Each row's status as an index into STATUSES: passed if it holds,
        else undecided if it carries the MARKER label, else failed."""
        marked = np.array([self.MARKER[0] in labels for _, labels, _ in self.keys], bool)
        return np.where(self.holds, 0, np.where(self.within | marked[self.key], 2, 1))

    def _make_rows(self, start: int, stop: int) -> list[CheckResult]:
        """Rows start to stop as CheckResult objects, the table's one row builder."""
        rows = slice(start, stop)
        keys, marker = self.keys, (self.MARKER,)
        out = []
        for k, values, lhs, rhs, margin, holds, within in zip(
                self.key[rows].tolist(), self.values[rows].tolist(), self.lhs[rows].tolist(),
                self.rhs[rows].tolist(), self.margin[rows].tolist(),
                self.holds[rows].tolist(), self.within[rows].tolist()):
            name, labels, strict = keys[k]
            inputs = tuple(zip(labels, values))
            out.append(tuple.__new__(CheckResult, (
                name, inputs + marker if within else inputs, lhs, rhs, margin, holds, strict)))
        return out

    def __len__(self) -> int:
        return self.lhs.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.take(np.arange(len(self))[index])
        i = self._index(index)
        return self._make_rows(i, i + 1)[0]

    def __iter__(self):
        return iter(self._make_rows(0, len(self)))

    def __add__(self, other):
        if isinstance(other, (CheckTable, list)):
            return CheckTable.concat([self, other])
        return NotImplemented

    def __radd__(self, other):
        if isinstance(other, list):
            return CheckTable.concat([other, self])
        return NotImplemented
