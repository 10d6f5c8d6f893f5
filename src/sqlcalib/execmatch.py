"""Execution-match labeling: run gold and predicted SQL through an executor
and compare result sets disregarding row order and (optionally) column order.
"""

from __future__ import annotations

import sqlite3
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Sequence


class ExecutionError(Exception):
    """The executor could not produce a result table for a query."""


class GoldExecutionError(ExecutionError):
    """The gold query failed: a dataset defect, not a wrong prediction."""


def canonical_cell(value: Any) -> str:
    """Render a scalar to a canonical, type-tagged string.

    Nulls compare equal only to nulls. Numeric cells are quantized to six
    significant digits, absorbing engine-dependent float formatting while
    keeping equality transitive; infinities and NaN get their own tags
    (#inf, #-inf, #nan). Everything else compares as exact text.
    """
    if value is None:
        return "n"
    if isinstance(value, bool):
        value = int(value)
    if isinstance(value, int):
        return f"#{value}"
    if isinstance(value, float):
        # the magnitude test comes first: int() of inf or NaN raises, and
        # format() renders them as inf, -inf and nan
        if abs(value) < 1e15 and value == int(value):
            return f"#{int(value)}"
        return "#" + format(value, ".6g")
    if isinstance(value, (bytes, bytearray)):
        return "b:" + bytes(value).hex()
    return "t:" + str(value)


@dataclass(frozen=True)
class ResultTable:
    n_cols: int
    rows: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        for row in self.rows:
            if len(row) != self.n_cols:
                raise ValueError(f"row has {len(row)} cells, table has {self.n_cols} columns")

    @classmethod
    def from_rows(cls, raw_rows: Iterable[Sequence[Any]], n_cols: int | None = None) -> "ResultTable":
        rows = tuple(tuple(canonical_cell(v) for v in row) for row in raw_rows)
        if n_cols is None:
            n_cols = len(rows[0]) if rows else 0
        return cls(n_cols=n_cols, rows=rows)


def tables_equal(a: ResultTable, b: ResultTable, strict_columns: bool = False) -> bool:
    """True iff some permutation of b's columns makes the row multisets equal.

    A depth-first search gives a's columns, in order, unused b columns with the
    same value multiset, trying identical b columns once per position. Where a
    position has a choice, a branch ends once the rows projected so far differ.
    `strict_columns` compares columns positionally.
    """
    if a.n_cols != b.n_cols or len(a.rows) != len(b.rows):
        return False
    if strict_columns or a.n_cols == 0 or not a.rows:
        return sorted(a.rows) == sorted(b.rows)

    cols_a = list(zip(*a.rows))
    unused = Counter(zip(*b.rows))  # b columns of identical contents are interchangeable
    by_values: dict[tuple[str, ...], list[tuple[str, ...]]] = {}
    for col in unused:
        by_values.setdefault(tuple(sorted(col)), []).append(col)
    candidates = [by_values.get(tuple(sorted(col)), []) for col in cols_a]

    assigned: list[tuple[str, ...]] = []  # the b column given to each of a's columns
    stack = [iter(candidates[0])]  # the untried candidates of each position
    while stack:
        i = len(assigned)
        for col in stack[-1]:
            # row multisets compare as dict items views: in C, unlike Counter.__eq__
            if unused[col] and ((len(candidates[i]) == 1 and i + 1 < len(cols_a))
                                or Counter(zip(*cols_a[:i + 1])).items()
                                == Counter(zip(*assigned, col)).items()):
                break
        else:
            stack.pop()
            if assigned:
                unused[assigned.pop()] += 1
            continue
        if i + 1 == len(cols_a):
            return True
        unused[col] -= 1
        assigned.append(col)
        stack.append(iter(candidates[i + 1]))
    return False


def label_record(gold_sql: str, pred_sql: str, executor: SQLiteExecutor,
                 strict_columns: bool = False) -> int:
    """Execution-accuracy label: 1 iff both queries run and their result
    tables match. A failing predicted query labels 0; a failing gold query
    raises (the dataset, not the prediction, is broken)."""
    try:
        gold = executor.execute(gold_sql)
    except ExecutionError as exc:
        raise GoldExecutionError(f"gold query failed: {exc}") from exc
    try:
        pred = executor.execute(pred_sql)
    except ExecutionError:
        return 0
    return 1 if tables_equal(gold, pred, strict_columns=strict_columns) else 0


class SQLiteExecutor:
    """Adapter for local single-file relational databases.

    Opens the file read-only; queries exceeding the timeout raise
    ExecutionError (which label_record maps to 0 for predictions).
    """

    def __init__(self, database: str | Path, timeout_s: float = 30.0):
        self.database = Path(database)
        self.timeout_s = timeout_s
        if not self.database.exists():
            raise FileNotFoundError(f"database file not found: {self.database}")
        # as_uri() percent-encodes '?' and '#', which a formatted URI would
        # read as the start of its query or fragment
        self._uri = self.database.resolve().as_uri() + "?mode=ro"

    def execute(self, sql: str) -> ResultTable:
        try:
            conn = sqlite3.connect(self._uri, uri=True)
        except sqlite3.Error as exc:
            raise ExecutionError(f"cannot open {self.database}: {exc}") from exc
        deadline = time.monotonic() + self.timeout_s

        def watchdog() -> int:
            return 1 if time.monotonic() > deadline else 0

        conn.set_progress_handler(watchdog, 10_000)
        try:
            cursor = conn.execute(sql)
            rows = cursor.fetchall()
            n_cols = len(cursor.description) if cursor.description else 0
        except sqlite3.Error as exc:
            raise ExecutionError(str(exc)) from exc
        finally:
            conn.close()
        return ResultTable.from_rows(rows, n_cols=n_cols)
