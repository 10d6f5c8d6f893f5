"""Execution-match labeling: run gold and predicted SQL through an executor
and compare result sets disregarding row order and (optionally) column order.
"""

from __future__ import annotations

import sqlite3
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from itertools import permutations, product
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

    def column(self, j: int) -> tuple[str, ...]:
        return tuple(row[j] for row in self.rows)


class QueryExecutor(ABC):
    """Runs SQL and returns a ResultTable, deterministically for a fixed
    database state."""

    @abstractmethod
    def execute(self, sql: str) -> ResultTable:
        """Return the result table, or raise ExecutionError."""


def _column_fingerprint(table: ResultTable, j: int) -> tuple[str, ...]:
    return tuple(sorted(table.column(j)))


def tables_equal(a: ResultTable, b: ResultTable, strict_columns: bool = False) -> bool:
    """True iff the tables hold the same multiset of rows up to column order.

    Column-order insensitivity means: some permutation of b's columns makes
    the row multisets equal. The search matches per-column value multisets
    first and brute-forces permutations only within groups of columns that
    share a fingerprint. `strict_columns` compares columns positionally.
    """
    if a.n_cols != b.n_cols or len(a.rows) != len(b.rows):
        return False
    if strict_columns or a.n_cols == 0:
        return sorted(a.rows) == sorted(b.rows)

    k = a.n_cols
    fps_a = [_column_fingerprint(a, j) for j in range(k)]
    fps_b = [_column_fingerprint(b, j) for j in range(k)]
    if sorted(fps_a) != sorted(fps_b):
        return False

    groups: dict[tuple[str, ...], tuple[list[int], list[int]]] = {}
    for j, fp in enumerate(fps_a):
        groups.setdefault(fp, ([], []))[0].append(j)
    for j, fp in enumerate(fps_b):
        if fp not in groups:
            return False
        groups[fp][1].append(j)

    sorted_a = sorted(a.rows)
    group_list = list(groups.values())
    # candidate assignments: for each group, a bijection b-columns -> a-columns
    for choice in product(*(permutations(pos_b) for _, pos_b in group_list)):
        mapping = [0] * k  # a-column position -> b-column position
        for (pos_a, _), perm in zip(group_list, choice):
            for target, source in zip(pos_a, perm):
                mapping[target] = source
        rearranged = sorted(tuple(row[mapping[j]] for j in range(k)) for row in b.rows)
        if rearranged == sorted_a:
            return True
    return False


def label_record(gold_sql: str, pred_sql: str, executor: QueryExecutor,
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


class SQLiteExecutor(QueryExecutor):
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
