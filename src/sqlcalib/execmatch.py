"""Execution-match labeling: run gold and predicted SQL through an executor
and compare result sets disregarding row order and (optionally) column order.

A predicted result is read only as far as its label needs: a column count
that differs from gold's fetches no row, at most one row more than gold has
is fetched, and a result of another shape is rejected before any cell is
canonicalized. The executor returns results raw. A prediction of gold's
shape is first matched on those raw values, which decide its label where
they can (`_raw_outcome`); only the other pairs canonicalize, the
prediction's cells and then gold's. Both searches share the predicted
query's deadline.

An executor runs every query on one read-only connection to its database. A
statement that does anything but read (a temp table, a pragma, an attached
database, an open transaction) closes that connection after it, so it cannot
change what a later query returns. SQLite prepares every run again, so each
run is judged on its own. A query the executor cannot run raises
`ExecutionError`, a `ValueError`: to the command line, a data error.

Gold's result is held by a `Gold`, which pairs sharing that gold query on
one database may reuse when its run was a pure read calling no volatile
function; a prediction whose text is such a gold's own then matches without
running.
"""

from __future__ import annotations

import math
import sqlite3
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, NamedTuple, Sequence

# Per-pair outcomes of `label_record`, in the order `label` reports them.
_OUTCOMES = ("matched", "mismatched", "pred error", "pred timeout",
             "shape or row-cap reject", "match timeout")
# Counted besides "matched" for a pair whose prediction did not run: its text
# is that of a gold that may be shared.
_IDENTICAL = "identical to gold"

# Authorizer actions of a statement that only reads; any other leaves the
# connection dirty.
_READ_ACTIONS = frozenset((sqlite3.SQLITE_SELECT, sqlite3.SQLITE_READ,
                           sqlite3.SQLITE_FUNCTION, sqlite3.SQLITE_RECURSIVE))

# Functions whose result can differ between two runs of one query on one
# database: a query calling any of them is never shared. The date/time
# functions are all listed, since any of them may be given 'now'.
_VOLATILE_FUNCTIONS = frozenset((
    "random", "randomblob", "changes", "total_changes", "last_insert_rowid",
    "date", "time", "datetime", "julianday", "unixepoch", "strftime", "timediff",
    "current_date", "current_time", "current_timestamp",
))


class ExecutionError(ValueError):
    """The executor could not produce a result table for a query: a data
    error, so the command line exits 1 with its text."""


class GoldExecutionError(ExecutionError):
    """The gold query failed: a dataset defect, not a wrong prediction."""


# Below this magnitude an integral float canonicalizes as its int, which it
# equals; from here up they differ: 10**15 == 1e15, but not their strings.
_INT_FLOAT_LIMIT = 1e15


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
        # inf and NaN fail both tests; format() renders them as inf, -inf and nan
        if -_INT_FLOAT_LIMIT < value < _INT_FLOAT_LIMIT and value.is_integer():
            return f"#{int(value)}"
        return "#" + format(value, ".6g")
    if isinstance(value, (bytes, bytearray)):
        return "b:" + bytes(value).hex()
    return "t:" + str(value)


def _canonical_column(column: tuple) -> Iterable[str]:
    """`canonical_cell` of every cell of one column."""
    return map(canonical_cell, column)


# Cell types whose Python equality implies equal `canonical_cell` strings, a
# float only below `_INT_FLOAT_LIMIT`.
_RAW_TYPES = frozenset((int, float, str, bytes))


def _raw_kinds(result: RawResult) -> set[type] | None:
    """The cell types of `result` when each of its columns holds one type of
    `_RAW_TYPES` and every float lies below `_INT_FLOAT_LIMIT` in magnitude
    (so it is neither NaN nor infinite); None otherwise. A NULL or
    mixed-type column could not be sorted."""
    kinds: set[type] = set()
    for column in zip(*result.rows):
        types = set(map(type, column))
        if len(types) != 1 or not types <= _RAW_TYPES:
            return None
        if float in types and not all(map(_INT_FLOAT_LIMIT.__gt__, map(abs, column))):
            return None
        kinds |= types
    return kinds


def _check_width(rows: Sequence[Sequence[Any]], n_cols: int) -> None:
    widths = set(map(len, rows)) - {n_cols}
    if widths:
        raise ValueError(f"row has {min(widths)} cells, table has {n_cols} columns")


class RawResult(NamedTuple):
    """A result as SQLite returned it, no cell canonicalized."""

    n_cols: int
    rows: list[tuple]


@dataclass(frozen=True)
class ResultTable:
    n_cols: int
    rows: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        _check_width(self.rows, self.n_cols)

    @classmethod
    def from_rows(cls, raw_rows: Iterable[Sequence[Any]], n_cols: int | None = None) -> "ResultTable":
        """The table of `canonical_cell` strings, canonicalized a column at a time."""
        raw_rows = list(raw_rows)
        if n_cols is None:
            n_cols = len(raw_rows[0]) if raw_rows else 0
        _check_width(raw_rows, n_cols)  # before zip(), which would cut a long row short
        if n_cols == 0:
            return cls(n_cols=0, rows=((),) * len(raw_rows))
        return cls(n_cols=n_cols, rows=tuple(zip(*map(_canonical_column, zip(*raw_rows)))))


def tables_equal(a: ResultTable | RawResult, b: ResultTable | RawResult,
                 strict_columns: bool = False, deadline: float | None = None) -> bool:
    """True iff some permutation of b's columns makes the row multisets equal.

    Cells compare by Python equality and each column is sorted, so a and b
    are canonical tables, or raw results that `_raw_kinds` accepts.

    A depth-first search gives a's columns, in order, unused b columns with the
    same value multiset, trying identical b columns once per position. Where a
    position has a choice, a branch ends once the rows projected so far differ.
    `strict_columns` compares columns positionally. Past `deadline` (a
    `time.monotonic()` value) the search raises TimeoutError; it looks at the
    clock at every step, since one step over many rows can take long.
    """
    if a.n_cols != b.n_cols or len(a.rows) != len(b.rows):
        return False
    if a.rows == b.rows:  # the identity column order, in either mode
        return True
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
        if deadline is not None and time.monotonic() > deadline:
            raise TimeoutError("column-order search ran past the deadline")
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


class Gold:
    """Gold's result on one executor, run once: its raw rows or its error, and
    its cell types (`_raw_kinds`) and canonical table, each found at most once.
    `shared` is true when gold ran as a pure read calling no volatile
    function, so that later pairs with the same gold SQL on the same
    executor may reuse this result instead of running gold again."""

    __slots__ = ("sql", "raw", "error", "shared", "_table", "_kinds")

    def __init__(self, sql: str, executor: SQLiteExecutor):
        self.sql = sql
        self.raw: RawResult | None = None
        self.error: ExecutionError | None = None
        try:
            self.raw = executor.execute(sql)
        except ExecutionError as exc:
            self.error = exc
        self.shared = executor.pure
        self._table: ResultTable | None = None

    def table(self) -> ResultTable:
        if self._table is None:
            self._table = ResultTable.from_rows(self.raw.rows, n_cols=self.raw.n_cols)
        return self._table

    def kinds(self) -> set[type] | None:
        if not hasattr(self, "_kinds"):  # the slot stays unset until the first call
            self._kinds = _raw_kinds(self.raw)
        return self._kinds


def _raw_outcome(gold: RawResult, pred: RawResult, strict_columns: bool, deadline: float,
                 gold_kinds: set[type] | None) -> str | None:
    """The outcome of two results of one shape when their raw values decide it,
    "matched" or "mismatched"; None when canonical strings must. Without a float
    column a raw mismatch is a mismatch: the canonical strings of int, str and
    bytes are injective, with disjoint tags. `gold_kinds` is `_raw_kinds(gold)`."""
    pred_kinds = None if gold_kinds is None else _raw_kinds(pred)
    if pred_kinds is None:
        return None
    if tables_equal(gold, pred, strict_columns, deadline):
        return "matched"
    return None if float in gold_kinds | pred_kinds else "mismatched"


def label_record(gold_sql: str, pred_sql: str, executor: SQLiteExecutor,
                 strict_columns: bool = False, outcomes: Counter | None = None,
                 gold: Gold | None = None) -> int:
    """Execution-accuracy label: 1 iff both queries run and their result
    tables match. A failing predicted query labels 0; a failing gold query
    raises (the dataset, not the prediction, is broken).

    `gold`, if given, is `Gold(gold_sql, executor)` from this or an earlier
    pair; otherwise gold runs here. A prediction whose text is a shared
    gold's own matches without running. The predicted query and the match
    search share one deadline, `executor.timeout_s` from the start of the
    predicted query; a search that runs past it labels 0, like a predicted
    query that times out. A prediction of gold's shape is decided on raw
    values where `_raw_outcome` can; otherwise its cells and then gold's
    are canonicalized, and gold's time is added to the deadline.
    `outcomes`, if given, counts the pair under one of `_OUTCOMES`, and under
    `_IDENTICAL` too when its prediction did not run.
    """
    if gold is None:
        gold = Gold(gold_sql, executor)
    if gold.error is not None:
        raise GoldExecutionError(f"gold query failed: {gold.error}") from gold.error
    if gold.shared and pred_sql == gold_sql:
        if outcomes is not None:
            outcomes[_IDENTICAL] += 1
            outcomes["matched"] += 1
        return 1
    deadline = time.monotonic() + executor.timeout_s
    try:
        pred = executor.execute(pred_sql, expect=gold.raw, deadline=deadline)
        if pred is None:
            outcome = "shape or row-cap reject"
        else:
            outcome = _raw_outcome(gold.raw, pred, strict_columns, deadline, gold.kinds())
        if outcome is None:
            pred_table = ResultTable.from_rows(pred.rows, n_cols=pred.n_cols)
            start = time.monotonic()
            gold_table = gold.table()
            deadline += time.monotonic() - start
            if tables_equal(gold_table, pred_table, strict_columns, deadline):
                outcome = "matched"
            else:
                outcome = "mismatched"
    except ExecutionError:
        outcome = "pred timeout" if time.monotonic() > deadline else "pred error"
    except TimeoutError:  # from tables_equal
        outcome = "match timeout"
    if outcomes is not None:
        outcomes[outcome] += 1
    return 1 if outcome == "matched" else 0


def _check_timeout(timeout_s: float) -> float:
    """`timeout_s`, if a positive finite number of seconds: NaN or infinity
    would disable the deadline, and zero or less time out every query."""
    if not 0.0 < timeout_s < math.inf:
        raise ValueError(f"timeout_s must be a positive finite number, got {timeout_s!r}")
    return timeout_s


class SQLiteExecutor:
    """Adapter for local single-file relational databases.

    Opens the file read-only, once, and runs every query on that connection;
    queries exceeding the timeout raise ExecutionError (which label_record
    maps to 0 for predictions). A statement that does anything but read
    marks the connection dirty: it is closed after that statement and the
    next query opens a fresh one. No statement is denied. The connection
    belongs to the thread that opened it: use one executor per thread.

    The connection keeps no statement cache (Python >= 3.11 honours
    `cached_statements=0`), so the authorizer sees every run. After a run,
    `pure` tells whether that statement was a read calling no volatile
    function: only such a result may be reused, since another run of any
    other could return otherwise. `timeout_s` must be a positive finite number.
    """

    def __init__(self, database: str | Path, timeout_s: float = 30.0):
        self.database = Path(database)
        self.timeout_s = _check_timeout(timeout_s)
        if not self.database.is_file():
            raise FileNotFoundError(f"database file not found: {self.database}")
        # as_uri() percent-encodes '?' and '#', which a formatted URI would
        # read as the start of its query or fragment
        self._uri = self.database.resolve().as_uri() + "?mode=ro"
        self._conn: sqlite3.Connection | None = None
        self._dirty = False
        self._volatile = False  # the statement being prepared calls a volatile function
        self.pure = False  # the last statement run was a read calling no volatile function

    def _authorize(self, action: int, _arg1: Any, arg2: Any, *_: Any) -> int:
        if action not in _READ_ACTIONS:
            self._dirty = True
        elif action == sqlite3.SQLITE_FUNCTION and arg2 in _VOLATILE_FUNCTIONS:
            self._volatile = True
        return sqlite3.SQLITE_OK

    def _connection(self) -> sqlite3.Connection:
        if self._conn is None:
            try:
                conn = sqlite3.connect(self._uri, uri=True, cached_statements=0)
            except sqlite3.Error as exc:
                raise ExecutionError(f"cannot open {self.database}: {exc}") from exc
            conn.set_authorizer(self._authorize)
            self._conn = conn
        return self._conn

    def close(self) -> None:
        """Close the connection; a later query opens a fresh one."""
        if self._conn is not None:
            self._conn.close()
        self._conn = None
        self._dirty = False

    def execute(self, sql: str, expect: RawResult | None = None,
                deadline: float | None = None) -> RawResult | None:
        """The result of `sql` as SQLite returned it, stopped at `deadline`
        (a `time.monotonic()` value; default `timeout_s` from now).

        Given the result `expect` it must match, the result is None when it
        has another column count (no row is fetched) or another row count
        (at most `len(expect.rows) + 1` rows are fetched: enough to tell that
        the result has more rows than `expect`). A row past that count that
        fails to evaluate also gives None, not an error: the result has it;
        but a query stopped at the deadline while it looks for that row
        raises, as any other timeout.
        """
        if deadline is None:
            deadline = time.monotonic() + self.timeout_s

        def watchdog() -> int:
            return 1 if time.monotonic() > deadline else 0

        cursor = None
        self._volatile = False
        try:
            conn = self._connection()
            conn.set_progress_handler(watchdog, 10_000)
            cursor = conn.execute(sql)
            n_cols = len(cursor.description) if cursor.description else 0
            if expect is None:
                rows = cursor.fetchall()
            elif n_cols != expect.n_cols:
                return None
            else:
                # The cursor evaluates the next row as it returns one, so
                # fetching n - 1 rows evaluates the first n: a failure there
                # is the prediction's own.
                n = len(expect.rows)
                rows = cursor.fetchmany(n - 1) if n > 1 else []
                try:
                    # row n and row n + 1 (evaluating rows n + 1 and n + 2)
                    rest = [cursor.fetchone()] if n else []
                    rest.append(cursor.fetchone())
                except sqlite3.Error:
                    if time.monotonic() > deadline:
                        raise  # interrupted by the watchdog: no further row is known
                    return None  # a row past the expected count failed: it is there
                rows += [row for row in rest if row is not None]
                if len(rows) != n:
                    return None
        except sqlite3.Error as exc:
            raise ExecutionError(str(exc)) from exc
        finally:
            if cursor is not None:
                cursor.close()  # the row cap can leave the statement unfinished
            self.pure = not (self._dirty or self._volatile)
            if self._dirty:
                self.close()
        return RawResult(n_cols, rows)
