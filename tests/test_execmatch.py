import itertools
import sqlite3
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import tables_equal_exhaustive
from sqlcalib import execmatch
from sqlcalib.execmatch import (
    ExecutionError,
    Gold,
    GoldExecutionError,
    RawResult,
    ResultTable,
    SQLiteExecutor,
    canonical_cell,
    label_record,
    tables_equal,
)

cell_values = st.one_of(
    st.none(),
    st.integers(min_value=-3, max_value=3),
    st.sampled_from(["a", "b", "NULL"]),
    st.sampled_from([1.5, 2.0]),
)


# values whose canonical strings sit on a boundary of canonical_cell's rules
edge_floats = st.sampled_from([
    2.9999999, 3.0000001, 123456.7, 1e15, -1e15, 1e15 - 1, -(1e15 - 1), 0.0, -0.0,
    float("nan"), float("inf"), float("-inf"), 1e308, 5e-324, 0.1, 2.5,
])
typed_cells = {
    "int": st.one_of(st.integers(), st.sampled_from([2**53 + 1, -(2**53) - 1, 2**63 - 1, 10**15])),
    "str": st.text(max_size=5),
    "float": st.one_of(st.floats(), edge_floats),
}
any_cell = st.one_of(*typed_cells.values(), st.none(), st.booleans(), st.binary(max_size=4))


def typed_tables(max_cols=4, max_rows=8):
    """Raw rows whose columns each hold one type, or any mix of types."""
    column = st.sampled_from([*typed_cells, "mixed"]).map(
        lambda kind: typed_cells.get(kind, any_cell))
    return st.lists(column, min_size=1, max_size=max_cols).flatmap(
        lambda kinds: st.lists(st.tuples(*kinds), max_size=max_rows))


def small_tables(max_cols=4, max_rows=6):
    return st.integers(min_value=1, max_value=max_cols).flatmap(
        lambda k: st.lists(
            st.lists(cell_values, min_size=k, max_size=k), min_size=0, max_size=max_rows
        ).map(lambda rows: ResultTable.from_rows(rows, n_cols=k))
    )


class TestCanonicalCell:
    def test_null_distinct_from_null_string(self):
        assert canonical_cell(None) != canonical_cell("NULL")

    def test_int_and_integral_float_collapse(self):
        assert canonical_cell(2) == canonical_cell(2.0)

    def test_float_formatting_noise_absorbed(self):
        assert canonical_cell(0.1) == canonical_cell(0.10000000000000001)

    def test_distinct_numbers_stay_distinct(self):
        assert canonical_cell(1.5) != canonical_cell(1.6)

    def test_infinities_and_nan_are_tagged(self):
        assert canonical_cell(float("inf")) == "#inf"
        assert canonical_cell(float("-inf")) == "#-inf"
        assert canonical_cell(float("nan")) == "#nan"
        assert len({canonical_cell(v) for v in (float("inf"), float("-inf"), 1e308)}) == 3

    def test_text_is_exact(self):
        assert canonical_cell("1") != canonical_cell(1)
        assert canonical_cell("a") != canonical_cell("a ")

    def test_near_integers_collapse_at_six_digits(self):
        assert canonical_cell(2.9999999) == canonical_cell(3) == canonical_cell(3.0000001) == "#3"
        assert canonical_cell(123456.7) == canonical_cell(123457) == "#123457"


class TestFromRows:
    @given(typed_tables())
    @settings(max_examples=300, deadline=None)
    def test_equals_canonical_cell_per_cell(self, rows):
        table = ResultTable.from_rows(rows)
        assert table.rows == tuple(tuple(canonical_cell(v) for v in row) for row in rows)

    def test_edge_values_in_one_type_columns(self):
        floats = [2.9999999, 3.0000001, 123456.7, 1e15, -1e15, 1e15 - 1, -0.0,
                  float("nan"), float("inf"), float("-inf")]
        ints = [2**53 + 1, -(2**53) - 1, 3, 0, -7, 2**63 - 1, 10**15, 123457, 1, 2]
        rows = list(zip(floats, ints, map(str, ints)))
        table = ResultTable.from_rows(rows)
        assert [row[0] for row in table.rows] == [
            "#3", "#3", "#123457", "#1e+15", "#-1e+15", "#999999999999999", "#0",
            "#nan", "#inf", "#-inf"]
        assert table.rows == tuple(tuple(canonical_cell(v) for v in row) for row in rows)

    def test_bools_bytes_and_nulls_keep_their_tags(self):
        table = ResultTable.from_rows([(True, b"\x01", None), (False, bytearray(b"a"), "x")])
        assert table.rows == (("#1", "b:01", "n"), ("#0", "b:61", "t:x"))

    @given(st.lists(st.one_of(st.floats(), edge_floats,
                              st.integers(-(2**62), 2**62).map(float)), min_size=1, max_size=40))
    @settings(max_examples=500, deadline=None)
    def test_float_column_equals_canonical_cell_per_cell(self, column):
        keys = list(execmatch._canonical_column(tuple(column)))
        assert keys == [canonical_cell(v) for v in column]

    def test_zero_column_rows_are_kept(self):
        assert ResultTable.from_rows([(), ()]).rows == ((), ())

    @pytest.mark.parametrize("rows", [[[1, 2], [1, 2, 3]], [[1, 2], [1]]])
    def test_ragged_row_rejected(self, rows):
        with pytest.raises(ValueError, match="cells, table has 2 columns"):
            ResultTable.from_rows(rows, n_cols=2)


class TestTablesEqual:
    def test_row_shuffle(self):
        a = ResultTable.from_rows([["x", 1], ["y", 2], ["z", 3]])
        b = ResultTable.from_rows([["z", 3], ["x", 1], ["y", 2]])
        assert tables_equal(a, b)

    def test_column_swap(self):
        a = ResultTable.from_rows([["x", 1], ["y", 2]])
        b = ResultTable.from_rows([[1, "x"], [2, "y"]])
        assert tables_equal(a, b)
        assert not tables_equal(a, b, strict_columns=True)

    def test_different_counts(self):
        a = ResultTable.from_rows([["x"]])
        b = ResultTable.from_rows([["x"], ["x"]])
        assert not tables_equal(a, b)

    def test_column_count_mismatch(self):
        a = ResultTable.from_rows([["x", 1]])
        b = ResultTable.from_rows([["x"]])
        assert not tables_equal(a, b)

    def test_same_fingerprints_different_alignment(self):
        # identical per-column multisets but no permutation aligns the rows
        a = ResultTable.from_rows([[0, 1], [1, 0]])
        b = ResultTable.from_rows([[0, 0], [1, 1]])
        assert not tables_equal(a, b)

    def test_duplicate_fingerprint_columns(self):
        a = ResultTable.from_rows([[1, 2, "u"], [2, 1, "v"]])
        b = ResultTable.from_rows([[2, 1, "u"], [1, 2, "v"]])  # first two columns swapped
        assert tables_equal(a, b)

    def test_empty_tables(self):
        a = ResultTable.from_rows([], n_cols=2)
        b = ResultTable.from_rows([], n_cols=2)
        assert tables_equal(a, b)
        # equal (empty) rows do not make tables of other widths equal
        assert not tables_equal(a, ResultTable.from_rows([], n_cols=1))
        assert not tables_equal(ResultTable.from_rows([], n_cols=1), a, strict_columns=True)

    def test_identical_rows_are_equal_in_both_modes(self):
        a = ResultTable.from_rows([[1, 2, "u"], [2, 1, "v"]])
        b = ResultTable.from_rows([[1, 2, "u"], [2, 1, "v"]])
        assert tables_equal(a, b)
        assert tables_equal(a, b, strict_columns=True)
        assert tables_equal(a, b, deadline=time.monotonic() - 1)  # no search runs

    @given(small_tables())
    @settings(max_examples=100)
    def test_reflexive_and_shuffle_invariant(self, table):
        assert tables_equal(table, table)
        rows = list(table.rows)[::-1]
        assert tables_equal(table, ResultTable(n_cols=table.n_cols, rows=tuple(rows)))

    @given(small_tables(), small_tables())
    @settings(max_examples=150, deadline=None)
    def test_symmetric_and_matches_exhaustive(self, a, b):
        assert tables_equal(a, b) == tables_equal(b, a)
        assert tables_equal(a, b) == tables_equal_exhaustive(a, b)

    def test_random_pairs_against_oracle(self):
        rng = np.random.Generator(np.random.PCG64(23))
        vals = ["x", "y", None, 1, 2.5]
        for trial in range(300):
            k = int(rng.integers(1, 6))
            n = int(rng.integers(0, 9))
            rows_a = [[vals[rng.integers(0, len(vals))] for _ in range(k)] for _ in range(n)]
            if rng.random() < 0.5:
                perm = rng.permutation(k)
                rows_b = [[row[j] for j in perm] for row in rows_a]
                rows_b = [rows_b[i] for i in rng.permutation(n)]
            else:
                rows_b = [[vals[rng.integers(0, len(vals))] for _ in range(k)] for _ in range(n)]
            ta = ResultTable.from_rows(rows_a, n_cols=k)
            tb = ResultTable.from_rows(rows_b, n_cols=k)
            assert tables_equal(ta, tb) == tables_equal_exhaustive(ta, tb)

    @pytest.mark.parametrize("k", [9, 12])
    @pytest.mark.parametrize("match", [True, False])
    def test_wide_tables_sharing_one_value_multiset(self, k, match):
        # every column is a shuffle of the same 60 values, so the value
        # multisets leave all k! column orders open
        rng = np.random.Generator(np.random.PCG64(k))
        base = [i % 6 for i in range(60)]
        rows_a = np.stack([rng.permutation(base) for _ in range(k)], axis=1).tolist()
        perm = rng.permutation(k)
        rows_b = [[rows_a[i][j] for j in perm] for i in rng.permutation(60)]
        if not match:  # swap two different cells of one column
            i = next(i for i, row in enumerate(rows_b) if row[0] != rows_b[0][0])
            rows_b[0][0], rows_b[i][0] = rows_b[i][0], rows_b[0][0]
        a, b = ResultTable.from_rows(rows_a), ResultTable.from_rows(rows_b)
        # a column permutation keeps each row's multiset of cells
        assert (sorted(map(sorted, a.rows)) == sorted(map(sorted, b.rows))) == match
        start = time.perf_counter()
        assert tables_equal(a, b) == match
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("k", [4, 5])
    def test_parity_tables_against_oracle(self, k):
        # k - 1 free bits plus their parity, and the same bits with the negated
        # parity: every projection short of all k columns agrees
        bits = [list(row) for row in itertools.product((0, 1), repeat=k - 1)]
        a = ResultTable.from_rows([row + [sum(row) % 2] for row in bits])
        b = ResultTable.from_rows([row + [1 - sum(row) % 2] for row in bits])
        shuffled = ResultTable(n_cols=k, rows=tuple(row[::-1] for row in a.rows))
        assert not tables_equal(a, b) and not tables_equal_exhaustive(a, b)
        assert tables_equal(a, shuffled) and tables_equal_exhaustive(a, shuffled)

    def test_search_past_its_deadline_raises_timeout(self):
        # k = 8 parity tables take several seconds to exhaust without a deadline
        bits = [list(row) for row in itertools.product((0, 1), repeat=7)]
        a = ResultTable.from_rows([row + [sum(row) % 2] for row in bits])
        b = ResultTable.from_rows([row + [1 - sum(row) % 2] for row in bits])
        start = time.perf_counter()
        with pytest.raises(TimeoutError):
            tables_equal(a, b, deadline=time.monotonic() + 0.2)
        assert time.perf_counter() - start < 1.0

    def test_a_deadline_does_not_change_the_answer(self):
        a = ResultTable.from_rows([[1, 2, "u"], [2, 1, "v"]])
        b = ResultTable.from_rows([[2, 1, "u"], [1, 2, "v"]])
        assert tables_equal(a, b, deadline=time.monotonic() + 60)
        assert not tables_equal(a, ResultTable.from_rows([[1, 2, "u"], [1, 2, "v"]]),
                                deadline=time.monotonic() + 60)

    def test_repeated_identical_columns_against_oracle(self):
        rng = np.random.Generator(np.random.PCG64(5))
        for trial in range(200):
            n = int(rng.integers(1, 7))
            bases = [[int(v) for v in rng.integers(0, 2, n)] for _ in range(3)]
            k = int(rng.integers(2, 6))
            picks_a = rng.integers(0, len(bases), k)
            rows_a = [[bases[p][i] for p in picks_a] for i in range(n)]
            if rng.random() < 0.5:
                perm = rng.permutation(k)
                rows_b = [[row[j] for j in perm] for row in rows_a]
            else:
                picks_b = rng.integers(0, len(bases), k)
                rows_b = [[bases[p][i] for p in picks_b] for i in range(n)]
            ta, tb = ResultTable.from_rows(rows_a), ResultTable.from_rows(rows_b)
            assert tables_equal(ta, tb) == tables_equal_exhaustive(ta, tb)


@pytest.fixture
def db(tmp_path):
    path = tmp_path / "demo.sqlite"
    conn = sqlite3.connect(path)
    conn.executescript(
        """
        CREATE TABLE singer (name TEXT, age INTEGER, country TEXT);
        INSERT INTO singer VALUES ('Ava', 30, 'FR'), ('Ben', 25, 'US'), ('Caz', 30, NULL);
        """
    )
    conn.commit()
    conn.close()
    return path


class TestSQLiteExecutor:
    def test_executes_and_shapes(self, db):
        ex = SQLiteExecutor(db)
        table = ex.execute("SELECT name, age FROM singer ORDER BY name")
        assert table.n_cols == 2
        assert len(table.rows) == 3

    def test_bad_sql_raises_execution_error(self, db):
        with pytest.raises(ExecutionError):
            SQLiteExecutor(db).execute("SELEC nope")

    def test_missing_database(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            SQLiteExecutor(tmp_path / "absent.sqlite")

    def test_read_only(self, db):
        ex = SQLiteExecutor(db)
        with pytest.raises(ExecutionError):
            ex.execute("INSERT INTO singer VALUES ('Dex', 1, 'DE')")

    def test_path_with_uri_characters_opens_that_file(self, tmp_path):
        path = tmp_path / "x?y#z.sqlite"
        conn = sqlite3.connect(path)
        conn.executescript("CREATE TABLE t (v INTEGER); INSERT INTO t VALUES (7);")
        conn.commit()
        conn.close()
        (tmp_path / "x").write_bytes(b"")  # the file a formatted URI would open
        assert SQLiteExecutor(path).execute("SELECT v FROM t").rows == [(7,)]

    def test_query_past_the_timeout_raises_execution_error(self, db):
        endless = ("WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM c) "
                   "SELECT max(x) FROM c")
        with pytest.raises(ExecutionError, match="interrupted"):
            SQLiteExecutor(db, timeout_s=0.05).execute(endless)

    @pytest.mark.parametrize("timeout_s", [float("nan"), float("inf"), 0, -1])
    def test_timeout_must_be_positive_and_finite(self, db, timeout_s):
        # NaN or infinity would disable the deadline; zero or less would time out every query
        with pytest.raises(ValueError, match="timeout_s must be a positive finite number"):
            SQLiteExecutor(db, timeout_s=timeout_s)

    def test_deterministic(self, db):
        ex = SQLiteExecutor(db)
        sql = "SELECT * FROM singer"
        assert ex.execute(sql) == ex.execute(sql)

    def test_other_column_count_fetches_no_row(self, db):
        ex = SQLiteExecutor(db)
        gold = ex.execute("SELECT name FROM singer")
        assert ex.execute("SELECT name, age FROM singer", expect=gold) is None
        # the second row fails when it is evaluated; a fetch would reach it
        second_fails = ("SELECT name, CASE WHEN rowid < 2 THEN age "
                        "ELSE abs(-9223372036854775806 - rowid) END FROM singer")
        with pytest.raises(ExecutionError, match="integer overflow"):
            ex.execute(second_fails)
        assert ex.execute(second_fails, expect=gold) is None

    def test_fetch_stops_one_row_past_the_expected_count(self, db):
        ex = SQLiteExecutor(db)
        gold = ex.execute("SELECT name FROM singer WHERE age = 25")
        assert ex.execute("SELECT name FROM singer", expect=gold) is None
        assert ex.execute("SELECT name FROM singer WHERE age = 30", expect=gold) is None
        empty = ex.execute("SELECT name FROM singer WHERE age > 99")
        assert ex.execute("SELECT name FROM singer", expect=empty) is None
        # the third row fails when it is evaluated; a fetch of one row stops before it
        third_fails = ("SELECT CASE WHEN rowid < 3 THEN name "
                       "ELSE abs(-9223372036854775805 - rowid) END FROM singer")
        with pytest.raises(ExecutionError, match="integer overflow"):
            ex.execute(third_fails)
        assert ex.execute(third_fails, expect=empty) is None
        one = ex.execute("SELECT name FROM singer WHERE age = 25")
        # a fetch of two rows would fail at the third, which lies past one gold row
        assert ex.execute(third_fails, expect=one) is None
        second_fails = ("SELECT CASE WHEN rowid < 2 THEN name "
                        "ELSE abs(-9223372036854775806 - rowid) END FROM singer")
        assert ex.execute(second_fails, expect=one) is None
        first_fails = "SELECT abs(-9223372036854775807 - rowid) FROM singer"
        with pytest.raises(ExecutionError, match="integer overflow"):
            ex.execute(first_fails, expect=one)
        assert ex.execute("SELECT country FROM singer WHERE age = 25", expect=gold) == (
            RawResult(1, [("US",)]))


class TestConnectionReuse:
    PROBES = ("SELECT name FROM singer", "SELECT name FROM pragma_database_list")

    def test_one_connection_serves_every_read(self, db, monkeypatch):
        opened = []
        connect = sqlite3.connect
        monkeypatch.setattr(sqlite3, "connect", lambda *a, **k: opened.append(1) or connect(*a, **k))
        ex = SQLiteExecutor(db)
        for sql in ("SELECT name FROM singer", "SELEC nope", "SELECT count(*) FROM singer"):
            try:
                ex.execute(sql)
            except ExecutionError:
                pass
        assert len(opened) == 1

    @pytest.mark.parametrize("statement", [
        "CREATE TEMP TABLE singer AS SELECT 1 AS name",
        "PRAGMA reverse_unordered_selects=1",
        "ATTACH ':memory:' AS x",
        "BEGIN",
    ])
    def test_a_statement_that_is_not_a_read_leaves_no_state(self, db, statement):
        ex = SQLiteExecutor(db)
        ex.execute("SELECT name FROM singer")  # the connection is open
        try:
            ex.execute(statement)
        except ExecutionError:
            pass
        for sql in self.PROBES:
            assert ex.execute(sql) == SQLiteExecutor(db).execute(sql)
        # no transaction is left open: another connection can write, and the
        # executor sees the write
        writer = sqlite3.connect(db, timeout=0)
        writer.execute("INSERT INTO singer VALUES ('Dee', 41, 'NZ')")
        writer.commit()
        writer.close()
        for sql in self.PROBES:
            assert ex.execute(sql) == SQLiteExecutor(db).execute(sql)

    def test_a_later_pair_keeps_its_label(self, db):
        ex = SQLiteExecutor(db)
        gold = "SELECT name FROM singer"
        assert label_record(gold, "CREATE TEMP TABLE singer AS SELECT 'Zed' AS name", ex) == 0
        assert label_record(gold, "SELECT name FROM singer ORDER BY name DESC", ex) == 1
        assert label_record(gold, "PRAGMA reverse_unordered_selects=1", ex) == 0
        first = "SELECT name FROM singer LIMIT 1"
        assert label_record(first, "SELECT 'Ava'", ex) == 1

    def test_table_valued_function_reads_run(self, db):
        ex = SQLiteExecutor(db)
        assert ex.execute("SELECT value FROM json_each('[1, 2]')").rows == [(1,), (2,)]
        assert ex.execute("SELECT name FROM pragma_table_info('singer')").rows == [
            ("name",), ("age",), ("country",)]
        assert ex.execute("SELECT count(*) FROM singer").rows == [(3,)]

    def test_close_then_reopen(self, db):
        ex = SQLiteExecutor(db)
        assert ex.execute("SELECT age FROM singer WHERE name = 'Ben'").rows == [(25,)]
        ex.close()
        ex.close()
        assert ex.execute("SELECT age FROM singer WHERE name = 'Ben'").rows == [(25,)]

    def test_raw_result_keeps_sqlite_values(self, db):
        raw = SQLiteExecutor(db).execute("SELECT name, age, country FROM singer")
        assert raw == RawResult(3, [("Ava", 30, "FR"), ("Ben", 25, "US"), ("Caz", 30, None)])


class TestGoldSharing:
    @pytest.mark.parametrize("sql", [
        "SELECT random()", "SELECT CURRENT_TIMESTAMP", "SELECT date('now')",
        "SELECT randomblob(4)", "SELECT strftime('%s', 'now')", "SELECT changes()",
        "SELECT name FROM singer WHERE age < random()",
    ])
    def test_volatile_gold_is_not_shared(self, db, sql):
        ex = SQLiteExecutor(db)
        for _ in range(2):  # the second run is prepared, and judged, again
            assert not Gold(sql, ex).shared

    @pytest.mark.parametrize("sql", [
        "PRAGMA table_info(singer)",
        "SELECT value FROM json_each('[1, 2]')",
        "SELECT name FROM pragma_table_info('singer')",
    ])
    def test_dirty_gold_is_not_shared(self, db, sql):
        ex = SQLiteExecutor(db)
        gold = Gold(sql, ex)
        assert gold.error is None
        assert not gold.shared

    @pytest.mark.parametrize("sql", ["SELECT name FROM singer",
                                     "SELECT abs(age), upper(name) FROM singer"])
    def test_pure_read_is_shared(self, db, sql):
        ex = SQLiteExecutor(db)
        for _ in range(2):
            assert Gold(sql, ex).shared

    def test_each_run_is_judged_on_its_own(self, db):
        ex = SQLiteExecutor(db)
        for sql, shared in [("SELECT random()", False), ("SELECT name FROM singer", True),
                            ("PRAGMA table_info(singer)", False), ("SELECT name FROM singer", True),
                            ("SELECT random()", False), ("SELECT bogus FROM singer", True)]:
            assert Gold(sql, ex).shared is shared

    def test_volatile_text_first_run_as_a_prediction_is_not_shared_as_gold(self, db):
        # a default sqlite3 connection's statement cache runs a text again
        # without the authorizer; the executor's connection caches none
        seen = []
        conn = sqlite3.connect(db)
        conn.set_authorizer(lambda action, arg1, arg2, *_: seen.append(arg2) or sqlite3.SQLITE_OK)
        for _ in range(2):
            conn.execute("SELECT random()").fetchall()
        conn.close()
        assert seen.count("random") == 1

        ex = SQLiteExecutor(db)
        outcomes = Counter()
        assert label_record("SELECT 1", "SELECT random()", ex, outcomes=outcomes) == 0
        gold = Gold("SELECT random()", ex)  # prepared again
        assert not gold.shared
        assert label_record(gold.sql, gold.sql, ex, outcomes=outcomes, gold=gold) == 0
        assert outcomes == Counter({"mismatched": 2})

    def test_identical_prediction_of_a_shared_gold_does_not_run(self, db, monkeypatch):
        ex = SQLiteExecutor(db)
        gold = Gold("SELECT name FROM singer", ex)
        monkeypatch.setattr(ex, "execute", lambda *args, **kwargs: pytest.fail("a query ran"))
        outcomes = Counter()
        assert label_record(gold.sql, gold.sql, ex, outcomes=outcomes, gold=gold) == 1
        assert outcomes == Counter({"matched": 1, execmatch._IDENTICAL: 1})

    def test_gold_is_canonicalized_once_for_every_pair_sharing_it(self, db, monkeypatch):
        ex = SQLiteExecutor(db)
        gold = Gold("SELECT name, age FROM singer", ex)
        tables = []
        from_rows = ResultTable.from_rows.__func__

        def counted(cls, *args, **kwargs):
            tables.append(1)
            return from_rows(cls, *args, **kwargs)

        monkeypatch.setattr(ResultTable, "from_rows", classmethod(counted))
        for pred in ("SELECT age, name FROM singer", "SELECT name, age + 1 FROM singer",
                     "SELECT name, age FROM singer ORDER BY age"):
            label_record(gold.sql, pred, ex, gold=gold)
        assert len(tables) == 3 + 1  # every prediction's table, and gold's once

    def test_failing_gold_fails_every_pair_sharing_it(self, db):
        ex = SQLiteExecutor(db)
        gold = Gold("SELECT bogus FROM singer", ex)
        assert gold.shared
        for pred in ("SELECT name FROM singer", gold.sql):
            with pytest.raises(GoldExecutionError, match="no such column: bogus"):
                label_record(gold.sql, pred, ex, gold=gold)


class TestLabelRecord:
    def test_identical_queries_label_one(self, db):
        ex = SQLiteExecutor(db)
        sql = "SELECT name FROM singer"
        assert label_record(sql, sql, ex) == 1

    def test_row_and_column_order_ignored(self, db):
        ex = SQLiteExecutor(db)
        gold = "SELECT name, age FROM singer ORDER BY name"
        pred = "SELECT age, name FROM singer ORDER BY age"
        assert label_record(gold, pred, ex) == 1
        assert label_record(gold, pred, ex, strict_columns=True) == 0

    def test_pred_syntax_error_labels_zero(self, db):
        ex = SQLiteExecutor(db)
        assert label_record("SELECT name FROM singer", "SELEC nope", ex) == 0

    def test_extra_column_labels_zero(self, db):
        ex = SQLiteExecutor(db)
        gold = "SELECT name FROM singer"
        pred = "SELECT name, age FROM singer"
        assert label_record(gold, pred, ex) == 0

    def test_wrong_result_labels_zero(self, db):
        ex = SQLiteExecutor(db)
        gold = "SELECT name FROM singer WHERE age = 30"
        pred = "SELECT name FROM singer WHERE age = 25"
        assert label_record(gold, pred, ex) == 0

    def test_gold_failure_is_hard_error(self, db):
        ex = SQLiteExecutor(db)
        with pytest.raises(GoldExecutionError):
            label_record("SELECT missing_col FROM singer", "SELECT name FROM singer", ex)

    def test_infinite_results_label_without_crashing(self, db):
        ex = SQLiteExecutor(db)
        assert label_record("SELECT 1e999", "SELECT 2e999", ex) == 1
        assert label_record("SELECT 1e999", "SELECT -1e999", ex) == 0

    def test_null_only_matches_null(self, db):
        ex = SQLiteExecutor(db)
        gold = "SELECT country FROM singer WHERE name = 'Caz'"
        pred = "SELECT 'NULL'"
        assert label_record(gold, pred, ex) == 0

    def test_outcomes_are_counted(self, db):
        ex = SQLiteExecutor(db, timeout_s=0.2)
        gold = "SELECT name, age FROM singer"
        endless = ("WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM c) "
                   "SELECT max(x), 1 FROM c")
        outcomes = Counter()
        for pred in ("SELECT age, name FROM singer", "SELECT name, age + 1 FROM singer",
                     "SELEC nope", endless, "SELECT name FROM singer",
                     "SELECT name, age FROM singer WHERE age = 30"):
            label_record(gold, pred, ex, outcomes=outcomes)
        assert outcomes == Counter({"matched": 1, "mismatched": 1, "pred error": 1,
                                    "pred timeout": 1, "shape or row-cap reject": 2})

    def test_failure_past_the_gold_row_count_is_a_row_cap_reject(self, db):
        ex = SQLiteExecutor(db)
        gold = "SELECT name FROM singer WHERE age = 25"
        third_fails = ("SELECT CASE WHEN rowid < 3 THEN name "
                       "ELSE abs(-9223372036854775805 - rowid) END FROM singer")
        outcomes = Counter()
        assert label_record(gold, third_fails, ex, outcomes=outcomes) == 0
        assert outcomes == Counter({"shape or row-cap reject": 1})

    def test_timeout_while_looking_past_the_gold_row_count_is_a_timeout(self, db):
        # the one row comes at once; the search for a second never ends
        one_then_endless = ("WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM c) "
                            "SELECT 'Ann' FROM c WHERE x = 1 OR x < 0")
        ex = SQLiteExecutor(db, timeout_s=0.05)
        gold = "SELECT name FROM singer WHERE age = 25"
        with pytest.raises(ExecutionError, match="interrupted"):
            ex.execute(one_then_endless, expect=ex.execute(gold))
        outcomes = Counter()
        assert label_record(gold, one_then_endless, ex, outcomes=outcomes) == 0
        assert outcomes == Counter({"pred timeout": 1})

    def test_gold_is_canonicalized_only_for_a_prediction_of_its_shape(self, db, monkeypatch):
        cells = []
        canonical_column = execmatch._canonical_column
        monkeypatch.setattr(execmatch, "_canonical_column",
                            lambda column: cells.append(len(column)) or canonical_column(column))
        ex = SQLiteExecutor(db, timeout_s=0.2)
        gold = "SELECT name, age FROM singer"
        endless = ("WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM c) "
                   "SELECT max(x), 1 FROM c")
        for pred in ("SELECT name FROM singer",  # another column count
                     "SELECT name, age FROM singer WHERE age = 30",  # another row count
                     "SELEC nope", endless):
            assert label_record(gold, pred, ex) == 0
        assert cells == []
        assert label_record(gold, "SELECT age, name FROM singer", ex) == 1
        assert cells == [3] * 4  # the prediction's two columns, then gold's

    def test_gold_canonicalization_does_not_count_against_the_deadline(self, db, monkeypatch):
        calls = []
        canonical_column = execmatch._canonical_column

        def slow_for_gold(column):
            calls.append(column)
            if len(calls) == 3:  # gold's first column: the prediction's two come first
                time.sleep(0.3)
            return canonical_column(column)

        monkeypatch.setattr(execmatch, "_canonical_column", slow_for_gold)
        outcomes = Counter()
        ex = SQLiteExecutor(db, timeout_s=0.2)
        assert label_record("SELECT name, age FROM singer", "SELECT age, name FROM singer", ex,
                            outcomes=outcomes) == 1
        assert outcomes == Counter({"matched": 1})

    def test_cross_join_prediction_labels_zero_at_once(self, tmp_path):
        # 3,000 orders make a cross join of 9 million rows. Against six gold columns
        # it is cut at 41 rows; against one gold column no row is fetched.
        path = tmp_path / "shop.sqlite"
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE orders (id INTEGER PRIMARY KEY, amount REAL, region TEXT)")
        conn.executemany("INSERT INTO orders VALUES (?, ?, ?)",
                         [(i, i * 0.25, f"r{i % 7}") for i in range(3000)])
        conn.commit()
        conn.close()
        ex = SQLiteExecutor(path, timeout_s=2.0)
        gold = "SELECT a.*, b.* FROM orders a JOIN orders b ON a.id = b.id WHERE a.id < 40"
        start = time.perf_counter()
        assert label_record(gold, "SELECT * FROM orders a, orders b", ex) == 0
        assert label_record("SELECT id FROM orders WHERE id < 40", "SELECT * FROM orders a, orders b",
                            ex) == 0
        assert time.perf_counter() - start < 1.0

    def test_wide_result_with_reversed_columns_labels_one(self, tmp_path):
        # 1,500 columns in identical pairs, 50 rows; the prediction lists them in reverse
        path = tmp_path / "wide.sqlite"
        names = [f"c{j}" for j in range(1500)]
        conn = sqlite3.connect(path)
        conn.execute(f"CREATE TABLE t ({', '.join(names)})")
        conn.executemany(f"INSERT INTO t VALUES ({', '.join('?' * len(names))})",
                         [[r + 100 * (j // 2) for j in range(len(names))] for r in range(50)])
        conn.commit()
        conn.close()
        start = time.perf_counter()
        pred = f"SELECT {', '.join(reversed(names))} FROM t"
        assert label_record("SELECT * FROM t", pred, SQLiteExecutor(path)) == 1
        assert time.perf_counter() - start < 2.0
