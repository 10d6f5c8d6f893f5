import sqlite3

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import tables_equal_exhaustive
from sqlcalib.execmatch import (
    ExecutionError,
    GoldExecutionError,
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
        assert SQLiteExecutor(path).execute("SELECT v FROM t").rows == (("#7",),)

    def test_deterministic(self, db):
        ex = SQLiteExecutor(db)
        sql = "SELECT * FROM singer"
        assert ex.execute(sql) == ex.execute(sql)


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
