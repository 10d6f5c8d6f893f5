"""Boundary fuzz test: arbitrary lines in every line-delimited input file.

Each example writes the same mix of lines as a prediction file, a pair file
and a scored file, and runs `validate`, `label` and `calibrate` on them.
Most lines are a record valid in all three files with some fields replaced
by arbitrary JSON values or dropped, so the field rules are reached; the
rest are arbitrary JSON values and text. Whatever the input, each command
must return an exit code (0, 1 or 2); no exception may escape `main`.
"""

import json
import sqlite3

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sqlcalib.cli import main

FIELDS = ("id", "schema_id", "label", "question", "token_probs", "self_check_bool",
          "verbalized_prob", "alternatives", "method", "raw_score", "gold_sql",
          "pred_sql", "db_path")

NUMERIC = ("label", "token_probs", "self_check_bool", "verbalized_prob", "alternatives",
           "raw_score")

# boundary values of the number and label rules, mixed with arbitrary ones
numbers = (
    st.sampled_from([1.7, True, 1.0, "0.5", 10**400, -(10**400), float("nan"), float("inf")])
    | st.integers()
    | st.floats()
)
json_values = st.recursive(
    numbers | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(FIELDS) | st.text(max_size=4), children, max_size=4),
    max_leaves=10,
)
SHAPED = {
    "token_probs": st.lists(numbers, max_size=3),
    "self_check_bool": st.fixed_dictionaries({"p_true": numbers, "p_false": numbers}),
    "alternatives": st.lists(
        st.fixed_dictionaries({"score": numbers, "equivalent": json_values}), max_size=2
    ),
}


def replacement(field):
    """A value for `field`: one of the right shape with boundary numbers, or anything."""
    return st.tuples(st.just(field), SHAPED.get(field, numbers) | json_values)


valid = st.fixed_dictionaries({
    "id": st.sampled_from(["a", "b", "c", "d"]),
    "schema_id": st.just("s"),
    "label": st.sampled_from([0, 1]),
    "method": st.sampled_from(["prod", "variant_alt"]),
    "raw_score": st.floats(min_value=0, max_value=1),
    "gold_sql": st.just("SELECT x FROM t"),
    "pred_sql": st.sampled_from(["SELECT x FROM t", "SELECT x + 1 FROM t"]),
    "token_probs": st.lists(st.floats(min_value=0.01, max_value=1), min_size=1, max_size=3),
})
mutated = st.builds(
    lambda base, new, drop: {k: v for k, v in {**base, **dict(new)}.items() if k not in drop},
    valid,
    st.lists((st.sampled_from(NUMERIC) | st.sampled_from(FIELDS)).flatmap(replacement),
             max_size=2),
    st.sets(st.sampled_from(FIELDS), max_size=1),
)
lines = st.lists(
    mutated.map(json.dumps)
    | json_values.map(json.dumps)
    | st.text(max_size=30),
    max_size=4,
)


@given(lines=lines)
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_every_input_line_ends_in_an_exit_code(tmp_path, lines):
    db = tmp_path / "dbs" / "s" / "s.sqlite"
    if not db.exists():
        db.parent.mkdir(parents=True)
        with sqlite3.connect(db) as conn:
            conn.executescript("CREATE TABLE t (x INTEGER); INSERT INTO t VALUES (1), (2);")
        conn.close()
    data = tmp_path / "data.jsonl"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    runs = [
        ["validate", "--input", data],
        ["label", "--pairs", data, "--db-root", tmp_path / "dbs",
         "--out", tmp_path / "labeled.jsonl"],
        ["calibrate", "--scored", data, "--kind", "isotonic", "--out", tmp_path / "cal.json"],
    ]
    for argv in runs:
        assert main([str(a) for a in argv]) in (0, 1, 2)
