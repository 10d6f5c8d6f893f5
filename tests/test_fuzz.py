"""Boundary fuzz test: arbitrary lines in every line-delimited input file.

Each example writes the same mix of lines as a prediction file, a pair file
and a scored file, and runs `validate`, `label` and `calibrate` on them.
Most lines are a record valid in all three files with some fields replaced
by arbitrary JSON values or dropped, so the field rules are reached; the
rest are arbitrary JSON values and text. Whatever the input, each command
must return an exit code (0, 1 or 2); no exception may escape `main`.

The same lines as a prediction file also check that `validate`, `score` and
`evaluate`, which read in one pass without building records, apply exactly
the rules of `load_dataset`, and that `validate` counts and `score` scores as
the loaded records give.

On the same values decoded as single lines, on named boundary lines and on
lines one change away from the shape its one-test path passes,
`records._checked` must keep the rules of `oracles._checked`, the
checked-line pass as it stood before its inline type tests.

Valid lines written by `write_dataset` must read back by `load_dataset` as
their checked lines (`records._line`), and write again to the same bytes.

The same numbers and values given to the scalar scorers must score as
`score_file` scores a line holding them, or fail with that line's error.
"""

import json
import sqlite3

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from sqlcalib import records
from sqlcalib.cli import main
from sqlcalib.records import RecordError, load_dataset, write_dataset
from sqlcalib.scoring import (
    SCORE_METHODS,
    pool_avg,
    pool_geo,
    pool_min,
    pool_prod,
    score_dataset,
    score_file,
    score_self_check_bool,
    score_self_check_probs,
    score_variant_alt,
    write_scored,
)

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


@given(lines=lines)
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_score_and_evaluate_keep_the_rules_and_scores_of_the_records(tmp_path, capsys, lines):
    data = tmp_path / "data.jsonl"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out, expected = tmp_path / "scored.jsonl", tmp_path / "expected.jsonl"

    def run(*argv):
        capsys.readouterr()
        code = main([str(a) for a in argv])
        return code, capsys.readouterr().err

    capsys.readouterr()
    code = main(["validate", "--input", str(data)])
    out_text, err = capsys.readouterr()
    try:
        dataset = load_dataset(data)
    except ValueError as exc:
        dataset = None
        assert (code, out_text, err) == (1, "", f"error: {exc}\n")
    else:
        labels = [r["label"] for r in dataset]
        assert (code, err) == (0, "") and out_text == (
            f"records: {len(labels)}\nschemas: {len({r['schema_id'] for r in dataset})}\n"
            f"pct_correct: {100.0 * sum(labels) / len(labels):.1f}\n")
    for method in SCORE_METHODS:
        out.unlink(missing_ok=True)
        score = run("score", "--input", data, "--out", out, "--method", method)
        if dataset is None:
            assert score == (code, err) and err.startswith("error: ")
            assert run("evaluate", "--input", data, "--method", method, "--compare", "--seed", 0,
                       "--out-dir", tmp_path / "eval") == (code, err)
            assert not out.exists() and not (tmp_path / "eval").exists()
            continue
        scored = score_dataset(dataset, method).scored
        if not scored:
            assert score == (1, f"error: no record is scorable with method {method}\n")
            continue
        write_scored(scored, expected)
        assert score[0] == 0 and out.read_bytes() == expected.read_bytes()


def checked_or_error(check, obj):
    """The values `check` gives for a decoded line, each sequence as a list
    and each alternative as a tuple, or the class and text of its error."""
    try:
        values = check(obj)
    except Exception as exc:
        return type(exc), str(exc)
    return repr([[tuple(v) if isinstance(v, (list, tuple)) else v for v in value]
                 if isinstance(value, (list, tuple)) else value for value in values])


@given(line=(mutated | json_values).map(json.dumps))
@settings(max_examples=300, deadline=None)
def test_checked_keeps_the_reference_rules(line):
    obj = json.loads(line)
    assert checked_or_error(records._checked, obj) == checked_or_error(oracles._checked, obj)


BASE = '"id": "a", "schema_id": "s", "label": 1'


@pytest.mark.parametrize("line", [
    f'{{{BASE}, "token_probs": [1, 0.5]}}',
    '{"id": 7, "schema_id": 3, "label": 0}',
    '{"id": 1.5, "schema_id": 2.5, "label": 0}',
    '{"id": "a", "schema_id": "s", "label": true}',
    '{"id": "a", "schema_id": "s", "label": 1.0}',
    *(f'{{{BASE}, {field}}}' for field in (
        f'"token_probs": [0.5, 1{"0" * 400}]',
        f'"self_check_bool": {{"p_true": 1{"0" * 400}, "p_false": 0.5}}',
        f'"self_check_bool": {{"p_true": 0.5, "p_false": 1{"0" * 400}}}',
        f'"verbalized_prob": 1{"0" * 400}',
        f'"alternatives": [{{"score": 1{"0" * 400}, "equivalent": false}}]',
        '"token_probs": [0.5, NaN]', '"token_probs": [Infinity]', '"token_probs": [-Infinity]',
        '"self_check_bool": {"p_true": NaN, "p_false": 0.5}',
        '"self_check_bool": {"p_true": Infinity, "p_false": 0.5}',
        '"verbalized_prob": NaN', '"verbalized_prob": Infinity',
        '"alternatives": [{"score": NaN, "equivalent": false}]',
        '"alternatives": [{"score": -Infinity, "equivalent": true}]',
        '"alternatives": [{"score": 0.5, "equivalent": 1}]',
        '"alternatives": [0.5]', '"alternatives": [{"score": 0.5, "equivalent": true}, "x"]',
        '"token_probs": [NaN, 0.5]', '"question": null, "token_probs": [0.5]',
        '"self_check_bool": null, "token_probs": [0.5]',
    )),
    f'{{"id": "a", "schema_id": "s", "label": 1{"0" * 400}}}',
    '{"id": "a", "schema_id": ["s"], "label": 1, "token_probs": [0.5, 1.5]}',
    f'{{{BASE}, "question": "q", "token_probs": [0.5, 1.0], "verbalized_prob": 0, '
    '"self_check_bool": {"p_true": 0.6, "p_false": 1}, '
    '"alternatives": [{"score": 0.25, "equivalent": true}, {"score": 1, "equivalent": false}]}',
], ids=["int-token", "int-ids", "float-ids", "label-true", "label-float", "big-token",
        "big-p-true", "big-p-false", "big-verbalized", "big-alternative", "nan-token",
        "inf-token", "minus-inf-token", "nan-self-check", "inf-self-check", "nan-verbalized",
        "inf-verbalized", "nan-alternative", "minus-inf-alternative", "int-equivalent",
        "number-alternative", "string-alternative", "nan-first-token", "null-question",
        "null-self-check", "big-label", "type-before-value", "all-fields"])
def test_checked_keeps_the_reference_rules_on_boundary_lines(line):
    obj = json.loads(line)
    assert checked_or_error(records._checked, obj) == checked_or_error(oracles._checked, obj)


NAN, INF = float("nan"), float("inf")
# one-change moves of each optional scored field off its plain shape: other
# number types, a missing or misshapen part, non-finite and out-of-range values
OFF_SHAPE = {
    "self_check_bool": [
        {"p_true": 1, "p_false": 0.2}, {"p_true": 0.6}, [0.6, 0.2], {"p_true": True, "p_false": 0.2},
        {"p_true": NAN, "p_false": 0.2}, {"p_true": 0.6, "p_false": INF},
        {"p_true": -0.1, "p_false": 0.2}, {"p_true": 0.0, "p_false": 0.0}, None],
    "verbalized_prob": [1, 0, True, "0.5", NAN, INF, -0.1, 1.5, None],
    "alternatives": [{"score": 0.1, "equivalent": False}, [], None],
}
OFF_SHAPE_ALTERNATIVES = [
    {"score": 1, "equivalent": False}, {"score": 0.1}, {"score": 0.1, "equivalent": 1},
    {"score": True, "equivalent": False}, {"score": NAN, "equivalent": False},
    {"score": -INF, "equivalent": True}, {"score": 1.5, "equivalent": False}, [0.1, False]]
probs = st.floats(min_value=0, max_value=1)


@st.composite
def near_common_lines(draw):
    """A line of the shape `records._checked` passes in one test, with four
    keys or with a question and an extra key too, and at times with every
    optional scored field in its plain types, after at most one change that
    may take it off that shape."""
    obj = {"id": draw(st.sampled_from(["a", "b"])), "schema_id": "s",
           "label": draw(st.sampled_from([0, 1])),
           "token_probs": draw(st.lists(st.floats(0, 1, exclude_min=True), min_size=1, max_size=4))}
    if draw(st.booleans()):
        obj.update(question=draw(st.text(max_size=4)), db_id=draw(json_values))
    if draw(st.booleans()):
        obj.update(self_check_bool={"p_true": draw(probs), "p_false": draw(probs)},
                   verbalized_prob=draw(probs),
                   alternatives=draw(st.lists(st.fixed_dictionaries(
                       {"score": probs, "equivalent": st.booleans()}), max_size=3)))
    change = draw(st.sampled_from(["none", "token", "token_probs", "label", "ids", "question",
                                   *OFF_SHAPE, "alternative"]))
    if change == "token":
        position = draw(st.integers(0, len(obj["token_probs"]) - 1))
        obj["token_probs"][position] = draw(st.sampled_from([
            float("nan"), float("inf"), float("-inf"), 0.0, -0.0, 5e-324, 1.0000000000000002,
            1, True]))
    elif change == "token_probs":
        obj["token_probs"] = draw(st.sampled_from([[], None, {}, ""]))
    elif change == "label":
        obj["label"] = draw(st.sampled_from([True, 1.0, 2]))
    elif change == "ids":
        obj[draw(st.sampled_from(["id", "schema_id"]))] = draw(
            st.integers() | st.floats(allow_nan=False, allow_infinity=False))
    elif change == "question":
        obj["question"] = draw(st.sampled_from([7, 0.5, ["q"], None]))
    elif change in OFF_SHAPE:
        obj[change] = draw(st.sampled_from(OFF_SHAPE[change]))
    elif change == "alternative":
        alternatives = obj.setdefault("alternatives", [])
        alternatives.insert(draw(st.integers(0, len(alternatives))),
                            draw(st.sampled_from(OFF_SHAPE_ALTERNATIVES)))
    return obj


@given(obj=near_common_lines())
@settings(max_examples=500, deadline=None)
def test_checked_keeps_the_reference_rules_near_the_common_line(obj):
    assert checked_or_error(records._checked, obj) == checked_or_error(oracles._checked, obj)


def test_a_type_rule_comes_before_every_value_rule():
    obj = json.loads('{"id": "a", "schema_id": ["s"], "label": 1, "token_probs": [0.5, 1.5]}')
    assert checked_or_error(records._checked, obj) == (
        records.RecordError, "record 'a': field 'schema_id': must be a string or a number")


def _accepted(obj):
    return not isinstance(checked_or_error(oracles._checked, obj), tuple)


# valid lines with unique ids, each as its field rules accept it: with the
# fields of every input file, or near the common line
valid_lines = st.lists((valid | near_common_lines()).filter(_accepted), min_size=1, max_size=4,
                       unique_by=lambda obj: str(obj["id"]))


@given(lines=valid_lines)
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_written_lines_read_back_as_their_checked_lines(tmp_path, lines):
    path = tmp_path / "data.jsonl"
    write_dataset(lines, path)
    written = path.read_bytes()
    loaded = load_dataset(path)
    # by repr: a NaN in an extra value is then equal to itself, and 1 is not 1.0
    assert repr(loaded) == repr(tuple(records._line(obj) for obj in lines))
    write_dataset(loaded, path)
    assert path.read_bytes() == written


def _alternatives_line(value):
    """Alternatives given in code as a line holds them: each (score,
    equivalent) pair as its object."""
    if not isinstance(value, list):
        return value
    return [{"score": e[0], "equivalent": e[1]} if isinstance(e, (list, tuple)) and len(e) == 2
            else e for e in value]


token_values = st.lists(probs, min_size=1, max_size=3) | SHAPED["token_probs"] | json_values
# each scalar scorer by its method: the argument it draws (one of the right
# shape with valid numbers, with boundary numbers, or anything), the scorer
# on that argument and the fields of a line holding it, the argument's field last
SCALAR_SCORERS = {
    **{method: (token_values, pool, lambda v: {"token_probs": v})
       for method, pool in (("prod", pool_prod), ("geo", pool_geo), ("min", pool_min),
                            ("avg", pool_avg))},
    "self_check_bool": (st.tuples(probs | numbers, probs | numbers),
                        lambda v: score_self_check_bool(*v),
                        lambda v: {"self_check_bool": {"p_true": v[0], "p_false": v[1]}}),
    "self_check_probs": (probs | numbers | json_values, score_self_check_probs,
                         lambda v: {"verbalized_prob": v}),
    "variant_alt": (
        st.lists(st.tuples(probs, st.booleans()), max_size=3)
        | st.lists(st.tuples(numbers, json_values) | json_values, max_size=3)
        | json_values,
        lambda v: score_variant_alt(0.5, v),
        lambda v: {"token_probs": [0.5], "alternatives": _alternatives_line(v)}),
}


@given(method=st.sampled_from(sorted(SCALAR_SCORERS)), data=st.data())
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_scalar_scorers_score_or_fail_as_the_line_of_their_argument(tmp_path, method, data):
    values, score, fields = SCALAR_SCORERS[method]
    value = data.draw(st.none() | values if method != "self_check_bool" else values)
    if value is None:  # a missing argument
        with pytest.raises(RecordError) as err:
            score(value)
        assert str(err.value) == f"field {[*fields(0)][-1]!r}: missing required field"
        return
    obj = {"id": "a", "schema_id": "s", "label": 0, **fields(value)}
    try:
        records._checked(obj)
    except RecordError as exc:
        with pytest.raises(RecordError) as err:
            score(value)
        assert f"record 'a': {err.value}" == str(exc)
        return
    path = tmp_path / "data.jsonl"
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    result = score(value)
    assert type(result) is float
    assert (result,) == score_file(path, (method,))[method].scored.raw_scores
