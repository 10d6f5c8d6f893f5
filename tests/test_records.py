import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from sqlcalib import records
from sqlcalib.records import DatasetError, RecordError, load_dataset, write_dataset


def _line(**overrides):
    obj = {"id": "q1", "schema_id": "concert_singer", "label": 1, "token_probs": [0.9, 0.8]}
    obj.update(overrides)
    return json.dumps(obj)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_load_valid_file_preserves_order(tmp_path):
    path = tmp_path / "data.jsonl"
    write_lines(path, [_line(id=f"q{i}", label=i % 2) for i in range(50)])
    ds = load_dataset(path)
    assert len(ds) == 50
    assert [r["id"] for r in ds] == [f"q{i}" for i in range(50)]


def test_empty_file_errors(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    with pytest.raises(DatasetError, match="empty dataset"):
        load_dataset(path)


def test_bad_label_names_record_and_field(tmp_path):
    path = tmp_path / "bad.jsonl"
    write_lines(path, [_line(), _line(id="q2", label=2)])
    with pytest.raises(RecordError) as err:
        load_dataset(path)
    assert err.value.record_id == "q2"
    assert err.value.field_name == "label"


def test_malformed_line_reports_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    write_lines(path, [_line(), "{not json", _line(id="q3")])
    with pytest.raises(DatasetError, match=":2"):
        load_dataset(path)


@pytest.mark.parametrize("text", ["1" * 5000, "[" * 100_000], ids=["digit-limit", "nesting-depth"])
def test_line_past_the_decoder_limits_is_malformed(tmp_path, text):
    path = tmp_path / "bad.jsonl"
    write_lines(path, [_line(), text])
    with pytest.raises(DatasetError, match=f"^{re.escape(str(path))}:2: malformed line: "):
        load_dataset(path)


def test_missing_field_names_record_and_field(tmp_path):
    path = tmp_path / "bad.jsonl"
    write_lines(path, [json.dumps({"id": "q1", "label": 1})])
    with pytest.raises(RecordError) as err:
        load_dataset(path)
    assert err.value.field_name == "schema_id"
    assert str(err.value) == f"{path}:1: record 'q1': field 'schema_id': missing required field"


def test_duplicate_id_rejected(tmp_path):
    path = tmp_path / "dup.jsonl"
    write_lines(path, [_line(), _line()])
    with pytest.raises(DatasetError, match="duplicate"):
        load_dataset(path)


@pytest.mark.parametrize(
    "field,value",
    [
        ("token_probs", []),
        ("token_probs", [0.5, 0.0]),
        ("token_probs", [1.2]),
        ("verbalized_prob", 1.3),
        ("verbalized_prob", -0.1),
        # json.dumps writes these as Infinity and NaN, which json.loads accepts
        ("self_check_bool", {"p_true": float("inf"), "p_false": 0.1}),
        ("self_check_bool", {"p_true": 0.1, "p_false": float("nan")}),
    ],
)
def test_field_invariants(tmp_path, field, value):
    path = tmp_path / "bad.jsonl"
    write_lines(path, [_line(**{field: value})])
    with pytest.raises(RecordError) as err:
        load_dataset(path)
    assert err.value.field_name == field


@pytest.mark.parametrize(
    "field,value",
    [
        ("token_probs", [[0.5]]),
        ("token_probs", [0.5, "high"]),
        ("verbalized_prob", [0.5]),
        ("verbalized_prob", "high"),
        ("self_check_bool", {"p_true": [0.5], "p_false": 0.1}),
        ("self_check_bool", {"p_true": 0.5, "p_false": {"x": 1}}),
        ("alternatives", [{"score": [0.5], "equivalent": True}]),
        ("alternatives", [{"score": None, "equivalent": False}]),
        # integers too large for a float
        ("token_probs", [0.5, 10**400]),
        pytest.param("verbalized_prob", 10**400, id="verbalized_prob-too-large-for-a-float"),
        ("self_check_bool", {"p_true": 0.5, "p_false": -(10**400)}),
        ("alternatives", [{"score": 10**400, "equivalent": False}]),
        # strings and booleans are not JSON numbers
        ("token_probs", ["0.5", True]),
        ("token_probs", [0.5, True]),
        ("verbalized_prob", "1e-1"),
        ("verbalized_prob", False),
        ("self_check_bool", {"p_true": "0.5", "p_false": 0.1}),
        ("self_check_bool", {"p_true": 0.5, "p_false": True}),
        ("alternatives", [{"score": "0.5", "equivalent": False}]),
        ("alternatives", [{"score": True, "equivalent": False}]),
    ],
)
def test_non_numeric_value_names_the_field(tmp_path, field, value):
    path = tmp_path / "bad.jsonl"
    write_lines(path, [_line(id="q0"), _line(**{field: value})])
    with pytest.raises(RecordError, match="must be a number") as err:
        load_dataset(path)
    assert err.value.record_id == "q1"
    assert err.value.field_name == field
    assert str(err.value).startswith(f"{path}:2: record 'q1': field {field!r}: ")


@pytest.mark.parametrize("score", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_alternative_score_rejected(tmp_path, score):
    path = tmp_path / "bad.jsonl"
    # json.dumps writes Infinity and NaN, which json.loads accepts
    write_lines(path, [_line(alternatives=[{"score": 0.5, "equivalent": False},
                                           {"score": score, "equivalent": True}])])
    with pytest.raises(RecordError, match="score .* is not finite") as err:
        load_dataset(path)
    assert err.value.field_name == "alternatives"


@pytest.mark.parametrize("alternative,message", [
    ({"score": 1.5, "equivalent": False}, "score 1.5 outside [0, 1]"),
    ({"score": -0.1, "equivalent": True}, "score -0.1 outside [0, 1]"),
    ({"score": 0.5, "equivalent": "false"}, "equivalent must be true or false"),
    ({"score": 0.5, "equivalent": 0}, "equivalent must be true or false"),
    ({"score": 0.5, "equivalent": None}, "equivalent must be true or false"),
])
def test_bad_alternative_names_the_line(tmp_path, alternative, message):
    path = tmp_path / "bad.jsonl"
    write_lines(path, [_line(id="q0"), _line(alternatives=[alternative])])
    with pytest.raises(RecordError) as err:
        load_dataset(path)
    assert err.value.field_name == "alternatives"
    assert str(err.value) == f"{path}:2: record 'q1': field 'alternatives': {message}"


def test_alternative_scores_at_the_bounds_are_legal(tmp_path):
    path = tmp_path / "ok.jsonl"
    write_lines(path, [_line(alternatives=[{"score": 0, "equivalent": True},
                                           {"score": 1.0, "equivalent": False}])])
    (record,) = load_dataset(path)
    assert record["alternatives"] == [{"score": 0.0, "equivalent": True},
                                      {"score": 1.0, "equivalent": False}]
    assert type(record["alternatives"][0]["score"]) is float


def test_line_that_is_not_utf8_names_the_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_bytes(_line(id="q0").encode() + b"\n\n" + _line().encode()[:-1] + b"\xff}\n")
    with pytest.raises(DatasetError, match=f"^{re.escape(str(path))}:3: not UTF-8: "):
        load_dataset(path)


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
def test_line_numbers_count_every_line_ending(tmp_path, newline):
    path = tmp_path / "bad.jsonl"
    lines = [_line(id="q0").encode(), b"", _line(id="q1").encode(), b"{not json"]
    path.write_bytes(newline.join(lines) + newline)
    with pytest.raises(DatasetError, match=f"^{re.escape(str(path))}:4: malformed line: "):
        load_dataset(path)


def _written(tmp_path, **fields):
    """The line `write_dataset` writes for a line of id "a" and schema "s"
    holding `fields`, as `load_dataset` reads it back."""
    path = tmp_path / "written.jsonl"
    write_dataset([{"id": "a", "schema_id": "s", **fields}], path)
    (line,) = load_dataset(path)
    return line


def test_token_prob_of_exactly_one_is_legal(tmp_path):
    assert _written(tmp_path, label=0, token_probs=[1.0])["token_probs"] == [1.0]


def test_self_check_must_not_both_be_zero(tmp_path):
    with pytest.raises(RecordError) as err:
        _written(tmp_path, label=0, self_check_bool={"p_true": 0.0, "p_false": 0.0})
    assert err.value.field_name == "self_check_bool"


def test_missing_optional_fields_are_legal(tmp_path):
    path = tmp_path / "minimal.jsonl"
    write_lines(path, [json.dumps({"id": "a", "schema_id": "s", "label": 0})])
    assert load_dataset(path) == ({"id": "a", "schema_id": "s", "label": 0},)


def test_round_trip_reproduces_records(tmp_path):
    path = tmp_path / "data.jsonl"
    write_lines(
        path,
        [
            _line(
                question="how many singers",
                self_check_bool={"p_true": 0.6, "p_false": 0.2},
                verbalized_prob=0.7,
                alternatives=[{"score": 0.5, "equivalent": False}],
                custom_tag="kept",
            ),
            _line(id="q2", label=0),
        ],
    )
    ds = load_dataset(path)
    out = tmp_path / "copy.jsonl"
    write_dataset(ds, out)
    assert load_dataset(out) == ds
    assert ds[0]["custom_tag"] == "kept"
    assert ds[0]["alternatives"] == [{"score": 0.5, "equivalent": False}]


@pytest.mark.parametrize("label", [True, False, 1.0, 0.0])
def test_record_with_a_label_load_rejects_is_not_built(tmp_path, label):
    # it would be written with "label": true or 1.0, which load_dataset rejects
    with pytest.raises(RecordError, match="must be the integer 0 or 1") as err:
        _written(tmp_path, label=label, token_probs=[0.5])
    assert err.value.record_id == "a"
    assert err.value.field_name == "label"


@pytest.mark.parametrize("fields, name", [
    ({"token_probs": [True]}, "token_probs"),
    ({"token_probs": [0.5, np.True_]}, "token_probs"),
    ({"token_probs": ["0.5"]}, "token_probs"),
    ({"self_check_bool": {"p_true": True, "p_false": 1.0}}, "self_check_bool"),
    ({"verbalized_prob": False}, "verbalized_prob"),
    ({"alternatives": [{"score": True, "equivalent": False}]}, "alternatives"),
], ids=["true", "numpy-true", "string", "self-check", "verbalized", "alternative"])
def test_record_takes_numbers_not_bools(tmp_path, fields, name):
    # it would be written with true or "0.5", which load_dataset rejects
    with pytest.raises(RecordError) as err:
        _written(tmp_path, label=1, **fields)
    assert str(err.value) == f"record 'a': field {name!r}: must be a number"


@pytest.mark.parametrize("fields, line", [
    ({"question": 5}, {"question": 5}),
    ({"alternatives": [{"score": 0.5, "equivalent": 1}]},
     {"alternatives": [{"score": 0.5, "equivalent": 1}]}),
    ({"alternatives": [{"score": 0.5, "equivalent": np.True_}]},
     {"alternatives": [{"score": 0.5, "equivalent": 1}]}),
], ids=["int-question", "int-equivalent", "numpy-equivalent"])
def test_record_holds_only_what_load_reads_back(tmp_path, fields, line):
    # `fields` would be written as `line`, which load_dataset rejects with the
    # same text, or not be written at all (numpy.True_ is not JSON)
    path = tmp_path / "data.jsonl"
    write_lines(path, [_line(id="a", **line)])
    with pytest.raises(RecordError) as loaded:
        load_dataset(path)
    with pytest.raises(RecordError) as built:
        write_dataset([{"id": "a", "schema_id": "s", "label": 1, **fields}], tmp_path / "out")
    assert str(loaded.value) == f"{path}:1: {built.value}"
    assert built.value.field_name == next(iter(line))


def test_record_takes_numpy_numbers(tmp_path):
    line = _written(tmp_path, label=1, token_probs=[np.float64(0.5), np.float32(0.25), 1],
                    self_check_bool={"p_true": np.int64(3), "p_false": 1.0},
                    verbalized_prob=np.float64(0.5))
    assert line["token_probs"] == [0.5, 0.25, 1.0]


def test_numpy_numbers_are_written_as_floats(tmp_path):
    record = {"id": "a", "schema_id": "s", "label": 1,
              "token_probs": [np.float32(0.5), np.int64(1), 0.25],
              "self_check_bool": {"p_true": np.int64(3), "p_false": np.float32(1.5)},
              "verbalized_prob": np.float32(0.75),
              "alternatives": [{"score": np.float64(0.125), "equivalent": True},
                               {"score": np.int64(1), "equivalent": False}]}
    out = tmp_path / "out.jsonl"
    write_dataset([record], out)
    assert json.loads(out.read_text()) == {
        "id": "a", "schema_id": "s", "label": 1, "token_probs": [0.5, 1.0, 0.25],
        "self_check_bool": {"p_true": 3.0, "p_false": 1.5}, "verbalized_prob": 0.75,
        "alternatives": [{"score": 0.125, "equivalent": True}, {"score": 1.0, "equivalent": False}],
    }
    assert '"token_probs": [0.5, 1.0, 0.25]' in out.read_text()
    assert load_dataset(out) == (record,)


@pytest.mark.parametrize("fields, line", [
    ({"schema_id": ["s"]}, {"schema_id": ["s"]}),
    ({"self_check_bool": {"p_true": 10**400, "p_false": 1}},
     {"self_check_bool": {"p_true": 10**400, "p_false": 1}}),
], ids=["list-schema-id", "huge-int-self-check"])
def test_record_built_in_code_is_checked_as_the_line_it_writes(tmp_path, fields, line):
    # `fields` would be written as `line`, which load_dataset rejects, or not
    # be written at all (a float cannot hold 10**400)
    path = tmp_path / "data.jsonl"
    write_lines(path, [json.dumps({"id": "a", "schema_id": "s", "label": 0, **line})])
    with pytest.raises(RecordError) as loaded:
        load_dataset(path)
    with pytest.raises(RecordError) as built:
        write_dataset([{"id": "a", "schema_id": "s", "label": 0, **fields}], tmp_path / "out")
    assert str(loaded.value) == f"{path}:1: {built.value}"


@pytest.mark.parametrize("fields, line", [
    ({"token_probs": 0.5}, {"token_probs": 0.5}),
    ({"token_probs": "ab"}, {"token_probs": "ab"}),
    ({"alternatives": 0.5}, {"alternatives": 0.5}),
    ({"self_check_bool": (0.1, 0.2, 0.3)}, {"self_check_bool": [0.1, 0.2, 0.3]}),
    ({"alternatives": [(0.5,)]}, {"alternatives": [[0.5]]}),
    ({"alternatives": [{"score": 0.5, "equivalent": False}, "x"]},
     {"alternatives": [{"score": 0.5, "equivalent": False}, "x"]}),
], ids=["number-token-probs", "string-token-probs", "number-alternatives", "triple-self-check",
        "single-alternative", "string-alternative"])
def test_record_field_of_the_wrong_shape_raises_the_loaders_text(tmp_path, fields, line):
    path = tmp_path / "data.jsonl"
    write_lines(path, [json.dumps({"id": "a", "schema_id": "s", "label": 0, **line})])
    with pytest.raises(RecordError) as loaded:
        load_dataset(path)
    with pytest.raises(RecordError) as built:
        write_dataset([{"id": "a", "schema_id": "s", "label": 0, **fields}], tmp_path / "out")
    assert str(loaded.value) == f"{path}:1: {built.value}"


def test_record_takes_a_self_check_object_as_a_line_holds_it(tmp_path):
    line = _written(tmp_path, label=0, self_check_bool={"p_true": 0.75, "p_false": 1})
    assert line["self_check_bool"] == {"p_true": 0.75, "p_false": 1.0}
    assert type(line["self_check_bool"]["p_false"]) is float


def test_record_ids_given_in_code_are_strings(tmp_path):
    # a JSON number is read as its string, and a line given in code is written so
    path = tmp_path / "data.jsonl"
    write_lines(path, [json.dumps({"id": 5, "schema_id": 6, "label": 0})])
    (loaded,) = load_dataset(path)
    assert (loaded["id"], loaded["schema_id"]) == ("5", "6")
    write_dataset([{"id": 5, "schema_id": 6.0, "label": 0}], path)
    assert path.read_text() == '{"id": "5", "schema_id": "6.0", "label": 0}\n'


@pytest.mark.parametrize("keys", [{1: "x"}, {1: "x", "a": 2}], ids=["int-key", "mixed-keys"])
def test_record_extra_is_a_mapping_with_string_keys(tmp_path, keys):
    # {1: "x"} would be written as "1" and read back as another record
    out = tmp_path / "out.jsonl"
    with pytest.raises(RecordError, match="^record 'a': field 'keys': must be strings, got 1$"):
        write_dataset([{"id": "b", "schema_id": "s", "label": 1},
                       {"id": "a", "schema_id": "s", "label": 0, **keys}], out)
    assert not out.exists()


@pytest.mark.parametrize("name, message", [
    ("token_probs", "must be a list of numbers"),
    ("self_check_bool", "must be an object with p_true and p_false"),
    ("verbalized_prob", "must be a number"),
    ("alternatives", "must be a list of {score, equivalent}"),
])
def test_record_takes_a_0d_array_as_a_scalar(tmp_path, name, message):
    with pytest.raises(RecordError) as err:
        _written(tmp_path, label=0, **{name: np.array(0.5)})
    assert str(err.value) == f"record 'a': field {name!r}: {message}"


# Lines given in code: Python, numpy, bool, string, huge-int and NaN values,
# as scalars, inside the sequences of the sequence fields or in place of those
# sequences, and extra keys that may be a field or not a string. Each value is
# one the record rules accept 7 times in 8.
any_values = st.one_of(
    st.floats(), st.integers(-2, 2), st.sampled_from([1, -1]).map(lambda sign: sign * 10**400),
    st.booleans(),
    st.just(np.True_), st.floats(0, 1).map(np.float64), st.text(max_size=3), st.none(),
)
numbers = st.one_of(st.floats(0.01, 1), st.just(1), st.floats(0.01, 1).map(np.float64),
                    st.floats(0.25, 1, width=32).map(np.float32), st.just(np.int64(1)))


def mostly(valid):
    return st.integers(0, 7).flatmap(lambda i: valid if i else any_values)


code_lines = st.builds(lambda fields, extra: {**fields, **extra}, st.fixed_dictionaries({
    "id": mostly(st.text(max_size=3)),
    "schema_id": mostly(st.text(max_size=3)),
    "label": mostly(st.sampled_from([0, 1])),
    "question": mostly(st.none() | st.text(max_size=3)),
    "token_probs": mostly(st.none() | st.lists(mostly(numbers), max_size=3)),
    "self_check_bool": mostly(st.none() | st.fixed_dictionaries(
        {"p_true": mostly(numbers), "p_false": mostly(numbers)})),
    "verbalized_prob": mostly(st.none() | numbers),
    "alternatives": mostly(st.none() | st.lists(st.fixed_dictionaries(
        {"score": mostly(numbers), "equivalent": mostly(st.booleans())}), max_size=3)),
}), st.dictionaries(st.sampled_from(["tag", "note", "note", "note", "label", 1]),
                    st.integers(0, 1) | st.text(max_size=3), max_size=2))


@given(line=code_lines)
@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_record_built_in_code_is_rejected_or_round_trips(tmp_path, line):
    path = tmp_path / "data.jsonl"
    try:
        write_dataset([line], path)
    except RecordError:
        return
    written = path.read_bytes()
    loaded = load_dataset(path)
    assert loaded == (records._line(line),)
    write_dataset(loaded, path)
    assert path.read_bytes() == written


def test_record_that_cannot_be_written_leaves_the_file_as_it_was(tmp_path):
    out = tmp_path / "out.jsonl"
    out.write_text("old\n")
    good = {"id": "a", "schema_id": "s", "label": 1}
    unwritable = {"id": "b", "schema_id": "s", "label": 0, "tags": {"x"}}
    with pytest.raises(TypeError, match="set is not JSON serializable"):
        write_dataset([good, unwritable], out)
    assert out.read_text() == "old\n"


@pytest.mark.parametrize("lines, message", [
    ([{"id": "a", "schema_id": "s", "label": 1}, {"id": "b", "schema_id": "s", "label": 0},
      {"id": "a", "schema_id": "t", "label": 0}], "duplicate record id 'a'"),
    ([{"id": 5, "schema_id": "s", "label": 1}, {"id": "5", "schema_id": "s", "label": 0}],
     "duplicate record id '5'"),
    ([], "empty dataset: {out}"),
], ids=["repeated-id", "number-and-string-id", "empty"])
def test_file_that_load_rejects_is_not_written(tmp_path, lines, message):
    out = tmp_path / "out.jsonl"
    out.write_text("old\n")
    with pytest.raises(DatasetError) as err:
        write_dataset(lines, out)
    assert str(err.value) == message.format(out=out)
    assert out.read_text() == "old\n"
    # load_dataset rejects those lines with the same text, after a file line
    write_lines(out, [json.dumps(line) for line in lines])
    with pytest.raises(DatasetError) as err:
        load_dataset(out)
    assert str(err.value).endswith(message.format(out=out))


def test_question_is_a_string_or_null(tmp_path):
    path = tmp_path / "data.jsonl"
    write_lines(path, [_line(question="How many?"), _line(id="q2", question=None)])
    assert [r.get("question") for r in load_dataset(path)] == ["How many?", None]


def test_record_error_without_a_record_id_names_the_field():
    assert str(RecordError(None, "token_probs", "bad")) == "field 'token_probs': bad"
    assert str(RecordError("a", "token_probs", "bad")) == "record 'a': field 'token_probs': bad"


# The parse contract of the one line reader, through each of its callers:
# `load_dataset`, the pair reading of `label` and `load_scored`.
def _pair_ids(path):
    from sqlcalib.cli import _pair_from_obj
    from sqlcalib.records import _read_records

    return [line["id"] for line, *_ in _read_records(path, _pair_from_obj)]


# Reading a pair checks its line once and gives the line `label` wrote when it
# relabeled a record built from the pair (`oracles.reference_labeled_line`).
ids = st.text(max_size=3) | st.integers(-10**6, 10**6) | st.floats(-1e6, 1e6)
probability = st.floats(0.001, 1) | st.just(1)
unit = st.floats(0, 1) | st.sampled_from([0, 1])
other_keys = st.text(max_size=4).filter(
    lambda k: k not in (*oracles.PAIR_ONLY_FIELDS, *records._KNOWN_FIELDS))
other_values = st.none() | st.booleans() | st.integers() | st.text(max_size=4) | st.lists(
    st.integers(), max_size=2)
pair_fields = st.fixed_dictionaries(
    {"id": ids, "schema_id": ids, "gold_sql": st.just("SELECT 1"), "pred_sql": st.text(max_size=8)},
    optional={
        "label": st.sampled_from([0, 1, "yes", None]),
        "db_path": st.text(max_size=4),
        "question": st.none() | st.text(max_size=4),
        "token_probs": st.lists(probability, min_size=1, max_size=4),
        "self_check_bool": st.fixed_dictionaries(
            {"p_true": unit, "p_false": st.floats(0.01, 1) | st.just(1)},
            optional={"note": other_values}),
        "verbalized_prob": unit,
        "alternatives": st.lists(st.fixed_dictionaries(
            {"score": unit, "equivalent": st.booleans()}, optional={"sql": other_values}),
            max_size=3),
    },
)
pair_lines = st.builds(
    lambda fields, others: [*fields.items(), *others.items()],
    pair_fields, st.dictionaries(other_keys, other_values, max_size=3),
).flatmap(st.permutations).map(lambda items: json.dumps(dict(items)))


@given(line=pair_lines, label=st.sampled_from([0, 1]))
@settings(max_examples=300)
def test_pair_line_is_the_line_of_the_relabeled_record(line, label):
    from sqlcalib.cli import _pair_from_obj

    obj = json.loads(line)
    labeled, gold_sql, pred_sql, db_path = _pair_from_obj(obj)
    labeled["label"] = label
    reference = oracles.reference_labeled_line(obj, label)
    assert json.dumps(labeled) == json.dumps(reference)
    assert (gold_sql, pred_sql, db_path) == (obj["gold_sql"], obj["pred_sql"], obj.get("db_path"))


def test_reading_a_pair_checks_its_line_once(tmp_path, monkeypatch):
    from sqlcalib.cli import _pair_from_obj
    from sqlcalib.records import _read_records

    calls = []
    fields = records._fields
    monkeypatch.setattr(records, "_fields", lambda obj: calls.append(obj["id"]) or fields(obj))
    path = tmp_path / "pairs.jsonl"
    path.write_text(json.dumps({
        "id": 7, "schema_id": "s", "gold_sql": "SELECT 1", "pred_sql": "SELECT 1", "question": None,
        "token_probs": [1, 0.5], "self_check_bool": {"p_true": 1, "p_false": 0.5, "note": "é"},
        "verbalized_prob": 0, "alternatives": [{"score": 1, "equivalent": True, "sql": "x"}],
        "zeta": 1, "alpha": "ü",
    }) + "\n", encoding="utf-8")
    ((line, *_),) = _read_records(path, _pair_from_obj)
    assert calls == [7]
    assert list(line) == ["id", "schema_id", "label", "token_probs", "self_check_bool",
                          "verbalized_prob", "alternatives", "alpha", "zeta"]


def _scored_ids(path):
    from sqlcalib.scoring import load_scored

    return list(load_scored(path).ids)


READERS = {
    "dataset": (lambda path: [r["id"] for r in load_dataset(path)],
                lambda i: _line(id=f"q{i}")),
    "pairs": (_pair_ids,
              lambda i: json.dumps({"id": f"q{i}", "schema_id": "s", "gold_sql": "SELECT 1",
                                    "pred_sql": "SELECT 1"})),
    "scored": (_scored_ids,
               lambda i: json.dumps({"id": f"q{i}", "schema_id": "s", "method": "prod",
                                     "raw_score": 0.5, "label": 1})),
}


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize("bad, message", [
    (lambda good: good + " x", "Extra data"),
    (lambda good: good + good, "Extra data"),
    (lambda good: good + " \t" + good, "Extra data"),
    (lambda good: "\ufeff" + good, "Unexpected UTF-8 BOM (decode using utf-8-sig)"),
], ids=["text-after-object", "two-objects", "two-objects-spaced", "bom"])
def test_reader_rejects_what_json_loads_rejects(tmp_path, reader, bad, message):
    read, line = READERS[reader]
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join([line(0), "", bad(line(1))]) + "\n", encoding="utf-8")
    with pytest.raises(DatasetError, match=f"^{re.escape(str(path))}:3: malformed line: "
                                           f"{re.escape(message)}"):
        read(path)


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_reader_skips_blank_lines_at_every_line_ending(tmp_path, reader, newline):
    read, line = READERS[reader]
    path = tmp_path / "data.jsonl"
    lines = [line(0), " ", line(1), "\t  \t", "", "  " + line(2) + " \t", line(3)]
    path.write_bytes(newline.join(lines).encode("utf-8") + newline.encode())
    assert read(path) == ["q0", "q1", "q2", "q3"]
    path.write_bytes(newline.join(lines + ["  ", "{not json"]).encode("utf-8"))
    with pytest.raises(DatasetError, match=f"^{re.escape(str(path))}:9: malformed line: "):
        read(path)


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize("field", ["id", "schema_id"])
@pytest.mark.parametrize("value", [None, True, False, [1], {"id": "q1"}],
                         ids=["null", "true", "false", "array", "object"])
def test_reader_rejects_an_id_that_is_not_a_string_or_a_number(tmp_path, reader, field, value):
    read, line = READERS[reader]
    path = tmp_path / "bad.jsonl"
    bad = json.dumps({**json.loads(line(1)), field: value})
    path.write_text("\n".join([line(0), bad]) + "\n", encoding="utf-8")
    where = "" if field == "id" else "record 'q1': "
    with pytest.raises(RecordError, match=f"^{re.escape(str(path))}:2: {where}field '{field}': "
                                          "must be a string or a number$"):
        read(path)


@pytest.mark.parametrize("reader", READERS)
def test_reader_reads_a_numeric_id_as_its_string(tmp_path, reader):
    read, line = READERS[reader]
    path = tmp_path / "data.jsonl"
    path.write_text("\n".join(json.dumps({**json.loads(line(i)), "id": rid, "schema_id": 3})
                              for i, rid in enumerate([7, 1.5, "7.0"])) + "\n")
    assert read(path) == ["7", "1.5", "7.0"]
    if reader == "dataset":
        assert {r["schema_id"] for r in load_dataset(path)} == {"3"}
