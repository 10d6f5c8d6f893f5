import json
import re

import pytest

from sqlcalib.records import (
    Alternative,
    DatasetError,
    PredictionRecord,
    RecordError,
    load_dataset,
    write_dataset,
)


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
    assert len(ds.records) == 50
    assert [r.id for r in ds.records] == [f"q{i}" for i in range(50)]


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
    (record,) = load_dataset(path).records
    assert record.alternatives == (Alternative(0.0, True), Alternative(1.0, False))


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


def test_token_prob_of_exactly_one_is_legal():
    r = PredictionRecord(id="a", schema_id="s", label=0, token_probs=(1.0,))
    assert r.token_probs == (1.0,)


def test_self_check_must_not_both_be_zero():
    with pytest.raises(RecordError) as err:
        PredictionRecord(id="a", schema_id="s", label=0, self_check_bool=(0.0, 0.0))
    assert err.value.field_name == "self_check_bool"


def test_missing_optional_fields_are_legal(tmp_path):
    path = tmp_path / "minimal.jsonl"
    write_lines(path, [json.dumps({"id": "a", "schema_id": "s", "label": 0})])
    ds = load_dataset(path)
    record = ds.records[0]
    assert record.token_probs is None
    assert record.self_check_bool is None
    assert record.verbalized_prob is None
    assert record.alternatives is None


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
    again = load_dataset(out)
    assert again.records == ds.records
    assert ds.records[0].extra == {"custom_tag": "kept"}
    assert ds.records[0].alternatives == (Alternative(score=0.5, equivalent=False),)


@pytest.mark.parametrize("label", [True, False, 1.0, 0.0])
def test_record_with_a_label_load_rejects_is_not_built(label):
    # such a record would be written with "label": true or 1.0, which load_dataset rejects
    with pytest.raises(RecordError, match="must be the integer 0 or 1") as err:
        PredictionRecord(id="a", schema_id="s", label=label, token_probs=(0.5,))
    assert err.value.record_id == "a"
    assert err.value.field_name == "label"


def test_record_error_without_a_record_id_names_the_field():
    assert str(RecordError(None, "token_probs", "bad")) == "field 'token_probs': bad"
    assert str(RecordError("a", "token_probs", "bad")) == "record 'a': field 'token_probs': bad"


# The parse contract of the one line reader, through each of its callers:
# `load_dataset`, the pair reading of `label` and `load_scored`.
def _pair_ids(path):
    from sqlcalib.cli import _pair_from_obj
    from sqlcalib.records import _read_records

    return [pair.id for pair in _read_records(path, _pair_from_obj)]


def _scored_ids(path):
    from sqlcalib.scoring import load_scored

    return list(load_scored(path).ids)


READERS = {
    "dataset": (lambda path: [r.id for r in load_dataset(path).records],
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
        assert {r.schema_id for r in load_dataset(path).records} == {"3"}
