import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlcalib.records import RecordError
from sqlcalib.scoring import (
    POOLING_METHODS,
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
)

probs_lists = st.lists(
    st.floats(min_value=1e-9, max_value=1.0, exclude_min=False), min_size=1, max_size=40
)


class TestPooling:
    def test_prod(self):
        assert pool_prod([0.5, 0.5]) == pytest.approx(0.25, rel=1e-12)
        assert pool_prod([1.0]) == 1.0
        assert pool_prod([0.9, 0.8, 0.5]) == pytest.approx(0.36, rel=1e-12)

    def test_geo(self):
        assert pool_geo([0.25, 1.0]) == pytest.approx(0.5, rel=1e-12)
        assert pool_geo([0.37]) == 0.37
        assert pool_geo([0.9, 0.8, 0.5]) == pytest.approx(0.36 ** (1 / 3), rel=1e-12)

    def test_min(self):
        assert pool_min([0.9, 0.2, 0.8]) == 0.2
        assert pool_min([1.0, 1.0]) == 1.0
        assert pool_min([0.36]) == 0.36

    def test_avg(self):
        assert pool_avg([0.2, 0.8]) == pytest.approx(0.5, rel=1e-12)
        assert pool_avg([0.77]) == 0.77
        assert pool_avg([0.9, 0.8, 0.5]) == pytest.approx(2.2 / 3, rel=1e-12)

    @pytest.mark.parametrize("pool", [pool_prod, pool_geo, pool_min, pool_avg])
    def test_empty_rejected(self, pool):
        with pytest.raises(ValueError):
            pool([])

    @pytest.mark.parametrize("pool", [pool_prod, pool_geo, pool_min, pool_avg])
    def test_out_of_range_rejected(self, pool):
        with pytest.raises(ValueError):
            pool([0.5, 0.0])
        with pytest.raises(ValueError):
            pool([1.5])

    @given(probs_lists)
    @settings(max_examples=300)
    def test_ordering_chain(self, probs):
        # exp/log round-trips can land one ulp off at exact ties, hence the slack
        eps = 1e-12
        p, m, g, a = pool_prod(probs), pool_min(probs), pool_geo(probs), pool_avg(probs)
        assert p <= m * (1 + eps) + eps
        assert m <= g * (1 + eps) + eps
        assert g <= a * (1 + eps) + eps

    @given(st.floats(min_value=1e-9, max_value=1.0))
    def test_single_token_identity(self, p):
        for pool in (pool_prod, pool_geo, pool_min, pool_avg):
            assert pool([p]) == p

    @given(probs_lists, st.randoms(use_true_random=False))
    @settings(max_examples=150)
    def test_permutation_invariance(self, probs, rnd):
        shuffled = probs[:]
        rnd.shuffle(shuffled)
        for pool in (pool_prod, pool_geo, pool_min, pool_avg):
            assert pool(shuffled) == pytest.approx(pool(probs), rel=1e-12, abs=1e-300)

    def test_long_sequence_underflows_to_zero_without_error(self):
        assert pool_prod([1e-5] * 100) == 0.0


class TestSelfCheck:
    def test_bool_normalizes(self):
        assert score_self_check_bool(0.6, 0.2) == pytest.approx(0.75, rel=1e-12)
        assert score_self_check_bool(0.5, 0.5) == 0.5

    def test_bool_degenerate(self):
        with pytest.raises(ValueError, match="degenerate self-check"):
            score_self_check_bool(0.0, 0.0)

    @pytest.mark.parametrize("p_true, p_false", [
        (math.inf, 1.0), (math.nan, 1.0), (1.0, math.inf), (1.0, math.nan), (-math.inf, 1.0),
    ])
    def test_bool_non_finite_rejected(self, p_true, p_false):
        with pytest.raises(ValueError, match="probabilities must be finite"):
            score_self_check_bool(p_true, p_false)

    def test_ints_past_the_float_range_fail_as_in_a_line(self):
        # a float cannot hold 10**400, so a line holding it is rejected, not compared
        from sqlcalib.records import _checked

        for score, field, value in (
            (lambda: score_self_check_bool(10**400, 1), "self_check_bool",
             {"p_true": 10**400, "p_false": 1}),
            (lambda: score_variant_alt(0.5, [(10**400, False)]), "alternatives",
             [{"score": 10**400, "equivalent": False}]),
        ):
            with pytest.raises(RecordError) as line:
                _checked({"id": "a", "schema_id": "s", "label": 0, field: value})
            with pytest.raises(RecordError) as scored:
                score()
            assert str(scored.value) == f"field {field!r}: must be a number"
            assert str(line.value) == f"record 'a': {scored.value}"

    @given(
        st.floats(min_value=0, max_value=1e6),
        st.floats(min_value=1e-9, max_value=1e6),
    )
    def test_bool_complement(self, p, q):
        total = score_self_check_bool(p, q) + score_self_check_bool(q, p)
        assert total == pytest.approx(1.0, rel=1e-12)

    def test_bool_sum_past_the_float_range(self, tmp_path):
        from sqlcalib.cli import main

        assert score_self_check_bool(1e308, 1e308) == 0.5
        assert score_self_check_bool(1.5e308, 0.5e308) == 0.75
        assert score_self_check_bool(1e308, 5e-324) == 1.0
        data = tmp_path / "data.jsonl"
        data.write_text(json.dumps({"id": "a", "schema_id": "s", "label": 1,
                                    "self_check_bool": {"p_true": 1e308, "p_false": 1e308}}) + "\n")
        out = tmp_path / "scored.jsonl"
        assert main(["score", "--input", str(data), "--out", str(out),
                     "--method", "self_check_bool"]) == 0
        assert json.loads(out.read_text())["raw_score"] == 0.5

    @given(st.floats(min_value=0, max_value=1e300), st.floats(min_value=1e-300, max_value=1e300))
    def test_bool_with_a_finite_sum_is_the_plain_ratio(self, p, q):
        assert score_self_check_bool(p, q) == p / (p + q)

    def test_probs_identity(self):
        assert score_self_check_probs(0.7) == 0.7
        assert score_self_check_probs(1.0) == 1.0

    def test_probs_out_of_range(self):
        with pytest.raises(ValueError):
            score_self_check_probs(1.3)


class TestVariantAlt:
    def test_subtracts_best_inequivalent(self):
        alts = [(0.5, False), (0.9, True)]
        assert score_variant_alt(0.8, alts) == pytest.approx(0.3, rel=1e-12)

    def test_can_go_negative(self):
        assert score_variant_alt(0.4, [(0.7, False)]) == pytest.approx(-0.3)

    def test_all_equivalent_keeps_own_score(self):
        alts = [(0.9, True), (0.2, True)]
        assert score_variant_alt(0.6, alts) == 0.6

    def test_alternative_score_out_of_range(self):
        with pytest.raises(ValueError):
            score_variant_alt(0.5, [(1.2, False)])

    @given(
        st.floats(min_value=0, max_value=1),
        st.floats(min_value=0, max_value=1),
        st.floats(min_value=0, max_value=1),
    )
    def test_monotone_in_r_pred_and_best_alt(self, r1, r2, alt):
        lo, hi = sorted((r1, r2))
        alts = [(alt, False)]
        assert score_variant_alt(lo, alts) <= score_variant_alt(hi, alts)
        # raising the competing score can only lower the result
        stronger = [(min(1.0, alt + 0.1), False)]
        assert score_variant_alt(r1, stronger) <= score_variant_alt(r1, alts)

    def test_range_bounds(self):
        assert -1.0 <= score_variant_alt(0.0, [(1.0, False)]) <= 1.0


@pytest.mark.parametrize("score, field, message", [
    (lambda: pool_prod([]), "token_probs", "must be nonempty when present"),
    (lambda: pool_min([0.5, 0.0]), "token_probs", "every probability must lie in (0, 1], got 0.0"),
    (lambda: score_self_check_bool(-0.1, 1.0), "self_check_bool",
     "probabilities must be nonnegative"),
    (lambda: score_self_check_bool(0.0, 0.0), "self_check_bool",
     "degenerate self-check: p_true + p_false must be positive"),
    (lambda: score_self_check_probs(1.3), "verbalized_prob", "must lie in [0, 1], got 1.3"),
    (lambda: score_variant_alt(0.5, [(math.nan, False)]), "alternatives",
     "score nan is not finite"),
    (lambda: score_variant_alt(0.5, [(0.2, 1)]), "alternatives",
     "equivalent must be true or false"),
], ids=["empty", "zero", "negative", "degenerate", "verbalized", "alternative", "equivalent"])
def test_scalar_scorers_raise_the_record_rules(tmp_path, score, field, message):
    with pytest.raises(RecordError) as err:
        score()
    assert (err.value.record_id, err.value.field_name) == (None, field)
    assert str(err.value) == f"field {field!r}: {message}"


@pytest.mark.parametrize("score, field", [
    (lambda: pool_prod([True]), "token_probs"),
    (lambda: pool_avg([0.5, np.True_]), "token_probs"),
    (lambda: pool_min(["0.5"]), "token_probs"),
    (lambda: score_self_check_bool(True, 1), "self_check_bool"),
    (lambda: score_self_check_probs(False), "verbalized_prob"),
    (lambda: score_variant_alt(0.5, [(True, False)]), "alternatives"),
], ids=["prod-true", "avg-numpy-true", "min-string", "self-check-bool", "verbalized",
        "alternative"])
def test_scalar_scorers_take_numbers_not_bools(score, field):
    with pytest.raises(RecordError) as err:
        score()
    assert str(err.value) == f"field {field!r}: must be a number"


@pytest.mark.parametrize("score, field, message", [
    (lambda: pool_prod(np.array(0.5)), "token_probs", "must be a list of numbers"),
    (lambda: score_self_check_bool(np.array(3.0), 1), "self_check_bool", "must be a number"),
    (lambda: score_self_check_probs(np.array(0.5)), "verbalized_prob", "must be a number"),
], ids=["prod", "self-check-bool", "verbalized"])
def test_scalar_scorers_take_a_0d_array_as_a_scalar(score, field, message):
    with pytest.raises(RecordError) as err:
        score()
    assert str(err.value) == f"field {field!r}: {message}"


def test_scalar_scorers_take_numpy_numbers():
    assert pool_prod(np.array([0.5, 0.5])) == 0.25
    assert pool_min([np.float32(0.5), 1]) == 0.5
    assert score_self_check_bool(np.int64(3), np.int64(1)) == 0.75
    assert score_self_check_probs(np.float64(0.25)) == 0.25
    assert score_variant_alt(np.float64(0.75), [(np.float64(0.25), False)]) == 0.5
    with pytest.raises(ValueError, match="^predicted score True is not a number$"):
        score_variant_alt(True, [])


class TestScoreDataset:
    def _dataset(self):
        return (
            {"id": "a", "schema_id": "s1", "label": 1, "token_probs": [0.9, 0.5]},
            {"id": "b", "schema_id": "s1", "label": 0},
            {"id": "c", "schema_id": "s2", "label": 1, "token_probs": [0.7]},
        )

    def test_skips_records_missing_fields(self):
        result = score_dataset(self._dataset(), "prod")
        assert list(result.scored.ids) == ["a", "c"]
        assert result.skipped == (("b", "missing token_probs"),)

    def test_self_check_bool_scores_all_applicable(self):
        lines = [{"id": f"r{i}", "schema_id": "s", "label": 1,
                  "self_check_bool": {"p_true": 0.7, "p_false": 0.1}} for i in range(4)]
        result = score_dataset(lines, "self_check_bool")
        assert len(result.scored) == 4
        assert all(raw == pytest.approx(0.875) for raw in result.scored.raw_scores)

    def test_self_check_methods_score_and_skip_through_score_dataset(self):
        dataset = (
            {"id": "p", "schema_id": "s", "label": 1, "verbalized_prob": 0.25},
            {"id": "q", "schema_id": "s", "label": 0,
             "self_check_bool": {"p_true": 0.7, "p_false": 0.1}},
            {"id": "r", "schema_id": "s", "label": 0, "verbalized_prob": 1.0},
        )
        result = score_dataset(dataset, "self_check_probs")
        assert (result.scored.ids, result.scored.raw_scores) == (("p", "r"), (0.25, 1.0))
        assert result.skipped == (("q", "missing verbalized_prob"),)
        result = score_dataset(dataset, "self_check_bool")
        assert (result.scored.ids, result.scored.raw_scores) == (("q",), (0.7 / (0.7 + 0.1),))
        assert result.skipped == (("p", "missing self_check_bool"),
                                  ("r", "missing self_check_bool"))

    def test_variant_alt_needs_probs_and_alternatives(self):
        record = {"id": "v", "schema_id": "s", "label": 1, "token_probs": [0.8],
                  "alternatives": [{"score": 0.3, "equivalent": False}]}
        bare = {"id": "w", "schema_id": "s", "label": 1}
        result = score_dataset([record, bare], "variant_alt")
        assert result.scored.ids == ("v",)
        assert result.scored.raw_scores == (pytest.approx(0.5),)
        assert result.skipped == (("w", "missing alternatives"),)

    @given(probs_lists)
    @settings(max_examples=100)
    def test_record_pools_as_the_public_poolers_without_a_second_check(self, probs):
        import sqlcalib.scoring as scoring

        expected = {m: pooler(probs) for m, pooler in (
            ("prod", pool_prod), ("geo", pool_geo), ("min", pool_min), ("avg", pool_avg))}
        dataset = [{"id": "a", "schema_id": "s", "label": 1, "token_probs": probs}]
        check = scoring._line_value
        scoring._line_value = None  # a line is checked as it is, with no reshaping
        try:
            assert {m: score_dataset(dataset, m).scored.raw_scores[0] for m in expected} == expected
        finally:
            scoring._line_value = check

    def test_score_file_checks_each_line_once(self, tmp_path, monkeypatch):
        import sqlcalib.records as records
        import sqlcalib.scoring as scoring

        path = tmp_path / "data.jsonl"
        path.write_text(json.dumps({
            "id": "a", "schema_id": "s", "label": 1, "token_probs": [0.5, 0.9],
            "self_check_bool": {"p_true": 0.6, "p_false": 0.2}, "verbalized_prob": 0.3,
            "alternatives": [{"score": 0.1, "equivalent": False}]}) + "\n")
        expected = scoring.score_file(path, SCORE_METHODS)
        calls = []
        check = records._check_values
        monkeypatch.setattr(records, "_check_values", lambda *a: calls.append(a) or check(*a))
        monkeypatch.setattr(scoring, "_line_value", None)  # no check past `_checked`
        assert scoring.score_file(path, SCORE_METHODS) == expected
        assert len(calls) == 1

    def test_common_lines_take_the_one_test_path(self, tmp_path, monkeypatch):
        import sqlcalib.records as records
        from sqlcalib.cli import main

        path = tmp_path / "data.jsonl"
        assert main(["simulate", "--n", "200", "--seed", "1", "--out", str(path)]) == 0
        calls = []
        fields = records._fields
        monkeypatch.setattr(records, "_fields", lambda obj: calls.append(obj["id"]) or fields(obj))
        assert len(score_file(path, POOLING_METHODS)["prod"].scored) == 200
        assert calls == []
        full = {"id": "a", "schema_id": "s", "label": 1, "token_probs": [0.5, 0.9],
                "self_check_bool": {"p_true": 0.6, "p_false": 0.2}, "verbalized_prob": 0.3,
                "alternatives": [{"score": 0.1, "equivalent": False}]}
        path.write_text(json.dumps(full) + "\n")
        score_file(path, SCORE_METHODS)
        assert calls == []  # a full line of plain types passes the one test too
        path.write_text(json.dumps({**full, "token_probs": [0.5, 1]}) + "\n")
        score_file(path, SCORE_METHODS)
        assert calls == ["a"]

    def test_score_file_builds_the_shared_columns_once(self, tmp_path):
        import sqlcalib.scoring as scoring

        path = tmp_path / "data.jsonl"
        path.write_text("".join(json.dumps({"id": rid, "schema_id": "s", "label": 1,
                                            "token_probs": [0.5, 0.9], **extra}) + "\n"
                                for rid, extra in (("a", {}), ("b", {"verbalized_prob": 0.3}))))
        results = scoring.score_file(path, ("prod", "geo", "self_check_probs"))
        prod, geo = results["prod"].scored, results["geo"].scored
        assert (prod.ids, prod.schema_ids, prod.labels) == (("a", "b"), ("s", "s"), (1, 1))
        assert prod.ids is geo.ids and prod.schema_ids is geo.schema_ids
        assert prod.labels is geo.labels
        assert results["self_check_probs"].scored.ids == ("b",)
        assert results["self_check_probs"].skipped == (("a", "missing verbalized_prob"),)

    def test_rows_of_one_schema_share_one_schema_id_string(self, tmp_path):
        from sqlcalib.records import load_dataset
        from sqlcalib.scoring import ScoredColumns, load_scored, score_file

        schemas = ["concert_singer", 1017, "concert_singer", 2.5, 1017, "pets_1", "1017", 2.5]
        path, scored_path = tmp_path / "data.jsonl", tmp_path / "scored.jsonl"
        path.write_text("".join(
            json.dumps({"id": f"q{i}", "schema_id": schema, "label": i % 2,
                        "token_probs": [0.5, 0.9], **({"verbalized_prob": 0.3} if i % 3 else {})})
            + "\n" for i, schema in enumerate(schemas)))
        methods = ("prod", "min", "self_check_probs")
        dataset = load_dataset(path)
        for method, result in score_file(path, methods).items():
            assert result == score_dataset(dataset, method)
            sids = result.scored.schema_ids
            assert len({id(s) for s in sids}) == len(set(sids)) == 4

        scored_path.write_text("".join(
            json.dumps({"id": f"q{i}", "schema_id": schema, "method": "avg", "raw_score": 0.5,
                        "label": 1}) + "\n" for i, schema in enumerate(schemas)))
        scored = load_scored(scored_path)
        assert scored == ScoredColumns(tuple(f"q{i}" for i in range(8)), tuple(map(str, schemas)),
                                       "avg", (0.5,) * 8, (1,) * 8)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown scoring method"):
            score_dataset([{"id": "a", "schema_id": "s", "label": 0}], "median")

    def test_scored_file_round_trip(self, tmp_path):
        from sqlcalib.scoring import load_scored, write_scored

        result = score_dataset(self._dataset(), "prod")
        path = tmp_path / "scored.jsonl"
        write_scored(result.scored, path)
        assert load_scored(path) == result.scored

    def test_load_scored_rejects_garbage(self, tmp_path):
        from sqlcalib.scoring import load_scored

        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "schema_id": "s", "method": "median", '
                        '"raw_score": 0.5, "label": 1}\n')
        with pytest.raises(ValueError, match="unknown method"):
            load_scored(path)


class TestScoredColumns:
    def test_immutable_columns_of_equal_length(self):
        from sqlcalib.scoring import ScoredColumns

        columns = ScoredColumns(["a", "b"], ["s", "t"], "prod", [0.25, 0.5], [1, 0])
        assert columns.raw_scores == (0.25, 0.5) and columns.labels == (1, 0)
        assert len(columns) == 2 and not ScoredColumns((), (), "prod", (), ())
        assert columns != ScoredColumns(["a"], ["s"], "prod", [0.25], [1])
        with pytest.raises(AttributeError, match="cannot .* 'labels'"):
            columns.labels = (0, 0)
        with pytest.raises(ValueError, match="unequal length"):
            ScoredColumns(["a"], ["s"], "prod", [0.5], [])

    @pytest.mark.parametrize("row", [
        {"label": 1.5}, {"label": True}, {"label": "1"}, {"label": 2}, {"raw_score": math.nan},
        {"raw_score": -0.25}, {"raw_score": True}, {"raw_score": 10**400}, {"raw_score": "0.5"},
        {"schema_id": ["s"]}, {"id": None},
    ], ids=["label-float", "label-true", "label-string", "label-2", "nan", "negative", "raw-true",
            "huge-int", "raw-string", "list-schema-id", "null-id"])
    def test_rows_given_in_code_raise_the_text_load_scored_gives(self, tmp_path, row):
        from sqlcalib.scoring import ScoredColumns, load_scored

        good = {"id": "a", "schema_id": "s", "method": "prod", "raw_score": 0.5, "label": 1}
        bad = {**good, "id": "b", **row}
        path = tmp_path / "scored.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(RecordError) as loaded:
            load_scored(path)
        rows = [good, bad, {**good, "id": "c", "label": 5}]  # only the first bad row is named
        with pytest.raises(RecordError) as built:
            ScoredColumns(*(tuple(r[k] for r in rows) for k in ("id", "schema_id")), "prod",
                          *(tuple(r[k] for r in rows) for k in ("raw_score", "label")))
        assert str(loaded.value) == f"{path}:2: {built.value}"

    def test_ids_given_in_code_are_strings_and_scores_numbers(self):
        from sqlcalib.scoring import ScoredColumns

        with pytest.raises(RecordError, match="^field 'id': must be a string$"):
            ScoredColumns(["a", 5], ["s", "s"], "prod", [0.5, 0.5], [1, 0])
        with pytest.raises(RecordError, match="^record 'b': field 'schema_id': must be a string$"):
            ScoredColumns(["a", "b"], ["s", 6.0], "prod", [0.5, 0.5], [1, 0])
        columns = ScoredColumns(["a", "b"], ["s", "s"], "variant_alt", [-1, np.float64(0.5)], [1, 0])
        assert columns.raw_scores == (-1, 0.5)
        with pytest.raises(RecordError, match=r"^record 'a': field 'raw_score': -1\.0 outside"):
            ScoredColumns(["a"], ["s"], "prod", [-1], [1])

    @pytest.mark.parametrize("method", SCORE_METHODS)
    def test_writer_bytes_are_json_dumps_of_each_record(self, tmp_path, method):
        from sqlcalib.scoring import ScoredColumns, write_scored

        ids = ['plain', 'quote "q"', "back\\slash", "naïve 数据   \x00", "tab\there"]
        raws = [pool_prod([1e-5] * 100), 1.0, 5e-324, 0.1 + 0.2,
                -0.25 if method == "variant_alt" else 0.75]
        assert raws[0] == 0.0  # a long product underflows
        labels = [0, 1, 1, 0, 1]
        schema_ids = [f"schéma {i}" for i in range(5)]
        columns = ScoredColumns(ids, schema_ids, method, raws, labels)
        expected = "".join(
            json.dumps({"id": i, "schema_id": s, "method": method, "raw_score": r, "label": y}) + "\n"
            for i, s, r, y in zip(ids, schema_ids, raws, labels))
        write_scored(columns, tmp_path / "scored.jsonl")
        assert (tmp_path / "scored.jsonl").read_bytes() == expected.encode("utf-8")
