import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlcalib.records import Alternative, PredictionRecord, RecordError, make_dataset
from sqlcalib.scoring import (
    SCORE_METHODS,
    SkipRecord,
    pool_avg,
    pool_geo,
    pool_min,
    pool_prod,
    score_dataset,
    score_record,
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

    def test_ints_past_the_float_range_are_compared_exactly(self):
        assert score_self_check_bool(10**400, 1) == 1.0
        with pytest.raises(RecordError, match=r"score 1\d+ outside \[0, 1\]$"):
            score_variant_alt(0.5, [Alternative(10**400, False)])

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
        alts = [Alternative(0.5, False), Alternative(0.9, True)]
        assert score_variant_alt(0.8, alts) == pytest.approx(0.3, rel=1e-12)

    def test_can_go_negative(self):
        assert score_variant_alt(0.4, [Alternative(0.7, False)]) == pytest.approx(-0.3)

    def test_all_equivalent_keeps_own_score(self):
        alts = [Alternative(0.9, True), Alternative(0.2, True)]
        assert score_variant_alt(0.6, alts) == 0.6

    def test_alternative_score_out_of_range(self):
        with pytest.raises(ValueError):
            score_variant_alt(0.5, [Alternative(1.2, False)])

    @given(
        st.floats(min_value=0, max_value=1),
        st.floats(min_value=0, max_value=1),
        st.floats(min_value=0, max_value=1),
    )
    def test_monotone_in_r_pred_and_best_alt(self, r1, r2, alt):
        lo, hi = sorted((r1, r2))
        alts = [Alternative(alt, False)]
        assert score_variant_alt(lo, alts) <= score_variant_alt(hi, alts)
        # raising the competing score can only lower the result
        stronger = [Alternative(min(1.0, alt + 0.1), False)]
        assert score_variant_alt(r1, stronger) <= score_variant_alt(r1, alts)

    def test_range_bounds(self):
        assert -1.0 <= score_variant_alt(0.0, [Alternative(1.0, False)]) <= 1.0


@pytest.mark.parametrize("score, field, message", [
    (lambda: pool_prod([]), "token_probs", "must be nonempty when present"),
    (lambda: pool_min([0.5, 0.0]), "token_probs", "every probability must lie in (0, 1], got 0.0"),
    (lambda: score_self_check_bool(-0.1, 1.0), "self_check_bool",
     "probabilities must be nonnegative"),
    (lambda: score_self_check_bool(0.0, 0.0), "self_check_bool",
     "degenerate self-check: p_true + p_false must be positive"),
    (lambda: score_self_check_probs(1.3), "verbalized_prob", "must lie in [0, 1], got 1.3"),
    (lambda: score_variant_alt(0.5, [Alternative(math.nan, False)]), "alternatives",
     "score nan is not finite"),
], ids=["empty", "zero", "negative", "degenerate", "verbalized", "alternative"])
def test_scalar_scorers_raise_the_record_rules(tmp_path, score, field, message):
    with pytest.raises(RecordError) as err:
        score()
    assert (err.value.record_id, err.value.field_name) == (None, field)
    assert str(err.value) == f"field {field!r}: {message}"


class TestScoreDataset:
    def _dataset(self):
        return make_dataset(
            [
                PredictionRecord(id="a", schema_id="s1", label=1, token_probs=(0.9, 0.5)),
                PredictionRecord(id="b", schema_id="s1", label=0),
                PredictionRecord(id="c", schema_id="s2", label=1, token_probs=(0.7,)),
            ],
            "t",
        )

    def test_skips_records_missing_fields(self):
        result = score_dataset(self._dataset(), "prod")
        assert list(result.scored.ids) == ["a", "c"]
        assert result.skipped == (("b", "missing token_probs"),)

    def test_self_check_bool_scores_all_applicable(self):
        records = [
            PredictionRecord(id=f"r{i}", schema_id="s", label=1, self_check_bool=(0.7, 0.1))
            for i in range(4)
        ]
        result = score_dataset(make_dataset(records, "t"), "self_check_bool")
        assert len(result.scored) == 4
        assert all(raw == pytest.approx(0.875) for raw in result.scored.raw_scores)

    def test_self_check_methods_score_and_skip_through_score_dataset(self):
        dataset = make_dataset([
            PredictionRecord(id="p", schema_id="s", label=1, verbalized_prob=0.25),
            PredictionRecord(id="q", schema_id="s", label=0, self_check_bool=(0.7, 0.1)),
            PredictionRecord(id="r", schema_id="s", label=0, verbalized_prob=1.0),
        ], "t")
        result = score_dataset(dataset, "self_check_probs")
        assert (result.scored.ids, result.scored.raw_scores) == (("p", "r"), (0.25, 1.0))
        assert result.skipped == (("q", "missing verbalized_prob"),)
        result = score_dataset(dataset, "self_check_bool")
        assert (result.scored.ids, result.scored.raw_scores) == (("q",), (0.7 / (0.7 + 0.1),))
        assert result.skipped == (("p", "missing self_check_bool"),
                                  ("r", "missing self_check_bool"))

    def test_variant_alt_needs_probs_and_alternatives(self):
        record = PredictionRecord(
            id="v", schema_id="s", label=1, token_probs=(0.8,),
            alternatives=(Alternative(0.3, False),),
        )
        assert score_record(record, "variant_alt") == pytest.approx(0.5)
        with pytest.raises(SkipRecord):
            score_record(PredictionRecord(id="w", schema_id="s", label=1), "variant_alt")

    @given(probs_lists)
    @settings(max_examples=100)
    def test_record_pools_as_the_public_poolers_without_a_second_check(self, probs):
        import sqlcalib.scoring as scoring

        record = PredictionRecord(id="a", schema_id="s", label=1, token_probs=tuple(probs))
        expected = {m: pooler(probs) for m, pooler in (
            ("prod", pool_prod), ("geo", pool_geo), ("min", pool_min), ("avg", pool_avg))}
        check = scoring._check_values
        scoring._check_values = None  # the record checked its token list when it was built
        try:
            assert {m: score_record(record, m) for m in expected} == expected
        finally:
            scoring._check_values = check

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
        monkeypatch.setattr(scoring, "_check_values", None)  # no check past `_checked`
        assert scoring.score_file(path, SCORE_METHODS) == expected
        assert len(calls) == 1

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown scoring method"):
            score_record(PredictionRecord(id="a", schema_id="s", label=0), "median")

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

        columns = ScoredColumns(["a", "b"], ["s", "t"], ["prod", "prod"], [0.25, 0.5], [1, 0])
        assert columns.raw_scores == (0.25, 0.5) and columns.labels == (1, 0)
        assert len(columns) == 2 and not ScoredColumns((), (), (), (), ())
        assert columns != ScoredColumns(["a"], ["s"], ["prod"], [0.25], [1])
        with pytest.raises(AttributeError, match="cannot .* 'labels'"):
            columns.labels = (0, 0)
        with pytest.raises(ValueError, match="unequal length"):
            ScoredColumns(["a"], ["s"], ["prod"], [0.5], [])

    @pytest.mark.parametrize("method", SCORE_METHODS)
    def test_writer_bytes_are_json_dumps_of_each_record(self, tmp_path, method):
        from sqlcalib.scoring import ScoredColumns, write_scored

        ids = ['plain', 'quote "q"', "back\\slash", "naïve 数据   \x00", "tab\there"]
        raws = [pool_prod([1e-5] * 100), 1.0, 5e-324, 0.1 + 0.2,
                -0.25 if method == "variant_alt" else 0.75]
        assert raws[0] == 0.0  # a long product underflows
        labels = [0, 1, 1, 0, 1]
        schema_ids = [f"schéma {i}" for i in range(5)]
        columns = ScoredColumns(ids, schema_ids, [method] * 5, raws, labels)
        expected = "".join(
            json.dumps({"id": i, "schema_id": s, "method": method, "raw_score": r, "label": y}) + "\n"
            for i, s, r, y in zip(ids, schema_ids, raws, labels))
        write_scored(columns, tmp_path / "scored.jsonl")
        assert (tmp_path / "scored.jsonl").read_bytes() == expected.encode("utf-8")
