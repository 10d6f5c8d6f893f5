import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import reference_cross_validate, reference_schema_level

from sqlcalib import binning as binning_module
from sqlcalib.metrics import auc
from sqlcalib.protocol import (
    ProtocolConfig,
    _assign_folds,
    cross_validate,
    generate_synthetic,
    schema_level_evaluate,
)
from sqlcalib.scoring import ScoredColumns, pool_prod, score_dataset


def _dataset(n_schemas, per_schema=10):
    records = []
    i = 0
    for s in range(n_schemas):
        for j in range(per_schema):
            records.append({"id": f"r{i:04d}", "schema_id": f"schema{s:02d}", "label": j % 2})
            i += 1
    return records


def _folds(dataset, k, seed):
    return _assign_folds(Counter(r["schema_id"] for r in dataset), k, seed)


def _columns_of(rows):
    """Rows of (id, schema_id, method, raw_score, label), all of one method,
    as `ScoredColumns`."""
    ids, schema_ids, methods, raw_scores, labels = zip(*rows)
    return ScoredColumns(ids, schema_ids, methods[0], raw_scores, labels)


def _permuted(columns, order):
    """The rows of `columns` taken in `order`."""
    ids, schema_ids, raw_scores, labels = ([column[i] for i in order] for column in (
        columns.ids, columns.schema_ids, columns.raw_scores, columns.labels))
    return ScoredColumns(ids, schema_ids, columns.method, raw_scores, labels)


def _rows(n_schemas=6, per_schema=12, seed=0):
    rng = np.random.Generator(np.random.PCG64(seed))
    out = []
    i = 0
    for s in range(n_schemas):
        for _ in range(per_schema):
            raw = float(rng.random())
            label = int(rng.random() < raw)
            out.append((f"r{i:04d}", f"schema{s:02d}", "prod", raw, label))
            i += 1
    return out


def _scored(n_schemas=6, per_schema=12, seed=0):
    return _columns_of(_rows(n_schemas, per_schema, seed))


class TestFolds:
    def test_twenty_schemas_balance_evenly(self):
        folds = _folds(_dataset(20), 5, seed=1)
        sizes = Counter(folds.values())
        assert sorted(sizes.values()) == [4, 4, 4, 4, 4]

    def test_eleven_schemas_split_3_2_2_2_2(self):
        folds = _folds(_dataset(11), 5, seed=1)
        sizes = Counter(folds.values())
        assert sorted(sizes.values(), reverse=True) == [3, 2, 2, 2, 2]

    def test_deterministic(self):
        ds = _dataset(9)
        a = _folds(ds, 4, seed=7)
        b = _folds(ds, 4, seed=7)
        assert a == b

    def test_different_seeds_usually_differ(self):
        ds = _dataset(12)
        a = _folds(ds, 4, seed=1)
        b = _folds(ds, 4, seed=2)
        assert a != b

    def test_every_schema_assigned_exactly_once(self):
        ds = _dataset(13)
        folds = _folds(ds, 5, seed=3)
        assert set(folds) == {f"schema{s:02d}" for s in range(13)}
        assert set(folds.values()) == set(range(5))

    def test_too_few_schemas(self):
        with pytest.raises(ValueError, match="schemas"):
            _folds(_dataset(3), 5, seed=0)

    def test_record_count_balancing(self):
        # one heavy schema should not share a fold with another heavy one
        records = []
        i = 0
        for s in range(6):
            for _ in range(100 if s < 2 else 5):
                records.append({"id": f"r{i}", "schema_id": f"s{s}", "label": 0})
                i += 1
        folds = _folds(records, 2, seed=0)
        heavy_folds = {folds["s0"], folds["s1"]}
        assert heavy_folds == {0, 1}


class TestCrossValidate:
    def test_fold_count_and_structure(self):
        # one fitted calibrator pair per fold on a 20-schema layout
        report = cross_validate(_scored(n_schemas=20, per_schema=8), ProtocolConfig(k=5, seed=2))
        assert len(report.folds) == 5
        assert [f.fold for f in report.folds] == list(range(5))

    def test_each_record_tested_k_minus_1_times(self):
        scored = _scored()
        cfg = ProtocolConfig(k=5, seed=2)
        report = cross_validate(scored, cfg)
        assert sum(f.n_test for f in report.folds) == len(scored) * (cfg.k - 1)
        assert sum(f.n_tune for f in report.folds) == len(scored)

    def test_separable_scores(self):
        scored = []
        i = 0
        for s in range(6):
            for label in (0, 1) * 4:
                scored.append((f"r{i:03d}", f"s{s}", "prod", float(label), label))
                i += 1
        report = cross_validate(_columns_of(scored), ProtocolConfig(seed=5))
        assert report.mean["auc"] == 1.0
        assert report.mean["bs_i"] <= 0.01

    def test_independent_scores(self):
        ds = generate_synthetic(5000, "half", seed=11)
        scored = score_dataset(ds, "prod").scored
        report = cross_validate(scored, ProtocolConfig(seed=11))
        assert 0.47 <= report.mean["auc"] <= 0.53

    def test_mean_is_arithmetic_mean_of_folds(self):
        report = cross_validate(_scored(seed=4), ProtocolConfig(seed=4))
        for key in ("bs_p", "bs_i", "auc", "ece_p", "ece_i"):
            values = [getattr(f.metrics, key) for f in report.folds]
            assert report.mean[key] == pytest.approx(sum(values) / len(values), abs=1e-12)

    def test_reports_reproducible(self):
        scored = _scored(seed=9)
        cfg = ProtocolConfig(seed=9)
        assert cross_validate(scored, cfg) == cross_validate(scored, cfg)

    def test_degenerate_tuning_fold_flagged_not_fatal(self):
        scored = []
        i = 0
        for s in range(5):
            label_pool = [1, 1] if s == 0 else [0, 1]  # schema s0 single-class
            for label in label_pool * 3:
                scored.append((f"r{i:03d}", f"s{s}", "prod", 0.3 + 0.1 * label, label))
                i += 1
        report = cross_validate(_columns_of(scored), ProtocolConfig(k=5, seed=1))
        assert any(f.degenerate_tune for f in report.folds)
        assert any("degenerate" in note for note in report.notes)

    def test_single_class_test_split_has_nan_auc_and_a_note(self):
        # k=2 over two schemas: when s1 tunes, the test split is s0 alone,
        # whose labels are all 1
        scored = []
        for s, label_pool in enumerate(([1, 1], [0, 1])):
            for j, label in enumerate(label_pool * 4):
                scored.append((f"s{s}-{j}", f"s{s}", "prod", 0.2 + 0.1 * j, label))
        report = cross_validate(_columns_of(scored), ProtocolConfig(k=2, seed=0))
        nan_folds = [f.fold for f in report.folds if math.isnan(f.metrics.auc)]
        assert len(nan_folds) == 1
        assert f"fold {nan_folds[0]}: single-class test split, AUC undefined" in report.notes
        # one undefined fold makes the mean AUC undefined too
        assert math.isnan(report.mean["auc"])

    def test_unknown_method_rejected(self):
        # scored columns carry one method, checked when they are built
        ids, schema_ids, _, raw_scores, labels = zip(*_rows())
        with pytest.raises(ValueError, match="^unknown scoring method 'median'$"):
            ScoredColumns(ids, schema_ids, "median", raw_scores, labels)
        with pytest.raises(ValueError, match=r"^unknown scoring method \['prod', 'geo'\]$"):
            ScoredColumns(ids[:2], schema_ids[:2], ["prod", "geo"], raw_scores[:2], labels[:2])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ProtocolConfig(k=1)
        with pytest.raises(ValueError):
            ProtocolConfig(thresholds=(1.5,))
        with pytest.raises(ValueError):
            ProtocolConfig(binning="quantile")

    @pytest.mark.parametrize("value", [1, 0])
    def test_min_schema_records_below_2_rejected(self, value):
        # a schema-level split needs one tuning and one evaluation record
        with pytest.raises(ValueError, match="min_schema_records must be >= 2"):
            ProtocolConfig(min_schema_records=value)


    @pytest.mark.parametrize("field", ["n_bins", "min_bin_count"])
    @pytest.mark.parametrize("value", [0, -2])
    def test_bin_settings_below_1_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be >= 1, got {value}"):
            ProtocolConfig(**{field: value})


class TestSchemaLevel:
    def test_all_correct_schema(self):
        scored = []
        for s in range(2):
            for j in range(20):
                label = 1 if s == 0 else j % 2
                scored.append((f"r{s}{j:02d}", f"s{s}", "prod", 0.5 + 0.4 * label, label))
        cfg = ProtocolConfig(seed=0)
        report = schema_level_evaluate(_columns_of(scored), cfg)
        row = next(r for r in report.schemas if r.schema_id == "s0")
        # every held-out record is positive, so precision is 1 wherever recall > 0
        for tm in row.metrics.prf:
            if tm.recall > 0:
                assert tm.precision == 1.0
        assert math.isnan(row.metrics.auc)  # single-class schema

    def test_small_schema_skipped_with_reason(self):
        scored = [(f"a{j}", "tiny", "prod", 0.5, j % 2) for j in range(4)]
        scored += [(f"b{j}", "big", "prod", 0.1 + 0.05 * j, j % 2) for j in range(16)]
        report = schema_level_evaluate(_columns_of(scored), ProtocolConfig(seed=0))
        assert [r.schema_id for r in report.schemas] == ["big"]
        assert report.skipped == (("tiny", "only 4 records, need 10"),)

    def test_schema_below_min_bin_count_skipped_after_its_draw(self):
        # schema00 evaluates 16 records, the others 20: only schema00 is skipped,
        # and the split drawn for it leaves every later schema's split as it was
        scored = _rows(n_schemas=1, per_schema=20, seed=4)
        scored += [(f"z{rid}", f"schema{int(schema_id[-2:]) + 1:02d}", "prod", raw, label)
                   for rid, schema_id, _, raw, label in _rows(n_schemas=3, per_schema=25, seed=6)]
        scored = _columns_of(scored)
        cfg = ProtocolConfig(seed=3, binning="monotonic")
        report = schema_level_evaluate(scored, replace(cfg, min_bin_count=17))
        assert report.skipped == (("schema00", "only 16 evaluation records, need min_bin_count 17"),)
        kept = schema_level_evaluate(scored, cfg).schemas[1:]
        assert [r.schema_id for r in report.schemas] == [r.schema_id for r in kept]
        for row, ref in zip(report.schemas, kept):
            # Brier, AUC and P/R/F1 depend on the split, not on the binning
            assert (row.metrics.bs_p, row.metrics.bs_i, row.metrics.auc, row.metrics.prf) == (
                ref.metrics.bs_p, ref.metrics.bs_i, ref.metrics.auc, ref.metrics.prf)

    def test_every_schema_skipped_names_the_first(self):
        scored = _scored(n_schemas=2, per_schema=20, seed=4)
        cfg = ProtocolConfig(seed=3, binning="monotonic", min_bin_count=17)
        with pytest.raises(ValueError, match="all 2 skipped, first schema00: only 16 evaluation"):
            schema_level_evaluate(scored, cfg)

    def test_deterministic(self):
        scored = _scored(n_schemas=3, per_schema=25, seed=5)
        cfg = ProtocolConfig(seed=5)
        assert schema_level_evaluate(scored, cfg) == schema_level_evaluate(scored, cfg)

    def test_anti_informative_schema_has_low_auc(self):
        # schema s1's scores point the wrong way; pooled AUC can still look fine
        rng = np.random.Generator(np.random.PCG64(8))
        scored = []
        i = 0
        for j in range(60):
            label = int(rng.random() < 0.5)
            scored.append((f"r{i:03d}", "s0", "prod", 0.7 * label + 0.2 * float(rng.random()),
                           label))
            i += 1
        for j in range(60):
            label = int(rng.random() < 0.5)
            scored.append((f"r{i:03d}", "s1", "prod",
                           0.9 - 0.7 * label - 0.1 * float(rng.random()), label))
            i += 1
        scored = _columns_of(scored)
        report = schema_level_evaluate(scored, ProtocolConfig(seed=8))
        aucs = {r.schema_id: r.metrics.auc for r in report.schemas}
        assert aucs["s1"] < 0.5 < aucs["s0"]
        pooled = auc(list(scored.raw_scores), list(scored.labels))
        assert pooled > aucs["s1"]

    def test_tuning_split_leaves_one_evaluation_record(self):
        # round(0.9 * 2) = 2 would tune on both records; the draws stay tune_fraction <= 0.6
        scored = _scored(n_schemas=6, per_schema=2, seed=9)
        cfg = ProtocolConfig(seed=9, tune_fraction=0.9, min_schema_records=2)
        report = schema_level_evaluate(scored, cfg)
        assert [(r.n_tune, r.n_eval) for r in report.schemas] == [(1, 1)] * 6
        assert repr(report) == repr(reference_schema_level(scored, cfg))

    def test_micro_pools_all_held_out_records(self):
        scored = _scored(n_schemas=4, per_schema=20, seed=2)
        report = schema_level_evaluate(scored, ProtocolConfig(seed=2))
        assert sum(r.n_eval for r in report.schemas) == 4 * 16  # 20% of 20 reserved
        assert all(r.n_tune == 4 for r in report.schemas)


class TestSynthetic:
    def test_prod_pooling_reproduces_score_exactly(self):
        ds = generate_synthetic(500, "identity", seed=3)
        for record in ds:
            assert len(record["token_probs"]) == 1
            assert pool_prod(record["token_probs"]) == record["token_probs"][0]

    def test_constant_one_map(self):
        ds = generate_synthetic(200, "one", seed=0)
        assert all(r["label"] == 1 for r in ds)

    def test_round_robin_schemas(self):
        ds = generate_synthetic(25, "identity", seed=0, n_schemas=10)
        counts = Counter(r["schema_id"] for r in ds)
        assert len(counts) == 10
        assert max(counts.values()) - min(counts.values()) <= 1

    def test_unknown_true_map_is_a_value_error_listing_the_maps(self):
        with pytest.raises(ValueError) as err:
            generate_synthetic(10, "nope", 1)
        assert str(err.value) == (
            "unknown true map 'nope': expected one of ['half', 'identity', 'logistic', 'one']")

    def test_deterministic(self):
        assert generate_synthetic(100, "identity", 5) == generate_synthetic(100, "identity", 5)

    def test_identity_map_downstream_calibration(self):
        ds = generate_synthetic(10000, "identity", seed=3)
        scored = score_dataset(ds, "prod").scored
        report = cross_validate(scored, ProtocolConfig(seed=3))
        assert report.mean["ece_i"] <= 0.02

    def test_schema_disjointness_enforced_by_construction(self):
        ds = generate_synthetic(300, "identity", seed=1)
        scored = score_dataset(ds, "prod").scored
        counts = {}
        for schema_id in scored.schema_ids:
            counts[schema_id] = counts.get(schema_id, 0) + 1
        from sqlcalib.protocol import _assign_folds

        mapping = _assign_folds(counts, 5, 1)
        for f in range(5):
            tune = {s for s, fold in mapping.items() if fold == f}
            test = {s for s, fold in mapping.items() if fold != f}
            assert not (tune & test)


RAW_KINDS = ("uniform", "ties", "constant", "spread")
LABEL_KINDS = ("drawn", "drawn", "all_0", "all_1")


@st.composite
def scored_sets(draw):
    """Schemas of 1 to 300 records (numpy sums 128-element blocks pairwise),
    each with its own kind of raw scores: continuous, few tied values, one
    constant, or spread over [-1, 1] like the variant method's; and labels
    drawn at the score or of one class."""
    sizes = draw(st.lists(st.integers(1, 300), min_size=2, max_size=7))
    raw_kinds = draw(st.lists(st.sampled_from(RAW_KINDS), min_size=len(sizes),
                              max_size=len(sizes)))
    label_kinds = draw(st.lists(st.sampled_from(LABEL_KINDS), min_size=len(sizes),
                                max_size=len(sizes)))
    variant = draw(st.booleans())
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32 - 1))))
    records = []
    for s, (size, raw_kind, label_kind) in enumerate(zip(sizes, raw_kinds, label_kinds)):
        raw = {
            "uniform": lambda: rng.random(size),
            "ties": lambda: rng.integers(0, 4, size) / 4.0,
            "constant": lambda: np.full(size, rng.random()),
            "spread": lambda: rng.uniform(-1.0, 1.0, size),
        }[raw_kind]()
        if not variant:
            raw = np.abs(raw)
        labels = {
            "drawn": lambda: (rng.random(size) < np.abs(raw)).astype(int),
            "all_0": lambda: np.zeros(size, dtype=int),
            "all_1": lambda: np.ones(size, dtype=int),
        }[label_kind]()
        records += [(f"r{s}-{j:03d}", f"schema{s}", "variant_alt" if variant else "prod",
                     float(raw[j]), int(labels[j]))
                    for j in range(size)]
    return _columns_of([records[i] for i in rng.permutation(len(records))])


configs = st.builds(
    ProtocolConfig,
    k=st.integers(2, 4),
    binning=st.sampled_from(["uniform", "monotonic"]),
    n_bins=st.integers(1, 12),
    min_bin_count=st.integers(1, 6),
    seed=st.integers(0, 1000),
    calibrator=st.sampled_from(["platt", "isotonic"]),
    tune_fraction=st.floats(0.05, 0.6),
    min_schema_records=st.integers(2, 12),
)


def _outcome(evaluate, scored, cfg):
    try:
        return repr(evaluate(scored, cfg))
    except ValueError as exc:
        return f"ValueError: {exc}"


class TestSegmentedEvaluator:
    """Both scopes evaluate every split at once; the reports must equal
    those of one split at a time bit for bit. `repr` is compared because a
    NaN AUC makes `==` false."""

    @given(scored=scored_sets(), cfg=configs)
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_schema_level_matches_per_split_reference(self, scored, cfg):
        assert (_outcome(schema_level_evaluate, scored, cfg)
                == _outcome(reference_schema_level, scored, cfg))

    @given(scored=scored_sets(), cfg=configs)
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_cross_validate_matches_per_fold_reference(self, scored, cfg):
        assert (_outcome(cross_validate, scored, cfg)
                == _outcome(reference_cross_validate, scored, cfg))


class TestNoBinObjects:
    """The evaluator reads each ECE from bin columns: with `Bin` and
    `BinPartition` made to raise, both scopes give the same reports."""

    @pytest.mark.parametrize("binning", ["uniform", "monotonic"])
    def test_reports_unchanged_without_bin_objects(self, binning, monkeypatch):
        scored = _scored(n_schemas=10, per_schema=15, seed=3)
        cfg = ProtocolConfig(k=5, binning=binning, min_bin_count=2)
        evaluators = (cross_validate, schema_level_evaluate)
        expected = [repr(evaluate(scored, cfg)) for evaluate in evaluators]

        def refuse(*args, **kwargs):
            raise AssertionError("the evaluator built a bin object")

        monkeypatch.setattr(binning_module, "Bin", refuse)
        monkeypatch.setattr(binning_module, "BinPartition", refuse)
        assert [repr(evaluate(scored, cfg)) for evaluate in evaluators] == expected


def test_the_isotonic_fit_pools_in_numpy_rounds(monkeypatch):
    """Cross-validation on a seeded synthetic input fits its isotonic maps
    without the stack: no call of `_pav_segments` from `calibrate`."""
    from sqlcalib import calibrate

    scored = score_dataset(generate_synthetic(2000, "identity", seed=3), "prod").scored
    calls = []
    stack = calibrate._pav_segments
    monkeypatch.setattr(calibrate, "_pav_segments", lambda *args: calls.append(1) or stack(*args))
    expected = repr(cross_validate(scored, ProtocolConfig(k=5)))
    assert calls == []
    monkeypatch.setattr(calibrate, "_POOL_ROUNDS", 0)  # the stack pools every fit
    assert repr(cross_validate(scored, ProtocolConfig(k=5))) == expected and len(calls) == 1


class TestColumnarInput:
    """Both evaluators order the rows by Python's string order, so the row
    order of the columns does not change the report."""

    @staticmethod
    def _scored_columns():
        rng = np.random.Generator(np.random.PCG64(12))
        ids = iter(f"id{p:04d}" for p in rng.permutation(200))  # file order is not id order
        records = []
        for s in range(6):
            # "a" and "a\x00" tie as numpy strings, which drop trailing NULs
            names = ["a\x00", "a"] if s == 2 else []
            names += [next(ids) for _ in range(14 - len(names))]
            for name in names:
                p = float(rng.uniform(0.05, 1.0))
                records.append({"id": name, "schema_id": f"s{s}", "label": int(rng.random() < p),
                                "token_probs": [p, float(rng.uniform(0.5, 1.0))]})
        records[28:30] = [{**records[28], "token_probs": [0.05], "label": 1},
                          {**records[29], "token_probs": [0.95], "label": 0}]
        return score_dataset(records, "prod").scored

    @pytest.mark.parametrize("cfg", [
        ProtocolConfig(seed=4, k=3),
        ProtocolConfig(seed=5, k=4, binning="monotonic", calibrator="platt"),
    ], ids=["uniform-isotonic", "monotonic-platt"])
    def test_columns_and_record_lists_give_the_same_reports(self, cfg):
        columns = self._scored_columns()
        assert list(columns.ids[28:30]) == ["a\x00", "a"]
        rng = np.random.Generator(np.random.PCG64(cfg.seed))
        reversed_columns = _permuted(columns, range(len(columns) - 1, -1, -1))
        shuffled = _permuted(reversed_columns, rng.permutation(len(columns)))
        for evaluate, reference in (
            (cross_validate, reference_cross_validate),
            (schema_level_evaluate, reference_schema_level),
        ):
            expected = repr(reference(reversed_columns, cfg))
            assert repr(evaluate(columns, cfg)) == expected
            assert repr(evaluate(reversed_columns, cfg)) == expected
            assert repr(evaluate(shuffled, cfg)) == expected
