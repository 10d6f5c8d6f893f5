import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import _ece, auc_pair_counting
from sqlcalib._segments import bounds_of
from sqlcalib.binning import _partitions, monotonic_bins, uniform_bins
from sqlcalib.calibrate import PlattCalibrator, apply_platt
from sqlcalib.metrics import (
    SingleClassError,
    _eces,
    auc,
    brier,
    ece,
    prf_at_threshold,
    summarize,
)
from sqlcalib.protocol import ProtocolConfig


class TestBrier:
    def test_perfect(self):
        assert brier([1.0, 0.0, 1.0], [1, 0, 1]) == 0.0

    def test_all_half(self):
        assert brier([0.5] * 6, [1, 0, 1, 1, 0, 0]) == 0.25

    def test_worked_example(self):
        assert brier([0.8, 0.3], [1, 0]) == pytest.approx(0.065, rel=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError):
            brier([], [])
        with pytest.raises(ValueError, match="length mismatch"):
            brier([0.5], [1, 0])

    def test_nan_confidence_is_an_error(self):
        # it made the score NaN
        with pytest.raises(ValueError, match=r"^NaN in confidences at index 0$"):
            brier([math.nan, 0.5], [1, 0])

    @given(
        st.lists(
            st.tuples(st.floats(min_value=0, max_value=1), st.integers(0, 1)),
            min_size=1,
            max_size=30,
        ),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=100)
    def test_permutation_invariant_and_bounded(self, data, rnd):
        confs = [d[0] for d in data]
        labels = [d[1] for d in data]
        value = brier(confs, labels)
        assert 0.0 <= value <= 1.0
        paired = list(zip(confs, labels))
        rnd.shuffle(paired)
        assert brier([p[0] for p in paired], [p[1] for p in paired]) == pytest.approx(value)


class TestEce:
    def test_two_singleton_bins(self):
        confs, labels = [0.95, 0.85], [1, 0]
        part = uniform_bins(confs, labels, 10)
        assert ece(confs, labels, part) == pytest.approx(0.45, rel=1e-12)

    def test_perfectly_calibrated_bins(self):
        confs = [0.25, 0.25, 0.25, 0.25, 0.75, 0.75, 0.75, 0.75]
        labels = [1, 0, 0, 0, 1, 1, 1, 0]
        part = uniform_bins(confs, labels, 2)
        assert ece(confs, labels, part) == pytest.approx(0.0, abs=1e-12)

    def test_calibrated_sampling_bound(self):
        rng = np.random.Generator(np.random.PCG64(12))
        confs = rng.random(10000)
        labels = (rng.random(10000) < confs).astype(int)
        part = uniform_bins(confs.tolist(), labels.tolist(), 10)
        assert ece(confs.tolist(), labels.tolist(), part) <= 0.02

    def test_inconsistent_partition_rejected(self):
        part = uniform_bins([0.2, 0.9], [0, 1], 10)
        with pytest.raises(ValueError, match="inconsistent partition"):
            ece([0.2, 0.9, 0.5], [0, 1, 1], part)
        with pytest.raises(ValueError, match="inconsistent partition"):
            ece([0.3, 0.8], [0, 1], part)
        for outside in (-0.5, -0.01, float("nan")):
            with pytest.raises(ValueError, match="falls outside every bin"):
                ece([outside, 0.9], [0, 1], part)
        # monotonic bins [0.2, 0.2] and [0.4, 0.9]
        mono = monotonic_bins([0.2, 0.4, 0.9], [0, 1, 1])
        assert [(b.lo, b.hi) for b in mono.bins] == [(0.2, 0.2), (0.4, 0.9)]
        for outside in (0.3, 0.1, 0.95, float("nan")):
            with pytest.raises(ValueError, match=f"confidence {outside!r} falls outside every bin"):
                ece([0.2, outside, 0.9], [0, 1, 1], mono)
        with pytest.raises(ValueError, match="bin 0 holds 1 samples, data places 2"):
            ece([0.2, 0.2, 0.9], [0, 1, 1], mono)
        with pytest.raises(ValueError, match="bin 1 accuracy disagrees"):
            ece([0.2, 0.4, 0.9], [0, 1, 0], mono)

    def test_sample_order_invariant(self):
        confs, labels = [0.1, 0.6, 0.6, 0.9], [0, 1, 0, 1]
        a = ece(confs, labels, uniform_bins(confs, labels, 5))
        confs2, labels2 = confs[::-1], labels[::-1]
        b = ece(confs2, labels2, uniform_bins(confs2, labels2, 5))
        assert a == pytest.approx(b)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_column_eces_are_the_partition_objectives_bit_for_bit(self, data):
        mode = data.draw(st.sampled_from(["uniform", "monotonic"]))
        n_bins = data.draw(st.integers(1, 12))
        min_bin_count = data.draw(st.integers(1, 4)) if mode == "monotonic" else 1
        grid = data.draw(st.integers(1, 12))  # n_bins == grid puts values on bin edges
        value = st.one_of(st.sampled_from([0.0, 1.0]), st.integers(0, grid).map(lambda j: j / grid),
                          st.floats(0.0, 1.0))
        confs, labels, lengths = [], [], data.draw(
            st.lists(st.integers(min_bin_count, 25), min_size=1, max_size=6))
        for n in lengths:  # single rows, all-equal splits and mixed ones
            split = ([data.draw(value)] * n if data.draw(st.booleans())
                     else data.draw(st.lists(value, min_size=n, max_size=n)))
            confs += split
            labels += data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        c, a, bounds = np.array(confs), np.array(labels, dtype=float), bounds_of(lengths)
        got = _eces(c, a, bounds, mode, n_bins, min_bin_count)
        parts = _partitions(c, a, bounds, mode, n_bins, min_bin_count)
        assert got == [p.objective() for p in parts]
        cfg = ProtocolConfig(binning=mode, n_bins=n_bins, min_bin_count=min_bin_count)
        assert got == [_ece(c[i:j], a[i:j], cfg) for i, j in zip(bounds[:-1], bounds[1:])]


class TestAuc:
    def test_perfect_separation(self):
        assert auc([0.9, 0.1], [1, 0]) == 1.0

    def test_all_tied(self):
        assert auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_single_class_is_an_error(self):
        with pytest.raises(SingleClassError):
            auc([0.1, 0.9], [1, 1])
        with pytest.raises(SingleClassError):
            auc([0.1, 0.9], [0, 0])

    def test_nan_score_is_an_error(self):
        for scores, labels in (([0.2, math.nan], [0, 1]), ([math.nan, 0.5, 0.7], [0, 1, 1])):
            with pytest.raises(ValueError, match="NaN"):
                auc(scores, labels)

    def test_infinite_scores_rank_at_the_ends(self):
        assert auc([-math.inf, 0.5, math.inf], [0, 1, 1]) == 1.0
        assert auc([math.inf, 0.5, -math.inf], [0, 1, 1]) == 0.0

    def test_matches_pair_counting_exactly(self):
        rng = np.random.Generator(np.random.PCG64(17))
        for trial in range(50):
            n = int(rng.integers(2, 201))
            labels = rng.integers(0, 2, n)
            if labels.sum() in (0, n):
                labels[0] = 1 - labels[0]
            scores = (rng.integers(0, 5, n) / 4.0) if trial % 3 == 0 else rng.random(n)
            assert auc(scores.tolist(), labels.tolist()) == auc_pair_counting(scores, labels)

    def test_invariant_under_platt_bit_exactly(self):
        rng = np.random.Generator(np.random.PCG64(19))
        scores = rng.random(300)
        labels = (rng.random(300) < scores).astype(int)
        cal = PlattCalibrator(t=2.5, b=-0.75)
        mapped = [apply_platt(cal, x) for x in scores]
        assert auc(mapped, labels.tolist()) == auc(scores.tolist(), labels.tolist())


class TestPrf:
    def test_worked_example(self):
        tm = prf_at_threshold([0.95, 0.91, 0.5], [1, 0, 1], 0.9)
        assert (tm.precision, tm.recall, tm.f1) == (0.5, 0.5, 0.5)

    def test_zero_threshold_gives_full_recall(self):
        tm = prf_at_threshold([0.1, 0.2, 0.3], [0, 1, 1], 0.0)
        assert tm.recall == 1.0

    def test_no_predicted_positives(self):
        tm = prf_at_threshold([0.1, 0.2], [1, 0], 0.9)
        assert (tm.precision, tm.recall, tm.f1) == (0.0, 0.0, 0.0)

    def test_no_true_positives(self):
        tm = prf_at_threshold([0.95, 0.99], [0, 0], 0.9)
        assert (tm.precision, tm.recall, tm.f1) == (0.0, 0.0, 0.0)

    def test_nan_confidence_is_an_error(self):
        # it was counted as a negative prediction
        with pytest.raises(ValueError, match=r"^NaN in confidences at index 1$"):
            prf_at_threshold([0.9, math.nan], [1, 1], 0.5)

    @given(
        st.lists(
            st.tuples(st.floats(min_value=0, max_value=1), st.integers(0, 1)),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=150)
    def test_recall_and_positive_count_non_increasing_in_tau(self, data):
        confs = [d[0] for d in data]
        labels = [d[1] for d in data]
        taus = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
        recalls = [prf_at_threshold(confs, labels, t).recall for t in taus]
        counts = [sum(1 for c in confs if c >= t) for t in taus]
        assert all(a >= b for a, b in zip(recalls, recalls[1:]))
        assert all(a >= b for a, b in zip(counts, counts[1:]))


class TestSummarize:
    def test_bundle_fields(self):
        rng = np.random.Generator(np.random.PCG64(4))
        raw = rng.random(200)
        labels = (rng.random(200) < raw).astype(int)
        report = summarize(raw.tolist(), raw.tolist(), raw.tolist(), labels.tolist())
        assert report.binning_mode == "uniform"
        assert report.ece_raw is not None
        assert report.bs_p == report.bs_i
        assert len(report.prf) == 4
        assert {tm.threshold for tm in report.prf} == {0.9, 0.85, 0.8, 0.7}

    @pytest.mark.parametrize("label", [0, 1])
    def test_single_class_labels_give_nan_auc(self, label):
        raw = [0.2, 0.5, 0.9]
        report = summarize(raw, raw, raw, [label] * 3)
        assert math.isnan(report.auc)
        assert report.bs_p == report.bs_i

    def test_out_of_range_raw_disables_raw_ece(self):
        raw = [-0.4, 0.2, 0.9, 0.5]
        labels = [0, 0, 1, 1]
        cal = [0.1, 0.3, 0.8, 0.6]
        report = summarize(raw, cal, cal, labels)
        assert report.ece_raw is None
        assert report.auc == auc(raw, labels)

    @pytest.mark.parametrize("column, what", [
        ("raw", "raw scores"), ("platt", "confidences"), ("iso", "confidences"),
        ("threshold", "confidences"),
    ])
    def test_nan_in_any_score_column_is_an_error(self, column, what):
        # a NaN raw score gave AUC 1.0 and no raw ECE; a NaN threshold score
        # was counted as a negative prediction
        columns = {name: [0.2, 0.6, 0.7] for name in ("raw", "platt", "iso", "threshold")}
        columns[column] = [0.2, math.nan, 0.7]
        with pytest.raises(ValueError, match=rf"^NaN in {what} at index 1$"):
            summarize(columns["raw"], columns["platt"], columns["iso"], [0, 1, 1],
                      threshold_scores=columns["threshold"])
