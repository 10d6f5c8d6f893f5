"""The per-segment helpers return, bit for bit, the one-segment numpy call
on every slice."""

import numpy as np
import pytest

from sqlcalib._segments import (
    bounds_of,
    segment_ids,
    segment_means,
    segment_searchsorted,
    segment_sums,
    sorted_ties,
)
from sqlcalib.binning import monotonic_bins, uniform_bins
from sqlcalib.calibrate import fit_isotonic, fit_platt
from sqlcalib.metrics import (
    _summarize_segments,
    auc,
    brier,
    ece,
    prf_at_threshold,
    summarize,
)


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _slices(x, bounds):
    return [x[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


@pytest.mark.parametrize("high", [9, 130, 600])  # sequential, one and several pairwise blocks
def test_sums_and_means_match_numpy_per_segment(high):
    rng = _rng(high)
    lengths = rng.integers(1, high, 80)
    lengths[:3] = (1, high - 1, high - 1)  # repeated lengths share one block
    bounds = bounds_of(lengths)
    x = rng.standard_normal(bounds[-1]) * 10.0 ** rng.integers(-8, 8, bounds[-1])
    assert segment_sums(x, bounds).tolist() == [float(np.sum(s)) for s in _slices(x, bounds)]
    assert segment_means(x, bounds).tolist() == [float(np.mean(s)) for s in _slices(x, bounds)]


def test_empty_segments_sum_to_zero():
    assert segment_sums(np.array([1.5, 2.5]), bounds_of([0, 2, 0])).tolist() == [0.0, 4.0, 0.0]


def test_searchsorted_matches_numpy_per_segment():
    rng = _rng(3)
    key_lengths = rng.integers(1, 12, 40)
    keys = np.concatenate([np.sort(rng.integers(0, 20, n) / 4.0) for n in key_lengths])
    key_bounds = bounds_of(key_lengths)
    value_lengths = rng.integers(0, 30, 40)
    values = rng.integers(-4, 24, value_lengths.sum()) / 4.0
    values[::7] = np.nan
    values[1::9] = -0.0
    value_bounds = bounds_of(value_lengths)
    got = segment_searchsorted(keys, key_bounds, values, segment_ids(value_bounds))
    want = [lo + np.searchsorted(k, v, side="right") for lo, k, v
            in zip(key_bounds, _slices(keys, key_bounds), _slices(values, value_bounds))]
    assert got.tolist() == np.concatenate(want).tolist()


def test_sorted_ties_group_equal_values_within_segments():
    values = np.array([0.5, 0.2, 0.5, np.nan, np.nan, 0.2, 0.2, 0.9])
    bounds = bounds_of([5, 3])
    order, first = sorted_ties(values, bounds)
    assert repr(values[order[first]].tolist()) == "[0.2, 0.5, nan, 0.2, 0.9]"  # NaNs: one run
    assert sorted(order[:5].tolist()) == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("binning", ["uniform", "monotonic"])
def test_raw_ece_only_for_segments_whose_raw_scores_lie_in_0_1(binning):
    segments = [  # (raw scores, labels); raw in [0, 1], below 0 or above 1
        ([0.1, 0.4, 0.4, 0.9], [0, 1, 0, 1]),
        ([-0.2, 0.3, 0.8], [0, 0, 1]),
        ([0.0, 1.0], [0, 1]),
        ([0.5, 1.3, 0.7], [1, 1, 0]),
        ([0.35, 0.6, 0.2, 0.95, 0.6], [0, 1, 0, 1, 1]),
    ]
    raw = np.concatenate([r for r, _ in segments])
    labels = np.concatenate([a for _, a in segments]).astype(float)
    cal = np.clip(raw, 0.0, 1.0)
    kwargs = dict(binning=binning, n_bins=4, min_bin_count=1, thresholds=(0.5,))
    reports = _summarize_segments(raw, cal, cal, labels, bounds_of([len(a) for _, a in segments]),
                                  threshold_scores=cal, **kwargs)
    assert [r.ece_raw is None for r in reports] == [False, True, False, True, False]
    for report, (r, a) in zip(reports, segments):
        c = np.clip(r, 0.0, 1.0)
        assert report == summarize(r, c, c, a, **kwargs)


ONE_SPLIT_CALLS = {
    "brier": brier,
    "ece": lambda c, a: ece(c, a, uniform_bins([0.1, 0.2], [0, 1], 10)),
    "auc": auc,
    "prf_at_threshold": lambda c, a: prf_at_threshold(c, a, 0.5),
    "summarize": lambda c, a: summarize(a, c, a, a),  # a later column is short
    "uniform_bins": lambda c, a: uniform_bins(c, a, 10),
    "monotonic_bins": monotonic_bins,
    "fit_platt": fit_platt,
    "fit_isotonic": fit_isotonic,
}


@pytest.mark.parametrize("name", ONE_SPLIT_CALLS)
def test_every_one_split_function_rejects_a_length_mismatch(name):
    with pytest.raises(ValueError, match=r"^length mismatch: 2 (confidences|raw scores) vs 3 labels$"):
        ONE_SPLIT_CALLS[name]([0.1, 0.2], [0, 1, 1])


@pytest.mark.parametrize("name", ONE_SPLIT_CALLS)
def test_every_one_split_function_rejects_a_label_other_than_0_or_1(name):
    for labels in ([0, 2], [-1, 1], [1, 0.5], [0, float("nan")]):
        with pytest.raises(ValueError, match=r"^labels must be 0 or 1$"):
            ONE_SPLIT_CALLS[name]([0.1, 0.2], labels)
