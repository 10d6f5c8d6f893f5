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
    select,
    sorted_ties,
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


def test_select_lays_kept_segments_end_to_end():
    rows, kept = select(bounds_of([2, 3, 1, 4]), np.array([1, 3]))
    assert rows.tolist() == [2, 3, 4, 6, 7, 8, 9]
    assert kept.tolist() == [0, 3, 7]
