import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (_mean_conf, _monotonic_bins, _pav_groups, brute_monotone_partition,
                     reference_fit_isotonic)
from sqlcalib import binning, calibrate
from sqlcalib._segments import bounds_of
from sqlcalib.binning import (Bin, BinPartition, _pav_segments, _pav_start, monotonic_bins,
                              uniform_bins)
from sqlcalib.calibrate import _isotonic_segments
from sqlcalib.protocol import _mean_std

samples = st.lists(
    st.tuples(st.floats(min_value=0, max_value=1), st.integers(min_value=0, max_value=1)),
    min_size=1,
    max_size=12,
)


def test_sums_add_left_to_right_on_every_python():
    # ten terms of 0.1 add to 1 - 2**-53 in order; Python 3.12's compensated sum() gives 1.0
    bins = tuple(Bin(lo=0.0, hi=0.1, count=1, mean_conf=0.0, accuracy=1.0) for _ in range(10))
    assert BinPartition(mode="uniform", bins=bins).objective() == 0.9999999999999999
    assert _mean_std([0.1] * 10)[0] == 0.9999999999999999 / 10


class TestUniform:
    def test_point_lands_in_tenth_bin(self):
        part = uniform_bins([0.95], [1], 10)
        (hit,) = [b for b in part.bins if b.count]
        assert (hit.lo, hit.hi) == (0.9, 1.0)

    def test_conf_of_one_goes_to_last_bin(self):
        part = uniform_bins([1.0], [1], 10)
        assert part.bins[-1].count == 1

    def test_two_singleton_bins(self):
        part = uniform_bins([0.95, 0.85], [1, 0], 10)
        nonempty = [b for b in part.bins if b.count]
        assert [b.accuracy for b in nonempty] == [0.0, 1.0]
        assert [b.count for b in part.bins] == [0] * 8 + [1, 1]

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            uniform_bins([0.5], [1, 0], 10)

    def test_needs_at_least_one_bin(self):
        with pytest.raises(ValueError):
            uniform_bins([0.5], [1], 0)

    @given(samples, st.integers(min_value=1, max_value=20))
    @example([(0.7, 0)] * 3, 10)  # the float mean of three 0.7s is below 0.7
    @settings(max_examples=200)
    def test_invariants(self, data, n_bins):
        confs = [d[0] for d in data]
        labels = [d[1] for d in data]
        part = uniform_bins(confs, labels, n_bins)
        assert part.n == len(confs)
        assert len(part.bins) == n_bins
        for b in part.bins:
            assert b.lo <= b.mean_conf <= b.hi
            assert 0.0 <= b.accuracy <= 1.0
        # ordered, non-overlapping, tiling [0, 1]
        for left, right in zip(part.bins, part.bins[1:]):
            assert left.hi == right.lo


class TestMonotonic:
    def test_separated_labels_make_two_bins(self):
        part = monotonic_bins([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1], min_bin_count=1)
        assert [(b.count, b.accuracy) for b in part.bins] == [(2, 0.0), (2, 1.0)]

    def test_all_labels_equal_single_bin(self):
        part = monotonic_bins([0.2, 0.5, 0.6, 0.9], [1, 1, 1, 1])
        assert len(part.bins) == 1
        assert part.bins[0].count == 4

    def test_ties_in_confidence_stay_together(self):
        part = monotonic_bins([0.5, 0.5, 0.5, 0.9], [0, 1, 0, 1])
        for b in part.bins:
            assert not (b.lo < 0.5 < b.hi and b.count < 3)
        counts = [b.count for b in part.bins]
        assert counts == [3, 1]

    def test_min_bin_count_exceeding_n(self):
        with pytest.raises(ValueError):
            monotonic_bins([0.5], [1], min_bin_count=2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_confidence_is_an_error(self, bad):
        with pytest.raises(ValueError, match="finite"):
            monotonic_bins([bad, 0.5, 0.7], [0, 1, 1])

    def test_min_bin_count_merges_small_bins(self):
        part = monotonic_bins([0.1, 0.5, 0.6, 0.9], [0, 0, 1, 1], min_bin_count=2)
        assert all(b.count >= 2 for b in part.bins)
        accs = [b.accuracy for b in part.bins]
        assert accs == sorted(accs)

    @given(samples)
    @settings(max_examples=200, deadline=None)
    def test_matches_exhaustive_optimum(self, data):
        confs = [d[0] for d in data]
        labels = [d[1] for d in data]
        part = monotonic_bins(confs, labels)
        oracle_obj, oracle_bins = brute_monotone_partition(confs, labels)
        assert part.objective() == pytest.approx(oracle_obj, abs=1e-9)
        assert [(b.count, b.accuracy) for b in part.bins] == [
            (c, pytest.approx(a, abs=1e-12)) for c, a in oracle_bins
        ]

    @given(samples)
    @settings(max_examples=200, deadline=None)
    def test_invariants(self, data):
        confs = [d[0] for d in data]
        labels = [d[1] for d in data]
        part = monotonic_bins(confs, labels)
        assert part.n == len(confs)
        accs = [b.accuracy for b in part.bins]
        assert all(a <= b for a, b in zip(accs, accs[1:]))
        for b in part.bins:
            assert b.lo <= b.mean_conf <= b.hi
            assert b.count >= 1

    def test_no_worse_than_uniform_on_separable_data(self):
        rng = np.random.Generator(np.random.PCG64(6))
        raw = rng.random(200)
        labels = (raw >= 0.5).astype(int)
        confs = labels.astype(float)  # score equals label: accuracy monotone in conf
        mono = monotonic_bins(confs.tolist(), labels.tolist())
        uni = uniform_bins(confs.tolist(), labels.tolist(), 10)
        assert mono.objective() <= uni.objective() + 1e-12


# 1-6 segments of 1-25 values from a coarse grid, so that ties and all-equal segments occur
segments = st.lists(
    st.lists(st.tuples(st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.7, 1.0]),
                       st.integers(min_value=0, max_value=1)), min_size=1, max_size=25),
    min_size=1, max_size=6,
)


@given(segments, st.integers(min_value=2, max_value=4))
# the middle group merges left or right at ECE 0.0 either way; the left one wins the tie
@example([[(0.0, 0)] * 3 + [(0.5, 0), (0.5, 1)] + [(1.0, 1)] * 3], 3)
@settings(max_examples=300, deadline=None)
def test_pav_columns_are_the_oracle_groups_of_each_segment(data, min_count):
    """`_pav_segments`' columns against the oracle's PAV groups, segment by
    segment: exactly for the plain groups, as (count, mean confidence,
    accuracy) once merged by min_count, and as knots for `_isotonic_segments`."""
    c = np.array([x for seg in data for x, _ in seg])
    a = np.array([y for seg in data for _, y in seg], dtype=float)
    bounds = bounds_of([len(seg) for seg in data])
    splits = [(c[i:j], a[i:j]) for i, j in itertools.pairwise(bounds.tolist())]

    *columns, group_bounds = _pav_segments(_pav_start(c, a, bounds), bounds)
    groups = [list(g) for g in zip(*(column.tolist() for column in columns))]
    oracle = [_pav_groups(ci, ai) for ci, ai in splits]
    assert group_bounds.tolist() == bounds_of([len(g) for g in oracle]).tolist()
    assert groups == [g for seg in oracle for g in seg]

    xs, ys, knot_bounds = _isotonic_segments(c, a, bounds)
    knots = list(zip(xs.tolist(), ys.tolist()))
    assert [knots[i:j] for i, j in itertools.pairwise(knot_bounds.tolist())] == [
        reference_fit_isotonic(ci, ai) for ci, ai in splits]

    long_enough = [seg for seg in data if len(seg) >= min_count]
    if long_enough:
        c = np.array([x for seg in long_enough for x, _ in seg])
        a = np.array([y for seg in long_enough for _, y in seg], dtype=float)
        bounds = bounds_of([len(seg) for seg in long_enough])
        *columns, group_bounds = (column.tolist() for column in _pav_segments(
            _pav_start(c, a, bounds), bounds, min_count))
        merged = [(k, _mean_conf(s, k, lo, hi), y / k) for k, y, s, lo, hi in zip(*columns)]
        assert [merged[i:j] for i, j in itertools.pairwise(group_bounds)] == [
            _monotonic_bins(c[i:j], a[i:j], min_count)
            for i, j in itertools.pairwise(bounds.tolist())]


def _knots_by_segment(c, a, bounds):
    """The knots of `_isotonic_segments`, as one list per segment."""
    xs, ys, knot_bounds = (column.tolist() for column in _isotonic_segments(c, a, bounds))
    knots = list(zip(xs, ys))
    return [knots[i:j] for i, j in itertools.pairwise(knot_bounds)]


def _stack_knots(c, a, bounds):
    """The same knots read from the groups of the stack, `_pav_segments`."""
    n, y, _, lo, hi, group_bounds = (column.tolist()
                                      for column in _pav_segments(_pav_start(c, a, bounds), bounds))
    knots = [[(x0, k / m)] + ([(x1, k / m)] if x1 != x0 else [])
             for m, k, x0, x1 in zip(n, y, lo, hi)]
    return [sum(knots[i:j], []) for i, j in itertools.pairwise(group_bounds)]


@st.composite
def segmented_fits(draw):
    """Raw and label columns of 1-40 segments of 1-30 rows each: tied raw
    scores from a coarse grid or distinct ones, labels all 0, all 1 or mixed."""
    shape = st.tuples(st.integers(1, 30), st.sampled_from(["grid", "floats"]),
                      st.sampled_from([0.0, 1.0, 0.3, 0.7]))  # length, raw scores, P(label 1)
    shapes = draw(st.lists(shape, min_size=1, max_size=40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = np.array([-0.5, 0.0, 0.2, 0.5, 0.9, 1.0])
    raws, labels = [], []
    for n, values, p in shapes:
        raws.append(rng.choice(grid, n) if values == "grid" else rng.uniform(-1, 1, n))
        labels.append((rng.random(n) < p).astype(float))
    return np.concatenate(raws), np.concatenate(labels), bounds_of([n for n, *_ in shapes])


@given(segmented_fits())
@settings(max_examples=300, deadline=None)
def test_isotonic_rounds_give_the_knots_of_the_stack(fit):
    assert _knots_by_segment(*fit) == _stack_knots(*fit)


def _cascade(k, zeros):
    """Raw score i holds i positives among i + 1 rows for i = 1..k, so the
    accuracies rise; raw score k + 1 then holds `zeros` negatives, which
    pool back through every group, one more each round."""
    c = np.concatenate([np.full(i + 1, float(i)) for i in range(1, k + 1)]
                       + [np.full(zeros, k + 1.0)])
    a = np.concatenate([np.append(np.ones(i), 0.0) for i in range(1, k + 1)] + [np.zeros(zeros)])
    return c, a


@pytest.mark.parametrize("rounds, stack_calls", [(10**9, 0), (calibrate._POOL_ROUNDS, 1), (0, 1)])
def test_a_cascade_pools_as_the_stack_within_and_past_the_round_bound(monkeypatch, rounds,
                                                                       stack_calls):
    c, a = _cascade(40, 2_000)
    static = np.tile([0.25, 0.75], 500)  # beside it, 500 segments that need no pooling
    c, a = np.concatenate([c, static]), np.concatenate([a, np.tile([0.0, 1.0], 500)])
    bounds = bounds_of([len(c) - len(static)] + [2] * 500)
    expected = _stack_knots(c, a, bounds)
    calls, starts = [], []
    monkeypatch.setattr(calibrate, "_POOL_ROUNDS", rounds)
    monkeypatch.setattr(calibrate, "_pav_segments",
                        lambda *args: calls.append(1) or _pav_segments(*args))
    for module in (calibrate, binning):  # the stack sorts no column again
        monkeypatch.setattr(module, "_pav_start", lambda *args: starts.append(1) or _pav_start(*args))
    assert _knots_by_segment(c, a, bounds) == expected
    assert len(expected[0]) == 2 and len(calls) == stack_calls  # one block, from 1 to k + 1
    assert len(starts) == 1
