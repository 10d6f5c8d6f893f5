"""Partition calibrated confidences into bins for ECE and reliability plots.

Uniform mode uses equal-width bins on [0, 1]. Monotonic mode sorts samples
by confidence and pools adjacent bins until observed accuracies increase
left to right (ties in confidence never split across bins), optionally
merging undersized bins into whichever neighbor costs least. One stack pass,
`_pav_segments`, pools and merges every split. Its groups are the fit behind
`calibrate.fit_isotonic`, which pools them in numpy rounds; bins keep the
stack, whose order of addition gives each bin's pinned confidence sum. Both
modes bin every split of a batch at once into bin columns (`_bin_columns`:
counts and sums per bin, no object per bin), which the evaluator's ECE
reads directly; `_partitions` builds the `Bin`s of the public functions,
the one-split case, from the same columns.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._segments import (bounds_of, one_split, ordered_sum, segment_ids, segment_sums, sorted_ties,
                        stable_argsort)


@dataclass(frozen=True)
class Bin:
    lo: float
    hi: float
    count: int
    mean_conf: float
    accuracy: float


@dataclass(frozen=True)
class BinPartition:
    mode: str  # "uniform" or "monotonic"
    bins: tuple[Bin, ...]

    @property
    def n(self) -> int:
        return sum(b.count for b in self.bins)

    def objective(self) -> float:
        """Weighted mean absolute gap between bin accuracy and bin confidence."""
        n = self.n
        return ordered_sum(b.count / n * abs(b.accuracy - b.mean_conf) for b in self.bins if b.count)


def _mean_conf(conf_sum: float, count: int, lo: float, hi: float) -> float:
    # the true mean lies in [lo, hi]; clamp away 1-ulp float excursions
    return min(max(conf_sum / count, lo), hi)


def uniform_bins(confs: Sequence[float], labels: Sequence[int], n_bins: int) -> BinPartition:
    """Equal-width bins on [0, 1]; a confidence of exactly 1.0 lands in the
    last bin. Empty bins carry count 0 (they get zero ECE weight)."""
    return _partitions(*one_split(confs, labels, "confidences"), "uniform", n_bins, 1)[0]


def _pav_start(values: np.ndarray, labels: np.ndarray,
               bounds: np.ndarray) -> tuple[np.ndarray, ...]:
    """The groups both pool-adjacent-violators passes start from, one per distinct value
    of each segment, ascending: value, count, label sum and first sorted offset."""
    order, first = sorted_ties(values, bounds)
    starts = np.flatnonzero(first)
    # 0/1 labels: their sums are exact in any order
    return (values[order[starts]], np.diff(np.append(starts, len(order))),
            np.bincount(np.cumsum(first) - 1, weights=labels[order]), starts)


def _pav_segments(groups: tuple[np.ndarray, ...], bounds: np.ndarray,
                  min_count: int = 1) -> tuple[np.ndarray, ...]:
    """Pool adjacent violators over the labels of each segment's ascending
    distinct values, in one pass over all of them that starts a new stack at
    each segment; every segment must be nonempty.

    Starts from `groups`, the `_pav_start` of the segments, and pools a
    group into its left neighbor whenever the left accuracy is >= the right
    one, so accuracies strictly increase left to right: group by group, the
    least-squares non-decreasing fit of the labels against the values. As a
    segment's stack closes, `_merged` merges its groups below min_count.
    Returns the groups as `_bin_columns` returns bins: each group's count,
    label sum, value sum, lo and hi, segment by segment, and the offsets of
    each segment's groups among them; a pooled group keeps its left part's
    lo and its right part's hi.
    """
    firsts, counts, label_sums, starts = groups
    closing = np.zeros(len(starts), dtype=np.int64)  # n at the last group of a segment of n
    closing[np.searchsorted(starts, bounds[1:] - 1, side="right") - 1] = np.diff(bounds)

    out = ([], [], [], [], [])
    tops = [0]
    groups = ns, ys, cs, los, his = [], [], [], [], []
    for value, count, label_sum, n in zip(firsts.tolist(), counts.tolist(), label_sums.tolist(),
                                          closing.tolist()):
        cur_n, cur_y, cur_c, cur_lo = count, label_sum, value * count, value
        # cross-product compare is exact: label sums and counts are integers
        while ns and ys[-1] * cur_n >= cur_y * ns[-1]:
            cur_n = ns.pop() + cur_n
            cur_y = ys.pop() + cur_y
            cur_c = cs.pop() + cur_c
            cur_lo = los.pop()
            his.pop()
        ns.append(cur_n)
        ys.append(cur_y)
        cs.append(cur_c)
        los.append(cur_lo)
        his.append(value)
        if n:
            for column, merged in zip(out, _merged(groups, n, min_count)):
                column.extend(merged)
            tops.append(len(out[0]))
            groups = ns, ys, cs, los, his = [], [], [], [], []
    return (*map(np.array, out), np.array(tops))


def _merged(groups: tuple[list, ...], n: int, min_count: int) -> tuple[list, ...]:
    """The group columns of a segment of n samples once each group below
    min_count is merged into the neighbor that raises the ECE least (the
    left one on a tie)."""

    def pooled(j: int) -> tuple[list, ...]:
        ns, ys, cs, los, his = groups
        pool = (ns[j] + ns[j + 1], ys[j] + ys[j + 1], cs[j] + cs[j + 1], los[j], his[j + 1])
        return tuple(column[:j] + [p] + column[j + 2:] for column, p in zip(groups, pool))

    def objective(groups: tuple[list, ...]) -> float:
        return ordered_sum(k / n * abs(y / k - _mean_conf(c, k, lo, hi))
                           for k, y, c, lo, hi in zip(*groups))

    while len(groups[0]) > 1 and min(groups[0]) < min_count:
        i = next(i for i, k in enumerate(groups[0]) if k < min_count)
        groups = min((pooled(j) for j in (i - 1, i) if 0 <= j < len(groups[0]) - 1),
                     key=objective)
    return groups


def monotonic_bins(
    confs: Sequence[float], labels: Sequence[int], min_bin_count: int = 1
) -> BinPartition:
    """Data-driven contiguous bins with non-decreasing observed accuracies.

    Starts from the pool-adjacent-violators groups of the confidences (the
    coarsest partition with strictly increasing accuracies, ties kept
    together). Groups smaller than min_bin_count are then merged into the
    neighbor that least increases the weighted |accuracy - mean confidence|
    objective. The confidences must be finite.
    """
    return _partitions(*one_split(confs, labels, "confidences"), "monotonic", 1,
                       min_bin_count)[0]


def _bin_columns(c: np.ndarray, a: np.ndarray, bounds: np.ndarray, mode: str, n_bins: int,
                 min_bin_count: int) -> tuple[np.ndarray, ...]:
    """The bins of every segment of the columns in the binning mode `mode`,
    "uniform" (n_bins bins) or "monotonic" (min_bin_count), as columns: each
    bin's count, label sum, confidence sum, lo and hi, segment by segment, and
    the offsets of each segment's bins among them. A uniform bin sums its
    confidences in element order, as `np.sum` of its slice; 0/1 labels sum
    exactly in any order."""
    if mode == "uniform":
        if n_bins < 1:
            raise ValueError(f"need at least 1 bin, got {n_bins}")
        if not np.all((c >= 0.0) & (c <= 1.0)):
            raise ValueError("confidences must lie in [0, 1] for uniform binning")
        # (segment, bin) ids; a stable sort keeps each bin's elements in order
        m = len(bounds) - 1
        gid = segment_ids(bounds) * n_bins + np.minimum((c * n_bins).astype(int), n_bins - 1)
        counts = np.bincount(gid, minlength=m * n_bins)
        conf_sums = segment_sums(c[stable_argsort(gid, len(counts))], bounds_of(counts))
        edges = np.arange(n_bins + 1) / n_bins
        return (counts, np.bincount(gid, weights=a, minlength=len(counts)), conf_sums,
                np.tile(edges[:-1], m), np.tile(edges[1:], m), bounds_of(np.full(m, n_bins)))
    if mode != "monotonic":
        raise ValueError(f"unknown binning mode {mode!r}")
    if min_bin_count < 1:
        raise ValueError(f"min_bin_count must be >= 1, got {min_bin_count}")
    lengths = np.diff(bounds)
    if np.any(lengths < min_bin_count):
        n = int(lengths[np.argmax(lengths < min_bin_count)])
        raise ValueError(f"min_bin_count {min_bin_count} exceeds sample count {n}")
    if not np.all(np.isfinite(c)):
        raise ValueError("confidences must be finite for monotonic binning")
    return _pav_segments(_pav_start(c, a, bounds), bounds, min_bin_count)


def _partitions(c: np.ndarray, a: np.ndarray, bounds: np.ndarray, mode: str, n_bins: int,
                min_bin_count: int) -> list[BinPartition]:
    """The `BinPartition` of every segment, built from its `_bin_columns`."""
    *columns, bin_bounds = _bin_columns(c, a, bounds, mode, n_bins, min_bin_count)
    bins = [
        Bin(lo=lo, hi=hi, count=k, mean_conf=_mean_conf(conf_sum, k, lo, hi),
            accuracy=label_sum / k)
        if k else Bin(lo=lo, hi=hi, count=0, mean_conf=(lo + hi) / 2, accuracy=0.0)
        for k, label_sum, conf_sum, lo, hi in zip(*(column.tolist() for column in columns))
    ]
    return [BinPartition(mode=mode, bins=tuple(bins[i:j]))
            for i, j in itertools.pairwise(bin_bounds.tolist())]
