"""Partition calibrated confidences into bins for ECE and reliability plots.

Uniform mode uses equal-width bins on [0, 1]. Monotonic mode sorts samples
by confidence and pools adjacent bins until observed accuracies increase
left to right (ties in confidence never split across bins), optionally
merging undersized bins into whichever neighbor costs least. That pooling
pass, `_pav_groups`, is also the pool-adjacent-violators fit behind
`calibrate.fit_isotonic`. Both modes bin every split of a batch at once
(`_uniform_segments`, `_monotonic_segments`); the public functions are
the one-split case.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._segments import bounds_of, segment_ids, segment_sums, sorted_ties, stable_argsort


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
        return sum(b.count / n * abs(b.accuracy - b.mean_conf) for b in self.bins if b.count)


def _mean_conf(conf_sum: float, count: int, lo: float, hi: float) -> float:
    # the true mean lies in [lo, hi]; clamp away 1-ulp float excursions
    return min(max(conf_sum / count, lo), hi)


def uniform_bins(confs: Sequence[float], labels: Sequence[int], n_bins: int) -> BinPartition:
    """Equal-width bins on [0, 1]; a confidence of exactly 1.0 lands in the
    last bin. Empty bins carry count 0 (they get zero ECE weight)."""
    if len(confs) != len(labels):
        raise ValueError(f"length mismatch: {len(confs)} confidences vs {len(labels)} labels")
    c = np.asarray(confs, dtype=float)
    return _uniform_segments(c, np.asarray(labels, dtype=float), bounds_of([len(c)]), n_bins)[0]


def _uniform_segments(c: np.ndarray, a: np.ndarray, bounds: np.ndarray,
                      n_bins: int) -> list[BinPartition]:
    """`uniform_bins` of every segment of the columns. A bin sums its
    confidences and labels in element order, as `np.sum` of its slice."""
    if n_bins < 1:
        raise ValueError(f"need at least 1 bin, got {n_bins}")
    if not np.all((c >= 0.0) & (c <= 1.0)):
        raise ValueError("confidences must lie in [0, 1] for uniform binning")

    # (segment, bin) ids; a stable sort keeps each bin's elements in order
    gid = segment_ids(bounds) * n_bins + np.minimum((c * n_bins).astype(int), n_bins - 1)
    counts = np.bincount(gid, minlength=(len(bounds) - 1) * n_bins)
    order = stable_argsort(gid, len(counts))
    group_bounds = bounds_of(counts)
    conf_sums = segment_sums(c[order], group_bounds).tolist()
    label_sums = segment_sums(a[order], group_bounds).tolist()
    edges = [(j / n_bins, (j + 1) / n_bins) for j in range(n_bins)]
    bins = [
        Bin(lo=lo, hi=hi, count=k, mean_conf=_mean_conf(conf_sum, k, lo, hi),
            accuracy=label_sum / k)
        if k else Bin(lo=lo, hi=hi, count=0, mean_conf=(lo + hi) / 2, accuracy=0.0)
        for (lo, hi), k, conf_sum, label_sum
        in zip(itertools.cycle(edges), counts.tolist(), conf_sums, label_sums)
    ]
    return [BinPartition(mode="uniform", bins=tuple(bins[i:i + n_bins]))
            for i in range(0, len(bins), n_bins)]


def _pooled(groups: tuple[list, ...], j: int) -> tuple[list, ...]:
    """The group columns with groups j and j + 1 pooled into one."""
    ns, ys, cs, los, his = groups
    return (
        ns[:j] + [ns[j] + ns[j + 1]] + ns[j + 2 :],
        ys[:j] + [ys[j] + ys[j + 1]] + ys[j + 2 :],
        cs[:j] + [cs[j] + cs[j + 1]] + cs[j + 2 :],
        los[:j] + [los[j]] + los[j + 2 :],
        his[:j] + [his[j + 1]] + his[j + 2 :],
    )


def _pav_groups(values: np.ndarray, labels: np.ndarray) -> tuple[list, ...]:
    """Pool adjacent violators over the labels of ascending distinct values.

    Starts from one group per distinct value (ties stay together) and pools
    a group into its left neighbor whenever the left accuracy is >= the
    right one, so accuracies strictly increase left to right: group by
    group, the least-squares non-decreasing fit of the labels against the
    values. Returns the group columns (count, label sum, value sum, lo, hi);
    a pooled group keeps its left part's lo and its right part's hi.
    """
    return _pav_segments(values, labels, bounds_of([len(values)]))[0]


def _pav_segments(values: np.ndarray, labels: np.ndarray,
                  bounds: np.ndarray) -> list[tuple[list, ...]]:
    """`_pav_groups` of every segment of the columns, in one pass over all
    of their distinct values that starts a new stack at each segment."""
    order, first = sorted_ties(values, bounds)
    starts = np.flatnonzero(first)
    counts = np.diff(np.append(starts, len(order)))
    # 0/1 labels: their sums are exact in any order
    label_sums = np.bincount(np.cumsum(first) - 1, weights=labels[order])
    group_seg = segment_ids(bounds)[order][starts]
    opens = np.ones(len(starts), dtype=bool)
    opens[1:] = group_seg[1:] != group_seg[:-1]
    opened = np.where(opens, group_seg, -1)  # the segment a group opens, else -1

    out = [([], [], [], [], []) for _ in range(len(bounds) - 1)]
    for value, count, label_sum, seg in zip(values[order][starts].tolist(), counts.tolist(),
                                            label_sums.tolist(), opened.tolist()):
        if seg >= 0:
            ns, ys, cs, los, his = out[seg]
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
    return out


def monotonic_bins(
    confs: Sequence[float], labels: Sequence[int], min_bin_count: int = 1
) -> BinPartition:
    """Data-driven contiguous bins with non-decreasing observed accuracies.

    Starts from the pool-adjacent-violators groups of the confidences (the
    coarsest partition with strictly increasing accuracies, ties kept
    together). Groups smaller than min_bin_count are then merged into the
    neighbor that least increases the weighted |accuracy - mean confidence|
    objective.
    """
    if len(labels) != len(confs):
        raise ValueError(f"length mismatch: {len(confs)} confidences vs {len(labels)} labels")
    c = np.asarray(confs, dtype=float)
    return _monotonic_segments(c, np.asarray(labels, dtype=float), bounds_of([len(c)]),
                               min_bin_count)[0]


def _monotonic_segments(c: np.ndarray, a: np.ndarray, bounds: np.ndarray,
                        min_bin_count: int) -> list[BinPartition]:
    """`monotonic_bins` of every segment of the columns."""
    if min_bin_count < 1:
        raise ValueError(f"min_bin_count must be >= 1, got {min_bin_count}")
    lengths = np.diff(bounds)
    if np.any(lengths < min_bin_count):
        n = int(lengths[np.argmax(lengths < min_bin_count)])
        raise ValueError(f"min_bin_count {min_bin_count} exceeds sample count {n}")
    return [BinPartition(mode="monotonic", bins=_merged_bins(groups, n, min_bin_count))
            for groups, n in zip(_pav_segments(c, a, bounds), lengths.tolist())]


def _merged_bins(groups: tuple[list, ...], n: int, min_bin_count: int) -> tuple[Bin, ...]:
    """The bins of n samples' PAV groups once every group below
    min_bin_count is merged into its cheaper neighbor."""

    def total_objective(groups: tuple[list, ...]) -> float:
        return sum(
            k / n * abs(y / k - _mean_conf(c, k, lo, hi)) for k, y, c, lo, hi in zip(*groups)
        )

    while len(groups[0]) > 1:
        under = [i for i, k in enumerate(groups[0]) if k < min_bin_count]
        if not under:
            break
        i = under[0]
        candidates = []
        if i > 0:
            merged = _pooled(groups, i - 1)
            candidates.append((total_objective(merged), 0, merged))
        if i < len(groups[0]) - 1:
            merged = _pooled(groups, i)
            candidates.append((total_objective(merged), 1, merged))
        groups = min(candidates)[2]

    return tuple(
        Bin(lo=lo, hi=hi, count=k, mean_conf=_mean_conf(c, k, lo, hi), accuracy=y / k)
        for k, y, c, lo, hi in zip(*groups)
    )
