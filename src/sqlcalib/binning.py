"""Partition calibrated confidences into bins for ECE and reliability plots.

Uniform mode uses equal-width bins on [0, 1]. Monotonic mode sorts samples
by confidence and pools adjacent bins until observed accuracies increase
left to right (ties in confidence never split across bins), optionally
merging undersized bins into whichever neighbor costs least. That pooling
pass, `_pav_groups`, is also the pool-adjacent-violators fit behind
`calibrate.fit_isotonic`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


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
    if n_bins < 1:
        raise ValueError(f"need at least 1 bin, got {n_bins}")
    c = np.asarray(confs, dtype=float)
    a = np.asarray(labels, dtype=float)
    if c.size and (c.min() < 0.0 or c.max() > 1.0):
        raise ValueError("confidences must lie in [0, 1] for uniform binning")

    idx = np.minimum((c * n_bins).astype(int), n_bins - 1)
    bins = []
    for j in range(n_bins):
        lo, hi = j / n_bins, (j + 1) / n_bins
        mask = idx == j
        count = int(mask.sum())
        if count:
            mean_conf = _mean_conf(float(c[mask].sum()), count, lo, hi)
            bins.append(
                Bin(lo=lo, hi=hi, count=count, mean_conf=mean_conf, accuracy=float(a[mask].mean()))
            )
        else:
            bins.append(Bin(lo=lo, hi=hi, count=0, mean_conf=(lo + hi) / 2, accuracy=0.0))
    return BinPartition(mode="uniform", bins=tuple(bins))


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
    uniq, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    label_sums = np.bincount(inverse, weights=labels)

    groups = ns, ys, cs, los, his = [], [], [], [], []
    for value, count, label_sum in zip(uniq.tolist(), counts.tolist(), label_sums.tolist()):
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
    return groups


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
    n = len(confs)
    if len(labels) != n:
        raise ValueError(f"length mismatch: {n} confidences vs {len(labels)} labels")
    if min_bin_count < 1:
        raise ValueError(f"min_bin_count must be >= 1, got {min_bin_count}")
    if n < min_bin_count:
        raise ValueError(f"min_bin_count {min_bin_count} exceeds sample count {n}")

    groups = _pav_groups(np.asarray(confs, dtype=float), np.asarray(labels, dtype=float))

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

    bins = tuple(
        Bin(lo=lo, hi=hi, count=k, mean_conf=_mean_conf(c, k, lo, hi), accuracy=y / k)
        for k, y, c, lo, hi in zip(*groups)
    )
    return BinPartition(mode="monotonic", bins=bins)
