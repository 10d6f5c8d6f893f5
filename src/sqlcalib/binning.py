"""Partition calibrated confidences into bins for ECE and reliability plots.

Uniform mode uses equal-width bins on [0, 1]. Monotonic mode sorts samples
by confidence and pools adjacent bins until observed accuracies increase
left to right (ties in confidence never split across bins), optionally
merging undersized bins into whichever neighbor costs least.
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
            bins.append(
                Bin(lo=lo, hi=hi, count=count, mean_conf=float(c[mask].mean()), accuracy=float(a[mask].mean()))
            )
        else:
            bins.append(Bin(lo=lo, hi=hi, count=0, mean_conf=(lo + hi) / 2, accuracy=0.0))
    return BinPartition(mode="uniform", bins=tuple(bins))


@dataclass(frozen=True)
class _Group:
    count: int
    label_sum: float
    conf_sum: float
    lo: float
    hi: float

    @property
    def accuracy(self) -> float:
        return self.label_sum / self.count

    @property
    def mean_conf(self) -> float:
        # the true mean lies in [lo, hi]; clamp away 1-ulp float excursions
        return min(max(self.conf_sum / self.count, self.lo), self.hi)


def _merge(a: _Group, b: _Group) -> _Group:
    return _Group(
        count=a.count + b.count,
        label_sum=a.label_sum + b.label_sum,
        conf_sum=a.conf_sum + b.conf_sum,
        lo=min(a.lo, b.lo),
        hi=max(a.hi, b.hi),
    )


def monotonic_bins(
    confs: Sequence[float], labels: Sequence[int], min_bin_count: int = 1
) -> BinPartition:
    """Data-driven contiguous bins with non-decreasing observed accuracies.

    Sorts by confidence, starts from per-confidence groups (ties stay
    together), and pools a group into its left neighbor whenever the left
    accuracy is >= the right one, yielding the coarsest partition with
    strictly increasing accuracies. Groups smaller than min_bin_count are
    then merged into the neighbor that least increases the weighted
    |accuracy - mean confidence| objective.
    """
    n = len(confs)
    if len(labels) != n:
        raise ValueError(f"length mismatch: {n} confidences vs {len(labels)} labels")
    if min_bin_count < 1:
        raise ValueError(f"min_bin_count must be >= 1, got {min_bin_count}")
    if n < min_bin_count:
        raise ValueError(f"min_bin_count {min_bin_count} exceeds sample count {n}")

    c = np.asarray(confs, dtype=float)
    a = np.asarray(labels, dtype=float)
    uniq, inverse, counts = np.unique(c, return_inverse=True, return_counts=True)
    label_sums = np.bincount(inverse, weights=a)

    groups: list[_Group] = []
    for value, count, label_sum in zip(uniq, counts, label_sums):
        cur = _Group(
            count=int(count), label_sum=float(label_sum),
            conf_sum=float(value) * int(count), lo=float(value), hi=float(value),
        )
        # pool while left accuracy >= right accuracy (cross-product compare is
        # exact: label sums and counts are integers)
        while groups and groups[-1].label_sum * cur.count >= cur.label_sum * groups[-1].count:
            cur = _merge(groups.pop(), cur)
        groups.append(cur)

    def total_objective(gs: list[_Group]) -> float:
        return sum(g.count / n * abs(g.accuracy - g.mean_conf) for g in gs)

    while len(groups) > 1:
        under = [i for i, g in enumerate(groups) if g.count < min_bin_count]
        if not under:
            break
        i = under[0]
        candidates = []
        if i > 0:
            merged = groups[: i - 1] + [_merge(groups[i - 1], groups[i])] + groups[i + 1 :]
            candidates.append((total_objective(merged), 0, merged))
        if i < len(groups) - 1:
            merged = groups[:i] + [_merge(groups[i], groups[i + 1])] + groups[i + 2 :]
            candidates.append((total_objective(merged), 1, merged))
        groups = min(candidates)[2]

    bins = tuple(
        Bin(lo=g.lo, hi=g.hi, count=g.count, mean_conf=g.mean_conf, accuracy=g.accuracy)
        for g in groups
    )
    return BinPartition(mode="monotonic", bins=bins)
