"""Calibration and ranking metrics: Brier score, ECE, AUC, thresholded P/R/F1."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .binning import BinPartition, monotonic_bins, uniform_bins


class SingleClassError(ValueError):
    """AUC is undefined when only one label class is present."""


@dataclass(frozen=True)
class ThresholdMetrics:
    threshold: float
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class MetricsReport:
    """The full metric bundle for one evaluation pass.

    ece_raw is None for methods whose raw scores leave [0, 1] (the variant
    score), where ECE bins are undefined.
    """

    bs_p: float
    bs_i: float
    auc: float
    ece_raw: float | None
    ece_p: float
    ece_i: float
    binning_mode: str
    prf: tuple[ThresholdMetrics, ...]


def brier(confs: Sequence[float], labels: Sequence[int]) -> float:
    """Mean squared difference between confidence and the 0/1 label."""
    if len(confs) == 0:
        raise ValueError("empty input")
    if len(confs) != len(labels):
        raise ValueError(f"length mismatch: {len(confs)} confidences vs {len(labels)} labels")
    c = np.asarray(confs, dtype=float)
    a = np.asarray(labels, dtype=float)
    return float(np.mean((a - c) ** 2))


def _check_partition(confs: Sequence[float], labels: Sequence[int], partition: BinPartition) -> None:
    """Re-bin the samples and require the per-bin counts, mean confidences,
    and accuracies to match the partition."""
    c = np.asarray(confs, dtype=float)
    bins = partition.bins
    n_bins = len(bins)
    if partition.mode == "uniform":
        outside = ~(c >= 0.0)  # uniform bins start at 0; NaN compares false
        with np.errstate(invalid="ignore"):  # NaN casts to an arbitrary index, rejected below
            idx = np.minimum((c * n_bins).astype(int), n_bins - 1)
    else:
        idx = np.searchsorted([b.lo for b in bins], c, side="right") - 1
        outside = (idx < 0) | ~(c <= np.array([b.hi for b in bins])[idx])  # NaN: outside
    if outside.any():
        bad = float(c[outside.argmax()])
        raise ValueError(f"inconsistent partition: confidence {bad!r} falls outside every bin")
    counts = np.bincount(idx, minlength=n_bins).tolist()
    conf_sums = np.bincount(idx, weights=c, minlength=n_bins).tolist()
    a = np.asarray(labels, dtype=float)
    label_sums = np.bincount(idx, weights=a, minlength=n_bins).tolist()
    for j, b in enumerate(bins):
        if counts[j] != b.count:
            raise ValueError(
                f"inconsistent partition: bin {j} holds {b.count} samples, data places {counts[j]}"
            )
        if b.count:
            if abs(conf_sums[j] / counts[j] - b.mean_conf) > 1e-9:
                raise ValueError(f"inconsistent partition: bin {j} mean confidence disagrees")
            if abs(label_sums[j] / counts[j] - b.accuracy) > 1e-9:
                raise ValueError(f"inconsistent partition: bin {j} accuracy disagrees")


def ece(confs: Sequence[float], labels: Sequence[int], partition: BinPartition) -> float:
    """Bin-weighted mean absolute gap between bin accuracy and bin confidence.

    The partition must have been built from the same confidences and labels;
    inconsistency is detected by re-binning the samples.
    """
    n = len(confs)
    if n == 0:
        raise ValueError("empty input")
    if len(labels) != n:
        raise ValueError(f"length mismatch: {n} confidences vs {len(labels)} labels")
    if partition.n != n:
        raise ValueError(f"inconsistent partition: covers {partition.n} samples, data has {n}")
    _check_partition(confs, labels, partition)
    return partition.objective()


def _single_class(labels: Sequence[int]) -> bool:
    """True for nonempty labels of one class, where AUC is undefined."""
    a = np.asarray(labels)
    return a.size > 0 and bool(a.min() == a.max())


def auc(raw_scores: Sequence[float], labels: Sequence[int]) -> float:
    """Area under the ROC curve as the Mann-Whitney statistic.

    Tied scores contribute half a concordance (mid-rank convention).
    Raises SingleClassError when one class is absent instead of returning
    an arbitrary 0.5.
    """
    s = np.asarray(raw_scores, dtype=float)
    a = np.asarray(labels)
    n_pos = int(np.sum(a == 1))
    n_neg = int(np.sum(a == 0))
    if n_pos == 0 or n_neg == 0:
        raise SingleClassError(
            f"AUC undefined: {n_pos} positive and {n_neg} negative labels"
        )
    uniq, inverse, counts = np.unique(s, return_inverse=True, return_counts=True)
    before = np.concatenate(([0.0], np.cumsum(counts)))[:-1]
    group_rank = before + (counts + 1) / 2.0  # 1-based average rank per tie group
    ranks = group_rank[inverse]
    rank_sum_pos = float(np.sum(ranks[a == 1]))
    u = rank_sum_pos - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def prf_at_threshold(
    confs: Sequence[float], labels: Sequence[int], tau: float
) -> ThresholdMetrics:
    """Precision/recall/F1 with predicted-positive iff confidence >= tau.

    Zero-denominator convention: precision 0 with no predicted positives,
    recall 0 with no true positives, F1 0 when precision + recall is 0.
    """
    if len(confs) == 0:
        raise ValueError("empty input")
    if len(confs) != len(labels):
        raise ValueError(f"length mismatch: {len(confs)} confidences vs {len(labels)} labels")
    c = np.asarray(confs, dtype=float)
    a = np.asarray(labels)
    predicted = c >= tau
    tp = int(np.sum(predicted & (a == 1)))
    fp = int(np.sum(predicted & (a == 0)))
    fn = int(np.sum(~predicted & (a == 1)))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return ThresholdMetrics(threshold=tau, precision=precision, recall=recall, f1=f1)


def _partition(confs: Sequence[float], labels: Sequence[int], mode: str, n_bins: int,
               min_bin_count: int) -> BinPartition:
    if mode == "uniform":
        return uniform_bins(confs, labels, n_bins)
    if mode == "monotonic":
        return monotonic_bins(confs, labels, min_bin_count)
    raise ValueError(f"unknown binning mode {mode!r}")


def summarize(
    raw_scores: Sequence[float],
    platt_scores: Sequence[float],
    isotonic_scores: Sequence[float],
    labels: Sequence[int],
    *,
    binning: str = "uniform",
    n_bins: int = 10,
    min_bin_count: int = 1,
    thresholds: Sequence[float] = (0.9, 0.85, 0.8, 0.7),
    threshold_scores: Sequence[float] | None = None,
) -> MetricsReport:
    """Assemble the standard metric bundle for one test set.

    AUC is ranked on the raw scores (both calibrators are monotone, so it is
    unchanged by them); it is NaN when the labels hold one class.
    Thresholded P/R/F1 uses `threshold_scores`, defaulting to the
    isotonic-calibrated scores.
    """
    raw = np.asarray(raw_scores, dtype=float)
    ece_raw = None
    if raw.size and raw.min() >= 0.0 and raw.max() <= 1.0:
        ece_raw = ece(raw, labels, _partition(raw, labels, binning, n_bins, min_bin_count))
    if threshold_scores is None:
        threshold_scores = isotonic_scores
    return MetricsReport(
        bs_p=brier(platt_scores, labels),
        bs_i=brier(isotonic_scores, labels),
        auc=float("nan") if _single_class(labels) else auc(raw_scores, labels),
        ece_raw=ece_raw,
        ece_p=ece(platt_scores, labels, _partition(platt_scores, labels, binning, n_bins, min_bin_count)),
        ece_i=ece(isotonic_scores, labels, _partition(isotonic_scores, labels, binning, n_bins, min_bin_count)),
        binning_mode=binning,
        prf=tuple(prf_at_threshold(threshold_scores, labels, t) for t in thresholds),
    )
