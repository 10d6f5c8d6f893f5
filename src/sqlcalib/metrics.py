"""Calibration and ranking metrics: Brier score, ECE, AUC, thresholded P/R/F1.

`_summarize_segments` computes the metric bundle of every split of a batch
at once, bit for bit as `summarize` of each split; the public functions are
the one-split case of its parts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._segments import (
    bounds_of,
    segment_ids,
    segment_means,
    segment_searchsorted,
    select,
    sorted_ties,
)
from .binning import (
    BinPartition,
    _monotonic_segments,
    _uniform_segments,
    monotonic_bins,
    uniform_bins,
)


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


def _check_pair(confs: Sequence[float], labels: Sequence[int]) -> None:
    if len(confs) == 0:
        raise ValueError("empty input")
    if len(confs) != len(labels):
        raise ValueError(f"length mismatch: {len(confs)} confidences vs {len(labels)} labels")


def brier(confs: Sequence[float], labels: Sequence[int]) -> float:
    """Mean squared difference between confidence and the 0/1 label."""
    _check_pair(confs, labels)
    c = np.asarray(confs, dtype=float)
    return float(_briers(c, np.asarray(labels, dtype=float), bounds_of([len(c)]))[0])


def _briers(c: np.ndarray, a: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    return segment_means((a - c) ** 2, bounds)


def _check_partitions(c: np.ndarray, a: np.ndarray, bounds: np.ndarray,
                      partitions: Sequence[BinPartition]) -> None:
    """Re-bin every segment's samples into its partition and require the
    per-bin counts, mean confidences and accuracies to match it. Each bin
    sums its samples in element order."""
    seg = segment_ids(bounds)
    n_bins = np.array([len(p.bins) for p in partitions])
    bin_bounds = bounds_of(n_bins)
    bins = [b for p in partitions for b in p.bins]
    if partitions and partitions[0].mode == "uniform":
        outside = ~(c >= 0.0)  # uniform bins start at 0; NaN compares false
        with np.errstate(invalid="ignore"):  # NaN casts to an arbitrary index, rejected below
            idx = bin_bounds[seg] + np.minimum((c * n_bins[seg]).astype(int), n_bins[seg] - 1)
    else:
        idx = segment_searchsorted(np.array([b.lo for b in bins]), bin_bounds, c, seg) - 1
        # a sample below its first bin has idx outside its segment's bins
        outside = (idx < bin_bounds[seg]) | ~(c <= np.array([b.hi for b in bins])[idx])
    if outside.any():
        bad = float(c[outside.argmax()])
        raise ValueError(f"inconsistent partition: confidence {bad!r} falls outside every bin")
    counts = np.bincount(idx, minlength=len(bins))
    expected = np.array([b.count for b in bins], dtype=int)
    with np.errstate(invalid="ignore", divide="ignore"):  # empty bins are not compared
        conf_off = np.abs(np.bincount(idx, weights=c, minlength=len(bins)) / counts
                          - np.array([b.mean_conf for b in bins])) > 1e-9
        label_off = np.abs(np.bincount(idx, weights=a, minlength=len(bins)) / counts
                           - np.array([b.accuracy for b in bins])) > 1e-9
    wrong = (counts != expected) | ((expected > 0) & (conf_off | label_off))
    if wrong.any():
        i = int(wrong.argmax())
        j = i - int(bin_bounds[np.searchsorted(bin_bounds, i, side="right") - 1])
        if counts[i] != expected[i]:
            raise ValueError(f"inconsistent partition: bin {j} holds {expected[i]} samples, "
                             f"data places {counts[i]}")
        part = "mean confidence" if conf_off[i] else "accuracy"
        raise ValueError(f"inconsistent partition: bin {j} {part} disagrees")


def ece(confs: Sequence[float], labels: Sequence[int], partition: BinPartition) -> float:
    """Bin-weighted mean absolute gap between bin accuracy and bin confidence.

    The partition must have been built from the same confidences and labels;
    inconsistency is detected by re-binning the samples.
    """
    _check_pair(confs, labels)
    n = len(confs)
    if partition.n != n:
        raise ValueError(f"inconsistent partition: covers {partition.n} samples, data has {n}")
    c = np.asarray(confs, dtype=float)
    _check_partitions(c, np.asarray(labels, dtype=float), bounds_of([n]), [partition])
    return partition.objective()


def _eces(c: np.ndarray, a: np.ndarray, bounds: np.ndarray, mode: str, n_bins: int,
          min_bin_count: int) -> list[float]:
    """The ECE of every segment under its own partition of the given mode."""
    if mode == "uniform":
        partitions = _uniform_segments(c, a, bounds, n_bins)
    elif mode == "monotonic":
        partitions = _monotonic_segments(c, a, bounds, min_bin_count)
    else:
        raise ValueError(f"unknown binning mode {mode!r}")
    _check_partitions(c, a, bounds, partitions)
    return [p.objective() for p in partitions]


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
    return float(_aucs(s, a, bounds_of([len(s)]))[0])


def _aucs(s: np.ndarray, a: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """The AUC of every segment, NaN where one class is absent. Ranks and
    their sums are integers or halves, so they are exact in any order."""
    seg = segment_ids(bounds)
    m = len(bounds) - 1
    n_pos = np.bincount(seg[a == 1], minlength=m)
    n_neg = np.bincount(seg[a == 0], minlength=m)
    order, first = sorted_ties(s, bounds)
    starts = np.flatnonzero(first)
    counts = np.diff(np.append(starts, len(order)))
    seg = seg[order]
    # 1-based average rank of each tie group within its segment
    group_rank = (starts - bounds[seg[starts]]) + (counts + 1) / 2.0
    positive = a[order] == 1
    rank_sums = np.bincount(seg[positive], weights=group_rank[np.cumsum(first) - 1][positive],
                            minlength=m)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = (rank_sums - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    out[(n_pos == 0) | (n_neg == 0)] = np.nan
    return out


def prf_at_threshold(
    confs: Sequence[float], labels: Sequence[int], tau: float
) -> ThresholdMetrics:
    """Precision/recall/F1 with predicted-positive iff confidence >= tau.

    Zero-denominator convention: precision 0 with no predicted positives,
    recall 0 with no true positives, F1 0 when precision + recall is 0.
    """
    _check_pair(confs, labels)
    c = np.asarray(confs, dtype=float)
    return _prfs(c, np.asarray(labels), bounds_of([len(c)]), [tau])[0][0]


def _prfs(c: np.ndarray, a: np.ndarray, bounds: np.ndarray,
          thresholds: Sequence[float]) -> list[tuple[ThresholdMetrics, ...]]:
    """P/R/F1 of every segment at every threshold, from integer counts."""
    m = len(bounds) - 1
    # (segment, predicted, class) ids; class 1 for label 1, 2 for label 0, 0 for neither
    base = segment_ids(bounds) * 6 + (a == 1) + 2 * (a == 0)
    columns = []
    for tau in thresholds:
        counts = np.bincount(base + 3 * (c >= tau), minlength=6 * m).reshape(m, 2, 3)
        tp, fp, fn = counts[:, 1, 1], counts[:, 1, 2], counts[:, 0, 1]
        precision = np.divide(tp, tp + fp, out=np.zeros(m), where=tp + fp > 0)
        recall = np.divide(tp, tp + fn, out=np.zeros(m), where=tp + fn > 0)
        total = precision + recall
        f1 = np.divide(2 * precision * recall, total, out=np.zeros(m), where=total > 0)
        columns.append([ThresholdMetrics(tau, *v)
                        for v in zip(precision.tolist(), recall.tolist(), f1.tolist())])
    return list(zip(*columns)) if columns else [()] * m


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
    isotonic-calibrated scores. This is the one-segment case of
    `_summarize_segments`.
    """
    if threshold_scores is None:
        threshold_scores = isotonic_scores
    columns = (raw_scores, platt_scores, isotonic_scores, threshold_scores)
    for column in columns:
        _check_pair(column, labels)
    raw, platt, iso, scores = (np.asarray(column, dtype=float) for column in columns)
    return _summarize_segments(
        raw, platt, iso, np.asarray(labels, dtype=float), bounds_of([len(raw)]),
        binning=binning, n_bins=n_bins, min_bin_count=min_bin_count, thresholds=thresholds,
        threshold_scores=scores,
    )[0]


def _summarize_segments(
    raw: np.ndarray,
    platt: np.ndarray,
    iso: np.ndarray,
    labels: np.ndarray,
    bounds: np.ndarray,
    *,
    binning: str,
    n_bins: int,
    min_bin_count: int,
    thresholds: Sequence[float],
    threshold_scores: np.ndarray,
) -> list[MetricsReport]:
    """`summarize` of every segment of the columns; the segments are nonempty."""
    # raw ECE only where a segment's raw scores lie in [0, 1]
    keep = np.flatnonzero((np.minimum.reduceat(raw, bounds[:-1]) >= 0.0)
                          & (np.maximum.reduceat(raw, bounds[:-1]) <= 1.0))
    ece_raw: list[float | None] = [None] * (len(bounds) - 1)
    rows, kept = select(bounds, keep)
    for i, value in zip(keep.tolist(),
                        _eces(raw[rows], labels[rows], kept, binning, n_bins, min_bin_count)):
        ece_raw[i] = value
    return [
        MetricsReport(bs_p=bs_p, bs_i=bs_i, auc=auc_, ece_raw=e_raw, ece_p=e_p, ece_i=e_i,
                      binning_mode=binning, prf=prf)
        for bs_p, bs_i, auc_, e_raw, e_p, e_i, prf in zip(
            _briers(platt, labels, bounds).tolist(),
            _briers(iso, labels, bounds).tolist(),
            _aucs(raw, labels, bounds).tolist(),
            ece_raw,
            _eces(platt, labels, bounds, binning, n_bins, min_bin_count),
            _eces(iso, labels, bounds, binning, n_bins, min_bin_count),
            _prfs(threshold_scores, labels, bounds, thresholds),
        )
    ]
