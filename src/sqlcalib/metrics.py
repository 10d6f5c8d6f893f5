"""Calibration and ranking metrics: Brier score, ECE, AUC, thresholded P/R/F1.

`_summarize_segments` computes the metric bundle of every split of a batch
at once, bit for bit as `summarize` of each split; the public functions are
the one-split case of its parts. Its ECEs come from the bin columns of
`binning._bin_columns`; the public `ece` takes a caller's `BinPartition`,
re-checks it against the data and returns its `objective()`, the same
number. The public functions reject an empty input and a NaN score.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._segments import (
    bounds_of,
    length_groups,
    one_split,
    segment_ids,
    segment_sums,
    sorted_ties,
)
from .binning import BinPartition, _bin_columns

# Nothing here calls the one-split binning functions; the per-layer tracer of
# perfbench/ wraps them at these names.
from .binning import monotonic_bins, uniform_bins  # noqa: F401


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


def _nonempty_split(confs: Sequence[float], labels: Sequence[int],
                    what: str = "confidences") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`one_split` of a metric's scores, which must be nonempty and hold no NaN."""
    if len(confs) == 0:
        raise ValueError("empty input")
    x, a, bounds = one_split(confs, labels, what)
    if np.isnan(x).any():
        raise ValueError(f"NaN in {what} at index {int(np.isnan(x).argmax())}")
    return x, a, bounds


def brier(confs: Sequence[float], labels: Sequence[int]) -> float:
    """Mean squared difference between confidence and the 0/1 label."""
    return float(_briers(*_nonempty_split(confs, labels))[0])


def _briers(c: np.ndarray, a: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """`np.mean` of the squared errors of every (nonempty) segment, bit for bit."""
    return segment_sums((a - c) ** 2, bounds) / np.diff(bounds)


def _check_partition(c: np.ndarray, a: np.ndarray, partition: BinPartition) -> None:
    """Re-bin the samples into the partition and require its per-bin counts,
    mean confidences and accuracies to match them. Each bin sums its samples
    in element order."""
    bins = partition.bins
    if partition.mode == "uniform":
        outside = ~(c >= 0.0)  # uniform bins start at 0; NaN compares false
        with np.errstate(invalid="ignore"):  # NaN casts to an arbitrary index, rejected below
            idx = np.minimum((c * len(bins)).astype(int), len(bins) - 1)
    else:
        idx = np.searchsorted(np.array([b.lo for b in bins]), c, side="right") - 1
        # a sample below the first bin has idx -1
        outside = (idx < 0) | ~(c <= np.array([b.hi for b in bins])[idx])
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
        j = int(wrong.argmax())
        if counts[j] != expected[j]:
            raise ValueError(f"inconsistent partition: bin {j} holds {expected[j]} samples, "
                             f"data places {counts[j]}")
        part = "mean confidence" if conf_off[j] else "accuracy"
        raise ValueError(f"inconsistent partition: bin {j} {part} disagrees")


def ece(confs: Sequence[float], labels: Sequence[int], partition: BinPartition) -> float:
    """Bin-weighted mean absolute gap between bin accuracy and bin confidence.

    The partition must have been built from the same confidences and labels;
    inconsistency, a NaN included, is detected by re-binning the samples.
    """
    if len(confs) == 0:
        raise ValueError("empty input")
    c, a, _ = one_split(confs, labels, "confidences")
    if partition.n != c.size:
        raise ValueError(f"inconsistent partition: covers {partition.n} samples, data has {c.size}")
    _check_partition(c, a, partition)
    return partition.objective()


def _eces(c: np.ndarray, a: np.ndarray, bounds: np.ndarray, mode: str, n_bins: int,
          min_bin_count: int) -> list[float]:
    """The ECE of every segment under its own partition of the given mode,
    read from its bin columns with no `Bin` built: each bin's count/n ·
    |accuracy − mean confidence|, the mean clamped to [lo, hi] as in
    `Bin.mean_conf`, an empty bin's 0.0, summed left to right from 0 (a
    row-wise `np.cumsum`). That is `BinPartition.objective` of the segment's
    partition bit for bit, and a test pins the two together. The columns are
    built here from these samples, so unlike `ece` nothing re-checks them."""
    counts, label_sums, conf_sums, lo, hi, bin_bounds = _bin_columns(c, a, bounds, mode, n_bins,
                                                                     min_bin_count)
    n = np.repeat(np.diff(bounds), np.diff(bin_bounds))
    with np.errstate(invalid="ignore", divide="ignore"):  # empty bins are zeroed below
        terms = counts / n * np.abs(label_sums / counts
                                    - np.minimum(np.maximum(conf_sums / counts, lo), hi))
    terms[counts == 0] = 0.0
    out = np.zeros(len(bounds) - 1)
    for rows, index in length_groups(bin_bounds):
        out[rows] = np.cumsum(terms[index], axis=1)[:, -1]
    return out.tolist()


def auc(raw_scores: Sequence[float], labels: Sequence[int]) -> float:
    """Area under the ROC curve as the Mann-Whitney statistic.

    Tied scores contribute half a concordance (mid-rank convention).
    Raises SingleClassError when one class is absent instead of returning
    an arbitrary 0.5, and ValueError on a NaN score, which has no rank.
    """
    s, a, bounds = one_split(raw_scores, labels, "raw scores")
    if np.isnan(s).any():
        raise ValueError("AUC undefined: NaN raw score")
    n_pos = int(np.sum(a == 1))
    n_neg = int(np.sum(a == 0))
    if n_pos == 0 or n_neg == 0:
        raise SingleClassError(
            f"AUC undefined: {n_pos} positive and {n_neg} negative labels"
        )
    return float(_aucs(s, a, bounds)[0])


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
    return _prfs(*_nonempty_split(confs, labels), [tau])[0][0]


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
    raw, a, bounds = _nonempty_split(raw_scores, labels, "raw scores")
    (platt, _, _), (iso, _, _), (scores, _, _) = (
        _nonempty_split(column, labels)
        for column in (platt_scores, isotonic_scores, threshold_scores))
    return _summarize_segments(
        raw, platt, iso, a, bounds,
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
    keep = ((np.minimum.reduceat(raw, bounds[:-1]) >= 0.0)
            & (np.maximum.reduceat(raw, bounds[:-1]) <= 1.0))
    rows = np.repeat(keep, np.diff(bounds))
    kept = iter(_eces(raw[rows], labels[rows], bounds_of(np.diff(bounds)[keep]), binning,
                      n_bins, min_bin_count))
    ece_raw = [next(kept) if k else None for k in keep.tolist()]
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
