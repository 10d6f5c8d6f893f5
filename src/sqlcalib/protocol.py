"""Evaluation procedure: schema-disjoint cross-validation, schema-level
calibration, aggregation across folds, and a seeded synthetic-data generator.

Both evaluators take the `ScoredColumns` of `score_file`, `score_dataset`
or `load_scored`. They order the rows with Python's `sorted` over row indices
(by id, or by schema and id) and gather the score and label arrays once in
that order.

All randomness flows through numpy's PCG64 generator seeded from the config,
so fold assignments, splits, and synthetic datasets reproduce across runs
and platforms.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, Mapping, Sequence

import numpy as np

from ._segments import bounds_of, segment_ids

# The evaluator runs every split through the segment forms of the fitters,
# maps and summary. Their one-split forms stay importable here, where the
# per-layer tracer of perfbench/ wraps them.
from .calibrate import (  # noqa: F401
    _isotonic_map,
    _isotonic_segments,
    _platt_segments,
    _sigmoid,
    apply_isotonic,
    apply_platt,
    fit_isotonic,
    fit_platt,
)
from .metrics import (  # noqa: F401
    MetricsReport,
    ThresholdMetrics,
    _single_class,
    _summarize_segments,
    summarize,
)
from .records import Dataset, PredictionRecord, make_dataset
from .scoring import ScoredColumns


@dataclass(frozen=True)
class ProtocolConfig:
    k: int = 5
    binning: str = "uniform"  # or "monotonic"
    n_bins: int = 10
    min_bin_count: int = 1
    thresholds: tuple[float, ...] = (0.9, 0.85, 0.8, 0.7)
    seed: int = 0
    calibrator: str = "isotonic"  # scores used for thresholded P/R/F1
    tune_fraction: float = 0.2  # schema-level tuning share
    min_schema_records: int = 10  # schema-level minimum evaluable size

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError(f"k must be >= 2, got {self.k}")
        if self.binning not in ("uniform", "monotonic"):
            raise ValueError(f"unknown binning mode {self.binning!r}")
        if self.n_bins < 1:
            raise ValueError(f"n_bins must be >= 1, got {self.n_bins}")
        if self.min_bin_count < 1:
            raise ValueError(f"min_bin_count must be >= 1, got {self.min_bin_count}")
        if self.calibrator not in ("platt", "isotonic"):
            raise ValueError(f"unknown calibrator {self.calibrator!r}")
        for t in self.thresholds:
            if not (0.0 <= t <= 1.0):
                raise ValueError(f"threshold {t!r} outside [0, 1]")
        if not (0.0 < self.tune_fraction < 1.0):
            raise ValueError(f"tune_fraction must lie in (0, 1), got {self.tune_fraction}")
        if self.min_schema_records < 2:
            # a schema-level split needs one tuning and one evaluation record
            raise ValueError(f"min_schema_records must be >= 2, got {self.min_schema_records}")


@dataclass(frozen=True)
class FoldMetrics:
    fold: int
    n_tune: int
    n_test: int
    metrics: MetricsReport
    degenerate_tune: bool  # single-class or single-record tuning fold


@dataclass(frozen=True)
class EvaluationReport:
    method: str
    config: ProtocolConfig
    folds: tuple[FoldMetrics, ...]
    mean: Mapping[str, float]
    std: Mapping[str, float]
    prf_mean: tuple[ThresholdMetrics, ...]
    prf_std: tuple[ThresholdMetrics, ...]
    notes: tuple[str, ...] = field(default=())


@dataclass(frozen=True)
class SchemaMetrics:
    schema_id: str
    n_tune: int
    n_eval: int
    metrics: MetricsReport


@dataclass(frozen=True)
class SchemaLevelReport:
    method: str
    config: ProtocolConfig
    schemas: tuple[SchemaMetrics, ...]
    micro: MetricsReport
    skipped: tuple[tuple[str, str], ...]  # (schema_id, reason)


def _assign_folds(counts: Mapping[str, int], k: int, seed: int) -> dict[str, int]:
    """Shuffle schemas with a seeded PCG64 stream, then deal them round-robin
    in descending record-count order (the stable sort keeps the shuffled
    order among equal counts, balancing fold sizes)."""
    schemas = sorted(counts)
    if len(schemas) < k:
        raise ValueError(
            f"need ≥ k schemas for schema-disjoint folds: k={k}, dataset has {len(schemas)}"
        )
    rng = np.random.Generator(np.random.PCG64(seed))
    shuffled = [schemas[i] for i in rng.permutation(len(schemas))]
    ordered = sorted(shuffled, key=lambda s: -counts[s])
    return {s: i % k for i, s in enumerate(ordered)}


def _summarize(raw: np.ndarray, platt: np.ndarray, iso: np.ndarray, labels: np.ndarray,
               bounds: np.ndarray, cfg: ProtocolConfig) -> list[MetricsReport]:
    """The metric bundle of every held-out segment; AUC is NaN for a
    single-class one."""
    return _summarize_segments(
        raw, platt, iso, labels, bounds,
        binning=cfg.binning,
        n_bins=cfg.n_bins,
        min_bin_count=cfg.min_bin_count,
        thresholds=cfg.thresholds,
        threshold_scores=platt if cfg.calibrator == "platt" else iso,
    )


def _evaluate_splits(raw: np.ndarray, labels: np.ndarray, tune: np.ndarray,
                     tune_bounds: np.ndarray, test: np.ndarray, test_bounds: np.ndarray,
                     cfg: ProtocolConfig):
    """Evaluate every split at once: fit both calibrators on each split's
    tuning rows, apply them to its test rows and summarize each split.

    Split i tunes on the rows tune[tune_bounds[i]:tune_bounds[i + 1]] of the
    score and label arrays and is tested on test[test_bounds[i]:...]; every
    output is bit for bit that of fitting, applying and summarizing one
    split at a time. Returns the reports with the test columns (raw, Platt,
    isotonic, labels) they were computed from, so a caller can pool them.
    """
    tune_raw, tune_labels = raw[tune], labels[tune]
    t, b = _platt_segments(tune_raw, tune_labels, tune_bounds)
    knots = _isotonic_segments(tune_raw, tune_labels, tune_bounds)
    raw, labels = raw[test], labels[test]
    split = segment_ids(test_bounds)
    platt_scores = _sigmoid(t[split] * raw + b[split])
    iso_scores = _isotonic_map(*knots, raw, split)
    columns = (raw, platt_scores, iso_scores, labels)
    return _summarize(*columns, test_bounds, cfg), columns


def _columns(scored: ScoredColumns,
             order: np.ndarray | slice = slice(None)) -> tuple[np.ndarray, np.ndarray]:
    """The raw score and label arrays of the records, their rows taken in `order`."""
    return (np.array(scored.raw_scores, dtype=float)[order],
            np.array(scored.labels, dtype=int)[order])


def _single_method(scored: ScoredColumns) -> str:
    """The one scoring method of a nonempty evaluation input."""
    methods = set(scored.methods)
    if not methods:
        raise ValueError("no scored records to evaluate")
    if len(methods) > 1:
        raise ValueError(f"mixed scoring methods in one evaluation: {sorted(methods)}")
    return methods.pop()


def _by_id(scored: ScoredColumns) -> list[int]:
    """The row indices ordered by id; equal ids keep their order."""
    return sorted(range(len(scored)), key=scored.ids.__getitem__)


def _mean_std(values: Sequence[float]) -> tuple[float, float]:
    m = sum(values) / len(values)
    if len(values) < 2:
        return m, 0.0
    var = sum((v - m) ** 2 for v in values) / (len(values) - 1)
    return m, math.sqrt(var)


_METRIC_KEYS = ("bs_p", "bs_i", "auc", "ece_raw", "ece_p", "ece_i")


def _aggregate(folds: Sequence[FoldMetrics]) -> tuple[dict[str, float], dict[str, float]]:
    mean: dict[str, float] = {}
    std: dict[str, float] = {}
    for key in _METRIC_KEYS:
        values = [getattr(f.metrics, key) for f in folds]
        if any(v is None for v in values):
            continue
        mean[key], std[key] = _mean_std(values)
    return mean, std


def _aggregate_prf(
    folds: Sequence[FoldMetrics],
) -> tuple[tuple[ThresholdMetrics, ...], tuple[ThresholdMetrics, ...]]:
    means: list[ThresholdMetrics] = []
    stds: list[ThresholdMetrics] = []
    n_thresholds = len(folds[0].metrics.prf)
    for i in range(n_thresholds):
        tau = folds[0].metrics.prf[i].threshold
        agg = {}
        for part in ("precision", "recall", "f1"):
            agg[part] = _mean_std([getattr(f.metrics.prf[i], part) for f in folds])
        means.append(ThresholdMetrics(tau, agg["precision"][0], agg["recall"][0], agg["f1"][0]))
        stds.append(ThresholdMetrics(tau, agg["precision"][1], agg["recall"][1], agg["f1"][1]))
    return tuple(means), tuple(stds)


def cross_validate(scored: ScoredColumns, cfg: ProtocolConfig) -> EvaluationReport:
    """Schema-disjoint k-fold evaluation.

    Each fold in turn is the tuning split: calibrators are fitted on it and
    applied to the union of the other k-1 folds, where all metrics are
    computed. Reports per-fold metrics plus mean and sample standard
    deviation across folds. Under monotonic binning, a fold whose test split
    is smaller than `min_bin_count` fails the run before the first fit.
    """
    method = _single_method(scored)
    order = np.array(_by_id(scored))
    raw, labels = _columns(scored, order)
    schema_to_fold = _assign_folds(Counter(scored.schema_ids), cfg.k, cfg.seed)
    fold_of = np.array([schema_to_fold[s] for s in scored.schema_ids])[order]
    n_tune = np.bincount(fold_of, minlength=cfg.k)
    if cfg.binning == "monotonic":
        for f, n_test in enumerate((len(raw) - n_tune).tolist()):
            if n_test < cfg.min_bin_count:
                raise ValueError(f"fold {f}: test split has {n_test} records, "
                                 f"below min_bin_count {cfg.min_bin_count}")

    # fold f tunes on its own rows and is tested on every other row, in order
    tune = np.argsort(fold_of, kind="stable")
    other = fold_of != np.arange(cfg.k)[:, None]
    test = np.broadcast_to(np.arange(len(raw)), other.shape)[other]
    reports, _ = _evaluate_splits(raw, labels, tune, bounds_of(n_tune), test,
                                  bounds_of(len(raw) - n_tune), cfg)

    folds: list[FoldMetrics] = []
    notes: list[str] = []
    for f, report in enumerate(reports):
        degenerate = n_tune[f] < 2 or _single_class(labels[fold_of == f])
        if degenerate:
            notes.append(f"fold {f}: degenerate tuning split (Platt reduces to a constant map)")
        if _single_class(labels[fold_of != f]):
            notes.append(f"fold {f}: single-class test split, AUC undefined")
        folds.append(
            FoldMetrics(
                fold=f,
                n_tune=int(n_tune[f]),
                n_test=len(raw) - int(n_tune[f]),
                metrics=report,
                degenerate_tune=bool(degenerate),
            )
        )

    mean, std = _aggregate(folds)
    prf_mean, prf_std = _aggregate_prf(folds)
    return EvaluationReport(
        method=method,
        config=cfg,
        folds=tuple(folds),
        mean=mean,
        std=std,
        prf_mean=prf_mean,
        prf_std=prf_std,
        notes=tuple(notes),
    )


def schema_level_evaluate(scored: ScoredColumns, cfg: ProtocolConfig) -> SchemaLevelReport:
    """Per-schema calibration: within each schema a seeded split reserves a
    tuning fraction for calibrator fitting; metrics are computed on the
    remainder. Schemas below the minimum size, and under monotonic binning
    schemas whose evaluation split is smaller than `min_bin_count`, are
    skipped with a reason. The micro row pools every held-out record across
    schemas."""
    method = _single_method(scored)
    # by schema, then by id: each schema's records are one run of rows
    order = _by_id(scored)
    order.sort(key=scored.schema_ids.__getitem__)
    raw, labels = _columns(scored, np.array(order))
    counts = Counter(scored.schema_ids)
    schemas = sorted(counts)
    sizes = [counts[schema_id] for schema_id in schemas]

    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    kept: list[tuple[str, int, int]] = []  # (schema_id, n_tune, n_eval)
    skipped: list[tuple[str, str]] = []
    tune: list[np.ndarray] = []
    evaluation: list[np.ndarray] = []

    for schema_id, start, n in zip(schemas, accumulate(sizes, initial=0), sizes):
        if n < cfg.min_schema_records:
            skipped.append((schema_id, f"only {n} records, need {cfg.min_schema_records}"))
            continue
        perm = rng.permutation(n)
        n_tune = min(max(1, int(round(cfg.tune_fraction * n))), n - 1)
        if cfg.binning == "monotonic" and n - n_tune < cfg.min_bin_count:
            # after the draw, so that the other schemas' splits stay the same
            skipped.append((schema_id, f"only {n - n_tune} evaluation records, "
                                       f"need min_bin_count {cfg.min_bin_count}"))
            continue
        kept.append((schema_id, n_tune, n - n_tune))
        tune.append(start + perm[:n_tune])
        evaluation.append(start + np.sort(perm[n_tune:]))

    if not kept:
        schema_id, reason = skipped[0]
        raise ValueError(f"no schema can be evaluated: all {len(skipped)} skipped, "
                         f"first {schema_id}: {reason}")
    _, n_tunes, n_evals = zip(*kept)
    reports, pooled = _evaluate_splits(raw, labels, np.concatenate(tune), bounds_of(n_tunes),
                                       np.concatenate(evaluation), bounds_of(n_evals), cfg)
    rows = tuple(
        SchemaMetrics(schema_id=schema_id, n_tune=n_tune, n_eval=n_eval, metrics=report)
        for (schema_id, n_tune, n_eval), report in zip(kept, reports)
    )
    micro = _summarize(*pooled, bounds_of([len(pooled[0])]), cfg)[0]
    return SchemaLevelReport(
        method=method, config=cfg, schemas=rows, micro=micro, skipped=tuple(skipped)
    )


def _logistic(r: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-(2.0 * r - 1.0)))


TRUE_MAPS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "identity": lambda r: r,
    "half": lambda r: np.full_like(r, 0.5),
    "one": lambda r: np.ones_like(r),
    "logistic": _logistic,
}


def generate_synthetic(
    n: int,
    true_map: str | Callable[[np.ndarray], np.ndarray],
    seed: int,
    n_schemas: int = 10,
) -> Dataset:
    """Synthetic dataset for oracle tests.

    Raw scores are uniform on (0, 1), dealt round-robin over synthetic
    schema ids; labels are Bernoulli draws at true_map(score); each record
    carries a single token probability equal to its score, so prod pooling
    reproduces the score exactly.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n_schemas < 1:
        raise ValueError(f"need n_schemas >= 1, got {n_schemas}")
    fn = TRUE_MAPS[true_map] if isinstance(true_map, str) else true_map
    rng = np.random.Generator(np.random.PCG64(seed))
    r = np.maximum(rng.random(n), 1e-12)
    p = np.clip(fn(r), 0.0, 1.0)
    labels = (rng.random(n) < p).astype(int)
    records = [
        PredictionRecord(
            id=f"syn-{i:06d}",
            schema_id=f"schema-{i % n_schemas:02d}",
            label=int(labels[i]),
            token_probs=(float(r[i]),),
        )
        for i in range(n)
    ]
    return make_dataset(records, source_name=f"synthetic-{true_map}-{seed}")
