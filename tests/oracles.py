"""Independent brute-force oracles used to verify the fast implementations.

Each is a direct enumeration; none shares code with the module it checks.
The per-split evaluation reference at the end fits, applies and summarizes
one split at a time with its own scalar Newton loop, `np.unique`-based
pool-adjacent-violators pass and per-metric reductions, which the batched
evaluator must reproduce bit for bit. It takes from `protocol` only the
fold assignment, the column helper and the aggregation over folds, which
run once per scope and not per split. The record rules at
the end are the checked-line pass as it stood before its inline type
tests; they take from `records` only the error class and the id, label and
number helpers. The labeled line after them is the line `label` wrote when
it relabeled a record built from the pair, with that day's serializer, on
the values those reference rules give the pair.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from types import SimpleNamespace
from typing import Any, Iterable, Sequence

import numpy as np

from sqlcalib.execmatch import ResultTable
from sqlcalib.metrics import MetricsReport, ThresholdMetrics
from sqlcalib.protocol import (
    EvaluationReport,
    FoldMetrics,
    SchemaLevelReport,
    SchemaMetrics,
    _aggregate,
    _aggregate_prf,
    _assign_folds,
    _columns,
)
from sqlcalib.records import (
    RecordError,
    _ident,
    _is_real,
    _label,
    _require,
)


def _tie_groups(sorted_values) -> list[tuple[int, int]]:
    groups = []
    i = 0
    while i < len(sorted_values):
        j = i
        while j + 1 < len(sorted_values) and sorted_values[j + 1] == sorted_values[i]:
            j += 1
        groups.append((i, j + 1))
        i = j + 1
    return groups


def brute_isotonic_fit(scores, labels) -> tuple[float, np.ndarray]:
    """Minimum-SSE monotone step fit by enumerating every contiguous-block
    partition of the sorted (tie-merged) scores with non-decreasing block
    means. Returns (sse, fitted values in input order)."""
    order = np.argsort(scores, kind="mergesort")
    s = np.asarray(scores, dtype=float)[order]
    a = np.asarray(labels, dtype=float)[order]
    groups = _tie_groups(s)
    m = len(groups)
    best_sse = None
    best_fit = None
    for mask in range(1 << (m - 1)):
        cuts = [0] + [g + 1 for g in range(m - 1) if mask >> g & 1] + [m]
        means: list[float] = []
        fitted = np.empty(len(s))
        sse = 0.0
        feasible = True
        for lo, hi in zip(cuts, cuts[1:]):
            i0, i1 = groups[lo][0], groups[hi - 1][1]
            mean = float(a[i0:i1].mean())
            if means and mean < means[-1]:
                feasible = False
                break
            means.append(mean)
            sse += float(((a[i0:i1] - mean) ** 2).sum())
            fitted[i0:i1] = mean
        if feasible and (best_sse is None or sse < best_sse):
            best_sse = sse
            best_fit = fitted.copy()
    out = np.empty(len(s))
    out[order] = best_fit
    return best_sse, out


def brute_monotone_partition(confs, labels):
    """Exhaustive search over contiguous partitions of the sorted samples
    (ties grouped) with STRICTLY increasing bin accuracies, minimizing the
    SSE of labels against bin accuracies. Returns (weighted |acc - conf|
    objective, tuple of (count, accuracy) bins) of the optimum."""
    order = np.argsort(confs, kind="mergesort")
    c = np.asarray(confs, dtype=float)[order]
    a = np.asarray(labels, dtype=float)[order]
    groups = _tie_groups(c)
    m = len(groups)
    n = len(c)
    best_key = None
    best = None
    for mask in range(1 << (m - 1)):
        cuts = [0] + [g + 1 for g in range(m - 1) if mask >> g & 1] + [m]
        accs: list[float] = []
        bins = []
        sse = 0.0
        obj = 0.0
        feasible = True
        for lo, hi in zip(cuts, cuts[1:]):
            i0, i1 = groups[lo][0], groups[hi - 1][1]
            acc = float(a[i0:i1].mean())
            if accs and acc <= accs[-1]:
                feasible = False
                break
            accs.append(acc)
            sse += float(((a[i0:i1] - acc) ** 2).sum())
            obj += (i1 - i0) / n * abs(acc - float(c[i0:i1].mean()))
            bins.append((i1 - i0, acc))
        if not feasible:
            continue
        key = (sse, len(bins))
        if best_key is None or key < best_key:
            best_key = key
            best = (obj, tuple(bins))
    return best


def auc_pair_counting(scores, labels) -> float:
    """O(n^2) Mann-Whitney: (#concordant + 0.5 #tied) / (n_pos * n_neg)."""
    s = np.asarray(scores, dtype=float)
    a = np.asarray(labels)
    pos = s[a == 1]
    neg = s[a == 0]
    concordant = int((pos[:, None] > neg[None, :]).sum())
    tied = int((pos[:, None] == neg[None, :]).sum())
    return (concordant + 0.5 * tied) / (len(pos) * len(neg))


def tables_equal_exhaustive(a: ResultTable, b: ResultTable) -> bool:
    """Column-order-insensitive table equality by trying every permutation."""
    if a.n_cols != b.n_cols or len(a.rows) != len(b.rows):
        return False
    if a.n_cols == 0:
        return True
    target = sorted(a.rows)
    for perm in itertools.permutations(range(b.n_cols)):
        if sorted(tuple(row[j] for j in perm) for row in b.rows) == target:
            return True
    return False


def central_difference_gradient(fn, t: float, b: float, step: float = 1e-5):
    """Two-sided finite-difference gradient of fn(t, b)."""
    dt = (fn(t + step, b) - fn(t - step, b)) / (2 * step)
    db = (fn(t, b + step) - fn(t, b - step)) / (2 * step)
    return dt, db


def platt_reference(t: float, b: float, raw: float) -> float:
    """sigma(t * raw + b) for one score, by the numerically stable branch on
    the sign of z (the per-record formula the array path must reproduce)."""
    z = t * raw + b
    if z >= 0:
        return float(1.0 / (1.0 + np.exp(-z)))
    ez = np.exp(z)
    return float(ez / (1.0 + ez))


def isotonic_reference(knots, raw: float) -> float:
    """One score through an isotonic map by bisection over the knots: clamp
    outside the knot range, the knot's own value on an exact hit, otherwise
    (frac first, then times the knot gap) interpolation, at most the next
    knot's value."""
    xs = [k[0] for k in knots]
    ys = [k[1] for k in knots]
    if raw <= xs[0]:
        return ys[0]
    if raw >= xs[-1]:
        return ys[-1]
    lo, hi = 0, len(xs) - 1
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if xs[mid] <= raw:
            lo = mid
        else:
            hi = mid
    if xs[lo] == raw:
        return ys[lo]
    frac = (raw - xs[lo]) / (xs[hi] - xs[lo])
    return min(ys[lo] + frac * (ys[hi] - ys[lo]), ys[hi])


def _sigmoid(z):
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _log_likelihood(t, b, r, g) -> float:
    z = t * r + b
    return float(np.mean(g * -np.logaddexp(0.0, -z) + (1.0 - g) * -np.logaddexp(0.0, z)))


def reference_fit_platt(raw, labels, max_iter: int = 200) -> tuple[float, float]:
    """Platt's (t, b) by one scalar Newton loop: smoothed targets, a start at
    the constant map, Newton or gradient steps with a halving line search,
    stopping at gradient norm 1e-8 or after `max_iter` steps."""
    r = np.asarray(raw, dtype=float)
    a = np.asarray(labels, dtype=float)
    order = np.lexsort((a, r))
    r, a = r[order], a[order]
    n_pos = float(a.sum())
    g = np.where(a > 0, (n_pos + 1.0) / (n_pos + 2.0), 1.0 / (len(a) - n_pos + 2.0))
    mean_target = float(np.mean(g))
    t, b = 0.0, math.log(mean_target / (1.0 - mean_target))
    ll = _log_likelihood(t, b, r, g)
    for _ in range(max_iter):
        p = _sigmoid(t * r + b)
        resid = g - p
        grad = np.array([np.mean(resid * r), np.mean(resid)])
        if float(np.linalg.norm(grad)) <= 1e-8:
            break
        w = p * (1.0 - p)
        h11, h12, h22 = float(np.mean(w * r * r)), float(np.mean(w * r)), float(np.mean(w))
        det = h11 * h22 - h12 * h12
        if det > 1e-12 * max(abs(h11 * h22), 1e-300):
            step = np.array([(h22 * grad[0] - h12 * grad[1]) / det,
                             (h11 * grad[1] - h12 * grad[0]) / det])
        else:
            step = grad
        alpha = 1.0
        directional = float(grad @ step)
        while True:
            t_new, b_new = t + alpha * step[0], b + alpha * step[1]
            ll_new = _log_likelihood(t_new, b_new, r, g)
            if ll_new >= ll + 1e-4 * alpha * directional or alpha <= 1e-12:
                break
            alpha *= 0.5
        t, b, ll = t_new, b_new, ll_new
    return float(t), float(b)


def _pav_groups(values, labels) -> list[list]:
    """Pool-adjacent-violators groups [count, label sum, value sum, lo, hi]
    over the distinct values, with strictly increasing accuracies."""
    uniq, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    label_sums = np.bincount(inverse, weights=labels)
    groups: list[list] = []
    for value, count, label_sum in zip(uniq.tolist(), counts.tolist(), label_sums.tolist()):
        cur = [count, label_sum, value * count, value, value]
        while groups and groups[-1][1] * cur[0] >= cur[1] * groups[-1][0]:
            left = groups.pop()
            cur = [left[0] + cur[0], left[1] + cur[1], left[2] + cur[2], left[3], cur[4]]
        groups.append(cur)
    return groups


def reference_fit_isotonic(raw, labels) -> list[tuple[float, float]]:
    """Isotonic knots: the first and last distinct raw of each PAV block."""
    knots = []
    for n, y, _, lo, hi in _pav_groups(np.asarray(raw, dtype=float),
                                       np.asarray(labels, dtype=float)):
        knots.append((lo, y / n))
        if hi != lo:
            knots.append((hi, y / n))
    return knots


def reference_apply_isotonic(knots, raw) -> np.ndarray:
    """An array of raw scores through the interpolating isotonic map."""
    xs, ys = np.asarray(knots, dtype=float).T
    last = len(xs) - 1
    r = np.minimum(np.maximum(raw, xs[0]), xs[last])
    lo = np.searchsorted(xs, r, side="right") - 1
    hi = np.minimum(lo + 1, last)
    with np.errstate(all="ignore"):
        frac = (r - xs[lo]) / (xs[hi] - xs[lo])
    return np.where(r == xs[lo], ys[lo], np.minimum(ys[lo] + frac * (ys[hi] - ys[lo]), ys[hi]))


def _mean_conf(conf_sum, count, lo, hi) -> float:
    return min(max(conf_sum / count, lo), hi)


def _uniform_bins(c, a, n_bins) -> list[tuple]:
    """(count, mean confidence, accuracy) of each equal-width bin."""
    idx = np.minimum((c * n_bins).astype(int), n_bins - 1)
    bins = []
    for j in range(n_bins):
        mask = idx == j
        count = int(mask.sum())
        if count:
            lo, hi = j / n_bins, (j + 1) / n_bins
            bins.append((count, _mean_conf(float(c[mask].sum()), count, lo, hi),
                         float(a[mask].mean())))
    return bins


def _monotonic_bins(c, a, min_bin_count) -> list[tuple]:
    """(count, mean confidence, accuracy) of each monotonic bin: the PAV
    groups, each undersized one merged into the neighbor that raises the
    ECE least (the left one on a tie)."""
    n = len(c)
    if n < min_bin_count:
        raise ValueError(f"min_bin_count {min_bin_count} exceeds sample count {n}")
    groups = _pav_groups(c, a)

    def merged(j):
        left, right = groups[j], groups[j + 1]
        pooled = [left[0] + right[0], left[1] + right[1], left[2] + right[2], left[3], right[4]]
        return groups[:j] + [pooled] + groups[j + 2:]

    def objective(gs):
        return sum(k / n * abs(y / k - _mean_conf(s, k, lo, hi)) for k, y, s, lo, hi in gs)

    while len(groups) > 1:
        under = [i for i, g in enumerate(groups) if g[0] < min_bin_count]
        if not under:
            break
        i = under[0]
        candidates = [merged(j) for j in (i - 1, i) if 0 <= j < len(groups) - 1]
        groups = min(candidates, key=objective)
    return [(k, _mean_conf(s, k, lo, hi), y / k) for k, y, s, lo, hi in groups]


def _ece(confs, labels, cfg) -> float:
    c = np.asarray(confs, dtype=float)
    a = np.asarray(labels, dtype=float)
    if cfg.binning == "uniform":
        bins = _uniform_bins(c, a, cfg.n_bins)
    else:
        bins = _monotonic_bins(c, a, cfg.min_bin_count)
    return sum(k / len(c) * abs(acc - conf) for k, conf, acc in bins)


def _auc(scores, labels) -> float:
    """Mann-Whitney AUC by average ranks over tie groups; NaN for one class."""
    a = np.asarray(labels)
    n_pos, n_neg = int(np.sum(a == 1)), int(np.sum(a == 0))
    if n_pos == 0 or n_neg == 0:
        return float("nan")
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    before = np.concatenate(([0.0], np.cumsum(counts)))[:-1]
    ranks = (before + (counts + 1) / 2.0)[inverse]
    u = float(np.sum(ranks[a == 1])) - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def _prf(confs, labels, tau) -> ThresholdMetrics:
    predicted = np.asarray(confs) >= tau
    a = np.asarray(labels)
    tp = int(np.sum(predicted & (a == 1)))
    fp = int(np.sum(predicted & (a == 0)))
    fn = int(np.sum(~predicted & (a == 1)))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return ThresholdMetrics(threshold=tau, precision=precision, recall=recall, f1=f1)


def reference_summarize(raw, platt_scores, iso_scores, labels, cfg) -> MetricsReport:
    """The metric bundle of one test split, metric by metric."""
    a = np.asarray(labels, dtype=float)
    in_unit = raw.size and raw.min() >= 0.0 and raw.max() <= 1.0
    threshold_scores = platt_scores if cfg.calibrator == "platt" else iso_scores
    return MetricsReport(
        bs_p=float(np.mean((a - platt_scores) ** 2)),
        bs_i=float(np.mean((a - iso_scores) ** 2)),
        auc=_auc(raw, labels),
        ece_raw=_ece(raw, labels, cfg) if in_unit else None,
        ece_p=_ece(platt_scores, labels, cfg),
        ece_i=_ece(iso_scores, labels, cfg),
        binning_mode=cfg.binning,
        prf=tuple(_prf(threshold_scores, labels, tau) for tau in cfg.thresholds),
    )


def evaluate_split(raw, labels, tune, test, cfg):
    """Fit both calibrators on the `tune` rows, apply them to the `test`
    rows and summarize: one split, as the evaluator did before it batched
    all splits. Returns the report and the test columns it came from."""
    t, b = reference_fit_platt(raw[tune], labels[tune])
    knots = reference_fit_isotonic(raw[tune], labels[tune])
    raw, labels = raw[test], labels[test]
    platt_scores = _sigmoid(t * raw + b)
    iso_scores = reference_apply_isotonic(knots, raw)
    report = reference_summarize(raw, platt_scores, iso_scores, labels, cfg)
    return report, raw, platt_scores, iso_scores, labels


def _single_class(labels) -> bool:
    return len(labels) > 0 and bool(np.min(labels) == np.max(labels))


def reference_cross_validate(scored, cfg) -> EvaluationReport:
    """`protocol.cross_validate`, one fold at a time."""
    order = sorted(range(len(scored)), key=lambda i: scored.ids[i])
    raw, labels = _columns(scored, order)
    schema_ids = [scored.schema_ids[i] for i in order]
    schema_to_fold = _assign_folds(Counter(schema_ids), cfg.k, cfg.seed)
    fold_of = np.array([schema_to_fold[s] for s in schema_ids])
    if cfg.binning == "monotonic":
        for f, n_tune in enumerate(np.bincount(fold_of, minlength=cfg.k).tolist()):
            if len(raw) - n_tune < cfg.min_bin_count:
                raise ValueError(f"fold {f}: test split has {len(raw) - n_tune} records, "
                                 f"below min_bin_count {cfg.min_bin_count}")
    folds, notes = [], []
    for f in range(cfg.k):
        tune = fold_of == f
        n_tune = int(tune.sum())
        degenerate = n_tune < 2 or _single_class(labels[tune])
        if degenerate:
            notes.append(f"fold {f}: degenerate tuning split (Platt reduces to a constant map)")
        if _single_class(labels[~tune]):
            notes.append(f"fold {f}: single-class test split, AUC undefined")
        report = evaluate_split(raw, labels, tune, ~tune, cfg)[0]
        folds.append(FoldMetrics(fold=f, n_tune=n_tune, n_test=len(raw) - n_tune,
                                 metrics=report, degenerate_tune=degenerate))
    mean, std = _aggregate(folds)
    prf_mean, prf_std = _aggregate_prf(folds)
    return EvaluationReport(method=scored.method, config=cfg, folds=tuple(folds), mean=mean,
                            std=std, prf_mean=prf_mean, prf_std=prf_std, notes=tuple(notes))


def reference_schema_level(scored, cfg) -> SchemaLevelReport:
    """`protocol.schema_level_evaluate`, one schema at a time."""
    order = sorted(sorted(range(len(scored)), key=lambda i: scored.ids[i]),
                   key=lambda i: scored.schema_ids[i])
    raw, labels = _columns(scored, order)
    schema_ids = [scored.schema_ids[i] for i in order]
    starts = [i for i, s in enumerate(schema_ids) if i == 0 or s != schema_ids[i - 1]]
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    rows, skipped, pooled = [], [], []
    for start, end in zip(starts, starts[1:] + [len(order)]):
        schema_id, n = schema_ids[start], end - start
        if n < cfg.min_schema_records:
            skipped.append((schema_id, f"only {n} records, need {cfg.min_schema_records}"))
            continue
        perm = rng.permutation(n)
        n_tune = min(max(1, int(round(cfg.tune_fraction * n))), n - 1)
        if cfg.binning == "monotonic" and n - n_tune < cfg.min_bin_count:
            skipped.append((schema_id, f"only {n - n_tune} evaluation records, "
                                       f"need min_bin_count {cfg.min_bin_count}"))
            continue
        evaluation = start + np.sort(perm[n_tune:])
        report, *arrays = evaluate_split(raw, labels, start + perm[:n_tune], evaluation, cfg)
        rows.append(SchemaMetrics(schema_id=schema_id, n_tune=n_tune, n_eval=len(evaluation),
                                  metrics=report))
        pooled.append(arrays)
    if not rows:
        schema_id, reason = skipped[0]
        raise ValueError(f"no schema can be evaluated: all {len(skipped)} skipped, "
                         f"first {schema_id}: {reason}")
    micro = reference_summarize(*(np.concatenate(column) for column in zip(*pooled)), cfg)
    return SchemaLevelReport(method=scored.method, config=cfg, schemas=tuple(rows), micro=micro,
                             skipped=tuple(skipped))


# --- the record rules before `_fields` tested JSON types inline ---
#
# `_floats`, `_fields`, `_check_values` and `_checked` as they stood when every
# field went through its rule helper; the live `_checked` must give the same
# values, or raise the same exception with the same text, on every decoded
# line. The id, label and number helpers they call are the live ones.


def _floats(rid: str, field_name: str, values: Sequence[Any]) -> tuple[float, ...]:
    """JSON numbers as floats, by `_is_real`: not a bool and not a string."""
    types = set(map(type, values))
    if types == {float}:
        return tuple(values)
    if all(map(_is_real, types)):
        try:
            return tuple(map(float, values))
        except OverflowError:  # an integer too large for a float
            pass
    raise RecordError(rid, field_name, "must be a number")


def _fields(obj: Any) -> tuple:
    """The type rules and the label rule of a prediction line. Returns its
    id, schema id and label, then the scored fields as plain values, each
    None when absent: token_probs and self_check_bool as tuples of floats,
    verbalized_prob as a float, alternatives as a tuple of (score,
    equivalent) pairs. Their values are left to `_check_values`."""
    rid = _require(obj, "schema_id", "label")
    if not isinstance(obj.get("question", ""), (str, type(None))):
        raise RecordError(rid, "question", "must be a string")

    token_probs = None
    if obj.get("token_probs") is not None:
        raw = obj["token_probs"]
        if not isinstance(raw, list):
            raise RecordError(rid, "token_probs", "must be a list of numbers")
        token_probs = _floats(rid, "token_probs", raw)

    self_check = None
    if obj.get("self_check_bool") is not None:
        raw = obj["self_check_bool"]
        if not isinstance(raw, dict) or "p_true" not in raw or "p_false" not in raw:
            raise RecordError(rid, "self_check_bool", "must be an object with p_true and p_false")
        self_check = _floats(rid, "self_check_bool", (raw["p_true"], raw["p_false"]))

    alternatives = None
    if obj.get("alternatives") is not None:
        raw = obj["alternatives"]
        if not isinstance(raw, list):
            raise RecordError(rid, "alternatives", "must be a list of {score, equivalent}")
        alts = []
        for entry in raw:
            if not isinstance(entry, dict) or "score" not in entry or "equivalent" not in entry:
                raise RecordError(rid, "alternatives", "each entry needs score and equivalent")
            (score,) = _floats(rid, "alternatives", (entry["score"],))
            if not isinstance(entry["equivalent"], bool):
                raise RecordError(rid, "alternatives", "equivalent must be true or false")
            alts.append((score, entry["equivalent"]))
        alternatives = tuple(alts)

    verbalized = obj.get("verbalized_prob")
    if verbalized is not None:
        (verbalized,) = _floats(rid, "verbalized_prob", (verbalized,))
    schema_id = _ident(rid, "schema_id", obj["schema_id"])
    label = _label(rid, obj["label"])
    return rid, schema_id, label, token_probs, self_check, verbalized, alternatives


def _check_values(rid: str | None, token_probs: Sequence[float] | None = None,
                  self_check: Sequence[float] | None = None, verbalized: float | None = None,
                  alternatives: Iterable[tuple[float, bool]] | None = None) -> None:
    """The value rules of a record, on the plain values of `_fields`: the
    ranges of every number, a nonempty token list and a positive self-check
    sum."""
    if token_probs is not None:
        if len(token_probs) == 0:
            raise RecordError(rid, "token_probs", "must be nonempty when present")
        for p in token_probs:
            if not (0.0 < p <= 1.0):
                raise RecordError(
                    rid, "token_probs", f"every probability must lie in (0, 1], got {p!r}"
                )
    if self_check is not None:
        p_true, p_false = self_check
        # abs() < inf, not math.isfinite, which overflows on an int past the float range
        if not (abs(p_true) < math.inf and abs(p_false) < math.inf):
            raise RecordError(rid, "self_check_bool", "probabilities must be finite")
        if p_true < 0 or p_false < 0:
            raise RecordError(rid, "self_check_bool", "probabilities must be nonnegative")
        if p_true + p_false <= 0:
            raise RecordError(rid, "self_check_bool",
                              "degenerate self-check: p_true + p_false must be positive")
    for score, _ in alternatives or ():
        if not (0.0 <= score <= 1.0):
            problem = "outside [0, 1]" if abs(score) < math.inf else "is not finite"
            raise RecordError(rid, "alternatives", f"score {score!r} {problem}")
    if verbalized is not None and not (0.0 <= verbalized <= 1.0):
        raise RecordError(rid, "verbalized_prob", f"must lie in [0, 1], got {verbalized!r}")


def _checked(obj: Any) -> tuple:
    """The plain values of `_fields`, checked by `_check_values` too."""
    fields = _fields(obj)
    _check_values(fields[0], *fields[3:])
    return fields


# ---------------------------------------------------------------------------
# The line `label` writes for a pair
#
# The pair checked as a line with a placeholder label by the reference rules
# above, relabeled without the pair-only fields, and serialized as
# `records._record_to_obj` serialized a record before `label` wrote lines
# from values: `label`'s path while it built a record per pair. Its line for
# a valid pair line must be the one `label` writes now.

PAIR_ONLY_FIELDS = ("gold_sql", "pred_sql", "db_path")
_SHAPES = {
    "question": lambda q: q,
    "token_probs": list,
    "self_check_bool": lambda pair: {"p_true": pair[0], "p_false": pair[1]},
    "verbalized_prob": lambda v: v,
    "alternatives": lambda alts: [{"score": a.score, "equivalent": a.equivalent} for a in alts],
}


def _record_line(r) -> dict:
    obj = {"id": r.id, "schema_id": r.schema_id, "label": r.label}
    for name, shape in _SHAPES.items():
        if getattr(r, name) is not None:
            obj[name] = shape(getattr(r, name))
    for k in sorted(r.extra):
        obj[k] = r.extra[k]
    return obj


def reference_labeled_line(obj: dict, label: int) -> dict:
    rid, schema_id, _, tokens, check, verbalized, alts = _checked({**obj, "label": 0})
    skip = ("id", "schema_id", "label", *_SHAPES, *PAIR_ONLY_FIELDS)
    return _record_line(SimpleNamespace(
        id=rid, schema_id=schema_id, label=label, question=obj.get("question"),
        token_probs=tokens, self_check_bool=check, verbalized_prob=verbalized,
        alternatives=alts and [SimpleNamespace(score=s, equivalent=e) for s, e in alts],
        extra={k: v for k, v in obj.items() if k not in skip}))
