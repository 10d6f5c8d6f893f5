"""Monotone rescaling of raw confidence scores.

Two calibrators are provided:

* Platt scaling: fit sigma(t * r + b) to the labels by maximum likelihood,
  with the classic target smoothing that keeps the optimum finite on
  separable data.
* Isotonic regression: least-squares non-decreasing step fit of the labels
  against the scores, its knots from the pool-adjacent-violators groups of
  monotonic binning, pooled in numpy rounds (the order of pooling does not
  change them); applied out of sample by linear interpolation.

Raw scores outside [0, 1] (the variant method produces them) are accepted
unchanged; only calibrated outputs are required to lie in [0, 1].

Both fitters also fit every split of a batch at once (`_platt_segments`,
`_isotonic_segments`), bit for bit as one call per split; the public
fitters are the one-split case.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from ._segments import (
    bounds_of,
    length_groups,
    one_split,
    segment_ids,
    segment_searchsorted,
    stable_argsort,
)
from .binning import _pav_segments, _pav_start
from .records import RecordError, _floats

GRAD_TOL = 1e-8
MAX_ITER = 200
_POOL_ROUNDS = 16


@dataclass(frozen=True)
class PlattCalibrator:
    """Sigmoid rescaling map sigma(t * raw + b)."""

    t: float
    b: float


@dataclass(frozen=True)
class IsotonicCalibrator:
    """Monotone map that interpolates linearly between ascending knots.

    knots: (raw_score, fitted_value) pairs with strictly increasing raw
    scores and non-decreasing fitted values in [0, 1].
    """

    knots: tuple[tuple[float, float], ...]


def _sigmoid(z: np.ndarray | float) -> np.ndarray | float:
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def smooth_targets(labels: Sequence[int]) -> np.ndarray:
    """Platt's smoothed regression targets.

    Positives become (n_pos + 1) / (n_pos + 2), negatives 1 / (n_neg + 2).
    Keeps the likelihood bounded even when the data are separable or
    single-class.
    """
    return _smooth_rows(np.asarray(labels, dtype=float)[None, :])[0]


def _row_means(x: np.ndarray) -> np.ndarray:
    """`np.mean(x, axis=1)` bit for bit (the row sums divided by the row
    length), without `np.mean`'s per-call overhead."""
    return x.sum(axis=1) / x.shape[1]


def _smooth_rows(a: np.ndarray) -> np.ndarray:
    """`smooth_targets` of every row of a label block."""
    n_pos = a.sum(axis=1)
    n_neg = a.shape[1] - n_pos
    hi = (n_pos + 1.0) / (n_pos + 2.0)
    lo = 1.0 / (n_neg + 2.0)
    return np.where(a > 0, hi[:, None], lo[:, None])


def platt_log_likelihood(
    t: float, b: float, scores: Sequence[float], targets: Sequence[float]
) -> float:
    """Mean smoothed log-likelihood of the targets under sigma(t * r + b)."""
    return float(_log_likelihood_rows(*_one_row(t, b, scores, targets))[0])


def _one_row(t: float, b: float, scores: Sequence[float], targets: Sequence[float]):
    """(t, b, scores, targets) as the one row of a block."""
    return (np.array([t], dtype=float), np.array([b], dtype=float),
            np.asarray(scores, dtype=float)[None, :], np.asarray(targets, dtype=float)[None, :])


def _log_likelihood_rows(t: np.ndarray, b: np.ndarray, r: np.ndarray, g: np.ndarray) -> np.ndarray:
    """`platt_log_likelihood` of every row: (t, b) per row of the blocks."""
    z = t[:, None] * r + b[:, None]
    # log sigma(z) and log(1 - sigma(z)) via logaddexp for stability
    log_p = -np.logaddexp(0.0, -z)
    log_q = -np.logaddexp(0.0, z)
    return _row_means(g * log_p + (1.0 - g) * log_q)


def platt_gradient(
    t: float, b: float, scores: Sequence[float], targets: Sequence[float]
) -> tuple[float, float]:
    """Partial derivatives of the mean smoothed log-likelihood w.r.t. (t, b)."""
    grad, _ = _gradient_rows(*_one_row(t, b, scores, targets))
    return float(grad[0, 0]), float(grad[0, 1])


def _gradient_rows(t: np.ndarray, b: np.ndarray, r: np.ndarray,
                   g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (k, 2) gradients of `platt_gradient` for every row, and the
    fitted probabilities they were computed from."""
    p = _sigmoid(t[:, None] * r + b[:, None])
    resid = g - p
    grad = np.empty((len(r), 2))
    grad[:, 0] = _row_means(resid * r)
    grad[:, 1] = _row_means(resid)
    return grad, p


def _row_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x[i] @ y[i] for every row of two (k, 2) arrays. A matmul of 1-element
    stacks calls the BLAS dot that a 1-D `@` calls; x0 * y0 + x1 * y1 can
    differ from it in the last bit (BLAS fuses a multiply-add)."""
    return np.matmul(x[:, None, :], y[:, :, None])[:, 0, 0]


def _finite_raw(raw: Any, where: str) -> np.ndarray:
    """Raw scores as a float array, each finite, the rule of fits and maps alike."""
    r = np.asarray(raw, dtype=float)
    if not np.all(np.isfinite(r)):
        raise ValueError(f"non-finite raw score {where}")
    return r


def _fit_columns(raw: Sequence[float], labels: Sequence[int],
                 bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The raw score and label columns of one or more fits, laid end to end
    as `bounds` says, as float arrays, after the checks both fitters share:
    at least one record per fit and finite raw scores. The columns have
    equal lengths and 0/1 labels, which `one_split` checks for one fit."""
    if not np.all(np.diff(bounds) >= 1):
        raise ValueError("need at least 1 record to fit")
    return _finite_raw(raw, "in calibration data"), np.asarray(labels, dtype=float)


def fit_platt(raw: Sequence[float], labels: Sequence[int]) -> PlattCalibrator:
    """Maximum-likelihood fit of the sigmoid rescaling map.

    Newton iterations with backtracking line search and a gradient-step
    fallback when the Hessian is near singular; stops when the mean
    log-likelihood gradient norm drops below 1e-8 or after 200 iterations
    (a warning is issued in the latter case). Newton starts at the constant
    map at the mean smoothed target, which is the fit of one record (its
    gradient there is exactly 0). This is the one-segment case of
    `_platt_segments`.

    Args:
        raw: raw scores, finite. At least 1.
        labels: the 0/1 label of each raw score.

    Returns:
        PlattCalibrator with finite t and b.
    """
    t, b = _platt_segments(*one_split(raw, labels, "raw scores"))
    return PlattCalibrator(t=float(t[0]), b=float(b[0]))


def _platt_segments(raw: Sequence[float], labels: Sequence[int],
                    bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`fit_platt` of every segment of the columns: the arrays of t and b.

    Each segment's records are sorted (input order must not affect the
    fitted bits), and the segments of one length are fitted together as
    the rows of one block. Warns once per fit that reaches the iteration
    cap, in segment order.
    """
    r, a = _fit_columns(raw, labels, bounds)
    order = np.lexsort((a, r))  # then stably by segment: sorted within each
    order = order[stable_argsort(segment_ids(bounds)[order], len(bounds) - 1)]
    r, a = r[order], a[order]
    t = np.empty(len(bounds) - 1)
    b = np.empty(len(bounds) - 1)
    capped = np.full(len(bounds) - 1, np.nan)
    for rows, index in length_groups(bounds):
        t[rows], b[rows], capped[rows] = _newton_rows(r[index], a[index])
    for norm in capped[~np.isnan(capped)].tolist():
        message = f"Platt fit stopped at iteration cap with gradient norm {norm:.3g}"
        warnings.warn(message, RuntimeWarning, stacklevel=3)
    return t, b


def _newton_rows(r: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Newton's method on every row of the (k, n) score and label blocks in
    lockstep, each row stepping as `fit_platt` would step on it alone.
    Returns t, b and the gradient norm of each row stopped by the iteration
    cap (NaN for a converged row)."""
    g = _smooth_rows(a)
    mean_target = _row_means(g)
    t = np.zeros(len(r))
    b = np.array([math.log(odds) for odds in (mean_target / (1.0 - mean_target)).tolist()])
    ll = _log_likelihood_rows(t, b, r, g)
    t_out, b_out = np.empty(len(r)), np.empty(len(r))
    capped = np.full(len(r), np.nan)
    rows = np.arange(len(r))  # the block rows still iterating, in r's numbering
    for iteration in range(MAX_ITER + 1):
        grad, p = _gradient_rows(t, b, r, g)
        norm = np.sqrt(_row_dots(grad, grad))  # np.linalg.norm of each row
        stop = norm <= GRAD_TOL
        if iteration == MAX_ITER:
            capped[rows[~stop]] = norm[~stop]
            stop[:] = True
        if stop.any():
            t_out[rows[stop]], b_out[rows[stop]] = t[stop], b[stop]
            if stop.all():
                break
            rows, r, g, t, b, ll, grad, p = (x[~stop] for x in (rows, r, g, t, b, ll, grad, p))
        w = p * (1.0 - p)
        wr = w * r
        h11 = _row_means(wr * r)
        h12 = _row_means(wr)
        h22 = _row_means(w)
        h11_h22 = h11 * h22
        det = h11_h22 - h12 * h12
        newton = det > 1e-12 * np.maximum(np.abs(h11_h22), 1e-300)
        step = np.empty_like(grad)
        with np.errstate(all="ignore"):  # rows with a near-singular Hessian take the gradient
            # ascent direction (-H)^-1 grad; -H is the positive matrix above
            step[:, 0] = (h22 * grad[:, 0] - h12 * grad[:, 1]) / det
            step[:, 1] = (h11 * grad[:, 1] - h12 * grad[:, 0]) / det
        step[~newton] = grad[~newton]

        # backtracking line search, each row halving its own step size
        directional = _row_dots(grad, step)
        t_new, b_new = t + step[:, 0], b + step[:, 1]
        ll_new = _log_likelihood_rows(t_new, b_new, r, g)
        retry = np.flatnonzero(~(ll_new >= ll + 1e-4 * directional))  # the full step failed
        alpha = np.ones(len(rows))
        # the first step at or below 1e-12 is taken whether or not it passes
        while retry.size:
            alpha[retry] *= 0.5
            t_new[retry] = t[retry] + alpha[retry] * step[retry, 0]
            b_new[retry] = b[retry] + alpha[retry] * step[retry, 1]
            ll_new[retry] = _log_likelihood_rows(t_new[retry], b_new[retry], r[retry], g[retry])
            passed = ((ll_new[retry] >= ll[retry] + 1e-4 * alpha[retry] * directional[retry])
                      | (alpha[retry] <= 1e-12))
            retry = retry[~passed]
        t, b, ll = t_new, b_new, ll_new
    return t_out, b_out, capped


def apply_platt(calibrator: PlattCalibrator, raw: float | np.ndarray) -> float | np.ndarray:
    """sigma(t * raw + b), elementwise: a float for a scalar `raw`, an
    ndarray for an array. Every raw score must be finite."""
    out = _sigmoid(calibrator.t * _finite_raw(raw, "to map") + calibrator.b)
    return float(out) if out.ndim == 0 else out


def fit_isotonic(raw: Sequence[float], labels: Sequence[int]) -> IsotonicCalibrator:
    """Least-squares non-decreasing fit of labels as a function of raw score.

    Tied raw scores are merged (weighted by multiplicity) before pooling;
    the blocks are the pool-adjacent-violators groups of the raw scores that
    monotonic ECE bins start from. Fitted values are block means,
    hence in [min label, max label]. This is the one-segment case of
    `_isotonic_segments`.
    """
    xs, ys, _ = _isotonic_segments(*one_split(raw, labels, "raw scores"))
    return IsotonicCalibrator(knots=tuple(zip(xs.tolist(), ys.tolist())))


def _isotonic_segments(raw: Sequence[float], labels: Sequence[int],
                       bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`fit_isotonic` of every segment of the columns: the knots' x and y, laid end to
    end, and their bounds per segment. The groups pool in numpy rounds, or in the stack
    of `_pav_segments` once the rounds cost `_POOL_ROUNDS` times the first group count."""
    r, a = _fit_columns(raw, labels, bounds)
    lo, n, y, starts = groups = _pav_start(r, a, bounds)
    seg, hi, y = np.searchsorted(bounds, starts, side="right") - 1, lo, y.astype(np.int64)
    budget = _POOL_ROUNDS * len(n)
    # pool each run of non-increasing accuracy, exactly: y[i] / n[i] >= y[i + 1] / n[i + 1]
    while (pooled := (y[:-1] * n[1:] >= y[1:] * n[:-1]) & (seg[:-1] == seg[1:])).any() \
            and (budget := budget - len(n)) >= 0:
        first = np.flatnonzero(np.append(True, ~pooled))
        n, y, seg = np.add.reduceat(n, first), np.add.reduceat(y, first), seg[first]
        lo, hi = lo[first], hi[np.append(first[1:], len(hi)) - 1]
    if budget < 0:
        n, y, _, lo, hi, group_bounds = _pav_segments(groups, bounds)
    else:
        group_bounds = np.searchsorted(seg, np.arange(len(bounds)))
    # knots at block boundaries: the first and last distinct raw of each block
    two = hi != lo
    knot_bounds = bounds_of(1 + two)  # each block's knots
    xs = np.repeat(lo, 1 + two)
    xs[knot_bounds[1:] - 1] = hi  # a one-knot block has hi == lo
    return xs, np.repeat(y / n, 1 + two), knot_bounds[group_bounds]


def apply_isotonic(calibrator: IsotonicCalibrator, raw: float | np.ndarray) -> float | np.ndarray:
    """Evaluate the fitted monotone map at `raw`, elementwise: a float for a
    scalar `raw`, an ndarray for an array.

    Straight lines join adjacent knots, and the first/last fitted value
    holds outside the knot range; a raw score exactly on a knot gets that
    knot's value. Every raw score must be finite.
    """
    if not calibrator.knots:
        raise ValueError("empty isotonic calibrator")
    xs, ys = np.asarray(calibrator.knots, dtype=float).T
    r = _finite_raw(raw, "to map")
    out = _isotonic_map(xs, ys, bounds_of([len(xs)]), r.ravel(),
                        np.zeros(r.size, dtype=np.int64)).reshape(r.shape)
    return float(out) if out.ndim == 0 else out


def _isotonic_map(xs: np.ndarray, ys: np.ndarray, knot_bounds: np.ndarray, raw: np.ndarray,
                  seg: np.ndarray) -> np.ndarray:
    """Every raw score through the isotonic map of its segment `seg`: the
    knots of segment i are xs[knot_bounds[i]:knot_bounds[i + 1]] (nonempty)."""
    # clamped to the knot range, a raw score outside it hits the end knot
    r = np.minimum(np.maximum(raw, xs[knot_bounds[:-1]][seg]), xs[knot_bounds[1:] - 1][seg])
    lo = segment_searchsorted(xs, knot_bounds, r, seg) - 1  # rightmost knot with x <= raw
    y_lo = ys[lo]
    # the next knot of each knot's segment; the last knot is its own
    nxt = np.arange(1, len(xs) + 1)
    nxt[knot_bounds[1:] - 1] -= 1
    x_lo = xs[lo]
    with np.errstate(all="ignore"):  # 0 / 0 at the last knot, discarded as a knot hit
        frac = (r - x_lo) / (xs[nxt] - xs)[lo]
    # rounding can carry the sum one ulp past the next knot's value
    return np.where(r == x_lo, y_lo, np.minimum(y_lo + frac * (ys[nxt] - ys)[lo], ys[nxt][lo]))


def save_calibrator(
    calibrator: PlattCalibrator | IsotonicCalibrator, path: str | Path
) -> None:
    """The calibrator, `asdict` of it, under its kind: "platt" or "isotonic"."""
    kind = "platt" if isinstance(calibrator, PlattCalibrator) else "isotonic"
    obj = {"kind": kind, **asdict(calibrator)}
    Path(path).write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")


def _calibrator_from_obj(obj: Any) -> PlattCalibrator | IsotonicCalibrator:
    if not isinstance(obj, dict):
        raise ValueError(f"expected an object, got {type(obj).__name__}")
    kind = obj.get("kind")
    if kind == "platt":
        t, b = _floats(kind, "t and b", (obj.get("t"), obj.get("b")))
        if not (math.isfinite(t) and math.isfinite(b)):
            raise RecordError(kind, "t and b", "must be finite")
        return PlattCalibrator(t=t, b=b)
    if kind != "isotonic":
        raise ValueError(f"unknown calibrator kind {kind!r}")
    knots = obj.get("knots")
    if not (
        isinstance(knots, list)
        and knots
        and all(isinstance(k, list) and len(k) == 2 for k in knots)
    ):
        raise RecordError(kind, "knots", "must be a nonempty list of [x, y] pairs")
    xs = _floats(kind, "knots", [x for x, _ in knots])
    ys = _floats(kind, "knots", [y for _, y in knots])
    if not all(map(math.isfinite, xs + ys)):
        raise RecordError(kind, "knots", "must be finite")
    if any(x0 >= x1 for x0, x1 in zip(xs, xs[1:])):
        raise RecordError(kind, "knots", "x must be strictly increasing")
    if ys[0] < 0.0 or ys[-1] > 1.0 or any(y0 > y1 for y0, y1 in zip(ys, ys[1:])):
        raise RecordError(kind, "knots", "y must be non-decreasing within [0, 1]")
    mode = obj.get("mode", "interpolate")  # no longer written; files written before still load
    if mode != "interpolate":
        raise RecordError(kind, "mode", f"must be 'interpolate', got {mode!r}")
    return IsotonicCalibrator(knots=tuple(zip(xs, ys)))


def load_calibrator(path: str | Path) -> PlattCalibrator | IsotonicCalibrator:
    """Read a file written by `save_calibrator`.

    Anything else raises a ValueError naming the file: text that is not
    JSON, an unknown kind, Platt parameters that are not finite numbers,
    knots that are not a monotone map into [0, 1], or a mode but "interpolate".
    """
    try:
        return _calibrator_from_obj(json.loads(Path(path).read_text(encoding="utf-8")))
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{path}: {exc}") from exc
