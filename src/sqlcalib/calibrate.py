"""Monotone rescaling of raw confidence scores.

Two calibrators are provided:

* Platt scaling: fit sigma(t * r + b) to the labels by maximum likelihood,
  with the classic target smoothing that keeps the optimum finite on
  separable data.
* Isotonic regression: least-squares non-decreasing step fit of the labels
  against the scores, solved by the pool-adjacent-violators pass that
  monotonic binning also uses (`binning._pav_groups`); applied out of
  sample by linear interpolation between knots (a pure step mode is
  available for exact step semantics).

Raw scores outside [0, 1] (the variant method produces them) are accepted
unchanged; only calibrated outputs are required to lie in [0, 1].
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .binning import _pav_groups
from .records import RecordError, _floats

GRAD_TOL = 1e-8
MAX_ITER = 200


@dataclass(frozen=True)
class PlattCalibrator:
    """Sigmoid rescaling map sigma(t * raw + b)."""

    t: float
    b: float


@dataclass(frozen=True)
class IsotonicCalibrator:
    """Monotone step/interpolation map defined by ascending knots.

    knots: (raw_score, fitted_value) pairs with strictly increasing raw
    scores and non-decreasing fitted values in [0, 1].
    mode: "interpolate" (default) draws straight lines between knots;
    "step" holds each fitted value until the next knot.
    """

    knots: tuple[tuple[float, float], ...]
    mode: str = "interpolate"


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
    a = np.asarray(labels, dtype=float)
    n_pos = float(a.sum())
    n_neg = float(len(a) - a.sum())
    hi = (n_pos + 1.0) / (n_pos + 2.0)
    lo = 1.0 / (n_neg + 2.0)
    return np.where(a > 0, hi, lo)


def platt_log_likelihood(
    t: float, b: float, scores: Sequence[float], targets: Sequence[float]
) -> float:
    """Mean smoothed log-likelihood of the targets under sigma(t * r + b)."""
    r = np.asarray(scores, dtype=float)
    g = np.asarray(targets, dtype=float)
    z = t * r + b
    # log sigma(z) and log(1 - sigma(z)) via logaddexp for stability
    log_p = -np.logaddexp(0.0, -z)
    log_q = -np.logaddexp(0.0, z)
    return float(np.mean(g * log_p + (1.0 - g) * log_q))


def platt_gradient(
    t: float, b: float, scores: Sequence[float], targets: Sequence[float]
) -> tuple[float, float]:
    """Partial derivatives of the mean smoothed log-likelihood w.r.t. (t, b)."""
    r = np.asarray(scores, dtype=float)
    g = np.asarray(targets, dtype=float)
    resid = g - _sigmoid(t * r + b)
    return float(np.mean(resid * r)), float(np.mean(resid))


def _fit_columns(raw: Sequence[float], labels: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """The raw score and label columns of a fit as float arrays, after the
    checks both fitters share: equal lengths, at least one record, finite
    raw scores and 0/1 labels."""
    r = np.asarray(raw, dtype=float)
    a = np.asarray(labels, dtype=float)
    if len(r) != len(a):
        raise ValueError(f"length mismatch: {len(r)} raw scores vs {len(a)} labels")
    if not len(r):
        raise ValueError("need at least 1 record to fit")
    if not np.all(np.isfinite(r)):
        raise ValueError("non-finite raw score in calibration data")
    if not np.all((a == 0) | (a == 1)):
        raise ValueError("labels must be 0 or 1")
    return r, a


def fit_platt(raw: Sequence[float], labels: Sequence[int]) -> PlattCalibrator:
    """Maximum-likelihood fit of the sigmoid rescaling map.

    Newton iterations with backtracking line search and a gradient-step
    fallback when the Hessian is near singular; stops when the mean
    log-likelihood gradient norm drops below 1e-8 or after 200 iterations
    (a warning is issued in the latter case). Newton starts at the constant
    map at the mean smoothed target, which is the fit of one record (its
    gradient there is exactly 0).

    Args:
        raw: raw scores, finite. At least 1.
        labels: the 0/1 label of each raw score.

    Returns:
        PlattCalibrator with finite t and b.
    """
    r, a = _fit_columns(raw, labels)
    order = np.lexsort((a, r))  # input order must not affect the fitted bits
    r, a = r[order], a[order]

    g = smooth_targets(a)
    mean_target = float(np.mean(g))
    t = 0.0
    b = math.log(mean_target / (1.0 - mean_target))

    ll = platt_log_likelihood(t, b, r, g)
    for iteration in range(MAX_ITER + 1):
        p = _sigmoid(t * r + b)
        resid = g - p
        grad = np.array([np.mean(resid * r), np.mean(resid)])
        norm = float(np.linalg.norm(grad))
        if norm <= GRAD_TOL:
            break
        if iteration == MAX_ITER:
            message = f"Platt fit stopped at iteration cap with gradient norm {norm:.3g}"
            warnings.warn(message, RuntimeWarning, stacklevel=2)
            break
        w = p * (1.0 - p)
        h11 = float(np.mean(w * r * r))
        h12 = float(np.mean(w * r))
        h22 = float(np.mean(w))
        det = h11 * h22 - h12 * h12
        if det > 1e-12 * max(abs(h11 * h22), 1e-300):
            # ascent direction (-H)^-1 grad; -H is the positive matrix above
            step = np.array(
                [(h22 * grad[0] - h12 * grad[1]) / det, (h11 * grad[1] - h12 * grad[0]) / det]
            )
        else:
            step = grad

        alpha = 1.0
        directional = float(grad @ step)
        while True:
            t_new = t + alpha * step[0]
            b_new = b + alpha * step[1]
            ll_new = platt_log_likelihood(t_new, b_new, r, g)
            # the first step at or below 1e-12 is taken whether or not it passes
            if ll_new >= ll + 1e-4 * alpha * directional or alpha <= 1e-12:
                break
            alpha *= 0.5
        t, b, ll = t_new, b_new, ll_new
    return PlattCalibrator(t=float(t), b=float(b))


def apply_platt(calibrator: PlattCalibrator, raw: float | np.ndarray) -> float | np.ndarray:
    """sigma(t * raw + b), elementwise: a float for a scalar `raw`, an
    ndarray for an array."""
    out = _sigmoid(calibrator.t * np.asarray(raw, dtype=float) + calibrator.b)
    return float(out) if out.ndim == 0 else out


def fit_isotonic(raw: Sequence[float], labels: Sequence[int]) -> IsotonicCalibrator:
    """Least-squares non-decreasing fit of labels as a function of raw score.

    Tied raw scores are merged (weighted by multiplicity) before pooling;
    the blocks are `binning._pav_groups` of the raw scores, the same pass
    that monotonic ECE bins start from. Fitted values are block means,
    hence in [min label, max label].
    """
    r, a = _fit_columns(raw, labels)

    # Knots at block boundaries: first and last unique raw of each block.
    knots: list[tuple[float, float]] = []
    for n, y, _, lo, hi in zip(*_pav_groups(r, a)):
        knots.append((lo, y / n))
        if hi != lo:
            knots.append((hi, y / n))
    return IsotonicCalibrator(knots=tuple(knots))


def apply_isotonic(calibrator: IsotonicCalibrator, raw: float | np.ndarray) -> float | np.ndarray:
    """Evaluate the fitted monotone map at `raw`, elementwise: a float for a
    scalar `raw`, an ndarray for an array.

    Interpolation mode draws straight lines between adjacent knots and
    clamps to the first/last fitted value outside the knot range; a raw
    score exactly on a knot gets that knot's value. Step mode holds each
    knot's value until the next knot.
    """
    if not calibrator.knots:
        raise ValueError("empty isotonic calibrator")
    xs, ys = np.asarray(calibrator.knots, dtype=float).T
    last = len(xs) - 1
    # clamped to the knot range, a raw score outside it hits the end knot
    r = np.minimum(np.maximum(np.asarray(raw, dtype=float), xs[0]), xs[last])
    lo = np.searchsorted(xs, r, side="right") - 1  # rightmost knot with x <= raw
    out = ys[lo]
    if calibrator.mode != "step":
        hi = np.minimum(lo + 1, last)
        with np.errstate(all="ignore"):  # 0 / 0 at the last knot, discarded as a knot hit
            frac = (r - xs[lo]) / (xs[hi] - xs[lo])
        # rounding can carry the sum one ulp past the next knot's value
        out = np.where(r == xs[lo], out, np.minimum(out + frac * (ys[hi] - out), ys[hi]))
    return float(out) if out.ndim == 0 else out


def save_calibrator(
    calibrator: PlattCalibrator | IsotonicCalibrator, path: str | Path
) -> None:
    if isinstance(calibrator, PlattCalibrator):
        obj = {"kind": "platt", "t": calibrator.t, "b": calibrator.b}
    else:
        obj = {
            "kind": "isotonic",
            "mode": calibrator.mode,
            "knots": [[x, y] for x, y in calibrator.knots],
        }
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
    mode = obj.get("mode", "interpolate")
    if mode not in ("interpolate", "step"):
        raise RecordError(kind, "mode", f"must be 'interpolate' or 'step', got {mode!r}")
    return IsotonicCalibrator(knots=tuple(zip(xs, ys)), mode=mode)


def load_calibrator(path: str | Path) -> PlattCalibrator | IsotonicCalibrator:
    """Read a file written by `save_calibrator`.

    Anything else raises a ValueError naming the file: text that is not
    JSON, an unknown kind, Platt parameters that are not finite numbers,
    knots that are not a monotone map into [0, 1], or an unknown mode.
    """
    try:
        return _calibrator_from_obj(json.loads(Path(path).read_text(encoding="utf-8")))
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{path}: {exc}") from exc
