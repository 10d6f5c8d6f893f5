"""Independent brute-force oracles used to verify the fast implementations.

Each is a direct enumeration; none shares code with the module it checks.
"""

from __future__ import annotations

import itertools

import numpy as np

from sqlcalib.execmatch import ResultTable


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


def isotonic_reference(knots, mode: str, raw: float) -> float:
    """One score through an isotonic map by bisection over the knots: clamp
    outside the knot range, the knot's own value on an exact hit or in step
    mode, otherwise (frac first, then times the knot gap) interpolation, at
    most the next knot's value."""
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
    if xs[lo] == raw or mode == "step":
        return ys[lo]
    frac = (raw - xs[lo]) / (xs[hi] - xs[lo])
    return min(ys[lo] + frac * (ys[hi] - ys[lo]), ys[hi])
