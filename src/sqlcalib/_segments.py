"""Per-segment numpy over columns that hold many splits end to end.

`bounds` holds the offsets of the segments, as in a CSR index pointer:
segment i is x[bounds[i]:bounds[i + 1]]. Each helper returns, bit for bit,
what the one-segment numpy call returns on each slice. Float sums reduce
the segments of one length as the rows of one C-contiguous block, which
numpy sums row by row exactly as it sums a 1-D array (`np.add.reduceat`
sums in sequence instead, and differs from `np.sum` from 3 elements on).
Searches, ranks and tie groups rest on comparisons only.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np


def bounds_of(lengths: Sequence[int] | np.ndarray) -> np.ndarray:
    """Segment offsets for segments of the given lengths, in order."""
    return np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))


def segment_ids(bounds: np.ndarray) -> np.ndarray:
    """The segment index of every element."""
    return np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))


def select(bounds: np.ndarray, keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The element indices of the segments `keep` (ascending segment ids),
    with the offsets of those segments laid end to end."""
    lengths = np.diff(bounds)[keep]
    kept = bounds_of(lengths)
    return np.repeat(bounds[keep] - kept[:-1], lengths) + np.arange(kept[-1]), kept


def length_groups(bounds: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """For each distinct nonzero segment length n: the ids of the segments of
    that length and the (k, n) block of their element indices."""
    lengths = np.diff(bounds)
    order = np.argsort(lengths, kind="stable")
    for rows in np.split(order, np.flatnonzero(np.diff(lengths[order])) + 1):
        n = int(lengths[rows[0]]) if rows.size else 0
        if n:
            yield rows, bounds[rows][:, None] + np.arange(n)


def segment_sums(x: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """`np.sum` of every segment of x; 0.0 for an empty one."""
    out = np.zeros(len(bounds) - 1)
    for rows, index in length_groups(bounds):
        out[rows] = x[index].sum(axis=1)
    return out


def segment_means(x: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """`np.mean` of every segment of x; the segments must be nonempty."""
    return segment_sums(x, bounds) / np.diff(bounds)


def segment_searchsorted(keys: np.ndarray, key_bounds: np.ndarray,
                         values: np.ndarray, value_seg: np.ndarray) -> np.ndarray:
    """For each value, `np.searchsorted(keys_i, value, side="right")` on the
    keys of its segment i = value_seg (ascending within it), as an index
    into `keys`: the keys at or below the value end just before it.

    One search compares keys and values as the complex numbers segment + x·j,
    which numpy orders by real part, then by imaginary part, so equal floats
    (0.0 and -0.0) compare equal. That order puts a NaN past every number of
    every segment: clamped to its segment's end, a NaN value ranks last in
    it, as in numpy's order. A NaN key may stand only in the last segment
    that has keys.
    """
    found = np.searchsorted(_tagged(keys, segment_ids(key_bounds)), _tagged(values, value_seg),
                            side="right")
    return np.minimum(found, key_bounds[1:][value_seg], out=found)


def _tagged(x: np.ndarray, seg: np.ndarray) -> np.ndarray:
    """x as the complex numbers seg + x·j."""
    out = np.empty(len(x), dtype=complex)
    out.real = seg
    out.imag = x
    return out


def stable_argsort(ids: np.ndarray, n_ids: int) -> np.ndarray:
    """The stable argsort of ids in [0, n_ids). numpy radix-sorts 16-bit
    integers; wider ones take its merge sort, which on 5 ids over 16,000
    rows took 0.8 ms against 0.1 ms."""
    small = n_ids <= np.iinfo(np.int16).max + 1
    return np.argsort(ids.astype(np.int16) if small else ids, kind="stable")


def sorted_ties(values: np.ndarray, bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """An order that sorts every segment's values ascending, and a mask over
    that order marking the first element of each run of equal values within
    a segment (NaNs form one run, as in `np.unique`). The order within a run
    is arbitrary."""
    seg = segment_ids(bounds)
    by_value = np.argsort(values)
    order = by_value[stable_argsort(seg[by_value], len(bounds) - 1)]
    v, s = values[order], seg[order]
    first = np.ones(len(v), dtype=bool)
    first[1:] = (s[1:] != s[:-1]) | ((v[1:] != v[:-1]) & ~(np.isnan(v[1:]) & np.isnan(v[:-1])))
    return order, first
