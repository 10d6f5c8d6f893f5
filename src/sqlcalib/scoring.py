"""Raw confidence scores for prediction records.

Four pooling rules reduce per-token probabilities to one sequence score
(prod, geo, min, avg); two self-check rules read follow-up probe outputs;
the variant rule scores a prediction relative to its best inequivalent
alternative.

Scored records travel as `ScoredColumns`: one tuple per field (id, schema
id, method, raw score, label), with no object per record. It is a sequence
of `ScoredRecord`s, built only when an element is read, so code that
indexes or iterates it sees records; the evaluators, the writer and the CLI
read the columns.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from pathlib import Path
from typing import Any

from .records import (
    Alternative,
    Dataset,
    PredictionRecord,
    RecordError,
    _floats,
    _label,
    _read_records,
    _require,
)

POOLING_METHODS = ("prod", "geo", "min", "avg")
SCORE_METHODS = POOLING_METHODS + ("self_check_bool", "self_check_probs", "variant_alt")


class SkipRecord(Exception):
    """The record lacks the fields a scoring method needs; skip, don't fail."""


@dataclass(frozen=True)
class ScoredRecord:
    id: str
    schema_id: str
    method: str
    raw_score: float
    label: int


_RECORD_FIELDS = attrgetter("id", "schema_id", "method", "raw_score", "label")


class ScoredColumns(Sequence):
    """Scored records as five columns of equal length, in `ScoredRecord`
    field order: `ids`, `schema_ids`, `methods`, `raw_scores`, `labels`.

    An immutable sequence of `ScoredRecord`: indexing or iterating it builds
    the records on demand. It equals another `ScoredColumns` with the same
    columns, or a tuple of the same records.
    """

    __slots__ = ("ids", "schema_ids", "methods", "raw_scores", "labels")

    def __init__(self, ids: Iterable[str], schema_ids: Iterable[str], methods: Iterable[str],
                 raw_scores: Iterable[float], labels: Iterable[int]):
        columns = tuple(map(tuple, (ids, schema_ids, methods, raw_scores, labels)))
        if len(set(map(len, columns))) > 1:
            raise ValueError(f"columns of unequal length: {[len(c) for c in columns]}")
        for name, column in zip(self.__slots__, columns):
            object.__setattr__(self, name, column)

    @classmethod
    def of(cls, scored: Iterable[ScoredRecord]) -> ScoredColumns:
        """`scored` itself when it is columns already, else its records as columns."""
        if isinstance(scored, cls):
            return scored
        return cls(*(list(zip(*map(_RECORD_FIELDS, scored))) or [()] * 5))

    def _columns(self) -> tuple[tuple, ...]:
        return self.ids, self.schema_ids, self.methods, self.raw_scores, self.labels

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"ScoredColumns is immutable: cannot set {name!r}")

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return ScoredColumns(*(column[index] for column in self._columns()))
        return ScoredRecord(*(column[index] for column in self._columns()))

    def __iter__(self):
        return map(ScoredRecord, *self._columns())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ScoredColumns):
            return self._columns() == other._columns()
        if isinstance(other, tuple):
            return tuple(self) == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"ScoredColumns({list(self)!r})"


@dataclass(frozen=True)
class ScoringResult:
    scored: ScoredColumns
    skipped: tuple[tuple[str, str], ...]  # (record id, reason)


def _check_probs(token_probs: Sequence[float]) -> None:
    if len(token_probs) == 0:
        raise ValueError("token probability list is empty")
    for p in token_probs:
        if not (0.0 < p <= 1.0):
            raise ValueError(f"token probability {p!r} outside (0, 1]")


def _prod(token_probs: Sequence[float]) -> float:
    if len(token_probs) == 1:
        return float(token_probs[0])
    return math.exp(math.fsum(map(math.log, token_probs)))


def _geo(token_probs: Sequence[float]) -> float:
    if len(token_probs) == 1:
        return float(token_probs[0])
    return math.exp(math.fsum(map(math.log, token_probs)) / len(token_probs))


def _min(token_probs: Sequence[float]) -> float:
    return float(min(token_probs))


def _avg(token_probs: Sequence[float]) -> float:
    return math.fsum(token_probs) / len(token_probs)


def pool_prod(token_probs: Sequence[float]) -> float:
    """Product of token probabilities, computed in log space.

    The exponentiated result may underflow to 0.0 for very long sequences;
    downstream calibrators accept that.
    """
    _check_probs(token_probs)
    return _prod(token_probs)


def pool_geo(token_probs: Sequence[float]) -> float:
    """Geometric mean of token probabilities via the mean of logs."""
    _check_probs(token_probs)
    return _geo(token_probs)


def pool_min(token_probs: Sequence[float]) -> float:
    """Minimum token probability."""
    _check_probs(token_probs)
    return _min(token_probs)


def pool_avg(token_probs: Sequence[float]) -> float:
    """Arithmetic mean of token probabilities."""
    _check_probs(token_probs)
    return _avg(token_probs)


def score_self_check_bool(p_true: float, p_false: float) -> float:
    """Normalized probability of the "correct" option token."""
    if p_true < 0 or p_false < 0:
        raise ValueError("self-check probabilities must be nonnegative")
    if p_true + p_false <= 0:
        raise ValueError("degenerate self-check: p_true + p_false must be positive")
    return p_true / (p_true + p_false)


def score_self_check_probs(verbalized_prob: float) -> float:
    """The model's stated probability, passed through unchanged."""
    if not (0.0 <= verbalized_prob <= 1.0):
        raise ValueError(f"verbalized probability {verbalized_prob!r} outside [0, 1]")
    return float(verbalized_prob)


def score_variant_alt(r_pred: float, alternatives: Sequence[Alternative]) -> float:
    """Predicted score minus the best score among inequivalent alternatives.

    With no inequivalent alternative the competing score is taken as 0, so
    an unrivaled prediction keeps its own confidence.
    """
    if not (0.0 <= r_pred <= 1.0):
        raise ValueError(f"predicted score {r_pred!r} outside [0, 1]")
    best = 0.0
    for alt in alternatives:
        if not (0.0 <= alt.score <= 1.0):
            raise ValueError(f"alternative score {alt.score!r} outside [0, 1]")
        if not alt.equivalent:
            best = max(best, alt.score)
    return r_pred - best


# Unchecked: a PredictionRecord has checked its token list on construction.
_POOLERS = {"prod": _prod, "geo": _geo, "min": _min, "avg": _avg}


def score_record(record: PredictionRecord, method: str) -> float:
    """Raw confidence of one record under `method`.

    Raises SkipRecord when the record lacks the fields the method needs.
    """
    if method not in SCORE_METHODS:
        raise ValueError(f"unknown scoring method {method!r}")
    if method in _POOLERS:
        if record.token_probs is None:
            raise SkipRecord("missing token_probs")
        return _POOLERS[method](record.token_probs)
    if method == "self_check_bool":
        if record.self_check_bool is None:
            raise SkipRecord("missing self_check_bool")
        return score_self_check_bool(*record.self_check_bool)
    if method == "self_check_probs":
        if record.verbalized_prob is None:
            raise SkipRecord("missing verbalized_prob")
        return score_self_check_probs(record.verbalized_prob)
    # variant_alt: the prediction's own score is its pooled sequence probability
    if record.alternatives is None:
        raise SkipRecord("missing alternatives")
    if record.token_probs is None:
        raise SkipRecord("missing token_probs")
    return score_variant_alt(_prod(record.token_probs), record.alternatives)


def score_dataset(dataset: Dataset, method: str) -> ScoringResult:
    """Score every applicable record; collect inapplicable ones in a skip report.

    Both the scored records and the skips keep dataset order.
    """
    kept: list[PredictionRecord] = []
    raw_scores: list[float] = []
    skipped: list[tuple[str, str]] = []
    for record in dataset.records:
        try:
            raw_scores.append(score_record(record, method))
        except SkipRecord as exc:
            skipped.append((record.id, str(exc)))
            continue
        kept.append(record)
    scored = ScoredColumns(map(attrgetter("id"), kept), map(attrgetter("schema_id"), kept),
                           (method,) * len(kept), raw_scores, map(attrgetter("label"), kept))
    return ScoringResult(scored=scored, skipped=tuple(skipped))


def write_scored(scored: Iterable[ScoredRecord], path: str | Path) -> None:
    """One JSON object per record, with the keys id, schema_id, method,
    raw_score and label: the bytes `json.dumps` writes for that dict."""
    columns = ScoredColumns.of(scored)
    line = '{"id": %s, "schema_id": %s, "method": %s, "raw_score": %s, "label": %d}\n'
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.writelines(
            line % (encode_basestring_ascii(rid), encode_basestring_ascii(schema_id),
                    encode_basestring_ascii(method), repr(float(raw)), label)
            for rid, schema_id, method, raw, label in zip(*columns._columns())
        )


def _scored_from_obj(obj: Any) -> ScoredRecord:
    rid = _require(obj, "schema_id", "method", "raw_score", "label")
    method = obj["method"]
    if method not in SCORE_METHODS:
        raise RecordError(rid, "method", f"unknown method {method!r}")
    (raw,) = _floats(rid, "raw_score", (obj["raw_score"],))
    low = -1.0 if method == "variant_alt" else 0.0
    if not (low <= raw <= 1.0):
        raise RecordError(rid, "raw_score", f"{raw!r} outside [{low}, 1] for method {method}")
    return ScoredRecord(
        id=rid,
        schema_id=str(obj["schema_id"]),
        method=method,
        raw_score=raw,
        label=_label(rid, obj["label"]),
    )


def load_scored(path: str | Path) -> ScoredColumns:
    """Read a file written by `write_scored`, under the same rules as
    `load_dataset`: errors name the file line, record and field; ids are unique."""
    return ScoredColumns.of(_read_records(Path(path), _scored_from_obj))
