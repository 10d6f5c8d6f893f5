"""Raw confidence scores for prediction records.

Four pooling rules reduce per-token probabilities to one sequence score
(prod, geo, min, avg); two self-check rules read follow-up probe outputs;
the variant rule scores a prediction relative to its best inequivalent
alternative.

Scored records have one form, `ScoredColumns`: one tuple per field (id,
schema id, method, raw score, label), with no object per record. The
scorer, the reader and the writer of scored files, the evaluators and the
CLI all work on those columns.

`score_file` scores a prediction file in one pass that keeps no record or
token list past its line; `score_dataset` scores records already loaded.
Both take their scores from `_scores`, on a record's plain field values;
the scalar scorers check theirs by the record rules, `records._check_values`.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, fields
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any

from .records import (
    Alternative,
    Dataset,
    PredictionRecord,
    RecordError,
    _check_values,
    _checked,
    _floats,
    _ident,
    _label,
    _read_records,
    _require,
    _values,
)

POOLING_METHODS = ("prod", "geo", "min", "avg")
SCORE_METHODS = POOLING_METHODS + ("self_check_bool", "self_check_probs", "variant_alt")


class SkipRecord(Exception):
    """The record lacks the fields a scoring method needs; skip, don't fail."""


@dataclass(frozen=True)
class ScoredColumns:
    """Scored records as five columns of equal length, one tuple per field.
    A column given as another iterable is stored as a tuple."""

    ids: tuple[str, ...]
    schema_ids: tuple[str, ...]
    methods: tuple[str, ...]
    raw_scores: tuple[float, ...]
    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        columns = [(f.name, tuple(getattr(self, f.name))) for f in fields(self)]
        if len({len(column) for _, column in columns}) > 1:
            raise ValueError(f"columns of unequal length: {[len(c) for _, c in columns]}")
        for name, column in columns:
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class ScoringResult:
    scored: ScoredColumns
    skipped: tuple[tuple[str, str], ...]  # (record id, reason)


def _self_check_ratio(p_true: float, p_false: float) -> float:
    """`score_self_check_bool`, unchecked."""
    total = p_true + p_false
    if total == math.inf:  # halves in the same ratio, with a finite sum
        p_true, p_false = p_true / 2, p_false / 2
        total = p_true + p_false
    return p_true / total


def _variant_alt(r_pred: float, alternatives: Iterable[tuple[float, bool]]) -> float:
    """`score_variant_alt` on (score, equivalent) pairs, unchecked."""
    best = 0.0
    for score, equivalent in alternatives:
        if not equivalent:
            best = max(best, score)
    return r_pred - best


def _scores(token_probs: Sequence[float] | None, self_check: Sequence[float] | None,
            verbalized: float | None, alternatives: Sequence[tuple[float, bool]] | None,
            methods: Sequence[str]) -> list[float | str]:
    """The raw score of each of `methods`, or the reason it skips the record
    (a str), from the record's checked plain values (see
    `records._fields`). prod, geo and variant_alt share one sum of logs."""
    log_sum = None
    scores: list[float | str] = []
    for method in methods:
        if method == "self_check_bool":
            scores.append("missing self_check_bool" if self_check is None
                          else _self_check_ratio(*self_check))
        elif method == "self_check_probs":
            scores.append("missing verbalized_prob" if verbalized is None else float(verbalized))
        elif method == "variant_alt" and alternatives is None:
            scores.append("missing alternatives")
        elif token_probs is None:
            scores.append("missing token_probs")
        elif method == "min":
            scores.append(float(min(token_probs)))
        elif method == "avg":
            scores.append(math.fsum(token_probs) / len(token_probs))
        else:  # prod and geo; variant_alt starts from prod
            if len(token_probs) == 1:
                pooled = float(token_probs[0])
            else:
                if log_sum is None:
                    log_sum = math.fsum(map(math.log, token_probs))
                pooled = math.exp(log_sum / len(token_probs) if method == "geo" else log_sum)
            scores.append(_variant_alt(pooled, alternatives) if method == "variant_alt"
                          else pooled)
    return scores


def pool_prod(token_probs: Sequence[float]) -> float:
    """Product of token probabilities, computed in log space.

    The exponentiated result may underflow to 0.0 for very long sequences;
    downstream calibrators accept that.
    """
    _check_values(None, token_probs)
    return _scores(token_probs, None, None, None, ("prod",))[0]


def pool_geo(token_probs: Sequence[float]) -> float:
    """Geometric mean of token probabilities via the mean of logs."""
    _check_values(None, token_probs)
    return _scores(token_probs, None, None, None, ("geo",))[0]


def pool_min(token_probs: Sequence[float]) -> float:
    """Minimum token probability."""
    _check_values(None, token_probs)
    return _scores(token_probs, None, None, None, ("min",))[0]


def pool_avg(token_probs: Sequence[float]) -> float:
    """Arithmetic mean of token probabilities."""
    _check_values(None, token_probs)
    return _scores(token_probs, None, None, None, ("avg",))[0]


def score_self_check_bool(p_true: float, p_false: float) -> float:
    """Normalized probability of the "correct" option token."""
    _check_values(None, self_check=(p_true, p_false))
    return _self_check_ratio(p_true, p_false)


def score_self_check_probs(verbalized_prob: float) -> float:
    """The model's stated probability, passed through unchanged."""
    _check_values(None, verbalized=verbalized_prob)
    return float(verbalized_prob)


def score_variant_alt(r_pred: float, alternatives: Sequence[Alternative]) -> float:
    """Predicted score minus the best score among inequivalent alternatives.

    With no inequivalent alternative the competing score is taken as 0, so
    an unrivaled prediction keeps its own confidence.
    """
    if not (0.0 <= r_pred <= 1.0):
        raise ValueError(f"predicted score {r_pred!r} outside [0, 1]")
    pairs = [(alt.score, alt.equivalent) for alt in alternatives]
    _check_values(None, alternatives=pairs)
    return _variant_alt(r_pred, pairs)


def _check_methods(methods: Sequence[str]) -> None:
    for method in methods:
        if method not in SCORE_METHODS:
            raise ValueError(f"unknown scoring method {method!r}")


def score_record(record: PredictionRecord, method: str) -> float:
    """Raw confidence of one record under `method`.

    Raises SkipRecord when the record lacks the fields the method needs.
    """
    _check_methods((method,))
    (score,) = _scores(*_values(record), (method,))
    if isinstance(score, str):
        raise SkipRecord(score)
    return score


def _result(method: str, rows: list[tuple[str, str, int, float | str]]) -> ScoringResult:
    """The scored columns and skips, in row order, of (id, schema id, label,
    score or skip reason) rows."""
    kept = [row for row in rows if not isinstance(row[3], str)]
    ids, schema_ids, labels, raw_scores = zip(*kept) if kept else ((),) * 4
    skipped = tuple((row[0], row[3]) for row in rows if isinstance(row[3], str))
    return ScoringResult(ScoredColumns(ids, schema_ids, (method,) * len(ids), raw_scores, labels),
                         skipped)


def score_dataset(dataset: Dataset, method: str) -> ScoringResult:
    """Score every applicable record; collect inapplicable ones in a skip report.

    Both the scored records and the skips keep dataset order.
    """
    _check_methods((method,))
    return _result(method, [(r.id, r.schema_id, r.label, *_scores(*_values(r), (method,)))
                            for r in dataset.records])


def score_file(path: str | Path, methods: Sequence[str]) -> dict[str, ScoringResult]:
    """`score_dataset(load_dataset(path), m)` for each of `methods`, in one
    pass that builds no record: each line is checked by `load_dataset`'s
    rules and reduced at once to its id, schema id, label and scores."""
    _check_methods(methods)

    def parse(obj: Any) -> tuple[str, str, int, tuple[float | str, ...]]:
        rid, schema_id, label, *values = _checked(obj)
        return rid, schema_id, label, tuple(_scores(*values, methods))

    rows = _read_records(Path(path), parse)
    return {method: _result(method, [(rid, schema_id, label, scores[i])
                                     for rid, schema_id, label, scores in rows])
            for i, method in enumerate(methods)}


def write_scored(scored: ScoredColumns, path: str | Path) -> None:
    """One JSON object per record, with the keys id, schema_id, method,
    raw_score and label: the bytes `json.dumps` writes for that dict."""
    line = '{"id": %s, "schema_id": %s, "method": %s, "raw_score": %s, "label": %d}\n'
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.writelines(
            line % (encode_basestring_ascii(rid), encode_basestring_ascii(schema_id),
                    encode_basestring_ascii(method), repr(float(raw)), label)
            for rid, schema_id, method, raw, label in zip(
                scored.ids, scored.schema_ids, scored.methods, scored.raw_scores, scored.labels)
        )


def _scored_from_obj(obj: Any) -> tuple[str, str, str, float, int]:
    rid = _require(obj, "schema_id", "method", "raw_score", "label")
    method = obj["method"]
    if method not in SCORE_METHODS:
        raise RecordError(rid, "method", f"unknown method {method!r}")
    (raw,) = _floats(rid, "raw_score", (obj["raw_score"],))
    low = -1.0 if method == "variant_alt" else 0.0
    if not (low <= raw <= 1.0):
        raise RecordError(rid, "raw_score", f"{raw!r} outside [{low}, 1] for method {method}")
    return rid, _ident(rid, "schema_id", obj["schema_id"]), method, raw, _label(rid, obj["label"])


def load_scored(path: str | Path) -> ScoredColumns:
    """Read a file written by `write_scored`, under the same rules as
    `load_dataset`: errors name the file line, record and field; ids are unique."""
    return ScoredColumns(*zip(*_read_records(Path(path), _scored_from_obj)))
