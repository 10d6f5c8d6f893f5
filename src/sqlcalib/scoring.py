"""Raw confidence scores for prediction records.

Four pooling rules reduce per-token probabilities to one sequence score
(prod, geo, min, avg); two self-check rules read follow-up probe outputs;
the variant rule scores a prediction relative to its best inequivalent
alternative.

Scored records have one form, `ScoredColumns`: their scoring method and one
tuple per field (id, schema id, raw score, label), with no object per
record, each row under a scored file's rules. The scorer, the reader and
the writer of scored files, the evaluators and the CLI use those columns.

`score_file` scores a prediction file in one pass that keeps no line or
token list past its line; `score_dataset` scores lines already loaded or
built in code. Both take their scores from `_scores`, on the plain values
`records._checked` gives each line, and so do the scalar scorers, on the
values it gives a line holding their argument as its one field: that line's
rules and error texts.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any

from .records import (
    DatasetError,
    RecordError,
    _checked,
    _floats,
    _ident,
    _is_real,
    _label,
    _line_value,
    _read_records,
    _require,
    _string_ids,
)

POOLING_METHODS = ("prod", "geo", "min", "avg")
SCORE_METHODS = POOLING_METHODS + ("self_check_bool", "self_check_probs", "variant_alt")


@dataclass(frozen=True)
class ScoredColumns:
    """Scored records of one method as four columns of equal length, stored as
    tuples; each row follows the rules of `load_scored`, its ids as strings."""

    ids: tuple[str, ...]
    schema_ids: tuple[str, ...]
    method: str
    raw_scores: tuple[float, ...]
    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_methods((self.method,))
        for name in ("ids", "schema_ids", "raw_scores", "labels"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        columns = ids, sids, raw, labels = self.ids, self.schema_ids, self.raw_scores, self.labels
        if len(set(map(len, columns))) > 1:
            raise ValueError(f"columns of unequal length: {list(map(len, columns))}")
        low = -1.0 if self.method == "variant_alt" else 0.0  # a NaN can pass min and max, not sum
        if not ({*map(type, ids), *map(type, sids)} <= {str} and set(labels) <= {0, 1}
                and set(map(type, labels)) <= {int} and set(map(type, raw)) <= {float}
                and low <= min(raw or [0]) and max(raw or [0]) <= 1 and not math.isnan(sum(raw))):
            keys = "id", "schema_id", "raw_score", "label"
            for row in zip(*columns):  # the first bad row raises
                _string_ids(*row[:2])
                _scored_from_obj(dict(zip(keys, row), method=self.method))

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
    `records._checked`). prod, geo and variant_alt share one sum of logs."""
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


def _field(name: str, value: Any) -> tuple:
    """The plain values `_checked` gives `_scores` for a line holding `value`
    as its one field `name`, or its error without the record; None is missing."""
    if value is None:
        raise RecordError(None, name, "missing required field")
    try:
        return _checked({"id": "", "schema_id": "", "label": 0, name: _line_value(name, value)})[3:]
    except RecordError as exc:
        raise RecordError(None, exc.field_name, exc.message) from None


def pool_prod(token_probs: Sequence[float]) -> float:
    """Product of token probabilities, computed in log space.

    The exponentiated result may underflow to 0.0 for very long sequences;
    downstream calibrators accept that.
    """
    return _scores(*_field("token_probs", token_probs), ("prod",))[0]


def pool_geo(token_probs: Sequence[float]) -> float:
    """Geometric mean of token probabilities via the mean of logs."""
    return _scores(*_field("token_probs", token_probs), ("geo",))[0]


def pool_min(token_probs: Sequence[float]) -> float:
    """Minimum token probability."""
    return _scores(*_field("token_probs", token_probs), ("min",))[0]


def pool_avg(token_probs: Sequence[float]) -> float:
    """Arithmetic mean of token probabilities."""
    return _scores(*_field("token_probs", token_probs), ("avg",))[0]


def score_self_check_bool(p_true: float, p_false: float) -> float:
    """Normalized probability of the "correct" option token."""
    return _scores(*_field("self_check_bool", (p_true, p_false)), ("self_check_bool",))[0]


def score_self_check_probs(verbalized_prob: float) -> float:
    """The model's stated probability, passed through unchanged."""
    return _scores(*_field("verbalized_prob", verbalized_prob), ("self_check_probs",))[0]


def score_variant_alt(r_pred: float, alternatives: Sequence[tuple[float, bool]]) -> float:
    """Predicted score minus the best score among inequivalent alternatives,
    each given as a (score, equivalent) pair.

    With no inequivalent alternative the competing score is taken as 0, so
    an unrivaled prediction keeps its own confidence.
    """
    if not _is_real(type(r_pred)):
        raise ValueError(f"predicted score {r_pred!r} is not a number")
    if not (0.0 <= r_pred <= 1.0):
        raise ValueError(f"predicted score {r_pred!r} outside [0, 1]")
    return _variant_alt(float(r_pred), _field("alternatives", alternatives)[-1])


def _check_methods(methods: Sequence[str]) -> None:
    for method in methods:
        if method not in SCORE_METHODS:
            raise ValueError(f"unknown scoring method {method!r}")


def _result(method: str, ids: Sequence[str] = (), schema_ids: Sequence[str] = (),
            labels: Sequence[int] = (), scores: Sequence[float | str] = ()) -> ScoringResult:
    """The scored columns and skips, in row order, of rows given as columns
    (none for no rows), each row's score a float or its skip reason."""
    skipped = tuple((rid, score) for rid, score in zip(ids, scores) if isinstance(score, str))
    if skipped:
        kept = [row for row in zip(ids, schema_ids, labels, scores) if not isinstance(row[3], str)]
        ids, schema_ids, labels, scores = zip(*kept) if kept else ((),) * 4
    return ScoringResult(ScoredColumns(ids, schema_ids, method, scores, labels), skipped)


def score_dataset(lines: Iterable[Any], method: str) -> ScoringResult:
    """Score every applicable line, each checked by `records._checked`;
    collect inapplicable ones in a skip report. Both the scored records and
    the skips keep line order."""
    _check_methods((method,))
    return _result(method, *zip(*[(rid, schema_id, label, *_scores(*values, (method,)))
                                  for rid, schema_id, label, *values in map(_checked, lines)]))


def score_file(path: str | Path, methods: Sequence[str]) -> dict[str, ScoringResult]:
    """`score_dataset(load_dataset(path), m)` for each of `methods`, in one
    pass that keeps no line: each is checked once by `records._checked` and
    reduced at once to its id, schema id, label and scores."""
    _check_methods(methods)
    schemas: dict[str, str] = {}  # one str per schema id, shared by its rows

    def parse(obj: Any) -> tuple:
        rid, schema_id, label, token_probs, self_check, verbalized, alternatives = _checked(obj)
        return (rid, schemas.setdefault(schema_id, schema_id), label,
                *_scores(token_probs, self_check, verbalized, alternatives, methods))

    ids, schema_ids, labels, *scores = zip(*_read_records(Path(path), parse))
    return {method: _result(method, ids, schema_ids, labels, column)
            for method, column in zip(methods, scores)}


def write_scored(scored: ScoredColumns, path: str | Path) -> None:
    """One JSON object per record, with the keys id, schema_id, method,
    raw_score and label: the bytes `json.dumps` writes for that dict."""
    line = '{"id": %s, "schema_id": %s, "method": %s, "raw_score": %s, "label": %d}\n'
    method = encode_basestring_ascii(scored.method)
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.writelines(
            line % (encode_basestring_ascii(rid), encode_basestring_ascii(schema_id),
                    method, repr(float(raw)), label)
            for rid, schema_id, raw, label in zip(
                scored.ids, scored.schema_ids, scored.raw_scores, scored.labels)
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
    `load_dataset`: errors name the file line, record and field; ids are
    unique, and every record carries the same method."""
    ids, schema_ids, methods, raw_scores, labels = zip(*_read_records(Path(path), _scored_from_obj))
    if len(set(methods)) > 1:
        raise DatasetError(f"{path}: mixed scoring methods in one file: {sorted(set(methods))}")
    return ScoredColumns(ids, schema_ids, methods[0], raw_scores, labels)
