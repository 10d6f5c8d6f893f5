"""Raw confidence scores for prediction records.

Four pooling rules reduce per-token probabilities to one sequence score
(prod, geo, min, avg); two self-check rules read follow-up probe outputs;
the variant rule scores a prediction relative to its best inequivalent
alternative.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Sequence

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


@dataclass(frozen=True)
class ScoringResult:
    scored: tuple[ScoredRecord, ...]
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
    scored: list[ScoredRecord] = []
    skipped: list[tuple[str, str]] = []
    for record in dataset.records:
        try:
            raw = score_record(record, method)
        except SkipRecord as exc:
            skipped.append((record.id, str(exc)))
            continue
        scored.append(
            ScoredRecord(
                id=record.id,
                schema_id=record.schema_id,
                method=method,
                raw_score=raw,
                label=record.label,
            )
        )
    return ScoringResult(scored=tuple(scored), skipped=tuple(skipped))


def write_scored(scored: Iterable[ScoredRecord], path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for s in scored:
            fh.write(
                json.dumps(
                    {
                        "id": s.id,
                        "schema_id": s.schema_id,
                        "method": s.method,
                        "raw_score": s.raw_score,
                        "label": s.label,
                    }
                )
                + "\n"
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


def load_scored(path: str | Path) -> tuple[ScoredRecord, ...]:
    """Read a file written by `write_scored`, under the same rules as
    `load_dataset`: errors name the file line, record and field; ids are unique."""
    return _read_records(Path(path), _scored_from_obj)
