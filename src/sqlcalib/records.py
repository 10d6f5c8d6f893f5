"""Prediction records and their line-delimited file format.

One record per line, JSON-encoded, UTF-8; numbers are JSON numbers, never
strings or booleans. Recognized fields:

    id               string, or a number read as one; unique within a file
    schema_id        string, or a number read as one; the target database/schema
    question         string, optional
    token_probs      list of floats in (0, 1], optional, nonempty when present
    label            0 or 1 (execution-match correctness)
    self_check_bool  object {p_true, p_false}, optional; both finite and
                     nonnegative, p_true + p_false > 0
    verbalized_prob  float in [0, 1], optional
    alternatives     list of {score, equivalent}, optional; scores in
                     [0, 1], equivalent true or false

Unknown fields are preserved on the record and written back by the
serializer, but are otherwise ignored.

A line is checked in two steps, both run by `_checked`: `_fields` applies
the type and label rules and returns plain values, `_check_values` the value
rules. `PredictionRecord` and the scalar scorers of `scoring` check by
`_check_values` too, so every error text comes from one place.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence


class RecordError(ValueError):
    """A single record violates the data model.

    Carries the offending record id (None for a bad id or a scalar) and
    field name so callers can report precisely which input is bad.
    """

    def __init__(self, record_id: str | None, field_name: str, message: str):
        self.record_id = record_id
        self.field_name = field_name
        where = f"field {field_name!r}: {message}"
        super().__init__(where if record_id is None else f"record {record_id!r}: {where}")


class DatasetError(ValueError):
    """A file-level problem: malformed line, duplicate id, empty dataset."""


@dataclass(frozen=True)
class Alternative:
    """A candidate variant SQL: its raw score and whether it is semantically
    equivalent to the prediction."""

    score: float
    equivalent: bool


@dataclass(frozen=True)
class PredictionRecord:
    """One generated SQL with its probabilities, optional self-check outputs,
    optional alternatives, and 0/1 correctness label."""

    id: str
    schema_id: str
    label: int
    question: str | None = None
    token_probs: tuple[float, ...] | None = None
    self_check_bool: tuple[float, float] | None = None
    verbalized_prob: float | None = None
    alternatives: tuple[Alternative, ...] | None = None
    extra: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _label(self.id, self.label)
        _check_values(self.id, *_values(self))


@dataclass(frozen=True)
class Dataset:
    records: tuple[PredictionRecord, ...]
    source_name: str


# Fields the parser understands; everything else lands in `extra`.
_KNOWN_FIELDS = (
    "id",
    "schema_id",
    "question",
    "token_probs",
    "label",
    "self_check_bool",
    "verbalized_prob",
    "alternatives",
)


def make_dataset(records: Iterable[PredictionRecord], source_name: str) -> Dataset:
    """Assemble a Dataset, enforcing nonemptiness and id uniqueness."""
    recs = tuple(records)
    if not recs:
        raise DatasetError(f"empty dataset: {source_name}")
    seen: set[str] = set()
    for r in recs:
        if r.id in seen:
            raise DatasetError(f"duplicate record id {r.id!r} in {source_name}")
        seen.add(r.id)
    return Dataset(records=recs, source_name=source_name)


def _floats(rid: str, field_name: str, values: Sequence[Any]) -> tuple[float, ...]:
    """JSON numbers as floats: an int or a float, not a bool and not a string."""
    types = set(map(type, values))
    if types == {float}:
        return tuple(values)
    if types <= {int, float}:
        try:
            return tuple(map(float, values))
        except OverflowError:  # an integer too large for a float
            pass
    raise RecordError(rid, field_name, "must be a number")


def _label(rid: str, value: Any) -> int:
    """The one label rule: the integer 0 or 1, not a bool and not 1.0."""
    if not isinstance(value, int) or isinstance(value, bool) or value not in (0, 1):
        raise RecordError(rid, "label", f"must be the integer 0 or 1, got {value!r}")
    return value


def _ident(rid: str | None, field_name: str, value: Any) -> str:
    """An id or schema id: a string, or a JSON number read as its string."""
    if isinstance(value, (str, int, float)) and not isinstance(value, bool):
        return str(value)
    raise RecordError(rid, field_name, "must be a string or a number")


def _require(obj: Any, *fields: str) -> str:
    """The id of a decoded line that is an object holding `id` and `fields`."""
    if not isinstance(obj, dict):
        raise ValueError(f"expected an object, got {type(obj).__name__}")
    if "id" not in obj:
        raise ValueError("missing required field 'id'")
    rid = _ident(None, "id", obj["id"])
    for name in fields:
        if name not in obj:
            raise RecordError(rid, name, "missing required field")
    return rid


def _fields(obj: Any) -> tuple:
    """The type rules and the label rule of a prediction line. Returns its
    id, schema id and label, then the scored fields as plain values, each
    None when absent: token_probs and self_check_bool as tuples of floats,
    verbalized_prob as a float, alternatives as a tuple of (score,
    equivalent) pairs. Their values are left to `_check_values`."""
    rid = _require(obj, "schema_id", "label")

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


def _values(record: PredictionRecord) -> tuple:
    """The scored fields of a record as the plain values of `_fields`."""
    alternatives = record.alternatives
    if alternatives is not None:
        alternatives = tuple((alt.score, alt.equivalent) for alt in alternatives)
    return record.token_probs, record.self_check_bool, record.verbalized_prob, alternatives


def _checked(obj: Any) -> tuple:
    """The plain values of `_fields`, checked by `_check_values` too."""
    fields = _fields(obj)
    _check_values(fields[0], *fields[3:])
    return fields


def _record_from_obj(obj: Any) -> PredictionRecord:
    rid, schema_id, label, token_probs, self_check, verbalized, alternatives = _fields(obj)
    return PredictionRecord(
        id=rid,
        schema_id=schema_id,
        label=label,
        question=None if obj.get("question") is None else str(obj["question"]),
        token_probs=token_probs,
        self_check_bool=self_check,
        verbalized_prob=verbalized,
        alternatives=None if alternatives is None else tuple(Alternative(*a) for a in alternatives),
        extra={k: v for k, v in obj.items() if k not in _KNOWN_FIELDS},
    )


_raw_decode = json.JSONDecoder().raw_decode


def _decode_line(line: str) -> Any:
    """`json.loads(line)` for a stripped nonempty line: one `raw_decode` and
    a check that the value ends the line. A line that fails either is
    decoded again by `json.loads`, which raises json's own error ("Extra
    data" for text after the value, "Unexpected UTF-8 BOM" for a leading
    byte-order mark)."""
    try:
        obj, end = _raw_decode(line)
        if end == len(line):
            return obj
    except ValueError:
        pass
    return json.loads(line)


def _read_records(path: Path, parse: Callable[[Any], Any]) -> tuple:
    """Every nonblank line of a line-delimited JSON file, parsed by `parse`.
    Errors name `<file>:<line>:`; ids must be unique and the file nonempty."""
    items = []
    seen: set[str] = set()
    with path.open("rb") as fh:
        # bytes.splitlines ends a line at \n, \r or \r\n, as text mode does
        for lineno, raw in enumerate((part for line in fh for part in line.splitlines()), start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise DatasetError(f"{path}:{lineno}: not UTF-8: {exc}") from exc
            if not line:
                continue
            try:
                obj = _decode_line(line)
            except (ValueError, RecursionError) as exc:
                # ValueError also covers integer literals past the digit limit
                raise DatasetError(f"{path}:{lineno}: malformed line: {exc}") from exc
            try:
                item = parse(obj)
            except RecordError as exc:
                exc.args = (f"{path}:{lineno}: {exc}",)
                raise
            except (ValueError, TypeError) as exc:
                raise DatasetError(f"{path}:{lineno}: invalid record: {exc}") from exc
            rid = str(obj["id"])  # the id that `parse` checked
            if rid in seen:
                raise DatasetError(f"{path}:{lineno}: duplicate record id {rid!r}")
            seen.add(rid)
            items.append(item)
    if not items:
        raise DatasetError(f"empty dataset: {path}")
    return tuple(items)


def load_dataset(path: str | Path) -> Dataset:
    """Read a line-delimited record file into a validated Dataset.

    Records keep file order. Malformed lines are reported with their line
    number; invariant violations with the line, record id and field name.
    """
    path = Path(path)
    return Dataset(records=_read_records(path, _record_from_obj), source_name=path.name)


def _record_to_obj(r: PredictionRecord) -> dict[str, Any]:
    obj: dict[str, Any] = {"id": r.id, "schema_id": r.schema_id, "label": r.label}
    if r.question is not None:
        obj["question"] = r.question
    if r.token_probs is not None:
        obj["token_probs"] = list(r.token_probs)
    if r.self_check_bool is not None:
        obj["self_check_bool"] = {"p_true": r.self_check_bool[0], "p_false": r.self_check_bool[1]}
    if r.verbalized_prob is not None:
        obj["verbalized_prob"] = r.verbalized_prob
    if r.alternatives is not None:
        obj["alternatives"] = [{"score": a.score, "equivalent": a.equivalent} for a in r.alternatives]
    for k in sorted(r.extra):
        obj[k] = r.extra[k]
    return obj


def write_dataset(dataset: Dataset, path: str | Path) -> None:
    """Serialize a Dataset back to the line-delimited format.

    load_dataset(write_dataset(d)) reproduces semantically identical records.
    """
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for r in dataset.records:
            fh.write(json.dumps(_record_to_obj(r)) + "\n")
