"""Prediction records and their line-delimited file format.

One record per line, JSON-encoded, UTF-8; numbers are JSON numbers, never
strings or booleans. Recognized fields:

    id               string, or a number read as one; unique within a file
    schema_id        string, or a number read as one; the target database/schema
    question         string, optional (null is absent)
    token_probs      list of floats in (0, 1], optional, nonempty when present
    label            0 or 1 (execution-match correctness)
    self_check_bool  object {p_true, p_false}, optional; both finite and
                     nonnegative, p_true + p_false > 0
    verbalized_prob  float in [0, 1], optional
    alternatives     list of {score, equivalent}, optional; scores in
                     [0, 1], equivalent true or false

Unknown fields are preserved on the record and written back by the
serializer, but are otherwise ignored.

A line is checked in two steps, both run by `_checked`: the type and label
rules give plain values, then `_check_values` applies the value rules. A
line whose fields all have their plain JSON types passes the type rules in
one inline test of `_checked`; every other line takes `_fields`, which calls
the rule helper of each field to convert another type or raise.
A value given in code is checked by `_checked` too, on the line `_line_value`
shapes for it: a `PredictionRecord` as the line it would write, and each
argument of the scalar scorers of `scoring` as a line holding that one field.
So every rule and error text comes from one place.
"""

from __future__ import annotations

import json
import math
import numbers
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, NamedTuple, Sequence


class RecordError(ValueError):
    """A single record violates the data model.

    Carries the offending record id (None for a bad id or a scalar), field
    name and message, so callers can report precisely which input is bad.
    """

    def __init__(self, record_id: str | None, field_name: str, message: str):
        self.record_id = record_id
        self.field_name = field_name
        self.message = message
        where = f"field {field_name!r}: {message}"
        super().__init__(where if record_id is None else f"record {record_id!r}: {where}")


class DatasetError(ValueError):
    """A file-level problem: malformed line, duplicate id, empty dataset."""


class Alternative(NamedTuple):
    """A candidate variant SQL as a (score, equivalent) pair: its raw score
    and whether it is semantically equivalent to the prediction."""

    score: float
    equivalent: bool


@dataclass(frozen=True)
class PredictionRecord:
    """One generated SQL with its probabilities, optional self-check outputs,
    optional alternatives, and 0/1 correctness label. Its `id` and `schema_id`
    are strings: a number becomes one only when it is read from JSON. It is
    checked as the line it would write and holds the checked values."""

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
        _string_ids(self.id, self.schema_id)
        # a line's keys are strings: {1: "x"} would be read back as {"1": "x"}
        if not isinstance(self.extra, Mapping) or not all(isinstance(k, str) for k in self.extra):
            raise RecordError(self.id, "extra", "must be a mapping with string keys")
        for name in sorted(self.extra.keys() & _KNOWN_FIELDS):  # it would overwrite the field
            raise RecordError(self.id, name, "is a record field, not an extra one")
        *_, token_probs, self_check, verbalized, alternatives = _checked(_record_to_obj(self))
        if token_probs is not None:
            object.__setattr__(self, "token_probs", tuple(token_probs))
        if self_check is not None:
            object.__setattr__(self, "self_check_bool", tuple(self_check))
        object.__setattr__(self, "verbalized_prob", verbalized)
        if alternatives is not None:
            object.__setattr__(self, "alternatives", tuple(map(Alternative._make, alternatives)))


@dataclass(frozen=True)
class Dataset:
    records: tuple[PredictionRecord, ...]


# Fields the parser understands, in the order of the record and of its line;
# everything else lands in `extra`.
_KNOWN_FIELDS = (
    "id",
    "schema_id",
    "label",
    "question",
    "token_probs",
    "self_check_bool",
    "verbalized_prob",
    "alternatives",
)


def _is_real(kind: type) -> bool:
    """The number rule: a `numbers.Real`, not a bool. Of the JSON types, an
    int or a float; numpy's floats and ints pass, `numpy.True_` does not."""
    return issubclass(kind, numbers.Real) and not issubclass(kind, bool)


def _floats(rid: str, field_name: str, values: Sequence[Any]) -> Sequence[float]:
    """JSON numbers as floats, by `_is_real` (no bool, no string); all floats as given."""
    types = set(map(type, values))
    if types == {float}:
        return values
    if all(map(_is_real, types)):
        try:
            return list(map(float, values))
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


def _string_ids(rid: Any, schema_id: Any) -> None:
    for where, name, value in ((None, "id", rid), (rid, "schema_id", schema_id)):
        if not isinstance(value, str):  # a number becomes a string only when read from JSON
            _ident(where, name, value)  # load's text for what is not a number
            raise RecordError(where, name, "must be a string")


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


def _alternative(rid: str, entry: Any) -> tuple[float, bool]:
    if not isinstance(entry, dict) or "score" not in entry or "equivalent" not in entry:
        raise RecordError(rid, "alternatives", "each entry needs score and equivalent")
    (score,) = _floats(rid, "alternatives", (entry["score"],))
    if not isinstance(entry["equivalent"], bool):
        raise RecordError(rid, "alternatives", "equivalent must be true or false")
    return score, entry["equivalent"]


def _fields(obj: Any) -> tuple:
    """The type rules and the label rule of a prediction line, each field by
    its rule helper. Returns its id, schema id and label, then the scored
    fields as plain values, each None when absent: token_probs as a list of
    floats, self_check_bool as a pair of floats, verbalized_prob as a float,
    alternatives as a list of (score, equivalent) pairs. Their values are
    left to `_check_values`."""
    rid = _require(obj, "schema_id", "label")
    if not isinstance(obj.get("question"), (str, type(None))):
        raise RecordError(rid, "question", "must be a string")

    token_probs = obj.get("token_probs")
    if token_probs is not None:
        if not isinstance(token_probs, list):
            raise RecordError(rid, "token_probs", "must be a list of numbers")
        token_probs = _floats(rid, "token_probs", token_probs)

    self_check = raw = obj.get("self_check_bool")
    if raw is not None:
        if not isinstance(raw, dict) or "p_true" not in raw or "p_false" not in raw:
            raise RecordError(rid, "self_check_bool", "must be an object with p_true and p_false")
        self_check = _floats(rid, "self_check_bool", (raw["p_true"], raw["p_false"]))

    alternatives = obj.get("alternatives")
    if alternatives is not None:
        if not isinstance(alternatives, list):
            raise RecordError(rid, "alternatives", "must be a list of {score, equivalent}")
        alternatives = [_alternative(rid, entry) for entry in alternatives]

    verbalized = obj.get("verbalized_prob")
    if verbalized is not None:
        (verbalized,) = _floats(rid, "verbalized_prob", (verbalized,))
    return (rid, _ident(rid, "schema_id", obj["schema_id"]), _label(rid, obj["label"]),
            token_probs, self_check, verbalized, alternatives)


def _check_values(rid: str, token_probs: Sequence[float] | None, self_check: Sequence[float] | None,
                  verbalized: float | None, alternatives: Iterable[tuple[float, bool]] | None) -> None:
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
        if not (math.isfinite(p_true) and math.isfinite(p_false)):
            raise RecordError(rid, "self_check_bool", "probabilities must be finite")
        if p_true < 0 or p_false < 0:
            raise RecordError(rid, "self_check_bool", "probabilities must be nonnegative")
        if p_true + p_false <= 0:
            raise RecordError(rid, "self_check_bool",
                              "degenerate self-check: p_true + p_false must be positive")
    for score, _ in alternatives or ():
        if not (0.0 <= score <= 1.0):
            problem = "outside [0, 1]" if math.isfinite(score) else "is not finite"
            raise RecordError(rid, "alternatives", f"score {score!r} {problem}")
    if verbalized is not None and not (0.0 <= verbalized <= 1.0):
        raise RecordError(rid, "verbalized_prob", f"must lie in [0, 1], got {verbalized!r}")


def _checked(obj: Any) -> tuple:
    """The plain values of `_fields`, checked by `_check_values`. A line whose
    fields all have their plain JSON types (str ids, an int 0/1 label, a str
    or null question, floats for every number of the scored fields and bools
    for `equivalent`) passes one inline test instead of `_fields`; any other
    line takes `_fields`, which converts what it may and raises on the rest."""
    get = obj.get if type(obj) is dict else {}.get
    rid, schema_id, label, tokens = get("id"), get("schema_id"), get("label"), get("token_probs")
    check, verbalized, alts = get("self_check_bool"), get("verbalized_prob"), get("alternatives")
    if type(rid) is type(schema_id) is str and type(label) is int and label in (0, 1) \
            and isinstance(get("question"), (str, type(None))) \
            and (tokens is None or type(tokens) is list and set(map(type, tokens)) <= {float}) \
            and (check is None or type(check) is dict
                 and type(check.get("p_true")) is type(check.get("p_false")) is float) \
            and (verbalized is None or type(verbalized) is float) \
            and (alts is None or type(alts) is list and all(
                type(e) is dict and type(e.get("score")) is float
                and type(e.get("equivalent")) is bool for e in alts)):
        check = None if check is None else (check["p_true"], check["p_false"])
        alts = None if alts is None else [(e["score"], e["equivalent"]) for e in alts]
    else:
        rid, schema_id, label, tokens, check, verbalized, alts = _fields(obj)
    _check_values(rid, tokens, check, verbalized, alts)
    return rid, schema_id, label, tokens, check, verbalized, alts


def _record_from_obj(obj: Any) -> PredictionRecord:
    rid, schema_id, label, *values = _checked(obj)
    return PredictionRecord(rid, schema_id, label, obj.get("question"), *values,
                            extra={k: v for k, v in obj.items() if k not in _KNOWN_FIELDS})


_scan_once = json.JSONDecoder().scan_once


def _decode_line(line: str) -> Any:
    """`json.loads(line)` for a stripped nonempty line: one scan for a value
    at its start and a check that the value ends the line. A line that fails
    either is decoded again by `json.loads`, which raises json's own error
    ("Extra data" for text after the value, "Unexpected UTF-8 BOM" for a
    leading byte-order mark)."""
    try:
        obj, end = _scan_once(line, 0)
        if end == len(line):
            return obj
    except (ValueError, StopIteration):  # StopIteration: no value at the start
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
    return Dataset(records=_read_records(Path(path), _record_from_obj))


_PAIR_KEYS = {"self_check_bool": ("p_true", "p_false"), "alternative": ("score", "equivalent")}


def _line_value(name: str, value: Any) -> Any:
    """A value given in code for the field `name` in the shape a line holds
    it: a sequence of token probabilities or of alternatives as a list, a
    self-check pair or an alternative pair (`name` "alternative") as its
    object. Any other value, a 0-d array among them, is left for `_fields`
    to name with its own text."""
    if getattr(value, "ndim", None) == 0 or not isinstance(value, (list, tuple)) and (
            isinstance(value, (str, bytes, Mapping)) or not isinstance(value, Iterable)):
        return value
    if name in _PAIR_KEYS:
        pair = tuple(value)
        return dict(zip(_PAIR_KEYS[name], pair)) if len(pair) == 2 else value
    if name == "alternatives":
        return [_line_value("alternative", entry) for entry in value]
    return list(value) if name == "token_probs" else value


def _values_to_obj(rid: str, schema_id: str, label: int, question: str | None, token_probs: Any,
                   self_check: Any, verbalized: Any, alternatives: Any,
                   extra: Mapping[str, Any]) -> dict[str, Any]:
    """The line of a record's values: the fields in their order, each absent
    one left out and each present one in the shape `_line_value` gives, then
    `extra` by key."""
    obj: dict[str, Any] = {"id": rid, "schema_id": schema_id, "label": label}
    values = question, token_probs, self_check, verbalized, alternatives
    for name, value in zip(_KNOWN_FIELDS[3:], values):
        if value is not None:
            obj[name] = _line_value(name, value)
    for k in sorted(extra):
        obj[k] = extra[k]
    return obj


def _record_to_obj(r: PredictionRecord) -> dict[str, Any]:
    return _values_to_obj(*(getattr(r, name) for name in _KNOWN_FIELDS), r.extra)


def _write_lines(objs: Iterable[Any], path: str | Path) -> None:
    """Write line objects to a line-delimited file. Every line is serialized
    before the file is opened, so a line that cannot be written leaves an
    existing file as it was."""
    Path(path).write_text("".join([json.dumps(obj) + "\n" for obj in objs]), encoding="utf-8")


def write_dataset(dataset: Dataset, path: str | Path) -> None:
    """Serialize a Dataset back to the line-delimited format, by `_write_lines`.
    load_dataset(write_dataset(d)) reproduces semantically identical records."""
    _write_lines(map(_record_to_obj, dataset.records), path)
