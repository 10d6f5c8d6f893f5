"""Output checks for benchmark runs.

Each check returns a list of problems; an empty list means the run passed.
A run counts as a failed operation when any check reports a problem.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

from workloads import Inputs

def sha256(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def output_digests(inputs: Inputs) -> dict[str, str]:
    """SHA-256 of every output file, keyed by file name; missing files map to ""."""
    return {Path(p).name: sha256(p) if Path(p).is_file() else "" for p in inputs.outputs}


def check_process(returncode: int, stderr: str) -> list[str]:
    """Exit code 0 and no traceback. Warning lines on stderr are allowed."""
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}: {stderr.strip().splitlines()[-1:]}")
    if "Traceback (most recent call last)" in stderr:
        problems.append("traceback on stderr")
    return problems


def check_repeat(first: dict[str, str], again: dict[str, str]) -> list[str]:
    """Outputs of a repeated run must be byte-identical to the first run's."""
    return [f"{name} differs from the first run" for name in first if again.get(name) != first[name]]


def check_recorded(recorded: dict[str, str], actual: dict[str, str]) -> list[str]:
    """Outputs must match the digests recorded for the default seed.

    report.json has no recorded digest, because the report manifest may
    legitimately grow; _check_cv_compare checks it against report.csv instead.
    """
    return [
        f"{name}: sha256 {actual.get(name)} != recorded {want}"
        for name, want in recorded.items()
        if actual.get(name) != want
    ]


def _csv_rows(path: Path) -> list[dict[str, str]]:
    with path.open(encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _lines(path: Path) -> list[dict]:
    with path.open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _thresholds(path: Path) -> list[str]:
    rows = _csv_rows(path)
    return [] if len(rows) == 4 else [f"thresholds.csv has {len(rows)} rows, want 4"]


def _check_score_long(out: Path, inputs: Inputs) -> list[str]:
    rows = _lines(out / "scored.jsonl")
    want = [f"r{i:06d}" for i in range(inputs.n_items)]
    problems = []
    if sorted(r["id"] for r in rows) != want:
        problems.append(f"scored.jsonl holds {len(rows)} records, want every one of {len(want)}")
    if any(r["method"] != "prod" or not 0.0 <= r["raw_score"] <= 1.0 for r in rows):
        problems.append("scored.jsonl has a wrong method or a score outside [0, 1]")
    return problems


def _check_cv_compare(out: Path, inputs: Inputs) -> list[str]:
    problems = _thresholds(out / "thresholds.csv")
    rows = _csv_rows(out / "report.csv")
    if len(rows) != 5 * 2 + 4:
        problems.append(f"report.csv has {len(rows)} rows, want 14")
    try:
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    except ValueError as exc:
        return problems + [f"report.json does not parse: {exc}"]
    mean = report.get("mean", {})
    for row in rows:
        if row["fold"] != "mean":
            continue
        suffix = "p" if row["calibrator"] == "platt" else "i"
        pairs = (("bs", f"bs_{suffix}"), ("auc", "auc"), ("ece_raw", "ece_raw"), ("ece_cal", f"ece_{suffix}"))
        for col, key in pairs:
            # repr, so that a NaN AUC compares equal to itself
            if row[col] != "" and repr(float(row[col])) != repr(mean.get(key)):
                problems.append(f"report.json mean {key}={mean.get(key)!r} != report.csv {row[col]}")
    methods = [r["method"] for r in _csv_rows(out / "compare.csv")]
    if methods != ["prod", "geo", "min", "avg"]:
        problems.append(f"compare.csv methods {methods}")
    return problems


def _check_schema_level(out: Path, inputs: Inputs) -> list[str]:
    problems = _thresholds(out / "thresholds.csv")
    rows = _csv_rows(out / "schemas.csv")
    want = inputs.stats["schemas_min10"]
    if len(rows) != want + 1 or rows[-1]["schema"] != "micro":
        problems.append(f"schemas.csv has {len(rows)} rows, want {want} schemas and a micro row")
    return problems


def _check_label_exec(out: Path, inputs: Inputs) -> list[str]:
    got = {r["id"]: r["label"] for r in _lines(out / "labeled.jsonl")}
    if got.keys() != inputs.expected_labels.keys():
        return [f"labeled.jsonl holds {len(got)} pairs, want {len(inputs.expected_labels)}"]
    wrong = sorted(pid for pid, label in inputs.expected_labels.items() if got[pid] != label)
    return [f"{len(wrong)} labels differ from the constructed answer, first {wrong[0]}"] if wrong else []


_CONTENT_CHECKS = {
    "score_long": _check_score_long,
    "cv_compare": _check_cv_compare,
    "schema_level": _check_schema_level,
    "label_exec": _check_label_exec,
}


def check_content(workload: str, inputs: Inputs) -> list[str]:
    """Workload-specific checks that need no recorded digest."""
    out = Path(inputs.outputs[0]).parent
    missing = [p for p in inputs.outputs if not Path(p).is_file()]
    if missing:
        return [f"missing output {p}" for p in missing]
    try:
        return _CONTENT_CHECKS[workload](out, inputs)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed output: {exc!r}"]
