"""Command-line pipeline: validate, score, calibrate, evaluate, report,
label, simulate.

Exit codes: 0 success, 1 data error, 2 usage error. Every data error is a
`ValueError` or an `OSError`, `execmatch.ExecutionError` (a database that
cannot be opened, say) included. Outputs are deterministic for identical
flags and inputs; no file is written until the inputs have validated fully.

Only calibrate, evaluate, report and simulate import the array modules (and
with them numpy), and only label imports `execmatch` (and with it sqlite3),
inside the command. No command builds a record: validate, score, evaluate
and label check each input line once by `records._checked`, and label and
simulate write their lines by `records._write_lines`.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from collections import Counter
from itertools import groupby
from pathlib import Path
from typing import Any

from .records import (
    _KNOWN_FIELDS,
    DatasetError,
    RecordError,
    _checked,
    _read_records,
    _require,
    _values_to_obj,
    _write_lines,
)
from .scoring import POOLING_METHODS, SCORE_METHODS, load_scored, score_file, write_scored

# Not called here; the per-layer tracer of perfbench/ still wraps them at these names.
from .records import load_dataset, write_dataset  # noqa: F401
from .scoring import score_dataset  # noqa: F401

# sorted(protocol.TRUE_MAPS), spelled out so that building the parser loads no numpy
_SIMULATE_MAPS = ("half", "identity", "logistic", "one")


_LAZY = ("cross_validate", "schema_level_evaluate", "SQLiteExecutor", "label_record")


def __getattr__(name: str) -> Any:
    """The evaluators and `label`'s executor and labeler (`_LAZY`), taken from
    the package, which imports their module on first access: importing this
    module loads neither `protocol` (numpy) nor `execmatch` (sqlite3).
    `cmd_evaluate` and `cmd_label` look them up on this module, so a caller
    that replaced them here (a tracer or a test, say) has its replacement run."""
    if name in _LAZY:
        return getattr(sys.modules[__package__], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _parse_thresholds(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ValueError(f"bad threshold list {text!r}: {exc}") from exc
    if not values:
        raise ValueError("threshold list is empty")
    return values


def _timeout(text: str) -> float:
    """A positive finite number of seconds, by `execmatch`'s rule."""
    from .execmatch import _check_timeout

    try:
        return _check_timeout(float(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}") from None


def cmd_validate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    rows = _read_records(Path(args.input), lambda obj: _checked(obj)[1:3])  # schema id, label
    print(f"records: {len(rows)}")
    print(f"schemas: {len({schema_id for schema_id, _ in rows})}")
    print(f"pct_correct: {100.0 * sum(label for _, label in rows) / len(rows):.1f}")
    return 0


def cmd_score(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    result = score_file(args.input, (args.method,))[args.method]
    if not result.scored:
        raise DatasetError(f"no record is scorable with method {args.method}")
    write_scored(result.scored, args.out)
    print(f"scored {len(result.scored)} records, skipped {len(result.skipped)}", file=sys.stderr)
    skipped_ids: dict[str, list[str]] = {}  # by reason
    for rid, reason in result.skipped:
        skipped_ids.setdefault(reason, []).append(rid)
    for reason, ids in skipped_ids.items():
        print(f"skip {reason}: {len(ids)} records, first {ids[0]}", file=sys.stderr)
    return 0


def cmd_calibrate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from . import calibrate as cal

    scored = load_scored(args.scored)
    fit = cal.fit_platt if args.kind == "platt" else cal.fit_isotonic
    calibrator = fit(scored.raw_scores, scored.labels)
    cal.save_calibrator(calibrator, args.out)
    print(f"fitted {args.kind} calibrator on {len(scored)} records -> {args.out}", file=sys.stderr)
    return 0


def _check_bins(args: argparse.Namespace, n_scored: int, what: str) -> None:
    """Under uniform binning, reject more bins than scored records: the
    surplus bins can only stay empty, and building them costs time and
    memory in proportion to `--bins`. Monotonic binning never reads it."""
    if args.binning == "uniform" and args.bins > n_scored:
        raise DatasetError(f"--bins {args.bins} exceeds the {n_scored} records {what}")


def cmd_evaluate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.compare and args.scope == "schema_level":
        parser.error("--compare works only with --scope schema_disjoint")
    from . import report as rpt
    from .protocol import ProtocolConfig

    cli = sys.modules[__name__]  # see __getattr__
    cfg = ProtocolConfig(
        k=args.k,
        binning=args.binning,
        n_bins=args.bins,
        min_bin_count=args.min_bin_count,
        thresholds=_parse_thresholds(args.thresholds),
        seed=args.seed,
        calibrator=args.calibrator,
        tune_fraction=args.tune_fraction,
        min_schema_records=args.min_schema_records,
    )
    source_name = Path(args.input).name
    out_dir = Path(args.out_dir)

    # Every method is scored in one pass over the input, and its --bins
    # bound checked, before any evaluation.
    methods = tuple(dict.fromkeys((args.method, *(POOLING_METHODS if args.compare else ()))))
    scored = {}
    for method, result in score_file(args.input, methods).items():
        if not result.scored:
            raise DatasetError(f"no record is scorable with method {method}")
        _check_bins(args, len(result.scored), f"scored with method {method}")
        if result.skipped:
            print(f"method {method}: skipped {len(result.skipped)} records", file=sys.stderr)
        scored[method] = result.scored

    # one evaluator over every method; each method's columns are freed once evaluated
    evaluate = cli.schema_level_evaluate if args.scope == "schema_level" else cli.cross_validate
    reports = {method: evaluate(scored.pop(method), cfg) for method in methods}
    report = reports[args.method]
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.scope == "schema_level":
        rpt.write_schema_csv(report, out_dir / "schemas.csv")
        rpt.write_thresholds_csv([("schema_level", report.micro.prf)], out_dir / "thresholds.csv")
        for schema_id, reason in report.skipped:
            print(f"skip schema {schema_id}: {reason}", file=sys.stderr)
        print(f"wrote {out_dir / 'schemas.csv'} and {out_dir / 'thresholds.csv'}", file=sys.stderr)
        return 0

    rpt.write_report_csv(report, out_dir / "report.csv", dataset_name=source_name)
    rpt.write_report_json(report, out_dir / "report.json", dataset_name=source_name)
    rpt.write_thresholds_csv([("schema_disjoint", report.prf_mean)], out_dir / "thresholds.csv")
    if args.compare:  # the pooling methods, then --method when it is not one of them
        rpt.write_compare_csv({m: reports[m] for m in (*POOLING_METHODS, args.method)},
                              out_dir / "compare.csv")
    for note in report.notes:
        print(f"note: {note}", file=sys.stderr)
    print(f"wrote {out_dir / 'report.csv'} and {out_dir / 'thresholds.csv'}", file=sys.stderr)
    return 0


def cmd_report(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if not args.out_csv and not args.out_svg:
        parser.error("nothing to do: pass --out-csv and/or --out-svg")
    from . import calibrate as cal
    from . import report as rpt
    from ._segments import one_split
    from .binning import _partitions
    from .protocol import ProtocolConfig  # evaluate's bin flag rules and texts

    ProtocolConfig(binning=args.binning, n_bins=args.bins, min_bin_count=args.min_bin_count)
    scored = load_scored(args.scored)
    _check_bins(args, len(scored), f"in {args.scored}")
    calibrator = cal.load_calibrator(args.calibrator)
    apply = cal.apply_platt if isinstance(calibrator, cal.PlattCalibrator) else cal.apply_isotonic
    columns = one_split(apply(calibrator, scored.raw_scores), scored.labels, "confidences")
    (partition,) = _partitions(*columns, args.binning, args.bins, args.min_bin_count)
    series = rpt.reliability_series(partition, args.label)
    if args.out_csv:
        rpt.write_reliability_csv([series], args.out_csv)
        print(f"wrote {args.out_csv}", file=sys.stderr)
    if args.out_svg:
        rpt.render_reliability([series], args.out_svg)
        print(f"wrote {args.out_svg}", file=sys.stderr)
    return 0


# Pair-file fields that drive labeling and are not carried over to the line.
_PAIR_ONLY_FIELDS = ("gold_sql", "pred_sql", "db_path")


def _pair_from_obj(obj: Any) -> tuple[dict[str, Any], str, str, str | None]:
    """A pair as the line `label` writes, checked once by the rules of
    `load_dataset` with a placeholder label until the SQL has run, and its
    pair-only fields: gold SQL, predicted SQL and db_path (None when absent)."""
    rid = _require(obj, "schema_id", "gold_sql", "pred_sql")
    for key in _PAIR_ONLY_FIELDS:
        if key in obj and not isinstance(obj[key], str):
            raise RecordError(rid, key, "must be a string")
    rid, schema_id, label, *values = _checked({**obj, "label": 0})
    extra = {k: v for k, v in obj.items() if k not in _KNOWN_FIELDS and k not in _PAIR_ONLY_FIELDS}
    line = _values_to_obj(rid, schema_id, label, obj.get("question"), *values, extra)
    return line, obj["gold_sql"], obj["pred_sql"], obj.get("db_path")


def cmd_label(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from .execmatch import _IDENTICAL, _OUTCOMES, Gold, GoldExecutionError

    cli = sys.modules[__name__]  # see __getattr__
    db_root = Path(args.db_root)
    pairs = _read_records(Path(args.pairs), _pair_from_obj)
    lines = [line for line, *_ in pairs]
    db_paths = [
        db_root / db_path  # an absolute db_path replaces db_root
        if db_path is not None
        else db_root / line["schema_id"] / f"{line['schema_id']}.sqlite"
        for line, _, _, db_path in pairs
    ]
    missing = [f"{line['id']!r}: {path}" for line, path in zip(lines, db_paths) if not path.is_file()]
    if missing:
        raise DatasetError(f"{args.pairs}: database file not found: " + "; ".join(missing))
    # Pairs grouped by database, then by gold query, each group in file order:
    # one connection is open at a time, and gold runs once per group.
    order = sorted(range(len(pairs)), key=lambda i: (str(db_paths[i]), pairs[i][1]))
    gold_failures = []
    outcomes: Counter = Counter()
    gold_runs = 0
    for db_path, group in groupby(order, key=db_paths.__getitem__):
        executor = cli.SQLiteExecutor(db_path, timeout_s=args.timeout)
        try:
            gold = None
            for i in group:
                line, gold_sql, pred_sql, _ = pairs[i]
                if gold is None or gold.sql != gold_sql or not gold.shared:
                    gold = None  # the last result is freed before gold runs again
                    gold = Gold(gold_sql, executor)
                    gold_runs += 1
                try:
                    line["label"] = cli.label_record(
                        gold_sql, pred_sql, executor,
                        strict_columns=args.strict_columns, outcomes=outcomes, gold=gold,
                    )
                except GoldExecutionError as exc:
                    gold_failures.append((i, f"{line['id']!r}: {exc.__cause__}"))
        finally:
            executor.close()  # after its database's last pair
    if gold_failures:
        raise DatasetError(f"{args.pairs}: gold query failed: "
                           + "; ".join(message for _, message in sorted(gold_failures)))
    _write_lines(lines, args.out)
    n_correct = sum(line["label"] for line in lines)
    print(f"labeled {len(lines)} records ({n_correct} correct) -> {args.out}", file=sys.stderr)
    print(f"gold executions: {gold_runs} for {len(pairs)} pairs; "
          f"{outcomes[_IDENTICAL]} predictions identical to gold not run", file=sys.stderr)
    print("outcomes: " + ", ".join(f"{name} {outcomes[name]}" for name in _OUTCOMES), file=sys.stderr)
    return 0


def cmd_simulate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from .protocol import _synthetic_lines

    _write_lines(_synthetic_lines(args.n, args.map, args.seed, args.schemas), args.out)
    print(f"wrote {args.n} synthetic records -> {args.out}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqlcalib",
        description="Confidence calibration toolkit for generated SQL predictions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a prediction file and print its summary")
    p.add_argument("--input", required=True, help="line-delimited prediction records")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("score", help="attach raw confidence scores")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--method", required=True, choices=SCORE_METHODS)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("calibrate", help="fit a rescaling map on scored records")
    p.add_argument("--scored", required=True)
    p.add_argument("--kind", required=True, choices=("platt", "isotonic"))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("evaluate", help="run the full calibration evaluation")
    p.add_argument("--input", required=True)
    p.add_argument("--method", default="prod", choices=SCORE_METHODS)
    p.add_argument("--calibrator", default="isotonic", choices=("platt", "isotonic"),
                   help="calibrated scores used for the threshold sweep")
    p.add_argument("--binning", default="uniform", choices=("uniform", "monotonic"))
    p.add_argument("--bins", type=int, default=10)
    p.add_argument("--min-bin-count", type=int, default=1)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--thresholds", default="0.9,0.85,0.8,0.7")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--scope", default="schema_disjoint",
                   choices=("schema_disjoint", "schema_level"))
    p.add_argument("--tune-fraction", type=float, default=0.2)
    p.add_argument("--min-schema-records", type=int, default=10)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--compare", action="store_true",
                   help="evaluate every pooling method too and write compare.csv")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="reliability-plot data and SVG")
    p.add_argument("--scored", required=True)
    p.add_argument("--calibrator", required=True, help="calibrator file from `calibrate`")
    p.add_argument("--binning", default="uniform", choices=("uniform", "monotonic"))
    p.add_argument("--bins", type=int, default=10)
    p.add_argument("--min-bin-count", type=int, default=1)
    p.add_argument("--label", default="series")
    p.add_argument("--out-csv", default=None)
    p.add_argument("--out-svg", default=None)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("label", help="execution-match labels for gold/predicted SQL pairs")
    p.add_argument("--pairs", required=True,
                   help="JSONL with id, schema_id, gold_sql, pred_sql (+ fields to carry over)")
    p.add_argument("--db-root", required=True,
                   help="directory holding <schema_id>/<schema_id>.sqlite files")
    p.add_argument("--out", required=True)
    p.add_argument("--timeout", type=_timeout, default=30.0)
    p.add_argument("--strict-columns", action="store_true")
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("simulate", help="seeded synthetic prediction records")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--map", default="identity", choices=_SIMULATE_MAPS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--schemas", type=int, default=10)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    # Before any command imports numpy: OpenBLAS would otherwise start a
    # worker thread that spins, and sqlcalib's largest BLAS call is a dot of
    # two 2-vectors (the Newton step), far too small to share.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (ValueError, OSError) as exc:  # every data error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    status = main()
    # The run's files are closed; what is left dies with the process. Frozen,
    # it is skipped by the collections at interpreter shutdown, which would
    # otherwise traverse every object the run and numpy left behind.
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    entry()
