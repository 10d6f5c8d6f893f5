"""Command-line pipeline: validate, score, calibrate, evaluate, report,
label, simulate.

Exit codes: 0 success, 1 data error, 2 usage error. Outputs are
deterministic for identical flags and inputs; no file is written until the
inputs have validated fully. The SQLCALIB_SEED environment variable supplies
a default --seed for evaluate and simulate.

Only calibrate, evaluate, report and simulate import the array modules (and
with them numpy), inside the command. validate, score and evaluate read
their input in one pass through `records._checked` that keeps no record.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from dataclasses import replace
from itertools import groupby
from pathlib import Path
from typing import TYPE_CHECKING, Any

from .execmatch import (
    _IDENTICAL,
    _OUTCOMES,
    _check_timeout,
    ExecutionError,
    Gold,
    GoldExecutionError,
    SQLiteExecutor,
    label_record,
)
from .records import (
    Dataset,
    DatasetError,
    PredictionRecord,
    RecordError,
    _checked,
    _read_records,
    _record_from_obj,
    _require,
    write_dataset,
)
from .scoring import POOLING_METHODS, SCORE_METHODS, load_scored, score_file, write_scored

# Not called here; the per-layer tracer of perfbench/ still wraps them at these names.
from .records import load_dataset  # noqa: F401
from .scoring import score_dataset  # noqa: F401

if TYPE_CHECKING:
    from .protocol import ProtocolConfig

ENV_SEED = "SQLCALIB_SEED"
# sorted(protocol.TRUE_MAPS), spelled out so that building the parser loads no numpy
_SIMULATE_MAPS = ("half", "identity", "logistic", "one")


def __getattr__(name: str) -> Any:
    """`cross_validate` and `schema_level_evaluate`, imported from `protocol`
    on first access. `cmd_evaluate` looks them up on this module, so a caller
    that replaced them here (a tracer, say) has its replacement run."""
    if name in ("cross_validate", "schema_level_evaluate"):
        from . import protocol

        return getattr(protocol, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _resolve_seed(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(ENV_SEED)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            parser.error(f"{ENV_SEED} must be an integer, got {env!r}")
    parser.error(f"--seed is required (or set {ENV_SEED})")


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


def _config_from_args(args: argparse.Namespace, seed: int) -> ProtocolConfig:
    from .protocol import ProtocolConfig

    return ProtocolConfig(
        k=args.k,
        binning=args.binning,
        n_bins=args.bins,
        min_bin_count=args.min_bin_count,
        thresholds=_parse_thresholds(args.thresholds),
        seed=seed,
        calibrator=args.calibrator,
        tune_fraction=args.tune_fraction,
        min_schema_records=args.min_schema_records,
    )


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

    cli = sys.modules[__name__]  # see __getattr__
    seed = _resolve_seed(args, parser)
    cfg = _config_from_args(args, seed)
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

    if args.scope == "schema_level":
        report = cli.schema_level_evaluate(scored.pop(args.method), cfg)
        out_dir.mkdir(parents=True, exist_ok=True)
        rpt.write_schema_csv(report, out_dir / "schemas.csv")
        rpt.write_thresholds_csv([("schema_level", report.micro.prf)], out_dir / "thresholds.csv")
        for schema_id, reason in report.skipped:
            print(f"skip schema {schema_id}: {reason}", file=sys.stderr)
        print(f"wrote {out_dir / 'schemas.csv'} and {out_dir / 'thresholds.csv'}", file=sys.stderr)
        return 0

    report = cli.cross_validate(scored.pop(args.method), cfg)
    compare_reports = {}
    if args.compare:
        for method in POOLING_METHODS:
            compare_reports[method] = (
                report if method == args.method else cli.cross_validate(scored.pop(method), cfg)
            )
    out_dir.mkdir(parents=True, exist_ok=True)
    rpt.write_report_csv(report, out_dir / "report.csv", dataset_name=source_name)
    rpt.write_report_json(report, out_dir / "report.json", dataset_name=source_name)
    rpt.write_thresholds_csv([("schema_disjoint", report.prf_mean)], out_dir / "thresholds.csv")
    if compare_reports:
        rpt.write_compare_csv(compare_reports, out_dir / "compare.csv")
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


# Pair-file fields that drive labeling and are not carried over to the record.
_PAIR_ONLY_FIELDS = ("gold_sql", "pred_sql", "db_path")


def _pair_from_obj(obj: Any) -> PredictionRecord:
    """A pair as a record validated by the same rules as `load_dataset`. The
    label is a placeholder until the SQL has run; the pair-only fields ride in
    `extra` until then."""
    rid = _require(obj, "schema_id", "gold_sql", "pred_sql")
    for key in _PAIR_ONLY_FIELDS:
        if key in obj and not isinstance(obj[key], str):
            raise RecordError(rid, key, "must be a string")
    return _record_from_obj({**obj, "label": 0})


def cmd_label(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    db_root = Path(args.db_root)
    pairs = _read_records(Path(args.pairs), _pair_from_obj)
    db_paths = [
        db_root / pair.extra["db_path"]  # an absolute db_path replaces db_root
        if "db_path" in pair.extra
        else db_root / pair.schema_id / f"{pair.schema_id}.sqlite"
        for pair in pairs
    ]
    missing = [f"{pair.id!r}: {path}" for pair, path in zip(pairs, db_paths) if not path.exists()]
    if missing:
        raise DatasetError(f"{args.pairs}: database file not found: " + "; ".join(missing))
    # Pairs grouped by database, then by gold query, each group in file order:
    # one connection is open at a time, and gold runs once per group.
    order = sorted(range(len(pairs)), key=lambda i: (str(db_paths[i]), pairs[i].extra["gold_sql"]))
    labels = [0] * len(pairs)
    gold_failures = []
    outcomes: Counter = Counter()
    gold_runs = 0
    for db_path, group in groupby(order, key=db_paths.__getitem__):
        executor = SQLiteExecutor(db_path, timeout_s=args.timeout)
        try:
            gold = None
            for i in group:
                pair = pairs[i]
                gold_sql = pair.extra["gold_sql"]
                if gold is None or gold.sql != gold_sql or not gold.shared:
                    gold = None  # the last result is freed before gold runs again
                    gold = Gold(gold_sql, executor)
                    gold_runs += 1
                try:
                    labels[i] = label_record(
                        gold_sql, pair.extra["pred_sql"], executor,
                        strict_columns=args.strict_columns, outcomes=outcomes, gold=gold,
                    )
                except GoldExecutionError as exc:
                    gold_failures.append((i, f"{pair.id!r}: {exc.__cause__}"))
        finally:
            executor.close()  # after its database's last pair
    if gold_failures:
        raise DatasetError(f"{args.pairs}: gold query failed: "
                           + "; ".join(message for _, message in sorted(gold_failures)))
    records = [
        replace(pair, label=label,
                extra={k: v for k, v in pair.extra.items() if k not in _PAIR_ONLY_FIELDS})
        for pair, label in zip(pairs, labels)
    ]
    write_dataset(Dataset(records=tuple(records), source_name=Path(args.out).name), args.out)
    n_correct = sum(labels)
    print(f"labeled {len(records)} records ({n_correct} correct) -> {args.out}", file=sys.stderr)
    print(f"gold executions: {gold_runs} for {len(pairs)} pairs; "
          f"{outcomes[_IDENTICAL]} predictions identical to gold not run", file=sys.stderr)
    print("outcomes: " + ", ".join(f"{name} {outcomes[name]}" for name in _OUTCOMES), file=sys.stderr)
    return 0


def cmd_simulate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from .protocol import generate_synthetic

    seed = _resolve_seed(args, parser)
    dataset = generate_synthetic(args.n, args.map, seed, n_schemas=args.schemas)
    write_dataset(dataset, args.out)
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
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--scope", default="schema_disjoint",
                   choices=("schema_disjoint", "schema_level"))
    p.add_argument("--tune-fraction", type=float, default=0.2)
    p.add_argument("--min-schema-records", type=int, default=10)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--compare", action="store_true",
                   help="evaluate every pooling method and write compare.csv")
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
    p.add_argument("--seed", type=int, default=None)
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
    except (ExecutionError, ValueError, OSError) as exc:  # every data error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
