"""Per-layer tracing of one in-process ``sqlcalib.cli.main(argv)`` run.

The tracer replaces functions at the names their callers look up (for
example ``sqlcalib.protocol.apply_platt``, which protocol imported by name)
with wrappers that time each call. The program itself is not changed.

Every wrapped call pushes a frame on one stack, so each call knows its
parent and its self time is its duration minus that of its children. The
program is single-threaded, so the children of one call run one after
another and their summed durations are exactly the union of their
intervals. Stage-boundary targets also record a span (name, start, end,
parent span, run id); per-record leaf calls are only aggregated (count,
total time, self time). Everything stays in memory and is written once, at
the end.

A target that no longer exists (a later change renamed or removed it) is
listed as missing and every metric derived from it is left out, instead of
failing the run.

Run as a script, it traces one CLI run and writes the trace as JSON:

    PYTHONPATH=src python3 perfbench/tracer.py --out trace.json --run-id r1 -- score ...
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import math
import os
import sys
import time
import warnings
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable


def _elements(x: Any) -> int:
    """Elements mapped by an apply call, whether passed a scalar or an array."""
    if isinstance(x, (int, float)):
        return 1
    size = getattr(x, "size", None)
    return int(size) if size is not None else len(x)


def _file_bytes(args: tuple, result: Any) -> dict[str, float]:
    return {"report.bytes": os.path.getsize(args[1])}


@dataclass(frozen=True)
class Target:
    site: str  # "module:attribute.path" where the caller looks the function up
    name: str  # "<layer>.<operation>"; targets may share a name
    span: bool = False  # stage boundary: record one span per call
    durations: bool = False  # keep per-call durations for percentiles
    catch_warnings: bool = False  # count RuntimeWarnings, then re-issue them
    count: Callable[[tuple, Any], dict[str, float]] | None = None  # counters from (args, result)


TARGETS = (
    Target("sqlcalib.cli:load_dataset", "records.load", span=True,
           count=lambda a, r: {"records.load_records": len(r.records),
                               "records.load_tokens": sum(len(x.token_probs or ()) for x in r.records)}),
    Target("sqlcalib.cli:write_dataset", "records.write", span=True),
    Target("sqlcalib.cli:score_dataset", "scoring.score", span=True,
           count=lambda a, r: {"scoring.attempted": len(a[0].records), "scoring.scored": len(r.scored)}),
    Target("sqlcalib.cli:write_scored", "scoring.write", span=True),
    Target("sqlcalib.cli:cross_validate", "protocol.cross_validate", span=True),
    Target("sqlcalib.cli:schema_level_evaluate", "protocol.schema_level", span=True,
           count=lambda a, r: {"protocol.schemas_evaluated": len(r.schemas),
                               "protocol.schemas_skipped": len(r.skipped)}),
    Target("sqlcalib.protocol:fit_platt", "calibrate.fit_platt", span=True, catch_warnings=True),
    Target("sqlcalib.protocol:fit_isotonic", "calibrate.fit_isotonic", span=True,
           count=lambda a, r: {"calibrate.isotonic_knots": len(r.knots)}),
    Target("sqlcalib.calibrate:platt_log_likelihood", "calibrate.platt_ll"),
    Target("sqlcalib.protocol:apply_platt", "calibrate.apply_platt",
           count=lambda a, r: {"calibrate.apply_records": _elements(a[1])}),
    Target("sqlcalib.protocol:apply_isotonic", "calibrate.apply_isotonic",
           count=lambda a, r: {"calibrate.apply_records": _elements(a[1])}),
    Target("sqlcalib.protocol:summarize", "metrics.summarize"),
    Target("sqlcalib.metrics:ece", "metrics.ece"),
    Target("sqlcalib.metrics:auc", "metrics.auc"),
    Target("sqlcalib.metrics:brier", "metrics.brier"),
    Target("sqlcalib.metrics:prf_at_threshold", "metrics.prf"),
    Target("sqlcalib.metrics:uniform_bins", "binning.uniform"),
    Target("sqlcalib.metrics:monotonic_bins", "binning.monotonic",
           count=lambda a, r: {"binning.monotonic_bins_out": len(r.bins)}),
    Target("sqlcalib.report:write_report_csv", "report.write", span=True, count=_file_bytes),
    Target("sqlcalib.report:write_report_json", "report.write", span=True, count=_file_bytes),
    Target("sqlcalib.report:write_thresholds_csv", "report.write", span=True, count=_file_bytes),
    Target("sqlcalib.report:write_schema_csv", "report.write", span=True, count=_file_bytes),
    Target("sqlcalib.report:write_compare_csv", "report.write", span=True, count=_file_bytes),
    Target("sqlcalib.cli:label_record", "execmatch.label", span=True,
           count=lambda a, r: {"execmatch.matches": r}),
    Target("sqlcalib.execmatch:SQLiteExecutor.execute", "execmatch.execute", durations=True),
    Target("sqlcalib.execmatch:ResultTable.from_rows", "execmatch.canonicalize",
           count=lambda a, r: {"execmatch.cells": r.n_cols * len(r.rows)}),
    Target("sqlcalib.execmatch:tables_equal", "execmatch.match", durations=True),
)

LAYERS = ("records", "scoring", "protocol", "calibrate", "binning", "metrics", "report", "execmatch")


class Tracer:
    """Frame stack, per-name aggregates, counters and spans of one run."""

    def __init__(self, run_id: str, clock: Callable[[], float] = time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.origin = clock()
        # name -> [calls, total_s, self_s, errors, warnings]
        self.stats: dict[str, list[float]] = {}
        self.counters: dict[str, float] = defaultdict(float)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.spans: list[dict] = []
        self.top_s = 0.0  # summed duration of calls made with an empty stack
        self._stack: list[list] = []  # per open call: [children_s, span id children link to]

    def call(self, target: Target, fn: Callable, args: tuple, kwargs: dict) -> Any:
        parent = self._stack[-1] if self._stack else None
        parent_span = parent[1] if parent else None
        span_id = len(self.spans) if target.span else parent_span
        if target.span:
            self.spans.append(None)  # reserve the id; filled in when the call ends
        frame = [0.0, span_id]
        self._stack.append(frame)
        caught: list = []
        failed = True
        start = self.clock()
        try:
            if target.catch_warnings:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    result = fn(*args, **kwargs)
            else:
                result = fn(*args, **kwargs)
            failed = False
        finally:
            end = self.clock()
            self._stack.pop()
            duration = end - start
            if parent is None:
                self.top_s += duration
            else:
                parent[0] += duration
            stat = self.stats.setdefault(target.name, [0, 0.0, 0.0, 0, 0])
            stat[0] += 1
            stat[1] += duration
            stat[2] += duration - frame[0]
            stat[3] += failed
            if target.durations:
                self.durations[target.name].append(duration)
            if target.span:
                self.spans[span_id] = {
                    "id": span_id, "name": target.name, "start": start - self.origin,
                    "end": end - self.origin, "parent": parent_span, "run": self.run_id,
                }
            for w in caught:
                stat[4] += issubclass(w.category, RuntimeWarning)
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        if target.count is not None:
            for key, value in target.count(args, result).items():
                self.counters[key] += value
        return result


def _resolve(site: str) -> tuple[Any, str, Any]:
    """(owner, attribute, raw attribute value) for a "module:a.b" site."""
    module_name, path = site.split(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, raw


def install(tracer: Tracer, targets=TARGETS) -> tuple[list[str], Callable[[], None]]:
    """Wrap every target that exists. Returns the missing targets' sites and
    a function that restores the originals."""
    missing: list[str] = []
    originals: list[tuple[Any, str, Any]] = []
    for target in targets:
        try:
            owner, attr, raw = _resolve(target.site)
        except (ImportError, AttributeError, KeyError):
            missing.append(target.site)
            continue
        fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw

        def wrapper(*args, _t=target, _fn=fn, **kwargs):
            return tracer.call(_t, _fn, args, kwargs)

        functools.update_wrapper(wrapper, fn)
        wrapped = type(raw)(wrapper) if isinstance(raw, (classmethod, staticmethod)) else wrapper
        setattr(owner, attr, wrapped)
        originals.append((owner, attr, raw))

    def restore() -> None:
        for owner, attr, raw in reversed(originals):
            setattr(owner, attr, raw)

    return missing, restore


def percentile_ms(durations: list[float], q: float) -> float:
    """Nearest-rank percentile in milliseconds; 0 when there were no calls."""
    if not durations:
        return 0.0
    ordered = sorted(durations)
    return 1000.0 * ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, wall_s: float, missing: list[str]) -> dict[str, float]:
    """Per-layer metric values of one traced run, by name.

    A metric is left out when any target it is derived from is missing.
    """
    absent = {t.name for t in TARGETS if t.site in missing}

    def stat(name: str, i: int) -> float:
        return tracer.stats.get(name, [0, 0.0, 0.0, 0, 0])[i]

    def calls(name): return stat(name, 0)
    def total(name): return stat(name, 1)
    def self_s(name): return stat(name, 2)
    def errors(name): return stat(name, 3)
    c = tracer.counters
    d = tracer.durations

    table: dict[str, tuple[tuple[str, ...], Callable[[], float]]] = {
        "records.load_s": (("records.load",), lambda: total("records.load")),
        "records.load_records": (("records.load",), lambda: c["records.load_records"]),
        "records.load_tokens": (("records.load",), lambda: c["records.load_tokens"]),
        "records.write_s": (("records.write",), lambda: total("records.write")),
        "scoring.score_s": (("scoring.score",), lambda: total("scoring.score")),
        "scoring.scored_share": (("scoring.score",),
                                 lambda: _ratio(c["scoring.scored"], c["scoring.attempted"])),
        "scoring.write_s": (("scoring.write",), lambda: total("scoring.write")),
        "protocol.cross_validate_s": (("protocol.cross_validate",),
                                      lambda: total("protocol.cross_validate")),
        "protocol.cross_validate_self_s": (("protocol.cross_validate",),
                                           lambda: self_s("protocol.cross_validate")),
        "protocol.schema_level_s": (("protocol.schema_level",), lambda: total("protocol.schema_level")),
        "protocol.schema_level_self_s": (("protocol.schema_level",),
                                         lambda: self_s("protocol.schema_level")),
        "protocol.schemas_evaluated": (("protocol.schema_level",),
                                       lambda: c["protocol.schemas_evaluated"]),
        "protocol.schemas_skipped": (("protocol.schema_level",), lambda: c["protocol.schemas_skipped"]),
        "calibrate.apply_platt_s": (("calibrate.apply_platt",), lambda: total("calibrate.apply_platt")),
        "calibrate.apply_isotonic_s": (("calibrate.apply_isotonic",),
                                       lambda: total("calibrate.apply_isotonic")),
        "calibrate.apply_calls": (("calibrate.apply_platt", "calibrate.apply_isotonic"),
                                  lambda: calls("calibrate.apply_platt") + calls("calibrate.apply_isotonic")),
        "calibrate.apply_records": (("calibrate.apply_platt", "calibrate.apply_isotonic"),
                                    lambda: c["calibrate.apply_records"]),
        "calibrate.fit_platt_s": (("calibrate.fit_platt",), lambda: total("calibrate.fit_platt")),
        "calibrate.fit_platt_calls": (("calibrate.fit_platt",), lambda: calls("calibrate.fit_platt")),
        "calibrate.platt_ll_evals": (("calibrate.platt_ll",), lambda: calls("calibrate.platt_ll")),
        "calibrate.platt_nonconverged": (("calibrate.fit_platt",),
                                         lambda: stat("calibrate.fit_platt", 4)),
        "calibrate.fit_isotonic_s": (("calibrate.fit_isotonic",), lambda: total("calibrate.fit_isotonic")),
        "calibrate.fit_isotonic_calls": (("calibrate.fit_isotonic",),
                                         lambda: calls("calibrate.fit_isotonic")),
        "calibrate.isotonic_knots": (("calibrate.fit_isotonic",), lambda: c["calibrate.isotonic_knots"]),
        "binning.uniform_s": (("binning.uniform",), lambda: total("binning.uniform")),
        "binning.uniform_calls": (("binning.uniform",), lambda: calls("binning.uniform")),
        "binning.monotonic_s": (("binning.monotonic",), lambda: total("binning.monotonic")),
        "binning.monotonic_calls": (("binning.monotonic",), lambda: calls("binning.monotonic")),
        "binning.monotonic_bins_out": (("binning.monotonic",), lambda: c["binning.monotonic_bins_out"]),
        "metrics.summarize_s": (("metrics.summarize",), lambda: total("metrics.summarize")),
        "metrics.summarize_calls": (("metrics.summarize",), lambda: calls("metrics.summarize")),
        "metrics.ece_s": (("metrics.ece",), lambda: total("metrics.ece")),
        "metrics.auc_s": (("metrics.auc",), lambda: total("metrics.auc")),
        "metrics.brier_s": (("metrics.brier",), lambda: total("metrics.brier")),
        "metrics.prf_s": (("metrics.prf",), lambda: total("metrics.prf")),
        "metrics.single_class_retries": (("metrics.summarize",), lambda: errors("metrics.summarize")),
        "report.write_s": (("report.write",), lambda: total("report.write")),
        "report.bytes": (("report.write",), lambda: c["report.bytes"]),
        "execmatch.execute_s": (("execmatch.execute",), lambda: total("execmatch.execute")),
        "execmatch.execute_calls": (("execmatch.execute",), lambda: calls("execmatch.execute")),
        "execmatch.execute_errors": (("execmatch.execute",), lambda: errors("execmatch.execute")),
        "execmatch.execute_p50_ms": (("execmatch.execute",),
                                     lambda: percentile_ms(d["execmatch.execute"], 0.50)),
        "execmatch.execute_p99_ms": (("execmatch.execute",),
                                     lambda: percentile_ms(d["execmatch.execute"], 0.99)),
        "execmatch.canonicalize_s": (("execmatch.canonicalize",), lambda: total("execmatch.canonicalize")),
        "execmatch.cells": (("execmatch.canonicalize",), lambda: c["execmatch.cells"]),
        "execmatch.sqlite_s": (("execmatch.execute", "execmatch.canonicalize"),
                               lambda: total("execmatch.execute") - total("execmatch.canonicalize")),
        "execmatch.match_s": (("execmatch.match",), lambda: total("execmatch.match")),
        "execmatch.match_calls": (("execmatch.match",), lambda: calls("execmatch.match")),
        "execmatch.match_p99_ms": (("execmatch.match",), lambda: percentile_ms(d["execmatch.match"], 0.99)),
        "execmatch.label_match_share": (("execmatch.label",),
                                        lambda: _ratio(c["execmatch.matches"], calls("execmatch.label"))),
    }
    out = {name: float(fn()) for name, (needs, fn) in table.items() if not absent & set(needs)}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v[2] for k, v in tracer.stats.items() if k.split(".")[0] == layer)
    out["cli.self_s"] = wall_s - tracer.top_s
    out["trace.wall_s"] = wall_s
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="where to write the trace JSON")
    parser.add_argument("--run-id", required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER, help="-- then the sqlcalib arguments")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    import sqlcalib.cli

    tracer = Tracer(args.run_id)
    missing, restore = install(tracer)
    start = time.perf_counter()
    try:
        code = sqlcalib.cli.main(cli_args)
    finally:
        wall_s = time.perf_counter() - start
        restore()
    trace = {
        "run_id": args.run_id,
        "exit": code,
        "missing": missing,
        "metrics": layer_metrics(tracer, wall_s, missing),
        "spans": tracer.spans,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(trace, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
