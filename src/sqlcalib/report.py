"""Reliability-plot data and evaluation tables.

Everything written here is deterministic: float fields are emitted with
repr (so every float read back from a CSV equals the value written) and the
SVG renderer is a pure function of its inputs. `_write_csv` writes every
CSV table, and each table builds all of its rows, aggregates included, on
one path.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .binning import Bin, BinPartition
from .protocol import _METRIC_KEYS, EvaluationReport, SchemaLevelReport


@dataclass(frozen=True)
class ReliabilitySeries:
    """One plotted series: the nonempty bins of a partition, under a label."""

    label: str
    points: tuple[Bin, ...]


def reliability_series(partition: BinPartition, label: str) -> ReliabilitySeries:
    """One point per nonempty bin, ordered by mean confidence."""
    if not partition.bins:
        raise ValueError("empty partition")
    return ReliabilitySeries(label=label, points=tuple(b for b in partition.bins if b.count > 0))


def _write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """The one place a table file is opened: the header row, then the rows."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_reliability_csv(series: Sequence[ReliabilitySeries], path: str | Path) -> None:
    _write_csv(path, ["label", "bin_lo", "bin_hi", "mean_conf", "accuracy", "count"],
               ([s.label, repr(p.lo), repr(p.hi), repr(p.mean_conf), repr(p.accuracy), p.count]
                for s in series for p in s.points))


_PALETTE = ("#1f6feb", "#d1242f", "#1a7f37", "#9a6700", "#8250df", "#bf3989")

# Plot geometry in pixels; the data group is an affine wrap of the unit square.
_MARGIN_L, _MARGIN_T, _SIDE = 70, 40, 440


def render_reliability(series: Sequence[ReliabilitySeries], out: str | Path) -> Path:
    """Write a reliability diagram as SVG.

    Data markers live in a group whose transform maps the unit square onto
    the plot area, so marker coordinates in the markup are exactly the
    series values. Marker fill opacity encodes the bin count on a linear
    scale from 0.15 (smallest) to 1.0 (largest count in the figure); the
    count is also written next to each marker. Output bytes depend only on
    the input series.
    """
    if not series:
        raise ValueError("no reliability series to render")
    out = Path(out)
    width = _MARGIN_L + _SIDE + 50
    height = _MARGIN_T + _SIDE + 60
    x0, y0 = _MARGIN_L, _MARGIN_T + _SIDE  # pixel origin of data (0, 0)
    max_count = max((p.count for s in series for p in s.points), default=1)

    parts: list[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
        f'<rect x="{x0}" y="{_MARGIN_T}" width="{_SIDE}" height="{_SIDE}" '
        f'fill="none" stroke="#444444" stroke-width="1"/>',
    ]
    for i in range(6):
        v = i / 5
        px = x0 + v * _SIDE
        py = y0 - v * _SIDE
        parts.append(
            f'<line x1="{px:.1f}" y1="{y0}" x2="{px:.1f}" y2="{y0 + 5}" stroke="#444444" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{px:.1f}" y="{y0 + 18}" font-size="11" text-anchor="middle" '
            f'font-family="sans-serif">{v:.1f}</text>'
        )
        parts.append(
            f'<line x1="{x0 - 5}" y1="{py:.1f}" x2="{x0}" y2="{py:.1f}" stroke="#444444" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x0 - 8}" y="{py + 4:.1f}" font-size="11" text-anchor="end" '
            f'font-family="sans-serif">{v:.1f}</text>'
        )
    parts.append(
        f'<text x="{x0 + _SIDE / 2:.1f}" y="{height - 12}" font-size="12" text-anchor="middle" '
        f'font-family="sans-serif">mean confidence</text>'
    )
    parts.append(
        f'<text x="16" y="{_MARGIN_T + _SIDE / 2:.1f}" font-size="12" text-anchor="middle" '
        f'font-family="sans-serif" transform="rotate(-90 16 {_MARGIN_T + _SIDE / 2:.1f})">'
        f"observed accuracy</text>"
    )

    # Data group: unit square mapped to the plot area; coordinates are data values.
    parts.append(f'<g transform="translate({x0},{y0}) scale({_SIDE},-{_SIDE})">')
    parts.append('<line x1="0" y1="0" x2="1" y2="1" stroke="#999999" stroke-width="0.0025"/>')
    for si, s in enumerate(series):
        color = _PALETTE[si % len(_PALETTE)]
        for p in s.points:
            opacity = 0.15 + 0.85 * (p.count / max_count)
            parts.append(
                f'<circle cx="{p.mean_conf!r}" cy="{p.accuracy!r}" r="0.012" '
                f'fill="{color}" fill-opacity="{opacity:.4f}" stroke="{color}" stroke-width="0.003"/>'
            )
    parts.append("</g>")

    # Annotations and legend in pixel coordinates.
    for si, s in enumerate(series):
        color = _PALETTE[si % len(_PALETTE)]
        label = s.label.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        parts.append(
            f'<text x="{x0 + 10 + 110 * si}" y="{_MARGIN_T - 10}" font-size="11" '
            f'font-family="sans-serif" fill="{color}">{label}</text>'
        )
        for p in s.points:
            px = x0 + p.mean_conf * _SIDE
            py = y0 - p.accuracy * _SIDE
            parts.append(
                f'<text x="{px + 8:.1f}" y="{py - 6:.1f}" font-size="9" '
                f'font-family="sans-serif" fill="#666666">{p.count}</text>'
            )
    parts.append("</svg>")
    out.write_text("\n".join(parts) + "\n", encoding="utf-8")
    return out


def _fmt(value: float | None) -> str:
    return "" if value is None else repr(value)


def write_report_json(report: EvaluationReport, path: str | Path, dataset_name: str = "") -> None:
    """The whole report, `asdict` of it, under the name of its dataset."""
    obj = {"dataset": dataset_name, **asdict(report)}
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


# report.csv's row of each calibrator: its name, Brier key and ECE key
_CALIBRATED = (("platt", "bs_p", "ece_p"), ("isotonic", "bs_i", "ece_i"))


def write_report_csv(report: EvaluationReport, path: str | Path, dataset_name: str = "") -> None:
    """Per-fold and aggregate cross-validation metrics.

    One row per fold and calibrator: `bs` and `ece_cal` are the Brier score
    and ECE under that calibrator; `auc` and `ece_raw` are calibration-free.
    Aggregate rows carry "mean" and "std" in the fold column. A fold row
    names its own metrics' binning, an aggregate row the config's.
    """
    binning = report.config.binning
    folds = [*((fm.fold, fm.metrics.binning_mode, vars(fm.metrics)) for fm in report.folds),
             ("mean", binning, report.mean), ("std", binning, report.std)]
    _write_csv(path, ["dataset", "method", "calibrator", "binning", "fold", "bs", "auc",
                      "ece_raw", "ece_cal"],
               ([dataset_name, report.method, cal, mode, fold,
                 *(_fmt(values.get(key)) for key in (bs, "auc", "ece_raw", ece))]
                for fold, mode, values in folds for cal, bs, ece in _CALIBRATED))


def write_thresholds_csv(rows: Sequence[tuple[str, Sequence]], path: str | Path) -> None:
    """Threshold sweep: rows are (scope, threshold-metrics sequence) pairs."""
    _write_csv(path, ["scope", "threshold", "precision", "recall", "f1"],
               ([scope, repr(tm.threshold), repr(tm.precision), repr(tm.recall), repr(tm.f1)]
                for scope, prf in rows for tm in prf))


_metric_values = attrgetter(*_METRIC_KEYS)


def write_schema_csv(report: SchemaLevelReport, path: str | Path) -> None:
    """Per-schema metrics plus the pooled micro row, which sums the schemas' counts."""
    rows = [(r.schema_id, r.n_tune, r.n_eval, r.metrics) for r in report.schemas]
    rows.append(("micro", sum(r.n_tune for r in report.schemas),
                 sum(r.n_eval for r in report.schemas), report.micro))
    _write_csv(path, ["schema", "n_tune", "n_eval", *_METRIC_KEYS],
               ([name, n_tune, n_eval, *map(_fmt, _metric_values(m))]
                for name, n_tune, n_eval, m in rows))


_HEADLINE = ("bs_i", "auc", "ece_p", "ece_i")  # compare.csv's columns, from each mean


def write_compare_csv(reports: Mapping[str, EvaluationReport], path: str | Path) -> None:
    """Side-by-side method comparison on the headline columns."""
    _write_csv(path, ["method", *_HEADLINE],
               ([method, *(_fmt(report.mean.get(key)) for key in _HEADLINE)]
                for method, report in reports.items()))
