"""Reliability-plot data and evaluation tables.

Everything written here is deterministic: float fields are emitted with
repr (so every float read back from a CSV equals the value written) and the
SVG renderer is a pure function of its inputs.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .binning import Bin, BinPartition
from .protocol import EvaluationReport, SchemaLevelReport


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


def write_reliability_csv(series: Sequence[ReliabilitySeries], path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "bin_lo", "bin_hi", "mean_conf", "accuracy", "count"])
        for s in series:
            for p in s.points:
                writer.writerow(
                    [s.label, repr(p.lo), repr(p.hi), repr(p.mean_conf), repr(p.accuracy), p.count]
                )


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
        parts.append(
            f'<text x="{x0 + 10 + 110 * si}" y="{_MARGIN_T - 10}" font-size="11" '
            f'font-family="sans-serif" fill="{color}">{s.label}</text>'
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
    if value is None:
        return ""
    return repr(value)


def _metrics_dict(m) -> dict:
    return {
        "bs_p": m.bs_p,
        "bs_i": m.bs_i,
        "auc": m.auc,
        "ece_raw": m.ece_raw,
        "ece_p": m.ece_p,
        "ece_i": m.ece_i,
        "binning": m.binning_mode,
        "prf": [
            {"threshold": t.threshold, "precision": t.precision, "recall": t.recall, "f1": t.f1}
            for t in m.prf
        ],
    }


def write_report_json(report: EvaluationReport, path: str | Path, dataset_name: str = "") -> None:
    """Full structured dump of a cross-validation report."""
    obj = {
        "dataset": dataset_name,
        "method": report.method,
        "k": report.config.k,
        "seed": report.config.seed,
        "binning": report.config.binning,
        "folds": [
            {
                "fold": fm.fold,
                "n_tune": fm.n_tune,
                "n_test": fm.n_test,
                "degenerate_tune": fm.degenerate_tune,
                "metrics": _metrics_dict(fm.metrics),
            }
            for fm in report.folds
        ],
        "mean": dict(report.mean),
        "std": dict(report.std),
        "notes": list(report.notes),
    }
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def write_report_csv(
    report: EvaluationReport, path: str | Path, dataset_name: str = ""
) -> None:
    """Per-fold and aggregate cross-validation metrics.

    One row per fold and calibrator: `bs` and `ece_cal` are the Brier score
    and ECE under that calibrator; `auc` and `ece_raw` are calibration-free.
    Aggregate rows carry "mean" and "std" in the fold column.
    """
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["dataset", "method", "calibrator", "binning", "fold", "bs", "auc", "ece_raw", "ece_cal"]
        )
        for fm in report.folds:
            m = fm.metrics
            for cal, bs, ece_cal in (("platt", m.bs_p, m.ece_p), ("isotonic", m.bs_i, m.ece_i)):
                writer.writerow(
                    [dataset_name, report.method, cal, m.binning_mode, fm.fold,
                     _fmt(bs), _fmt(m.auc), _fmt(m.ece_raw), _fmt(ece_cal)]
                )
        for agg_name, agg in (("mean", report.mean), ("std", report.std)):
            for cal, bs_key, ece_key in (("platt", "bs_p", "ece_p"), ("isotonic", "bs_i", "ece_i")):
                writer.writerow(
                    [dataset_name, report.method, cal, report.config.binning, agg_name,
                     _fmt(agg.get(bs_key)), _fmt(agg.get("auc")), _fmt(agg.get("ece_raw")),
                     _fmt(agg.get(ece_key))]
                )


def write_thresholds_csv(
    rows: Sequence[tuple[str, Sequence]], path: str | Path
) -> None:
    """Threshold sweep: rows are (scope, threshold-metrics sequence) pairs."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scope", "threshold", "precision", "recall", "f1"])
        for scope, prf in rows:
            for tm in prf:
                writer.writerow(
                    [scope, repr(tm.threshold), repr(tm.precision), repr(tm.recall), repr(tm.f1)]
                )


def write_schema_csv(report: SchemaLevelReport, path: str | Path) -> None:
    """Per-schema metrics plus the pooled micro row."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["schema", "n_tune", "n_eval", "bs_p", "bs_i", "auc", "ece_raw", "ece_p", "ece_i"]
        )
        for row in report.schemas:
            m = row.metrics
            writer.writerow(
                [row.schema_id, row.n_tune, row.n_eval, _fmt(m.bs_p), _fmt(m.bs_i),
                 _fmt(m.auc), _fmt(m.ece_raw), _fmt(m.ece_p), _fmt(m.ece_i)]
            )
        m = report.micro
        n_tune = sum(r.n_tune for r in report.schemas)
        n_eval = sum(r.n_eval for r in report.schemas)
        writer.writerow(
            ["micro", n_tune, n_eval, _fmt(m.bs_p), _fmt(m.bs_i), _fmt(m.auc),
             _fmt(m.ece_raw), _fmt(m.ece_p), _fmt(m.ece_i)]
        )


def write_compare_csv(reports: Mapping[str, EvaluationReport], path: str | Path) -> None:
    """Side-by-side method comparison on the headline columns."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "bs_i", "auc", "ece_p", "ece_i"])
        for method, report in reports.items():
            writer.writerow(
                [method, _fmt(report.mean.get("bs_i")), _fmt(report.mean.get("auc")),
                 _fmt(report.mean.get("ece_p")), _fmt(report.mean.get("ece_i"))]
            )
