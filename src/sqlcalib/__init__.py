"""Confidence calibration toolkit for generated SQL predictions.

Every public name is imported from its submodule on first access, so a
program that needs only `records`, `scoring` or `execmatch` never loads
numpy.
"""

from __future__ import annotations

import importlib
from typing import Any

_EXPORTS = {
    "binning": ("Bin", "BinPartition", "monotonic_bins", "uniform_bins"),
    "calibrate": ("IsotonicCalibrator", "PlattCalibrator", "apply_isotonic", "apply_platt",
                  "fit_isotonic", "fit_platt", "load_calibrator", "save_calibrator"),
    "execmatch": ("ExecutionError", "GoldExecutionError", "ResultTable", "SQLiteExecutor",
                  "label_record", "tables_equal"),
    "metrics": ("MetricsReport", "SingleClassError", "ThresholdMetrics", "auc", "brier", "ece",
                "prf_at_threshold", "summarize"),
    "protocol": ("EvaluationReport", "ProtocolConfig", "SchemaLevelReport", "cross_validate",
                 "generate_synthetic", "schema_level_evaluate"),
    "records": ("Alternative", "Dataset", "DatasetError", "PredictionRecord", "RecordError",
                "load_dataset", "write_dataset"),
    "report": ("ReliabilitySeries", "reliability_series", "render_reliability",
               "write_reliability_csv"),
    "scoring": ("ScoredColumns", "ScoringResult", "load_scored", "pool_avg", "pool_geo",
                "pool_min", "pool_prod", "score_dataset", "score_self_check_bool",
                "score_self_check_probs", "score_variant_alt", "write_scored"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str) -> Any:
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
