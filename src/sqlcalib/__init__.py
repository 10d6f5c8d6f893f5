"""Confidence calibration toolkit for generated SQL predictions."""

from .binning import Bin, BinPartition, monotonic_bins, uniform_bins
from .calibrate import (
    IsotonicCalibrator,
    PlattCalibrator,
    apply_isotonic,
    apply_platt,
    fit_isotonic,
    fit_platt,
    load_calibrator,
    save_calibrator,
)
from .execmatch import (
    ExecutionError,
    GoldExecutionError,
    ResultTable,
    SQLiteExecutor,
    label_record,
    tables_equal,
)
from .metrics import (
    MetricsReport,
    SingleClassError,
    ThresholdMetrics,
    auc,
    brier,
    ece,
    prf_at_threshold,
    summarize,
)
from .protocol import (
    EvaluationReport,
    ProtocolConfig,
    SchemaLevelReport,
    cross_validate,
    generate_synthetic,
    schema_level_evaluate,
)
from .records import (
    Alternative,
    Dataset,
    DatasetError,
    PredictionRecord,
    RecordError,
    dataset_summary,
    load_dataset,
    make_dataset,
    write_dataset,
)
from .report import (
    ReliabilitySeries,
    reliability_series,
    render_reliability,
    write_reliability_csv,
)
from .scoring import (
    ScoredRecord,
    ScoringResult,
    SkipRecord,
    load_scored,
    pool_avg,
    pool_geo,
    pool_min,
    pool_prod,
    score_dataset,
    score_record,
    score_self_check_bool,
    score_self_check_probs,
    score_variant_alt,
    write_scored,
)

__version__ = "0.1.0"
