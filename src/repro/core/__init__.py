"""Anomaly detection core: the paper's primary contribution.

Hypothesis tests on sensor streams, multiple-testing control (the
Benjamini–Hochberg FDR procedure and its comparators), the trained
covariance/SVD unit models, SPC baselines, the high-throughput online
evaluator, the sparklet training job, and the end-to-end pipeline that
publishes flagged anomalies back to the TSDB.
"""

from .fdr import AnomalyReport, FDRDetector, FDRDetectorConfig
from .hypothesis import (
    t2_pvalues,
    t2_statistic,
    two_sided_pvalues,
    window_mean_zscores,
    zscores,
)
from .metrics import (
    AggregateMetrics,
    DetectionOutcome,
    aggregate_outcomes,
    detection_delay,
    evaluate_flags,
)
from .model import IncrementalMoments, UnitModel, load_model, model_key, save_model
from .multiple_testing import (
    PROCEDURES,
    apply_procedure,
    benjamini_hochberg,
    benjamini_yekutieli,
    bonferroni,
    family_wise_error_probability,
    holm,
    step_up_sparse,
    uncorrected,
)
from .engine import FleetEvaluationEngine, UnitEvaluation
from .online import OnlineEvaluator, StreamStats
from .pipeline import (
    ANOMALY_METRIC,
    UNIT_ALARM_METRIC,
    AnomalyPipeline,
    PipelineConfig,
    PipelineResult,
)
from .spc import CusumChart, EwmaChart, MewmaChart, ShewhartChart
from .streaming import StreamingTrainer
from .training import OfflineTrainer, TrainingResult, train_unit_distributed

__all__ = [
    "ANOMALY_METRIC",
    "AggregateMetrics",
    "AnomalyPipeline",
    "AnomalyReport",
    "CusumChart",
    "DetectionOutcome",
    "EwmaChart",
    "FDRDetector",
    "FDRDetectorConfig",
    "FleetEvaluationEngine",
    "IncrementalMoments",
    "MewmaChart",
    "OfflineTrainer",
    "OnlineEvaluator",
    "PROCEDURES",
    "PipelineConfig",
    "PipelineResult",
    "ShewhartChart",
    "StreamStats",
    "StreamingTrainer",
    "TrainingResult",
    "UNIT_ALARM_METRIC",
    "UnitEvaluation",
    "UnitModel",
    "aggregate_outcomes",
    "apply_procedure",
    "benjamini_hochberg",
    "benjamini_yekutieli",
    "bonferroni",
    "detection_delay",
    "evaluate_flags",
    "family_wise_error_probability",
    "holm",
    "load_model",
    "model_key",
    "save_model",
    "step_up_sparse",
    "t2_pvalues",
    "t2_statistic",
    "train_unit_distributed",
    "two_sided_pvalues",
    "uncorrected",
    "window_mean_zscores",
    "zscores",
]
