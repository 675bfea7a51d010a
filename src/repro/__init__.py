"""repro: scalable anomaly detection and visualization for power assets.

A full reproduction of Jain et al., *Scalable Architecture for Anomaly
Detection and Visualization in Power Generating Assets* (IPDPS
Workshops 2017, arXiv:1701.07500): the OpenTSDB/HBase-style ingestion
tier (simulated on a discrete-event substrate), the FDR anomaly
detector with its Spark-style offline trainer, the §II-A synthetic
fleet dataset, and the Figure 3 visualization tool.

Quick start::

    from repro import FleetGenerator, FleetConfig, AnomalyPipeline, build_cluster

    gen = FleetGenerator(FleetConfig(n_units=10, n_sensors=50))
    cluster = build_cluster(n_nodes=5, retain_data=True)
    pipeline = AnomalyPipeline(gen, cluster)
    result = pipeline.run(n_train=300, n_eval=300)
    print(result.total_discoveries(), "anomalies flagged")

Subpackages
-----------
``repro.core``
    The FDR detector, multiple-testing procedures, SPC baselines,
    online evaluator, trainer, and end-to-end pipeline.
``repro.tsdb`` / ``repro.hbase`` / ``repro.cluster``
    The simulated ingestion and storage tier.
``repro.sparklet``
    The Spark-like batch dataflow engine.
``repro.simdata``
    The synthetic evaluation fleet.
``repro.serve``
    The query-serving gateway (result cache, admission control,
    fleet-workload driver) between the dashboard and the TSDB.
``repro.viz``
    The static dashboard generator.
``repro.bench``
    The experiment harness regenerating every paper figure/table.
"""

from .alerting import (
    AlertManager,
    AlertStore,
    AlertingConfig,
    AnomalyEvent,
    Incident,
    IncidentState,
    StreamingDetectionReport,
    StreamingDetector,
)
from .core import (
    AnomalyPipeline,
    AnomalyReport,
    CusumChart,
    EwmaChart,
    FDRDetector,
    FDRDetectorConfig,
    FleetEvaluationEngine,
    IncrementalMoments,
    OfflineTrainer,
    OnlineEvaluator,
    PipelineResult,
    ShewhartChart,
    StreamingTrainer,
    TrainingResult,
    UnitEvaluation,
    UnitModel,
    aggregate_outcomes,
    benjamini_hochberg,
    bonferroni,
    evaluate_flags,
    family_wise_error_probability,
)
from .simdata import FaultKind, FaultSpec, FleetConfig, FleetGenerator
from .sparklet import BlockStore, SparkletContext, StreamingContext
from .tsdb import (
    AsyncQueryExecutor,
    BatchPublisher,
    BlockBatch,
    ClusterConfig,
    DataPoint,
    IngestionDriver,
    PublishReport,
    QueryEngine,
    ReverseProxy,
    SeriesBlock,
    TsdbCluster,
    TsdbQuery,
    blocks_from_points,
    build_cluster,
    parse_block,
)
from .serve import (
    FleetWorkload,
    GatewayConfig,
    QueryGateway,
    QueryRejected,
    WorkloadConfig,
    WorkloadReport,
)
from .viz import Dashboard, FleetAnalytics

__version__ = "1.0.0"

__all__ = [
    "AlertManager",
    "AlertStore",
    "AlertingConfig",
    "AnomalyEvent",
    "AnomalyPipeline",
    "AnomalyReport",
    "AsyncQueryExecutor",
    "BatchPublisher",
    "BlockBatch",
    "BlockStore",
    "ClusterConfig",
    "CusumChart",
    "Dashboard",
    "DataPoint",
    "EwmaChart",
    "FDRDetector",
    "FDRDetectorConfig",
    "FaultKind",
    "FaultSpec",
    "FleetAnalytics",
    "FleetConfig",
    "FleetEvaluationEngine",
    "FleetGenerator",
    "FleetWorkload",
    "GatewayConfig",
    "Incident",
    "IncidentState",
    "IncrementalMoments",
    "IngestionDriver",
    "OfflineTrainer",
    "OnlineEvaluator",
    "PipelineResult",
    "PublishReport",
    "QueryEngine",
    "QueryGateway",
    "QueryRejected",
    "ReverseProxy",
    "SeriesBlock",
    "ShewhartChart",
    "SparkletContext",
    "StreamingContext",
    "StreamingDetectionReport",
    "StreamingDetector",
    "StreamingTrainer",
    "TrainingResult",
    "TsdbCluster",
    "TsdbQuery",
    "UnitEvaluation",
    "UnitModel",
    "WorkloadConfig",
    "WorkloadReport",
    "__version__",
    "aggregate_outcomes",
    "benjamini_hochberg",
    "blocks_from_points",
    "bonferroni",
    "build_cluster",
    "evaluate_flags",
    "family_wise_error_probability",
    "parse_block",
]
