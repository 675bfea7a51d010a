"""End-to-end anomaly pipeline: train → evaluate → publish to the TSDB.

The integration layer gluing the three systems together, mirroring
Figure 1: sensor data and *flagged anomalies* both live in OpenTSDB
("Results from online evaluation are reported back to OpenTSDB for use
by the integrated visualization tool"), and the visualization reads
everything back through the query engine.

Training (:class:`~repro.core.training.OfflineTrainer`, one unit per
task, models installed by the driver) and scoring share one executor
pool per call.  Scoring is
:meth:`~repro.core.engine.FleetEvaluationEngine.evaluate_fleet`, the
engine the streaming detector scores through too, and each unit's
scored window is turned into its payloads by
:func:`~repro.core.engine.write_back`: data as one record block, flagged
cells as ``anomaly`` points and T² alarms as ``anomaly.unit`` points.
They are published once per unit through the cluster's real ingress
(:meth:`~repro.tsdb.ingest.TsdbCluster.submit` → the buffering reverse
proxy) with bounded in-flight batches and durable-ack tracking — the
§III backpressure discipline, applied to the analysis write-back path
too.  :meth:`AnomalyPipeline.run`'s keywords are the run options, and
every run is instrumented with a
:class:`~repro.cluster.metrics.MetricsRegistry` (per-stage timings,
scored samples/s, publish acks and retries) surfaced on
:class:`PipelineResult`.
"""

from __future__ import annotations

import dataclasses
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..cluster.metrics import MetricsRegistry
from ..obs.selfreport import SelfReporter
from ..simdata.generator import FleetGenerator
from ..sparklet.context import SparkletContext
from ..sparklet.storage import BlockStore
from ..tsdb.ingest import TsdbCluster
from ..tsdb.publish import BatchPublisher, PublishReport
from .engine import (
    ANOMALY_METRIC,
    UNIT_ALARM_METRIC,
    FleetEvaluationEngine,
    flagged_cells,
    write_back,
)
from .fdr import AnomalyReport, FDRDetectorConfig
from .metrics import DetectionOutcome
from .model import UnitModel
from .training import OfflineTrainer, TrainingResult

__all__ = [
    "ANOMALY_METRIC",
    "UNIT_ALARM_METRIC",
    "AnomalyPipeline",
    "PipelineResult",
]

#: Points per put batch the run submits to the cluster ingress.
PUBLISH_BATCH_SIZE = 500
#: Put batches each of the run's publishers keeps in flight before it waits on acks.
MAX_IN_FLIGHT_BATCHES = 32


@dataclass
class PipelineResult:
    """Everything one pipeline run produced, per unit.

    Beyond the per-unit reports/outcomes, a run carries its own
    instrumentation: ``stage_seconds`` (wall-clock per train / evaluate
    / publish stage), ``samples_per_second`` (sensor samples scored per
    evaluation-stage second), the publish-side
    :class:`~repro.tsdb.publish.PublishReport` for the data and anomaly
    channels, and the backing ``metrics`` registry with the raw
    counters (``publish.data.acks``, ``publish.anomaly.retries``, …).
    """

    reports: Dict[int, AnomalyReport] = field(default_factory=dict)
    outcomes: Dict[int, DetectionOutcome] = field(default_factory=dict)
    points_published: int = 0
    anomalies_published: int = 0
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    samples_per_second: float = 0.0
    data_publish: Optional[PublishReport] = None
    anomaly_publish: Optional[PublishReport] = None
    self_reporter: Optional[SelfReporter] = None

    def total_discoveries(self) -> int:
        return sum(r.n_discoveries for r in self.reports.values())

    @property
    def publish_acks(self) -> int:
        """Durably acknowledged put batches across both channels."""
        return sum(
            rep.batches_acked
            for rep in (self.data_publish, self.anomaly_publish)
            if rep is not None
        )

    @property
    def publish_retries(self) -> int:
        """Proxy re-dispatches of bounced batches across both channels."""
        return sum(
            rep.retries
            for rep in (self.data_publish, self.anomaly_publish)
            if rep is not None
        )


class AnomalyPipeline:
    """Drives the full train/evaluate/publish loop for a fleet.

    Parameters
    ----------
    generator:
        The synthetic fleet (§II-A dataset).
    cluster:
        The simulated TSDB deployment to publish into (optional; the
        pipeline also works storage-less for pure detection studies).
    store:
        Block store for model artifacts.
    config:
        Detector configuration.
    ctx:
        Sparklet context whose pool training and scoring fan out on;
        without one, each call makes a transient pool as wide as the
        host.  A one-wide context runs both stages inline on the
        calling thread.
    """

    def __init__(
        self,
        generator: FleetGenerator,
        cluster: Optional[TsdbCluster] = None,
        store: Optional[BlockStore] = None,
        config: Optional[FDRDetectorConfig] = None,
        ctx: Optional[SparkletContext] = None,
    ) -> None:
        self.generator = generator
        self.cluster = cluster
        self.config = config if config is not None else FDRDetectorConfig()
        self.ctx = ctx
        self.store = store
        self._models: Dict[int, UnitModel] = {}
        self.engine = FleetEvaluationEngine(self._models, self.config)

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def train(
        self, unit_ids: Optional[Sequence[int]] = None, *, n_train: int = 600
    ) -> TrainingResult:
        """Fit the units' models on an executor pool; the driver keeps them.

        Training is idempotent per ``(unit, n_train)``: the generator's
        training windows are deterministic, so refitting an
        already-trained unit would recompute the identical model — such
        units are skipped.  Calling with a different ``n_train`` refits.
        The stale units go to :meth:`OfflineTrainer.train_fleet` on the
        attached context's pool (or a transient one as wide as the
        host), and are installed on the calling thread once all have
        fitted: a unit that fails raises ``ValueError`` naming it and
        leaves the pipeline's models as they were.
        """
        with self._pool() as ctx:
            return self._train(self._units(unit_ids), n_train, ctx)

    def _units(self, unit_ids: Optional[Sequence[int]]) -> List[int]:
        """The units a call works on, each once, in the order given."""
        return list(dict.fromkeys(unit_ids if unit_ids is not None else self.generator.units()))

    def _train(
        self, units: List[int], n_train: int, ctx: Optional[SparkletContext]
    ) -> TrainingResult:
        models = self._models
        stale = [u for u in units if u not in models or models[u].n_train != n_train]
        trained = OfflineTrainer(ctx, self.store, self.config).train_fleet(
            self.generator, stale, n_train
        )
        models.update(trained.models)
        return dataclasses.replace(trained, unit_ids=units)

    @contextmanager
    def _pool(self) -> Iterator[Optional[SparkletContext]]:
        """The executor pool one call fans out on; ``None`` runs inline.

        The attached context supplies the pool, or a transient one as
        wide as the host lives for the call.  Width 1 runs on the
        calling thread.
        """
        width = self.ctx.parallelism if self.ctx is not None else os.cpu_count() or 1
        if width > 1 and self.ctx is None:
            with SparkletContext(width) as ctx:
                yield ctx
        else:
            yield self.ctx if width > 1 else None

    def model_for(self, unit_id: int) -> UnitModel:
        try:
            return self._models[unit_id]
        except KeyError:
            raise KeyError(f"unit {unit_id} has no trained model; call train() first") from None

    # ------------------------------------------------------------------
    # evaluation + publishing
    # ------------------------------------------------------------------
    def run(
        self,
        unit_ids: Optional[Sequence[int]] = None,
        *,
        n_train: int = 600,
        n_eval: int = 600,
        publish: bool = True,
        use_proxy_path: bool = True,
        self_report: bool = False,
    ) -> PipelineResult:
        """Full loop over the fleet; returns reports, outcomes, metrics.

        The keywords are the run options, and the only ones:

        * ``n_train`` / ``n_eval`` — training and evaluation window
          lengths in samples;
        * ``publish`` — write data and anomalies back to the attached
          cluster;
        * ``use_proxy_path`` — publish through ``TsdbCluster.submit()``,
          the buffering reverse proxy with durable acks; ``False`` bulk
          loads through ``direct_put`` (no simulated RPC);
        * ``self_report`` — flush the run's and the cluster's metrics
          into the attached TSDB every :data:`~repro.obs.selfreport.INTERVAL`
          sim-seconds while the run goes (ignored without a cluster).

        Each unit is trained and scored once, however often it is
        listed.  Training and scoring share one executor pool (see
        :meth:`_pool`); scoring fans out across the evaluation engine
        in waves, and publishing streams each wave through the
        backpressured proxy path as the next wave is scored.  Span
        tracing is the cluster's own (``cluster.tracer``).
        """
        if n_train < 2:
            raise ValueError("n_train must be >= 2")
        if n_eval < 1:
            raise ValueError("n_eval must be >= 1")
        units = self._units(unit_ids)
        # Fresh registry per run so counters never bleed across runs:
        # the engine's ``engine.*``, the publishers' ``publish.*`` and
        # the ``pipeline.*`` gauges below all land in ``result.metrics``.
        registry = MetricsRegistry()
        result = PipelineResult(metrics=registry)
        self.engine.metrics = registry

        reporter = None
        if self_report and self.cluster is not None:
            # Flush cluster-side *and* run-side metrics back into the
            # TSDB itself, so platform health is queryable like any
            # other series (tsd.*, proxy.*, engine.*, publish.*).
            reporter = SelfReporter(self.cluster, extra=(registry,))
            reporter.start()
            result.self_reporter = reporter

        try:
            with self._pool() as ctx:
                t0 = time.perf_counter()
                self._train(units, n_train, ctx)
                train_seconds = time.perf_counter() - t0

                publishing = publish and self.cluster is not None
                data_pub = anomaly_pub = None
                if publishing:
                    data_pub, anomaly_pub = self._publishers(use_proxy_path, registry)

                evaluate_seconds = 0.0
                publish_seconds = 0.0
                samples_scored = 0
                waves = self.engine.evaluate_fleet(self.generator, units, n_eval, ctx)
                while True:
                    t0 = time.perf_counter()
                    wave = next(waves, None)
                    evaluate_seconds += time.perf_counter() - t0
                    if wave is None:
                        break
                    t0 = time.perf_counter()
                    for evaluation in wave:
                        result.reports[evaluation.unit_id] = evaluation.report
                        result.outcomes[evaluation.unit_id] = evaluation.outcome
                        samples_scored += evaluation.values.size
                        if publishing:
                            data, anomalies = write_back(
                                evaluation, flagged_cells(evaluation.report)
                            )
                            data_pub.publish_blocks(data)
                            anomaly_pub.publish(anomalies)
                    publish_seconds += time.perf_counter() - t0

            if publishing:
                t0 = time.perf_counter()
                result.data_publish = data_pub.flush()
                result.anomaly_publish = anomaly_pub.flush()
                publish_seconds += time.perf_counter() - t0
                result.points_published = result.data_publish.points_written
                result.anomalies_published = result.anomaly_publish.points_written

            result.stage_seconds = {
                "train": train_seconds,
                "evaluate": evaluate_seconds,
                "publish": publish_seconds,
            }
            if evaluate_seconds > 0:
                result.samples_per_second = samples_scored / evaluate_seconds
            registry.gauge("pipeline.train_seconds").set(train_seconds)
            registry.gauge("pipeline.evaluate_seconds").set(evaluate_seconds)
            registry.gauge("pipeline.publish_seconds").set(publish_seconds)
            registry.gauge("pipeline.samples_per_second").set(result.samples_per_second)
            registry.counter("pipeline.units").inc(len(units))
            registry.counter("pipeline.samples_scored").inc(samples_scored)
            if reporter is not None:
                # Final flush after the stage gauges above, so the last
                # self-metric snapshot includes the completed run's totals.
                reporter.flush()
        finally:
            # The run leaves no reporter ticking on the cluster's
            # simulator, even when it fails.
            if reporter is not None:
                reporter.stop()
        return result

    # ------------------------------------------------------------------
    def _publishers(
        self, use_proxy_path: bool, registry: MetricsRegistry
    ) -> Tuple[BatchPublisher, BatchPublisher]:
        """Separate data / anomaly publishers so ack counts stay attributable."""
        assert self.cluster is not None
        make = lambda channel: BatchPublisher(  # noqa: E731
            self.cluster,
            batch_size=PUBLISH_BATCH_SIZE,
            max_in_flight_batches=MAX_IN_FLIGHT_BATCHES,
            use_proxy_path=use_proxy_path,
            metrics=registry,
            channel=channel,
        )
        return make("publish.data"), make("publish.anomaly")
