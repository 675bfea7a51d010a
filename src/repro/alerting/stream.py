"""The continuous path: micro-batch stream → detection → incidents.

This is the closed loop the paper's §VI names as ongoing work, built
on the batch run's evaluation path:

* a :class:`~repro.sparklet.streaming.DStream` of ``(unit_id,
  start_time, values)`` micro-batch records drives the intervals;
* each record is scored and turned into write-back by the same
  :class:`~repro.core.engine.FleetEvaluationEngine` and
  :func:`~repro.core.engine.write_back` the batch run uses, continuing
  the unit's window across records: raw samples as columnar
  :class:`~repro.tsdb.blocks.SeriesBlock` batches, flagged cells as
  ``anomaly`` points and T² alarms as ``anomaly.unit`` points, through
  ack-tracked :class:`~repro.tsdb.publish.BatchPublisher` channels;
* :class:`~repro.core.streaming.StreamingTrainer` folds each batch
  into per-unit moments and periodically refreshes models, which are
  **hot-swapped** into the engine's models via ``on_model`` — scoring
  never pauses for training, and the window survives the swap;
* flagged cells become :class:`~repro.alerting.events.AnomalyEvent`
  feeding the :class:`~repro.alerting.manager.AlertManager`, whose
  incidents land back in the TSDB as ``alert.*`` series.

Training reads only rows the current model did *not* flag, so an
active fault does not poison the very statistics used to detect it
(before a unit has any model, everything trains — the cold-start data
is the stream's own early history).
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..cluster.metrics import MetricsRegistry
from ..core.engine import FleetEvaluationEngine, data_blocks, flagged_cells, write_back
from ..core.fdr import FDRDetectorConfig
from ..core.model import UnitModel
from ..core.streaming import StreamingTrainer
from ..simdata.generator import FleetGenerator
from ..sparklet.context import SparkletContext
from ..sparklet.rdd import RDD
from ..sparklet.streaming import DStream, StreamingContext
from ..tsdb.blocks import BlockBatch, SeriesBlock
from ..tsdb.ingest import TsdbCluster
from ..tsdb.publish import BatchPublisher, PublishReport
from ..tsdb.tsd import DataPoint
from .events import AlertingConfig, AnomalyEvent, Incident
from .manager import AlertManager
from .store import AlertStore

__all__ = ["StreamingDetector", "StreamingDetectionReport", "fleet_microbatches"]

#: One stream record: (unit_id, start_time, values (T, p)).
StreamRecord = Tuple[int, int, np.ndarray]

#: Points per put batch on each of the detector's publisher channels.
PUBLISH_BATCH_SIZE = 400


def fleet_microbatches(
    generator: FleetGenerator,
    unit_ids: Optional[Sequence[int]] = None,
    *,
    n_train: int = 300,
    n_eval: int = 300,
    interval: int = 25,
) -> Iterator[List[StreamRecord]]:
    """The fleet as a deterministic micro-batch stream.

    Each interval yields one record per unit covering ``interval``
    rows; the first ``n_train`` rows are the fault-free training
    window, followed seamlessly by the evaluation window (faults
    injected at their per-unit onsets) — exactly the arrival order a
    live fleet would produce.
    """
    if interval < 1:
        raise ValueError("interval must be >= 1")
    units = list(unit_ids) if unit_ids is not None else list(generator.units())
    windows = {
        u: np.vstack(
            [
                generator.training_window(u, n_train).values,
                generator.evaluation_window(u, n_eval, start_time=n_train).values,
            ]
        )
        for u in units
    }
    total = n_train + n_eval
    for start in range(0, total, interval):
        stop = min(start + interval, total)
        yield [(u, start, windows[u][start:stop]) for u in units]


@dataclass
class StreamingDetectionReport:
    """Everything one streaming run produced (returned by ``finalize``)."""

    intervals: int = 0
    samples_streamed: int = 0
    samples_scored: int = 0
    naive_alerts: int = 0
    incidents: List[Incident] = field(default_factory=list)
    model_swaps: int = 0
    quarantines: int = 0
    records_rejected: int = 0
    wall_seconds: float = 0.0
    data_publish: Optional[PublishReport] = None
    anomaly_publish: Optional[PublishReport] = None
    alert_publish: Optional[PublishReport] = None

    @property
    def incidents_opened(self) -> int:
        return len(self.incidents)

    @property
    def volume_reduction(self) -> float:
        """Naive per-sensor firings per emitted incident."""
        if not self.incidents:
            return float("inf") if self.naive_alerts else 1.0
        return self.naive_alerts / len(self.incidents)

    @property
    def samples_per_second(self) -> float:
        """End-to-end sustained ingest rate (stream → incident), wall clock."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.samples_streamed / self.wall_seconds

    def unit_incidents(self, unit_id: int) -> List[Incident]:
        return [
            i for i in self.incidents if i.scope == "unit" and i.unit_id == unit_id
        ]

    def detection_latencies(self, onsets: Dict[int, int]) -> Dict[int, int]:
        """Stream-time latency from fault onset to incident open.

        ``onsets`` maps unit id → absolute onset time.  A unit with no
        incident opened at/after its onset is *missed* and omitted —
        callers compare the result's keys against ``onsets`` to count
        misses.
        """
        out: Dict[int, int] = {}
        for unit_id, onset in onsets.items():
            opened = [
                i.opened_at
                for i in self.unit_incidents(unit_id)
                if i.opened_at >= onset
            ]
            if opened:
                out[unit_id] = min(opened) - onset
        return out


class StreamingDetector:
    """Continuous detection + alerting over a micro-batch stream.

    Parameters
    ----------
    n_sensors:
        Per-unit sensor count (the fleet schema).
    cluster:
        Deployment to publish data/anomalies/alerts into, in put
        batches of :data:`PUBLISH_BATCH_SIZE` points (optional —
        without it the run is storage-less: detection and alerting
        only).
    config:
        Detector configuration shared by trainer and scoring engine.
    alerting:
        Alerting-layer knobs (the opening hysteresis).
    refresh_every / min_samples:
        :class:`StreamingTrainer` cadence.
    metrics:
        Shared registry (a fresh one by default); the detector's
        ``alerting.model_swaps``, ``alerting.quarantines``, … land next
        to the manager's, publishers' and store's counters.
    """

    def __init__(
        self,
        n_sensors: int,
        cluster: Optional[TsdbCluster] = None,
        *,
        config: Optional[FDRDetectorConfig] = None,
        alerting: Optional[AlertingConfig] = None,
        refresh_every: int = 3,
        min_samples: int = 50,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.n_sensors = n_sensors
        self.cluster = cluster
        self.config = config if config is not None else FDRDetectorConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        store = None
        self._data_pub: Optional[BatchPublisher] = None
        self._anomaly_pub: Optional[BatchPublisher] = None
        if cluster is not None:
            store = AlertStore(cluster, metrics=self.metrics)
            self._data_pub, self._anomaly_pub = (
                BatchPublisher(
                    cluster, batch_size=PUBLISH_BATCH_SIZE, metrics=self.metrics, channel=channel
                )
                for channel in ("publish.data", "publish.anomaly")
            )
        self.manager = AlertManager(alerting, metrics=self.metrics, store=store)
        self.trainer = StreamingTrainer(
            n_sensors,
            config=self.config,
            refresh_every=refresh_every,
            min_samples=min_samples,
            on_model=self._swap_model,
            on_quarantine=self._on_quarantine,
        )
        self.engine = FleetEvaluationEngine(config=self.config)
        self.report = StreamingDetectionReport()
        self._clock = 0  # stream time at the end of the last interval
        self._finalized = False

    # ------------------------------------------------------------------
    # model hot-swap (StreamingTrainer.on_model)
    # ------------------------------------------------------------------
    def _swap_model(self, model: UnitModel) -> None:
        self.engine.models[model.unit_id] = model
        self.report.model_swaps += 1
        self.metrics.counter("alerting.model_swaps").inc()

    def _on_quarantine(self, unit_id: int) -> None:
        self.report.quarantines += 1
        self.metrics.counter("alerting.quarantines").inc()

    # ------------------------------------------------------------------
    # stream wiring
    # ------------------------------------------------------------------
    def attach(self, stream: DStream) -> None:
        """Register this detector as an output on a record stream."""
        stream.foreach_rdd(self._on_interval)

    def _on_interval(self, _time_index: int, rdd: RDD) -> None:
        t0 = time.perf_counter()
        records: List[StreamRecord] = rdd.collect()
        publishing = self._data_pub is not None
        events: List[AnomalyEvent] = []
        blocks: List[SeriesBlock] = []
        anomaly_points: List[DataPoint] = []
        for unit_id, start_time, values in records:
            x = np.asarray(values, dtype=np.float64)
            if x.size == 0:
                continue
            if x.ndim != 2 or x.shape[1] != self.n_sensors or not np.isfinite(x).all():
                # Malformed or non-finite, dropped whole: not scored,
                # not trained on, not published.
                self.report.records_rejected += 1
                self.metrics.counter("alerting.records_rejected").inc()
                continue
            self.report.samples_streamed += x.size
            self._clock = max(self._clock, start_time + x.shape[0])
            if unit_id not in self.engine.models:
                # Cold start: everything trains until the first model.
                if publishing:
                    blocks += data_blocks(unit_id, start_time, x)
                self.trainer.ingest(unit_id, x)
                continue
            evaluation = self.engine.evaluate_unit(unit_id, start_time, x)
            cells = flagged_cells(evaluation.report)
            self.report.samples_scored += x.size
            self.report.naive_alerts += len(cells)
            events += [
                AnomalyEvent(unit_id, sensor, start_time + row, z) for row, sensor, z in cells
            ]
            if publishing:
                data, anomalies = write_back(evaluation, cells)
                blocks += data
                anomaly_points += anomalies
            # Train on what the current model considers clean, so an
            # in-progress fault does not drag the baseline toward it.
            clean = ~evaluation.report.flags.any(axis=1)
            self.trainer.ingest(unit_id, x[clean] if not clean.all() else x)
        if blocks:
            self._data_pub.publish_blocks(BlockBatch(blocks))
        if anomaly_points:
            self._anomaly_pub.publish(anomaly_points)
        self.manager.observe(self._clock, events)
        self.report.intervals += 1
        self.metrics.counter("alerting.intervals").inc()
        self.metrics.histogram("alerting.interval_seconds").observe(
            time.perf_counter() - t0
        )

    # ------------------------------------------------------------------
    # driving
    # ------------------------------------------------------------------
    def run_fleet(
        self,
        generator: FleetGenerator,
        unit_ids: Optional[Sequence[int]] = None,
        *,
        n_train: int = 300,
        n_eval: int = 300,
        interval: int = 25,
        ctx: Optional[SparkletContext] = None,
    ) -> StreamingDetectionReport:
        """Stream a generated fleet end to end and finalize.

        Convenience wrapper: builds the micro-batch source with
        :func:`fleet_microbatches`, attaches this detector, runs the
        stream to exhaustion, and returns the finalized report.  Without
        ``ctx`` the stream runs on a context of its own, stopped when
        the stream ends.
        """
        with nullcontext(ctx) if ctx is not None else SparkletContext(parallelism=2) as sc:
            ssc = StreamingContext(sc)
            stream = ssc.generator_stream(
                fleet_microbatches(
                    generator, unit_ids, n_train=n_train, n_eval=n_eval, interval=interval
                )
            )
            self.attach(stream)
            t0 = time.perf_counter()
            ssc.run()
            self.report.wall_seconds = time.perf_counter() - t0
        return self.finalize()

    def finalize(self) -> StreamingDetectionReport:
        """Flush every publisher channel and seal the report.

        Conservation is enforced per channel by each publisher's own
        ``flush`` — a lost alert or anomaly point raises rather than
        vanishing.
        """
        if self._finalized:
            return self.report
        self._finalized = True
        if self._data_pub is not None:
            self.report.data_publish = self._data_pub.flush()
        if self._anomaly_pub is not None:
            self.report.anomaly_publish = self._anomaly_pub.flush()
        if self.manager.store is not None:
            self.report.alert_publish = self.manager.store.flush()
        self.report.incidents = list(self.manager.incidents)
        return self.report
