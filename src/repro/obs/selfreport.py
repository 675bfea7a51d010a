"""Self-telemetry write-back: the platform monitors itself.

OpenTSDB famously ingests its own ``tsd.*`` self-metrics, and the
paper's control-center is a pure read-side consumer of the same store
it monitors.  :class:`SelfReporter` reproduces that loop: it
periodically snapshots one or more metrics registries into the
simulated TSDB as ``{component}.{metric}`` series tagged
``host=<component-or-label>``, so platform health (``proxy.ack_latency.p99``,
``tsd.batches_rejected``, ``engine.units_scored``, …) is queryable
through the very :class:`~repro.tsdb.query.QueryEngine` the dashboard
uses for fleet data.  A metric's component is read from its name
(:data:`ROUTES`); a deployment keeps all of its metrics in one registry.

Chaos integration: when constructed with a
:class:`~repro.chaos.report.ChaosReport`, each flush also emits
``chaos.components_down`` (gauge of currently open outages) and a
``chaos.down`` 0/1 edge series per component via
:meth:`write_chaos_windows`, so injected-fault windows line up with the
self-metric dips they cause.

Writes go through :meth:`~repro.tsdb.ingest.TsdbCluster.direct_put`
(the sanctioned offline write-back path) so self-reporting never
competes with the ingest workload under study.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..cluster.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..chaos.report import ChaosReport
    from ..tsdb.ingest import TsdbCluster
    from ..tsdb.tsd import DataPoint

__all__ = ["INTERVAL", "ROUTES", "MetricSample", "SelfReporter", "samples"]

#: Sim-seconds between a started reporter's flushes.
INTERVAL = 0.25

#: First dotted-name segment -> the component a metric's total is
#: reported under (its ``host`` tag).  Unlisted prefixes report under
#: ``cluster``.
ROUTES: Dict[str, str] = {
    "proxy": "proxy",
    "tsd": "tsd",
    "client": "tsd",  # the AsyncHBase-style client lives inside the TSDs
    "regionserver": "regionserver",
    "rpc": "regionserver",
    "cells": "regionserver",
    "engine": "engine",
    "pipeline": "engine",
    "publish": "publisher",
    "chaos": "chaos",
    "serve": "serve",  # the query-serving gateway (cache/admission)
    "alerting": "alerting",  # incident dedup/suppression/roll-up tier
    "master": "master",  # region assignment, crash recovery, failovers
    "replication": "replication",  # follower replicas and WAL shipping
}

#: Histogram quantiles exported as ``<name>.<suffix>`` self-metrics.
_HISTOGRAM_EXPORTS: Tuple[Tuple[str, float], ...] = (
    ("p50", 0.50),
    ("p95", 0.95),
    ("p99", 0.99),
)


@dataclass(frozen=True)
class MetricSample:
    """One flattened metric value ready for TSDB write-back."""

    name: str
    value: float
    host: str


def _component(name: str) -> str:
    return ROUTES.get(name.split(".", 1)[0], "cluster")


def samples(registry: MetricsRegistry) -> List[MetricSample]:
    """Flatten a registry into ``(name, value, host)`` rows.

    Totals carry ``host`` = the component their name routes to.
    Counters emit their total plus one row per label child
    (``host`` = label); gauges emit their value; histograms with
    observations emit ``.p50/.p95/.p99/.mean/.count`` sub-metrics.
    Rows come sorted by component, then counters, gauges and
    histograms, each by name.
    """
    rows: Dict[Tuple[str, int, str], List[MetricSample]] = {}
    for name, counter in registry.counters.items():
        host = _component(name)
        rows[host, 0, name] = [MetricSample(name, counter.get(), host)] + [
            MetricSample(name, value, label)
            for label, value in sorted(counter.labels().items())
        ]
    for name, gauge in registry.gauges.items():
        host = _component(name)
        rows[host, 1, name] = [MetricSample(name, gauge.value, host)]
    for name, hist in registry.histograms.items():
        if hist.count == 0:
            continue
        host = _component(name)
        rows[host, 2, name] = [
            MetricSample(f"{name}.{suffix}", hist.quantile(q), host)
            for suffix, q in _HISTOGRAM_EXPORTS
        ] + [
            MetricSample(f"{name}.mean", hist.mean, host),
            MetricSample(f"{name}.count", float(hist.count), host),
        ]
    return [sample for key in sorted(rows) for sample in rows[key]]


def _datapoint(name: str, ts: int, value: float, host: str) -> "DataPoint":
    # Imported lazily: the TSD module itself imports ``repro.obs`` for
    # its tracer, so a module-level import here would close an import
    # cycle through the ``repro.obs`` package init.
    from ..tsdb.tsd import DataPoint

    return DataPoint(name, ts, value, (("host", host),))


class SelfReporter:
    """Periodically flush metric snapshots back into the TSDB.

    Snapshots the cluster's own registry plus any ``extra`` registries
    (a pipeline run's, say), every :data:`INTERVAL` sim-seconds once
    started.
    """

    def __init__(
        self,
        cluster: "TsdbCluster",
        extra: Sequence[MetricsRegistry] = (),
        chaos_report: Optional["ChaosReport"] = None,
    ) -> None:
        self.cluster = cluster
        self.registries: List[MetricsRegistry] = [cluster.metrics, *extra]
        self.chaos_report = chaos_report
        self.flushes = 0
        self.points_written = 0
        self._running = False
        self._handle: Optional[object] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin periodic flushing on the cluster's simulator clock."""
        if self._running:
            return
        self._running = True
        self._handle = self.cluster.sim.schedule(INTERVAL, self._tick)

    def stop(self) -> None:
        """Stop the periodic flush (a final explicit flush is still fine)."""
        self._running = False
        if self._handle is not None:
            self._handle.cancel()  # type: ignore[attr-defined]
            self._handle = None

    def _tick(self) -> None:
        self._handle = None
        if not self._running:
            return
        self.flush()
        self._handle = self.cluster.sim.schedule(INTERVAL, self._tick)

    # ------------------------------------------------------------------
    # write-back
    # ------------------------------------------------------------------
    def flush(self) -> int:
        """Write one snapshot of every registry; returns points written.

        Stamped at the current sim-second: TSDB points are keyed by the
        second, so a later flush in the same second replaces the earlier
        snapshot (newest write wins), which loses nothing because every
        counter is cumulative.
        """
        ts = int(self.cluster.sim.now)
        points: List["DataPoint"] = []
        for registry in self.registries:
            for sample in samples(registry):
                points.append(_datapoint(sample.name, ts, sample.value, sample.host))
        points.extend(self._chaos_points(ts))
        written = self.cluster.direct_put(points) if points else 0
        self.flushes += 1
        self.points_written += written
        return written

    def _chaos_points(self, ts: int) -> List["DataPoint"]:
        report = self.chaos_report
        if report is None:
            return []
        down = report.still_down()
        points = [_datapoint("chaos.components_down", ts, float(len(down)), "chaos")]
        for component in down:
            points.append(_datapoint("chaos.down", ts, 1.0, component))
        return points

    def write_chaos_windows(self, report: Optional["ChaosReport"] = None) -> int:
        """Write ``chaos.down`` 0/1 edge series for every fault window.

        Call after the run (post :meth:`ChaosReport.close`) so the
        dashboard and queries can overlay exact outage windows on the
        self-metrics.  Returns points written.
        """
        report = report if report is not None else self.chaos_report
        if report is None:
            return 0
        points: List["DataPoint"] = []
        last: Dict[str, int] = {}
        for at, component, state in report.edges(now=self.cluster.sim.now):
            # Each edge lands in its own second; one that shares a second
            # with the same component's previous edge would overwrite it,
            # so it moves to the next free second.
            ts = max(int(at), last.get(component, -1) + 1)
            last[component] = ts
            points.append(_datapoint("chaos.down", ts, float(state), component))
        written = self.cluster.direct_put(points) if points else 0
        self.points_written += written
        return written

    def series_written(self) -> Tuple[str, ...]:
        """Distinct self-metric names available for querying, sorted."""
        names = set()
        for registry in self.registries:
            for sample in samples(registry):
                names.add(sample.name)
        if self.chaos_report is not None:
            names.update({"chaos.components_down", "chaos.down"})
        return tuple(sorted(names))
