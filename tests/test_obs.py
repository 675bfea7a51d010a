"""The observability layer: one registry, tracing, self-telemetry.

Covers the three tentpole pieces end to end:

* one :class:`~repro.cluster.metrics.MetricsRegistry` per deployment,
  shared by every component the cluster builds, with each metric's
  reporting component read from its name (:data:`repro.obs.ROUTES`);
* :class:`repro.obs.Tracer` — span tracing with batch-id correlation
  across the simulated ingest path (proxy → TSD → HBase client →
  RegionServer) and a zero-cost disabled path;
* :class:`repro.obs.SelfReporter` — metric snapshots written back
  into the simulated TSDB and queryable through the ordinary
  :class:`~repro.tsdb.query.QueryEngine`, including chaos fault
  windows.
"""

import json

import pytest

from repro.alerting import AlertManager, StreamingDetector
from repro.chaos.report import ChaosReport
from repro.cluster.metrics import MetricsRegistry
from repro.core import pipeline as pipeline_module
from repro.core.pipeline import AnomalyPipeline
from repro.lifecycle import LifecyclePolicy
from repro.obs import NULL_SPAN, ROUTES, SelfReporter, Tracer, samples
from repro.obs import selfreport
from repro.simdata import FleetConfig, FleetGenerator, fleet_stream
from repro.tsdb.ingest import IngestionDriver, build_cluster
from repro.tsdb.query import TsdbQuery
from repro.viz import dashboard as dashboard_module
from repro.viz.dashboard import Dashboard


# ----------------------------------------------------------------------
# one registry per deployment; components read from metric names
# ----------------------------------------------------------------------
class TestTelemetryRouting:
    def test_same_metric_identity_from_every_view(self):
        cluster = build_cluster(n_nodes=2)
        from_proxy = cluster.ingress.metrics.counter("proxy.retries")
        from_tsd = cluster.tsds[1].metrics.counter("proxy.retries")
        from_root = cluster.metrics.counter("proxy.retries")
        assert from_proxy is from_tsd is from_root

    def test_every_component_shares_the_cluster_registry(self):
        cluster = build_cluster(
            n_nodes=3, replication_factor=2, lifecycle=LifecyclePolicy()
        )
        lifecycle = cluster.lifecycle
        holders = [
            cluster.master,
            *cluster.servers,
            *(rs.rpc_server for rs in cluster.servers),
            *cluster.tsds,
            *(tsd.http_server for tsd in cluster.tsds),
            *(tsd.client for tsd in cluster.tsds),
            cluster.ingress,
            cluster.replication,
            lifecycle,
            lifecycle.rollup,
            lifecycle.retention,
            lifecycle.router,
            cluster.gateway(),
            cluster.async_query_executor().client,
        ]
        assert all(holder.metrics is cluster.metrics for holder in holders)

    def test_routes_by_first_segment(self):
        registry = MetricsRegistry()
        for head in ROUTES:
            registry.counter(f"{head}.x").inc()
        for head in ("server", "lifecycle", "something"):
            registry.counter(f"{head}.x").inc()
        hosts = {s.name: s.host for s in samples(registry)}
        assert hosts == {
            **{f"{head}.x": component for head, component in ROUTES.items()},
            "server.x": "cluster",
            "lifecycle.x": "cluster",
            "something.x": "cluster",
        }
        assert hosts["client.x"] == "tsd"
        assert hosts["rpc.x"] == hosts["cells.x"] == "regionserver"
        assert hosts["pipeline.x"] == "engine"
        assert hosts["publish.x"] == "publisher"

    def test_component_registry_is_standalone(self):
        manager = AlertManager()
        detector = StreamingDetector(3)
        assert isinstance(manager.metrics, MetricsRegistry)
        assert manager.metrics is not detector.metrics
        manager.metrics.counter("alerting.opened").inc()
        assert detector.metrics.counter("alerting.opened").get() == 0

    def test_samples_flatten_counters_gauges_histograms(self):
        registry = MetricsRegistry()
        registry.counter("tsd.batches_rejected").inc(2, label="tsd00")
        registry.gauge("proxy.buffered").set(7.0)
        hist = registry.histogram("proxy.ack_latency")
        hist.observe(0.01)
        hist.observe(0.02)
        rows = {(s.name, s.host): s.value for s in samples(registry)}
        assert rows[("tsd.batches_rejected", "tsd")] == 2.0
        assert rows[("tsd.batches_rejected", "tsd00")] == 2.0
        assert rows[("proxy.buffered", "proxy")] == 7.0
        assert ("proxy.ack_latency.p99", "proxy") in rows
        assert rows[("proxy.ack_latency.count", "proxy")] == 2.0

    def test_rows_sorted_by_component_then_kind_then_name(self):
        registry = MetricsRegistry()
        registry.histogram("proxy.ack_latency").observe(0.01)
        registry.gauge("proxy.buffered").set(1.0)
        registry.counter("proxy.retries").inc(label="tsd00")
        registry.counter("proxy.late_acks").inc()
        registry.counter("engine.units_scored").inc()
        assert [(s.name, s.host) for s in samples(registry)] == [
            ("engine.units_scored", "engine"),
            ("proxy.late_acks", "proxy"),
            ("proxy.retries", "proxy"),
            ("proxy.retries", "tsd00"),
            ("proxy.buffered", "proxy"),
            *((f"proxy.ack_latency.{suffix}", "proxy")
              for suffix in ("p50", "p95", "p99", "mean", "count")),
        ]

    def test_empty_histograms_are_skipped(self):
        registry = MetricsRegistry()
        registry.histogram("proxy.ack_latency")
        assert samples(registry) == []


# ----------------------------------------------------------------------
# tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_disabled_returns_the_null_span_singleton(self):
        tracer = Tracer()
        assert tracer.begin("b", batch_id=1) is NULL_SPAN
        tracer.begin("c").end(x=1)
        assert len(tracer) == 0

    def test_begin_takes_explicit_parent_and_inherits_batch(self):
        tracer = Tracer(enabled=True)
        root = tracer.begin("proxy.batch", batch_id=9)
        child = tracer.begin("proxy.route", parent=root)
        child.end()
        root.end()
        child_rec = next(r for r in tracer.records if r.name == "proxy.route")
        assert child_rec.parent_id == root.span_id
        assert child_rec.batch_id == 9  # inherited from the parent span

    def test_end_is_idempotent(self):
        tracer = Tracer(enabled=True)
        span = tracer.begin("once")
        span.end(outcome="ok")
        span.end(outcome="late-duplicate")
        assert len(tracer) == 1
        assert tracer.records[0].field_dict()["outcome"] == "ok"

    def test_batch_trace_includes_coalesced_flushes(self):
        tracer = Tracer(enabled=True)
        tracer.begin("proxy.batch", batch_id=1).end()
        tracer.begin("proxy.batch", batch_id=2).end()
        tracer.begin("hbase.put", batch_ids=(1, 2)).end()
        assert tracer.batch_ids() == [1, 2]
        names = [r.name for r in tracer.batch_trace(1)]
        assert names == ["proxy.batch", "hbase.put"]
        assert tracer.components(2) == ["hbase", "proxy"]

    def test_flame_and_json_export(self, tmp_path):
        clock = iter([0.0, 1.0, 1.5, 2.0]).__next__
        tracer = Tracer(enabled=True, clock=clock)
        root = tracer.begin("proxy.batch", batch_id=3, points=10)
        child = tracer.begin("proxy.route", parent=root, tsd="tsd00")
        child.end()
        root.end()
        flame = tracer.flame(3)
        assert "proxy.batch" in flame and "  proxy.route" in flame
        assert "batch=3" in flame

        out = tracer.export_json(tmp_path / "trace.json")
        spans = json.loads(out.read_text())
        assert [s["name"] for s in spans] == ["proxy.batch", "proxy.route"]
        assert spans[0]["duration"] == pytest.approx(2.0)
        assert spans[1]["parent_id"] == spans[0]["span_id"]


# ----------------------------------------------------------------------
# end-to-end batch tracing through the simulated ingest path
# ----------------------------------------------------------------------
class TestIngestPathTracing:
    def _traced_run(self, trace):
        generator = FleetGenerator(FleetConfig(n_units=2, n_sensors=4, seed=11))
        cluster = build_cluster(n_nodes=2, retain_data=True, trace=trace)
        workload = fleet_stream(generator, n_samples=20, batch_size=40)
        driver = IngestionDriver(cluster, workload, offered_rate=4_000, batch_size=40)
        report = driver.run(1.0, drain=5.0)
        assert report.committed_samples == 2 * 4 * 20
        return cluster

    def test_batch_followed_across_all_components(self):
        cluster = self._traced_run(trace=True)
        tracer = cluster.tracer
        batch_ids = tracer.batch_ids()
        assert batch_ids, "traced run recorded no batches"
        batch = batch_ids[0]
        comps = tracer.components(batch)
        assert {"proxy", "tsd", "hbase", "regionserver"} <= set(comps)
        trace = tracer.batch_trace(batch)
        # The proxy's root span brackets the whole delivery.
        root = next(r for r in trace if r.name == "proxy.batch")
        assert root.parent_id is None
        assert root.field_dict()["outcome"] == "ok"
        routes = [r for r in trace if r.name == "proxy.route"]
        assert routes and all(r.parent_id == root.span_id for r in routes)
        # Span timestamps are sim-seconds and properly ordered.
        assert all(r.end >= r.start for r in trace)

    def test_untraced_run_records_nothing(self):
        cluster = self._traced_run(trace=False)
        assert len(cluster.tracer) == 0


# ----------------------------------------------------------------------
# self-telemetry write-back
# ----------------------------------------------------------------------
class TestSelfReporter:
    def _active_cluster(self):
        generator = FleetGenerator(FleetConfig(n_units=2, n_sensors=4, seed=5))
        cluster = build_cluster(n_nodes=2, retain_data=True)
        workload = fleet_stream(generator, n_samples=20, batch_size=40)
        driver = IngestionDriver(cluster, workload, offered_rate=4_000, batch_size=40)
        driver.run(1.0, drain=5.0)
        return cluster

    def test_flush_makes_platform_metrics_queryable(self):
        cluster = self._active_cluster()
        reporter = cluster.self_reporter()
        written = reporter.flush()
        assert written > 0
        assert "proxy.ack_latency.p99" in reporter.series_written()
        assert "tsd.batches_accepted" in reporter.series_written()

        engine = cluster.query_engine()
        end = int(cluster.sim.now) + 10
        series = engine.run(TsdbQuery("tsd.batches_accepted", 0, end,
                                      tag_filters={"host": "tsd"}))
        assert len(series) == 1
        total = cluster.metrics.counter("tsd.batches_accepted").get()
        assert series[0].values[-1] == total

    def test_periodic_flushing_builds_a_time_series(self, monkeypatch):
        monkeypatch.setattr(selfreport, "INTERVAL", 0.5)
        cluster = self._active_cluster()
        reporter = cluster.self_reporter()
        reporter.start()
        cluster.sim.run(until=cluster.sim.now + 3.0)
        reporter.stop()
        assert reporter.flushes >= 3
        engine = cluster.query_engine()
        end = int(cluster.sim.now) + 10
        series = engine.run(TsdbQuery("tsd.batches_accepted", 0, end,
                                      tag_filters={"host": "tsd"}))
        assert len(series) == 1 and len(series[0]) >= 3

    def test_extra_telemetries_are_flushed_too(self):
        cluster = self._active_cluster()
        run_registry = MetricsRegistry()
        run_registry.counter("engine.units_scored").inc(7)
        reporter = SelfReporter(cluster, extra=(run_registry,))
        reporter.flush()
        engine = cluster.query_engine()
        end = int(cluster.sim.now) + 10
        series = engine.run(TsdbQuery("engine.units_scored", 0, end))
        assert len(series) == 1
        assert series[0].values[-1] == 7.0

    def test_chaos_windows_written_as_edge_series(self):
        cluster = self._active_cluster()
        report = ChaosReport()
        report.mark_down("tsd00", 1.0)
        report.mark_up("tsd00", 3.0)
        reporter = cluster.self_reporter(chaos_report=report)
        assert reporter.write_chaos_windows() == 2
        engine = cluster.query_engine()
        end = int(cluster.sim.now) + 10
        series = engine.run(TsdbQuery("chaos.down", 0, end,
                                      tag_filters={"host": "tsd00"}))
        assert len(series) == 1
        assert series[0].values.tolist() == [1.0, 0.0]

    def test_stamps_follow_the_sim_clock(self, monkeypatch):
        # Regression: each flush was forced one second past the last, so
        # half-second flushes ran ahead of the clock (30 s of them were
        # stamped 1..60), and fault windows written afterwards landed
        # after the run instead of over the dips they caused.
        cluster = build_cluster(n_nodes=1, retain_data=True)
        run_registry = MetricsRegistry()
        run_registry.counter("engine.units_scored").inc(3)
        report = ChaosReport()
        report.mark_down("tsd00", 1.0)
        report.mark_down("rs00", 1.2)
        report.mark_up("rs00", 1.7)
        report.mark_up("tsd00", 3.0)
        monkeypatch.setattr(selfreport, "INTERVAL", 0.5)
        reporter = SelfReporter(cluster, extra=(run_registry,), chaos_report=report)
        reporter.start()
        cluster.sim.run(until=30.0)
        reporter.stop()
        assert reporter.flushes >= 59
        engine = cluster.query_engine()
        (scored,) = engine.run(TsdbQuery("engine.units_scored", 0, 100))
        assert scored.timestamps.max() <= int(cluster.sim.now)
        assert scored.values.tolist() == [3.0] * len(scored)

        assert reporter.write_chaos_windows() == 4
        stored = {
            s.tag_dict["host"]: (s.timestamps.tolist(), s.values.tolist())
            for s in engine.run(
                TsdbQuery("chaos.down", 0, 100, group_by=("host",), aggregator="max")
            )
        }
        # [1.0, 3.0) -> 1..3; [1.2, 1.7) shares second 1, so its up edge
        # moves to the next second rather than overwrite the down edge
        assert stored == {"tsd00": ([1, 3], [1.0, 0.0]), "rs00": ([1, 2], [1.0, 0.0])}


# ----------------------------------------------------------------------
# pipeline integration (the ISSUE acceptance scenario)
# ----------------------------------------------------------------------
class TestPipelineObservability:
    def test_run_with_self_report_and_trace(self, tmp_path, monkeypatch):
        monkeypatch.setattr(pipeline_module, "PUBLISH_BATCH_SIZE", 100)
        generator = FleetGenerator(FleetConfig(n_units=3, n_sensors=6, seed=13))
        cluster = build_cluster(n_nodes=2, retain_data=True, trace=True)
        pipeline = AnomalyPipeline(generator, cluster)
        result = pipeline.run(n_train=120, n_eval=120, self_report=True)
        assert result.points_published > 0

        # ≥1 end-to-end batch trace on the cluster's tracer, exportable as JSON.
        trace = cluster.tracer
        assert len(trace) > 0
        batch = trace.batch_ids()[0]
        assert {"proxy", "tsd"} <= set(trace.components(batch))
        exported = trace.export_json(tmp_path / "pipeline_trace.json")
        assert json.loads(exported.read_text())

        # Self-metric series from the cluster AND run registries query
        # back: proxy.* / tsd.* from the cluster's, engine.* and
        # publish.* from the run's registry flushed alongside it.
        engine = cluster.query_engine()
        end = int(cluster.sim.now) + 10
        for name in ("proxy.ack_latency.count", "tsd.batches_accepted",
                     "engine.units_scored", "pipeline.units",
                     "publish.data.batches"):
            series = engine.run(TsdbQuery(name, 0, end))
            assert series, f"no self-metric series for {name}"

    def test_traced_run_restores_the_tracer(self):
        # Regression: a traced run switched the cluster's tracer on for
        # good, so every later untraced run kept recording spans.  A run
        # leaves the tracer to its owner: on while enabled, off after.
        generator = FleetGenerator(FleetConfig(n_units=2, n_sensors=4, seed=13))
        cluster = build_cluster(n_nodes=2, retain_data=True)
        pipeline = AnomalyPipeline(generator, cluster)
        cluster.tracer.enable()
        traced = pipeline.run(n_train=80, n_eval=80, self_report=True)
        spans = len(cluster.tracer)
        assert spans > 0 and cluster.tracer.enabled
        cluster.tracer.enabled = False
        pipeline.run(n_train=80, n_eval=80)
        assert len(cluster.tracer) == spans
        # the reporter stopped with the run: the clock runs on unflushed
        flushes = traced.self_reporter.flushes
        cluster.sim.run(until=cluster.sim.now + 5.0)
        assert traced.self_reporter.flushes == flushes

    def test_self_report_off_writes_nothing(self):
        generator = FleetGenerator(FleetConfig(n_units=2, n_sensors=4, seed=13))
        cluster = build_cluster(n_nodes=2, retain_data=True)
        pipeline = AnomalyPipeline(generator, cluster)
        result = pipeline.run(n_train=80, n_eval=80)
        assert result.self_reporter is None and len(cluster.tracer) == 0
        engine = cluster.query_engine()
        assert engine.run(TsdbQuery("anomaly", 0, 10_000)) is not None
        assert not engine.run(TsdbQuery("pipeline.units", 0, 10_000))

    def test_fresh_registry_per_run(self):
        generator = FleetGenerator(FleetConfig(n_units=2, n_sensors=4, seed=13))
        pipeline = AnomalyPipeline(generator)
        first = pipeline.run(n_train=80, n_eval=80, publish=False)
        second = pipeline.run(n_train=80, n_eval=80, publish=False)
        assert first.metrics.counter("pipeline.units").get() == 2
        assert second.metrics.counter("pipeline.units").get() == 2


# ----------------------------------------------------------------------
# the dashboard's platform-health panel
# ----------------------------------------------------------------------
class TestPlatformHealthPanel:
    def _reported_cluster(self):
        generator = FleetGenerator(FleetConfig(n_units=2, n_sensors=4, seed=5))
        cluster = build_cluster(n_nodes=2, retain_data=True)
        workload = fleet_stream(generator, n_samples=20, batch_size=40)
        driver = IngestionDriver(cluster, workload, offered_rate=4_000, batch_size=40)
        driver.run(1.0, drain=5.0)
        cluster.self_reporter().flush()
        return cluster

    def test_panel_renders_self_metric_rows(self):
        cluster = self._reported_cluster()
        dashboard = Dashboard(cluster.query_engine())
        panel = dashboard.platform_health_html()
        assert "Platform health" in panel
        assert "tsd.batches_accepted" in panel
        assert "proxy.ack_latency.p99" in panel
        assert "<svg" in panel  # trend sparklines

    def test_server_load_metrics_reach_the_panel(self):
        # Regression: "server." was missing from _SELF_METRIC_PREFIXES,
        # so the Server load series (server.served, server.busy_time)
        # written back by SelfReporter never rendered on the platform
        # panel.  Surfaced by the telemetry-drift cross-module rule.
        cluster = self._reported_cluster()
        panel = Dashboard(cluster.query_engine()).platform_health_html()
        assert "server.served" in panel
        assert "server.busy_time" in panel

    def test_panel_empty_without_self_telemetry(self):
        cluster = build_cluster(n_nodes=1, retain_data=True)
        dashboard = Dashboard(cluster.query_engine())
        assert dashboard.platform_health_html() == ""

    def test_overview_carries_panel(self):
        cluster = self._reported_cluster()
        overview = Dashboard(cluster.query_engine()).fleet_overview_html([0], 0, 100)
        assert "Platform health" in overview

    def test_row_cap_reports_truncation(self, monkeypatch):
        monkeypatch.setattr(dashboard_module, "MAX_HEALTH_ROWS", 3)
        cluster = self._reported_cluster()
        dashboard = Dashboard(cluster.query_engine())
        panel = dashboard.platform_health_html()
        assert panel.count("<tr>") == 1 + 3  # header + capped rows
        assert "showing 3 of" in panel
