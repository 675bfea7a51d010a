#!/usr/bin/env python3
"""Observability quick-start: trace a batch, query the platform itself.

Runs the full anomaly pipeline against a small simulated OpenTSDB
deployment with both observability features on:

* **tracing** — the cluster's own tracer (``build_cluster(trace=True)``)
  follows every ingest batch proxy → TSD → HBase client →
  RegionServer → ack as a span tree with sim-time durations;
  one batch's flame summary is printed and the whole trace is exported
  as JSON;
* **self-telemetry** — ``run(self_report=True)`` starts a
  :class:`SelfReporter` that periodically flushes the cluster's and
  the run's metrics back into the same TSDB as ``proxy.*`` /
  ``tsd.*`` / ``engine.*`` series, which are then read back through the
  ordinary :class:`QueryEngine` — the platform monitoring itself
  through its own query path — and rendered into the dashboard's
  platform-health panel.

Run:  python examples/observability_demo.py
"""

import tempfile
from pathlib import Path

from repro import FleetConfig, FleetGenerator, build_cluster
from repro.core import AnomalyPipeline
from repro.tsdb.query import TsdbQuery
from repro.viz.dashboard import Dashboard


def main() -> None:
    fleet = FleetGenerator(FleetConfig(n_units=3, n_sensors=6, seed=23))
    cluster = build_cluster(n_nodes=2, salt_buckets=4, retain_data=True, trace=True)

    pipeline = AnomalyPipeline(fleet, cluster=cluster)
    print("== running the pipeline with tracing + self-telemetry on ==\n")
    result = pipeline.run(n_train=120, n_eval=120, self_report=True)
    print(f"published {result.points_published} points, "
          f"{result.total_discoveries()} anomalies flagged\n")

    # -- one batch, followed across every component ---------------------
    tracer = cluster.tracer
    batch = tracer.batch_ids()[0]
    print(f"== flame summary for ingest batch {batch} "
          f"(components: {', '.join(tracer.components(batch))}) ==")
    print(tracer.flame(batch))

    out = Path(tempfile.mkdtemp(prefix="repro-obs-")) / "trace.json"
    tracer.export_json(out)
    print(f"\nfull trace ({len(tracer)} spans) exported to {out}")

    # -- the platform queried through its own TSDB ----------------------
    engine = cluster.query_engine()
    end = int(cluster.sim.now) + 10
    print("\n== self-telemetry read back through the query engine ==")
    for metric in ("proxy.ack_latency.p99", "tsd.batches_accepted",
                   "engine.units_scored", "pipeline.units",
                   "publish.data.batches"):
        series = engine.run(TsdbQuery(metric, 0, end))
        last = series[0].values[-1] if series else float("nan")
        print(f"  {metric:28s} samples={len(series[0]) if series else 0:3d}  "
              f"last={last:g}")

    panel = Dashboard(engine).platform_health_html()
    rows = panel.count("<tr>") - 1 if panel else 0
    print(f"\ndashboard platform-health panel: {rows} self-metric rows")


if __name__ == "__main__":
    main()
