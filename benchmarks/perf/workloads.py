"""The five benchmark workloads, driven through the public API only.

Every workload is a closed loop with one client: one driving thread,
each operation issued when the previous one returns.  A workload has
three parts:

``setup(seed, quick)``
    builds the inputs from the seed (untimed; reported as ``setup_s``);
``rep(inputs)``
    one repetition on fresh state, returning a :class:`Rep`;
``check(inputs, rep)``
    the oracle, run outside every timed region; returns the names of
    the checks that failed.

What ``work``, ``op`` and ``aux`` mean for each workload is stated in
its class docstring and in ``README.md``.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

import numpy as np

from repro import (
    AlertingConfig,
    AnomalyPipeline,
    BatchPublisher,
    ClusterConfig,
    Dashboard,
    DataPoint,
    FDRDetector,
    FDRDetectorConfig,
    FleetConfig,
    FleetGenerator,
    QueryRejected,
    SparkletContext,
    StreamingContext,
    StreamingDetector,
    TsdbQuery,
    build_cluster,
    parse_block,
)
from repro.alerting.store import ALERT_INCIDENT_METRIC
from repro.alerting.stream import fleet_microbatches
from repro.core.pipeline import ANOMALY_METRIC
from repro.lifecycle import LifecyclePolicy, TierSpec
from repro.simdata.workload import METRIC, sensor_tag, soak_stream, unit_tag

from hostclock import Stopwatch
from spans import TELEMETRY_COUNTS

#: Everything the benchmark writes stays under its own directory.
OUT_DIR = Path(__file__).resolve().parent / "out"


@dataclass
class Rep:
    """What one repetition measured."""

    work: float  # work units completed (points, requests, sensor samples)
    work_s: float  # wall seconds that work took
    op_ms: List[float]  # latency of each primary operation
    aux_ms: List[float]  # latency of each secondary operation
    attempted: int  # operations attempted (points, queries, intervals, units)
    failed: int  # ... of which failed or went missing
    digest: Tuple  # outputs that must be identical in every repetition
    failures: List[str] = field(default_factory=list)  # failed per-repetition checks
    telemetry: Dict[str, float] = field(default_factory=dict)
    state: Any = None  # whatever check() needs
    info_ms: Dict[str, List[float]] = field(default_factory=dict)  # printed, never gated


def read_telemetry(cluster: Any) -> Dict[str, float]:
    """The failure/retry counts no public call boundary exposes."""
    return {
        metric: sum(cluster.metrics.counter(name).get() for name in names)
        for metric, names in TELEMETRY_COUNTS.items()
    }


def same_series(got: Any, want: Any) -> bool:
    """Two query answers bit-identical (tags, timestamps, values)."""
    return len(got) == len(want) and all(
        a.tags == b.tags
        and np.array_equal(a.timestamps, b.timestamps)
        and np.array_equal(a.values, b.values, equal_nan=True)
        for a, b in zip(got, want)
    )


class IngestDense:
    """Line protocol -> blocks -> publisher -> proxy -> TSD -> RegionServer.

    work = points durably acked; op = one client call (``parse_block``
    of a 10-sensor chunk + ``publish_blocks``, which blocks on the
    in-flight window); aux = one read-after-write query of a single
    series through the gateway.
    """

    name = "ingest_dense"
    why = ("write path at its best case (300-point blocks, proxy, WAL on); "
           "detection and read layers idle, so their changes must not move it")

    def setup(self, seed: int, quick: bool) -> Dict[str, Any]:
        units, sensors, seconds = (3, 10, 60) if quick else (20, 50, 300)
        rng = np.random.default_rng(seed)
        values = rng.normal(100.0, 5.0, size=(units, sensors, seconds))
        chunks: List[List[str]] = []
        for u in range(units):
            for s0 in range(0, sensors, 10):
                lines: List[str] = []
                for s in range(s0, min(s0 + 10, sensors)):
                    tags = f"unit={unit_tag(u)} sensor={sensor_tag(s)}"
                    lines.extend(
                        f"put {METRIC} {t} {v!r} {tags}"
                        for t, v in enumerate(values[u, s].tolist())
                    )
                chunks.append(lines)
        probes = [
            (int(rng.integers(units)), int(rng.integers(sensors)))
            for _ in range(2 if quick else 4)
        ]
        return {"values": values, "chunks": chunks, "probes": probes, "seconds": seconds}

    def rep(self, inputs: Dict[str, Any], watch: Stopwatch) -> Rep:
        values, seconds = inputs["values"], inputs["seconds"]
        cluster = build_cluster(ClusterConfig(n_nodes=4, retain_data=True))
        publisher = BatchPublisher(cluster, batch_size=1000, max_in_flight_batches=8)
        op_ms: List[float] = []
        for lines in inputs["chunks"]:
            t0 = watch.start()
            publisher.publish_blocks(parse_block(lines))
            op_ms.append(watch.stop(t0) * 1e3)
        t0 = watch.start()
        report = publisher.flush()
        work_s = sum(op_ms) / 1e3 + watch.stop(t0)

        gateway = cluster.gateway()
        aux_ms: List[float] = []
        wrong = 0
        for u, s in inputs["probes"]:
            query = TsdbQuery(
                METRIC, 0, seconds,
                tag_filters={"unit": unit_tag(u), "sensor": sensor_tag(s)},
                aggregator="sum",
            )
            t0 = watch.start()
            series = gateway.serve(query).series
            aux_ms.append(watch.stop(t0) * 1e3)
            # One series, so "sum" has nothing to add up: the stored
            # values must come back bit for bit.
            if len(series) != 1 or not np.array_equal(series[0].values, values[u, s]):
                wrong += 1
        failures = []
        if report.points_written != values.size:
            failures.append("ingest_dense.points_written")
        if not report.conservation_ok:
            failures.append("ingest_dense.publisher_conservation")
        if wrong:
            failures.append("ingest_dense.probe_values")
        return Rep(
            work=report.points_written, work_s=work_s, op_ms=op_ms, aux_ms=aux_ms,
            attempted=values.size + len(aux_ms),
            failed=(values.size - report.points_written) + wrong,
            digest=(report.points_written, report.batches_submitted),
            failures=failures, telemetry=read_telemetry(cluster),
        )

    def check(self, inputs: Dict[str, Any], rep: Rep) -> List[str]:
        return []  # every check is cheap enough to run in each repetition


class FleetSoak:
    """A growing fleet through ``direct_put`` with lifecycle maintenance.

    work = points, over put + maintenance + row-compaction wall (the
    sustained rate);
    op = one ``direct_put`` of a 2,000-point tick-major batch (one
    point per series per tick); aux = one dashboard refresh at a
    checkpoint (full-history 1 h min/min query + last-hour 1 m query).
    """

    name = "fleet_soak"
    why = ("same storage layer used the other way round: one point per series per batch, "
           "reads beside writes, maintenance between them; taxes on the point path show here")

    def setup(self, seed: int, quick: bool) -> Dict[str, Any]:
        end_units, hours = (60, 3) if quick else (1200, 3)
        duration = hours * 3600
        batches = list(soak_stream(
            start_units=20 if quick else 50, end_units=end_units, n_sensors=2,
            duration=duration, cadence=60, seed=seed,
        ))
        return {"batches": batches, "duration": duration, "refreshes": 1 if quick else 3}

    def rep(self, inputs: Dict[str, Any], watch: Stopwatch) -> Rep:
        duration = inputs["duration"]
        cluster = build_cluster(ClusterConfig(
            n_nodes=2, salt_buckets=4, retain_data=True,
            lifecycle=LifecyclePolicy(tiers=(TierSpec("1h", 3600),), raw_ttl=3600),
        ))
        lifecycle = cluster.lifecycle
        engine = cluster.query_engine()
        op_ms: List[float] = []
        aux_ms: List[float] = []
        maintenance_s = 0.0
        points = 0
        late = 0

        def maintain(purge: bool) -> None:
            nonlocal maintenance_s
            t0 = watch.start()
            lifecycle.run_maintenance(purge=purge)
            maintenance_s += watch.stop(t0)

        def refresh() -> None:
            horizon = lifecycle.rollup.watermark(METRIC, "1h")
            long_q = TsdbQuery(METRIC, 0, horizon, aggregator="min",
                               downsample_window=3600, downsample_aggregator="min")
            short_q = TsdbQuery(METRIC, horizon - 3600, horizon, aggregator="min",
                                downsample_window=60, downsample_aggregator="min")
            for _ in range(inputs["refreshes"]):
                t0 = watch.start()
                engine.run(long_q)
                engine.run(short_q)
                aux_ms.append(watch.stop(t0) * 1e3)

        checkpoints = [duration // 3, 2 * duration // 3]
        next_maintenance = 1800
        for batch in inputs["batches"]:
            t0 = watch.start()
            points += cluster.direct_put(batch)
            op_ms.append(watch.stop(t0) * 1e3)
            high_water = lifecycle.rollup.high_water(METRIC)
            while high_water + 1 >= next_maintenance:
                maintain(purge=False)
                next_maintenance += 1800
            if checkpoints and high_water >= checkpoints[0]:
                maintain(purge=True)
                if len(checkpoints) == 1:
                    # Row compaction of the closed hours, as OpenTSDB does
                    # once an hour has passed: later reads decode blobs.
                    t0 = watch.start()
                    cluster.compactor().run()
                    maintenance_s += watch.stop(t0)
                refresh()
                if len(checkpoints) == 1:
                    # Late writes behind the 1 h watermark, off the 60 s
                    # grid and the burst offsets so no (series, ts) pair
                    # collides with the stream.
                    horizon = lifecycle.rollup.watermark(METRIC, "1h")
                    late_points = [
                        DataPoint.make(METRIC, horizon - off, 500.0,
                                       {"unit": unit_tag(0), "sensor": sensor_tag(0)})
                        for off in (1801, 1861, 1921)
                    ]
                    late = cluster.direct_put(late_points)
                checkpoints.pop(0)
        maintain(purge=True)
        refresh()
        offered = sum(len(b) for b in inputs["batches"])
        return Rep(
            work=points, work_s=sum(op_ms) / 1e3 + maintenance_s, op_ms=op_ms, aux_ms=aux_ms,
            attempted=offered + 3 + 2 * len(aux_ms), failed=(offered - points) + (3 - late),
            digest=(points, late, len(op_ms)),
            failures=[] if points == offered and late == 3 else ["fleet_soak.points_written"],
            telemetry=read_telemetry(cluster), state=cluster,
        )

    def check(self, inputs: Dict[str, Any], rep: Rep) -> List[str]:
        cluster = rep.state
        lifecycle = cluster.lifecycle
        failures = []
        if not lifecycle.verify_conservation(METRIC)["ok"]:
            failures.append("fleet_soak.lifecycle_conservation")
        if cluster.metrics.counter("lifecycle.backfill.windows").get() < 1:
            failures.append("fleet_soak.backfill")
        # Tier-routed answers must equal the raw ablation bit for bit
        # over the window where raw still exists.
        routed, raw = cluster.query_engine(), cluster.query_engine()
        raw.lifecycle = None
        floor = lifecycle.retention.raw_floor(METRIC)
        horizon = lifecycle.rollup.watermark(METRIC, "1h")
        for agg, ds in (("min", "min"), ("max", "max"), ("count", "sum")):
            probe = TsdbQuery(METRIC, floor, horizon, aggregator=agg,
                              downsample_window=3600, downsample_aggregator=ds)
            if lifecycle.plan(probe, record=False).mode != "identical":
                failures.append(f"fleet_soak.tier_plan_{agg}")
            elif not same_series(routed.run(probe), raw.run(probe)):
                failures.append(f"fleet_soak.tier_identity_{agg}")
        return failures


class DashboardRead:
    """Read-only: gateway cold and hit paths, and dashboard pages on both.

    work = requests of a Zipf(1.1) replay over the cached keys (the hit
    path), timed in chunks of 1,000; op = one distinct query through
    ``gateway.serve`` on an empty cache (cold miss, ``run_available``
    underneath); aux = the fleet overview plus one machine page from
    ``Dashboard(cluster.gateway())`` on an empty cache, once per unit.
    The key set fits the 512-entry cache by design: a cold miss costs a
    thousand hits, so a miss-heavy replay would only re-measure op.

    The same pages from ``Dashboard(cluster.query_engine()).write``
    (``QueryEngine.run`` underneath, the path
    ``examples/fleet_dashboard.py`` takes) are rendered once per
    repetition, checked to be the same HTML, and printed as
    ``engine_page_ms`` but not gated: 16,384 region scans per query
    answer the host's state in a way no probe tracks, and ten-run
    spreads of that time stayed at 14-25% whatever was tried.

    The stored cells (4 x 12 x 120) fit the core's own 2 MiB cache on
    purpose: over a set that only fits the cache the host shares with
    its other tenants, cold-query spreads were twice as wide.
    """

    name = "dashboard_read"
    rounds = 3
    why = ("read path does all the work, write path none after set-up; covers run_available "
           "under the gateway, run under the dashboard, and the cache-hit path")

    def setup(self, seed: int, quick: bool) -> Dict[str, Any]:
        units, sensors, rows = (2, 6, 120) if quick else (4, 12, 120)
        generator = FleetGenerator(FleetConfig(n_units=units, n_sensors=sensors, seed=seed))
        cluster = build_cluster(n_nodes=4, retain_data=True)
        result = AnomalyPipeline(generator, cluster).run(
            n_train=rows, n_eval=rows, use_proxy_path=False)
        rng = np.random.default_rng(seed)
        start, end = rows, 2 * rows
        # (kind, unit, sensor, query); sensor is -1 where the query spans all.
        queries: List[Tuple[str, int, int, TsdbQuery]] = []
        for u in range(units):
            by_unit = {"unit": unit_tag(u)}
            queries.append(("data", u, -1, TsdbQuery(
                METRIC, start, end, tag_filters=by_unit, group_by=("sensor",))))
            queries.append(("anomaly", u, -1, TsdbQuery(
                ANOMALY_METRIC, start, end, tag_filters=by_unit,
                group_by=("sensor",), aggregator="max")))
            queries.append(("fleet_avg", u, -1, TsdbQuery(
                METRIC, start, end, tag_filters=by_unit, downsample_window=10)))
            for _ in range(1 if quick else 3):
                lo = start + int(rng.integers(0, rows - 60))
                sensor = int(rng.integers(sensors))
                queries.append(("drill", u, sensor, TsdbQuery(
                    METRIC, lo, lo + 60,
                    tag_filters={**by_unit, "sensor": sensor_tag(sensor)})))
        ranks = rng.zipf(1.1, size=400_000)
        replay = (ranks[ranks <= len(queries)][: 2_000 if quick else 40_000] - 1).tolist()
        return {
            "generator": generator, "cluster": cluster, "result": result,
            "queries": queries, "replay": replay, "rows": rows,
            "units": list(range(units)), "page_unit": int(rng.integers(units)),
        }

    def rep(self, inputs: Dict[str, Any], watch: Stopwatch) -> Rep:
        cluster, queries, rows = inputs["cluster"], inputs["queries"], inputs["rows"]
        start, end, units, replay = rows, 2 * rows, inputs["units"], inputs["replay"]
        op_ms: List[float] = []
        aux_ms: List[float] = []
        work_s = 0.0
        rejected = hits = 0
        # Three rounds of the gateway's part to one of the engine page's,
        # which would otherwise take two thirds of the repetition.
        for _ in range(self.rounds):
            gateway = cluster.gateway()
            answers = []
            for *_, query in queries:
                t0 = watch.start()
                try:
                    answers.append(gateway.serve(query))
                except QueryRejected:
                    answers.append(None)
                    rejected += 1
                op_ms.append(watch.stop(t0) * 1e3)
            for i in range(0, len(replay), 1000):
                t0 = watch.start()
                for key in replay[i: i + 1000]:
                    try:
                        hits += gateway.serve(queries[key][-1]).status == "hit"
                    except QueryRejected:
                        rejected += 1
                work_s += watch.stop(t0)
            cluster.remove_write_listener(gateway.notify_writes)
            html = {}
            for unit in units:
                gateway = cluster.gateway()
                dashboard = Dashboard(gateway)
                t0 = watch.start()
                html[unit] = (dashboard.fleet_overview_html(units, start, end),
                              dashboard.machine_page_html(unit, start, end))
                aux_ms.append(watch.stop(t0) * 1e3)
                cluster.remove_write_listener(gateway.notify_writes)
        unit = inputs["page_unit"]
        OUT_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as out_dir:
            t0 = watch.start()
            pages = Dashboard(cluster.query_engine()).write(
                out_dir, units, start, end, machine_pages=[unit])
            engine_page_ms = watch.stop(t0) * 1e3
            same_html = tuple(p.read_text() for p in pages) == html[unit]
        replayed = self.rounds * len(replay)
        failures = []
        if rejected:
            failures.append("dashboard_read.rejected")
        if not same_html:
            failures.append("dashboard_read.engine_page_vs_gateway_page")
        if hits != replayed:
            failures.append("dashboard_read.replay_hits")
        return Rep(
            work=replayed, work_s=work_s, op_ms=op_ms, aux_ms=aux_ms,
            attempted=len(op_ms) + replayed + len(aux_ms) + 1,
            failed=rejected + (replayed - hits) + (not same_html),
            digest=(hits, len(pages), tuple(a.etag if a else None for a in answers)),
            failures=failures, telemetry=read_telemetry(cluster), state=answers,
            info_ms={"engine_page_ms": [engine_page_ms]},
        )

    def check(self, inputs: Dict[str, Any], rep: Rep) -> List[str]:
        generator, rows = inputs["generator"], inputs["rows"]
        engine = inputs["cluster"].query_engine()
        failures = []
        engine_checked = set()
        sensor_index = {sensor_tag(s): s for s in range(generator.config.n_sensors)}
        for (kind, unit, sensor, query), answer in zip(inputs["queries"], rep.state):
            if answer is None:
                continue
            window = generator.evaluation_window(unit, rows).values
            lo, hi = query.start - rows, query.end - rows
            if kind == "data":
                ok = len(answer.series) == window.shape[1] and all(
                    np.array_equal(s.values, window[:, sensor_index[s.tag_dict["sensor"]]])
                    for s in answer.series)
            elif kind == "drill":
                ok = len(answer.series) == 1 and np.array_equal(
                    answer.series[0].values, window[lo:hi, sensor])
            elif kind == "fleet_avg":
                want = window.mean(axis=1).reshape(-1, 10).mean(axis=1)
                ok = len(answer.series) == 1 and np.allclose(
                    answer.series[0].values, want, rtol=1e-12, atol=0.0)
            else:
                flags = inputs["result"].reports[unit].flags
                ok = sum(len(s) for s in answer.series) == int(flags.sum())
            if not ok:
                failures.append(f"dashboard_read.{kind}_vs_numpy")
            # QueryEngine.run costs ten gateway queries, so the gateway is
            # compared with it only where numpy cannot give the exact
            # answer: one anomaly query and one downsampled average.
            if kind in ("anomaly", "fleet_avg") and kind not in engine_checked:
                engine_checked.add(kind)
                if not same_series(answer.series, engine.run(query)):
                    failures.append(f"dashboard_read.{kind}_vs_engine")
        return sorted(set(failures))


class StreamDetect:
    """Micro-batch stream -> hot-swapped models -> incidents -> write-back.

    work = sensor samples streamed, over the stream loop + ``finalize``
    wall; op = one 10-row micro-batch interval (``StreamingContext.run(1)``);
    aux = the same for the training half only, where the trainer ingests
    and the data is written back but nothing is scored yet - the two
    medians apart say what detection and alerting add to an interval.
    The read-back of the stored incident series (the query behind the
    dashboard's incident panel) is printed as ``incident_query_ms`` and
    not gated: it walks every memstore entry of the 230,400 stored
    samples, and its ten-run spread was 18%.
    """

    name = "stream_detect"
    why = ("only workload where detection, alerting and write-back run together on short "
           "blocks through the proxy; says whether detector or write-back is the limit")

    def setup(self, seed: int, quick: bool) -> Dict[str, Any]:
        units, sensors, rows = (4, 12, 250) if quick else (8, 48, 300)
        generator = FleetGenerator(FleetConfig(
            n_units=units, n_sensors=sensors, seed=seed, fault_mix=(0.3, 0.2, 0.5),
            magnitude_range=(3.0, 6.0), drift_ramp_range=(100, 200),
        ))
        batches = list(fleet_microbatches(generator, n_train=rows, n_eval=rows, interval=10))
        onsets = {}
        for unit in generator.units():
            faults = generator.fault_for(unit, rows)
            if faults:
                onsets[unit] = rows + min(f.onset for f in faults)
        return {"batches": batches, "onsets": onsets, "sensors": sensors, "rows": rows}

    def rep(self, inputs: Dict[str, Any], watch: Stopwatch) -> Rep:
        cluster = build_cluster(ClusterConfig(n_nodes=2, salt_buckets=4, retain_data=True))
        detector = StreamingDetector(
            inputs["sensors"], cluster, config=FDRDetectorConfig(q=0.005),
            alerting=AlertingConfig(open_after=3), min_samples=200, refresh_every=2,
        )
        with SparkletContext(parallelism=2) as sc:
            ssc = StreamingContext(sc)
            detector.attach(ssc.generator_stream(iter(inputs["batches"])))
            op_ms: List[float] = []
            while True:
                t0 = watch.start()
                if not ssc.run(1):
                    break
                op_ms.append(watch.stop(t0) * 1e3)
            t0 = watch.start()
            report = detector.finalize()
            work_s = sum(op_ms) / 1e3 + watch.stop(t0)

        engine = cluster.query_engine()
        incident_query = TsdbQuery(
            ALERT_INCIDENT_METRIC, 0, 2 * inputs["rows"] + 1, group_by=("unit",))
        query_ms: List[float] = []
        for _ in range(3):
            t0 = watch.start()
            stored = engine.run(incident_query)
            query_ms.append(watch.stop(t0) * 1e3)
        failures = []
        for label, channel in (("data", report.data_publish),
                               ("anomaly", report.anomaly_publish),
                               ("alert", report.alert_publish)):
            if channel is None or not channel.conservation_ok or (
                    channel.points_written != channel.points_submitted):
                failures.append(f"stream_detect.{label}_channel")
        if sum(len(s) for s in stored) != report.incidents_opened:
            failures.append("stream_detect.stored_incidents")
        telemetry = read_telemetry(cluster)
        telemetry["core.streaming.quarantines"] = report.quarantines
        return Rep(
            work=report.samples_streamed, work_s=work_s, op_ms=op_ms,
            aux_ms=op_ms[: len(op_ms) // 2],  # n_train == n_eval
            attempted=len(op_ms), failed=0,
            digest=(report.incidents_opened, report.naive_alerts, report.model_swaps),
            failures=failures, telemetry=telemetry, state=report,
            info_ms={"incident_query_ms": query_ms},
        )

    def check(self, inputs: Dict[str, Any], rep: Rep) -> List[str]:
        # Which faults a seed's detector catches is statistical (FDR
        # control allows false discoveries; about 1 seed in 100 misses a
        # fault at this size), and E17 gates that.  For any seed a
        # working detector opens an incident on most injected faults, a
        # broken one on none.
        report, onsets = rep.state, inputs["onsets"]
        detected = report.detection_latencies(onsets)
        return [] if 2 * len(detected) >= len(onsets) else ["stream_detect.faults_detected"]


class BatchScore:
    """Offline training and fleet scoring; no cluster.

    work = sensor samples scored, over the scoring wall; op = scoring
    one 4-unit chunk (``pipeline.run(chunk, publish=False)`` with the
    models cached, so evaluation only); aux = training one 10-unit
    chunk (``pipeline.train(chunk)``).
    """

    name = "batch_score"
    why = ("compute only (core, sparklet, numpy): every tsdb/hbase/serve layer idle, so a "
           "storage change must not move it; where fleet-stacked scoring would show")
    chunk = 4

    def setup(self, seed: int, quick: bool) -> Dict[str, Any]:
        units, sensors, rows = (10, 30, 200) if quick else (100, 300, 600)
        return {"config": FleetConfig(n_units=units, n_sensors=sensors, seed=seed),
                "rows": rows}

    def rep(self, inputs: Dict[str, Any], watch: Stopwatch) -> Rep:
        config, rows = inputs["config"], inputs["rows"]
        pipeline = AnomalyPipeline(FleetGenerator(config))
        units = list(range(config.n_units))
        chunks = [units[i: i + self.chunk] for i in range(0, len(units), self.chunk)]
        aux_ms: List[float] = []
        for chunk in chunks:
            t0 = watch.start()
            pipeline.train(chunk, n_train=rows)
            aux_ms.append(watch.stop(t0) * 1e3)
        op_ms: List[float] = []
        reports: Dict[int, Any] = {}
        samples = 0
        for chunk in chunks:
            t0 = watch.start()
            result = pipeline.run(chunk, n_train=rows, n_eval=rows, publish=False)
            op_ms.append(watch.stop(t0) * 1e3)
            reports.update(result.reports)
            samples += int(result.metrics.counter("pipeline.samples_scored").get())
        discoveries = sum(r.n_discoveries for r in reports.values())
        scored = len(reports)
        return Rep(
            work=samples, work_s=sum(op_ms) / 1e3, op_ms=op_ms, aux_ms=aux_ms,
            attempted=len(units), failed=len(units) - scored,
            digest=(discoveries, samples),
            failures=[] if scored == len(units) else ["batch_score.units_scored"],
            state=(pipeline, reports),
        )

    def check(self, inputs: Dict[str, Any], rep: Rep) -> List[str]:
        pipeline, reports = rep.state
        rows = inputs["rows"]
        detector = FDRDetector(pipeline.config)
        n_units = inputs["config"].n_units
        for unit in sorted({0, n_units // 2, n_units - 1}):
            window = pipeline.generator.evaluation_window(unit, rows)
            reference = detector.detect(pipeline.model_for(unit), window.values)
            if not np.array_equal(reference.flags, reports[unit].flags):
                return ["batch_score.flags_vs_detector"]
        return []


WORKLOADS = {w.name: w for w in (
    IngestDense(), FleetSoak(), DashboardRead(), StreamDetect(), BatchScore())}
