"""Span recorder that wraps the library's public entry points from outside.

The traced pass of the benchmark answers "where does the wall time of a
workload go, layer by layer" without touching ``src/``: a
:class:`Recorder` replaces each entry point named in :data:`TARGETS`
(class attributes, and module functions in every loaded module that
imported them by name) with a timing wrapper, and wraps
``Simulator.schedule_at`` / ``DStream.foreach_rdd`` so every callback
the library registers becomes a span attributed to the module that
defines the callback.  :meth:`Recorder.uninstall` puts every original
back, so untraced repetitions execute unwrapped code.

A layer's ``busy_s`` is *self* time: a span's duration minus the part
its child spans (same thread) cover, summed over the layer's spans.  On
the driving thread the self times plus ``bench.unattributed_s`` (the
root span's own self time) equal the traced wall by construction;
executor-thread spans add thread-seconds to their layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import sys
import threading
import time
import types
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

Counts = Dict[Any, float]
Counter = Callable[[Counts, tuple, dict, Any], None]

#: Raw spans kept per thread for the trace file; per-name totals are
#: always complete.  A soak repetition opens ~1M spans, which nobody
#: reads one by one and which would make the trace file ~100 MB.
SPAN_CAP = 20_000

_EXHAUSTED = object()


def _bump(counts: Counts, key: Any, amount: float = 1) -> None:
    counts[key] = counts.get(key, 0) + amount


def _calls(metric: str) -> Counter:
    return lambda c, a, k, r: _bump(c, metric)


def _len_result(metric: str) -> Counter:
    return lambda c, a, k, r: _bump(c, metric, len(r))


def _len_arg(metric: str, index: int) -> Counter:
    return lambda c, a, k, r: _bump(c, metric, len(a[index]))


def _count_step(c: Counts, a: tuple, k: dict, r: Any) -> None:
    if r:
        _bump(c, "cluster.sim.events")
    # One entry per simulator: its clock only moves forward, so the
    # last write is the simulated time that repetition covered.
    c[("sim_now", id(a[0]))] = a[0].now


def _count_flush(c: Counts, a: tuple, k: dict, r: Any) -> None:
    _bump(c, "tsdb.publish.batches", r.batches_submitted)
    _bump(c, "tsdb.publish.retries", r.retries + r.retransmits)


def _count_query(c: Counts, a: tuple, k: dict, r: Any) -> None:
    series = getattr(r, "series", r)  # run_available wraps its answer
    _bump(c, "tsdb.query.queries")
    _bump(c, "tsdb.query.points", sum(len(s) for s in series))


def _count_plan(c: Counts, a: tuple, k: dict, r: Any) -> None:
    _bump(c, "lifecycle.planner.plans")
    if r.tier_served:
        _bump(c, "lifecycle.planner.tier_served")


def _count_cache_get(c: Counts, a: tuple, k: dict, r: Any) -> None:
    _bump(c, "serve.cache.gets")
    if r.state == "fresh":
        _bump(c, "serve.cache.hits")


def _count_samples(c: Counts, a: tuple, k: dict, r: Any) -> None:
    _bump(c, "core.online.samples", a[1].size)


def _count_refresh(c: Counts, a: tuple, k: dict, r: Any) -> None:
    if r is not None:
        _bump(c, "core.streaming.refreshes")


def _count_observe(c: Counts, a: tuple, k: dict, r: Any) -> None:
    _bump(c, "alerting.manager.events", len(a[2]))
    _bump(c, "alerting.manager.incidents", len(r))


def _count_invalidate(c: Counts, a: tuple, k: dict, r: Any) -> None:
    _bump(c, "serve.cache.invalidations", r)


#: ``(layer, "module:qualname", counter)`` — the public entry points the
#: recorder wraps, and the count taken at each boundary.
TARGETS: List[Tuple[str, str, Optional[Counter]]] = [
    ("simdata", "repro.simdata.generator:FleetGenerator.training_window", None),
    ("simdata", "repro.simdata.generator:FleetGenerator.evaluation_window", None),
    ("simdata", "repro.simdata.workload:soak_stream", None),
    ("tsdb.lineprotocol", "repro.tsdb.lineprotocol:parse_block",
     _len_result("tsdb.lineprotocol.points")),
    ("tsdb.blocks", "repro.tsdb.blocks:BlockBatch.from_points", None),
    ("tsdb.blocks", "repro.tsdb.blocks:SeriesBlock.from_columns", _calls("tsdb.blocks.blocks")),
    ("tsdb.blocks", "repro.tsdb.blocks:SeriesBlock.from_points", _calls("tsdb.blocks.blocks")),
    ("tsdb.blocks", "repro.tsdb.blocks:blocks_from_points", _len_result("tsdb.blocks.blocks")),
    ("tsdb.publish", "repro.tsdb.publish:BatchPublisher.publish", None),
    ("tsdb.publish", "repro.tsdb.publish:BatchPublisher.publish_blocks", None),
    ("tsdb.publish", "repro.tsdb.publish:BatchPublisher.flush", _count_flush),
    ("tsdb.ingest", "repro.tsdb.ingest:TsdbCluster.submit", _len_arg("tsdb.ingest.points", 1)),
    ("tsdb.ingest", "repro.tsdb.ingest:TsdbCluster.submit_blocks", None),
    ("tsdb.ingest", "repro.tsdb.ingest:TsdbCluster.direct_put",
     lambda c, a, k, r: _bump(c, "tsdb.ingest.points", r)),
    ("tsdb.proxy", "repro.tsdb.proxy:ReverseProxy.submit", _calls("tsdb.proxy.batches")),
    ("tsdb.tsd", "repro.tsdb.tsd:TSDaemon.put_batch", None),
    ("tsdb.tsd", "repro.tsdb.tsd:TSDaemon.encode_block", _len_result("tsdb.tsd.cells")),
    ("tsdb.tsd", "repro.tsdb.tsd:TSDaemon.encode_point", _calls("tsdb.tsd.cells")),
    ("tsdb.tsd", "repro.tsdb.tsd:TSDaemon.flush_all", None),
    ("tsdb.rowkey", "repro.tsdb.rowkey:RowKeyCodec.encode_rowkeys",
     _len_result("tsdb.rowkey.rows")),
    ("tsdb.rowkey", "repro.tsdb.rowkey:RowKeyCodec.encode", _calls("tsdb.rowkey.rows")),
    ("tsdb.rowkey", "repro.tsdb.rowkey:RowKeyCodec.decode", _calls("tsdb.rowkey.rows")),
    ("tsdb.rowkey", "repro.tsdb.rowkey:RowKeyCodec.decode_rowkeys",
     _len_result("tsdb.rowkey.rows")),
    ("tsdb.rowkey", "repro.tsdb.rowkey:RowKeyCodec.scan_ranges", None),
    ("hbase.client", "repro.hbase.client:HTableClient.put", _calls("hbase.client.rpcs")),
    ("hbase.client", "repro.hbase.client:HTableClient.scan", _calls("hbase.client.rpcs")),
    ("hbase.client", "repro.hbase.client:HTableClient.scan_replicated",
     _calls("hbase.client.rpcs")),
    ("hbase.regionserver", "repro.hbase.regionserver:RegionServer.rpc",
     _calls("hbase.regionserver.rpcs")),
    ("hbase.wal", "repro.hbase.wal:WriteAheadLog.append", _calls("hbase.wal.cells")),
    ("hbase.wal", "repro.hbase.wal:WriteAheadLog.append_batch",
     _len_arg("hbase.wal.cells", 1)),
    ("hbase.wal", "repro.hbase.wal:WriteAheadLog.sync", _calls("hbase.wal.syncs")),
    # Region.put delegates to put_block, so cells are counted there only.
    ("hbase.region", "repro.hbase.region:Region.put", None),
    ("hbase.region", "repro.hbase.region:Region.put_block",
     _len_arg("hbase.region.cells_put", 1)),
    ("hbase.region", "repro.hbase.region:Region.scan",
     lambda c, a, k, r: (_bump(c, "hbase.region.scans"),
                         _bump(c, "hbase.region.cells_scanned", len(r)))),
    ("hbase.region", "repro.hbase.region:Region.flush", None),
    ("hbase.region", "repro.hbase.region:Region.compact", None),
    ("hbase.region", "repro.hbase.region:Region.delete_range", None),
    ("hbase.master", "repro.hbase.master:HMaster.locate", _calls("hbase.master.locates")),
    ("hbase.master", "repro.hbase.master:HMaster.locate_range", _calls("hbase.master.locates")),
    ("hbase.master", "repro.hbase.master:HMaster.direct_scan", _calls("hbase.master.scans")),
    ("hbase.master", "repro.hbase.master:HMaster.direct_scan_consistent",
     _calls("hbase.master.scans")),
    ("hbase.master", "repro.hbase.master:HMaster.direct_delete_range", None),
    ("cluster.sim", "repro.cluster.simulation:Simulator.step", _count_step),
    ("tsdb.query", "repro.tsdb.query:QueryEngine.run",
     lambda c, a, k, r: (_count_query(c, a, k, r), _bump(c, "tsdb.query.engine_runs"))),
    ("tsdb.query", "repro.tsdb.query:QueryEngine.run_available", _count_query),
    ("tsdb.query", "repro.tsdb.query:group_and_aggregate", None),
    ("tsdb.compaction", "repro.tsdb.compaction:decompact_block", _calls("tsdb.compaction.rows")),
    ("tsdb.compaction", "repro.tsdb.compaction:decompact_columns",
     _calls("tsdb.compaction.rows")),
    ("tsdb.compaction", "repro.tsdb.compaction:compact_row_cells",
     _calls("tsdb.compaction.rows")),
    ("tsdb.compaction", "repro.tsdb.compaction:RowCompactor.run", None),
    # align_union runs inside aggregate, so series are counted there only.
    ("tsdb.aggregation", "repro.tsdb.aggregation:aggregate",
     _len_arg("tsdb.aggregation.series", 0)),
    ("tsdb.aggregation", "repro.tsdb.aggregation:downsample", _calls("tsdb.aggregation.series")),
    ("tsdb.aggregation", "repro.tsdb.aggregation:rate", _calls("tsdb.aggregation.series")),
    ("tsdb.aggregation", "repro.tsdb.aggregation:align_union", None),
    ("lifecycle.manager", "repro.lifecycle.manager:LifecycleManager.run_maintenance",
     _calls("lifecycle.manager.passes")),
    ("lifecycle.manager", "repro.lifecycle.manager:LifecycleManager.hot_advance", None),
    ("lifecycle.manager", "repro.lifecycle.manager:LifecycleManager.on_compaction", None),
    ("lifecycle.rollup", "repro.lifecycle.rollup:RollupEngine.advance",
     lambda c, a, k, r: _bump(c, "lifecycle.rollup.windows", r["windows"])),
    ("lifecycle.rollup", "repro.lifecycle.rollup:RollupEngine.observe", None),
    ("lifecycle.retention", "repro.lifecycle.retention:RetentionManager.expire", None),
    ("lifecycle.retention", "repro.lifecycle.retention:RetentionManager.drop_too_late", None),
    # LifecycleManager.plan delegates to TierRouter.plan: counted there.
    ("lifecycle.planner", "repro.lifecycle.manager:LifecycleManager.plan", None),
    ("lifecycle.planner", "repro.lifecycle.manager:LifecycleManager.route", None),
    ("lifecycle.planner", "repro.lifecycle.planner:TierRouter.plan", _count_plan),
    ("lifecycle.planner", "repro.lifecycle.planner:TierRouter.execute", None),
    ("serve.gateway", "repro.serve.gateway:QueryGateway.serve", _calls("serve.gateway.requests")),
    ("serve.gateway", "repro.serve.gateway:QueryGateway.run", _calls("viz.gateway_runs")),
    ("serve.gateway", "repro.serve.gateway:QueryGateway.notify_writes", None),
    ("serve.gateway", "repro.serve.gateway:QueryGateway.notify_expiry", None),
    ("serve.cache", "repro.serve.cache:ResultCache.get", _count_cache_get),
    ("serve.cache", "repro.serve.cache:ResultCache.put", None),
    ("serve.cache", "repro.serve.cache:ResultCache.invalidate", _count_invalidate),
    ("serve.cache", "repro.serve.cache:ResultCache.invalidate_range", _count_invalidate),
    ("serve.admission", "repro.serve.admission:AdmissionController.admit", None),
    ("serve.admission", "repro.serve.admission:AdmissionController.release", None),
    ("viz", "repro.viz.dashboard:Dashboard.fleet_overview_html", _calls("viz.pages")),
    ("viz", "repro.viz.dashboard:Dashboard.machine_page_html", _calls("viz.pages")),
    ("viz", "repro.viz.sparkline:render_sparkline", None),
    ("viz", "repro.viz.sparkline:render_detail_chart", None),
    ("viz", "repro.viz.statusbar:render_status_bar", None),
    ("sparklet", "repro.sparklet.streaming:StreamingContext.run", None),
    ("sparklet", "repro.sparklet.rdd:RDD.collect", None),
    # collect and map_tasks both end in run_job: jobs are counted there.
    ("sparklet", "repro.sparklet.context:SparkletContext.run_job", _calls("sparklet.jobs")),
    ("sparklet", "repro.sparklet.context:SparkletContext.map_tasks", None),
    ("core.training", "repro.core.pipeline:AnomalyPipeline.train", None),
    ("core.training", "repro.core.training:OfflineTrainer.train_fleet", None),
    ("core.training", "repro.core.fdr:FDRDetector.fit", _calls("core.training.units")),
    ("core.streaming", "repro.core.streaming:StreamingTrainer.ingest", _count_refresh),
    ("core.engine", "repro.core.engine:FleetEvaluationEngine.evaluate_fleet", None),
    ("core.engine", "repro.core.engine:FleetEvaluationEngine.evaluate_unit", None),
    # evaluate delegates to evaluate_scored; report does its own scoring.
    ("core.online", "repro.core.online:OnlineEvaluator.evaluate", None),
    ("core.online", "repro.core.online:OnlineEvaluator.evaluate_scored", _count_samples),
    ("core.online", "repro.core.online:OnlineEvaluator.report", _count_samples),
    ("core.multiple_testing", "repro.core.multiple_testing:step_up_sparse",
     _calls("core.multiple_testing.families")),
    ("core.multiple_testing", "repro.core.multiple_testing:benjamini_hochberg",
     _calls("core.multiple_testing.families")),
    ("core.multiple_testing", "repro.core.multiple_testing:apply_procedure",
     _calls("core.multiple_testing.families")),
    ("alerting.stream", "repro.alerting.stream:StreamingDetector.run_fleet", None),
    ("alerting.stream", "repro.alerting.stream:StreamingDetector.finalize", None),
    ("alerting.manager", "repro.alerting.manager:AlertManager.observe", _count_observe),
    ("alerting.store", "repro.alerting.store:AlertStore.record_incident", None),
    ("alerting.store", "repro.alerting.store:AlertStore.record_resolve", None),
    ("alerting.store", "repro.alerting.store:AlertStore.flush", None),
]

#: ``Region`` is one module but three jobs; its busy time is split so a
#: claim on reads is not judged by time spent in writes.
_REGION_BUCKET = {
    "put": "put", "put_block": "put", "scan": "scan",
    "flush": "maint", "compact": "maint", "delete_range": "maint",
}

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS))

#: Per-layer metrics, in print order: ``name -> unit``.  ``BENCHMARK.json``
#: lists exactly these under ``per_layer``.
LAYER_METRICS: Dict[str, str] = {}
for _layer in LAYERS:
    if _layer == "hbase.region":
        for _bucket in ("put", "scan", "maint"):
            LAYER_METRICS[f"hbase.region.{_bucket}_busy_s"] = "s"
    else:
        LAYER_METRICS[f"{_layer}.busy_s"] = "s"
LAYER_METRICS.update({
    "tsdb.lineprotocol.points": "count", "tsdb.blocks.blocks": "count",
    "tsdb.publish.batches": "count", "tsdb.publish.retries": "count",
    "tsdb.ingest.points": "count",
    "tsdb.proxy.batches": "count", "tsdb.proxy.retries": "count",
    "tsdb.tsd.cells": "count", "tsdb.rowkey.rows": "count",
    "hbase.client.rpcs": "count", "hbase.client.retries": "count",
    "hbase.regionserver.rpcs": "count", "hbase.regionserver.rejects": "count",
    "hbase.wal.cells": "count", "hbase.wal.syncs": "count",
    "hbase.region.cells_put": "count", "hbase.region.scans": "count",
    "hbase.region.cells_scanned": "count",
    "hbase.master.locates": "count", "hbase.master.scans": "count",
    "hbase.master.region_scans_per_query": "ratio",
    "cluster.sim.events": "count", "cluster.sim.elapsed_sim_s": "s",
    "tsdb.query.queries": "count", "tsdb.query.cells_per_point": "ratio",
    "tsdb.compaction.rows": "count", "tsdb.aggregation.series": "count",
    "lifecycle.manager.passes": "count", "lifecycle.rollup.windows": "count",
    "lifecycle.retention.cells_expired": "count",
    "lifecycle.planner.plans": "count", "lifecycle.planner.tier_served_ratio": "ratio",
    "serve.gateway.requests": "count", "serve.gateway.shed": "count",
    "serve.cache.hit_ratio": "ratio", "serve.cache.invalidations": "count",
    "viz.queries_per_page": "ratio",
    "sparklet.wait_s": "s", "sparklet.jobs": "count",
    "core.training.units": "count",
    "core.streaming.refreshes": "count", "core.streaming.quarantines": "count",
    "core.online.samples": "count", "core.multiple_testing.families": "count",
    "alerting.stream.intervals": "count",
    "alerting.manager.events": "count", "alerting.manager.incidents": "count",
    "bench.traced_wall_s": "s", "bench.unattributed_s": "s",
    "bench.trace_overhead_ratio": "ratio", "bench.spans": "count",
})

#: Metrics that must repeat exactly for one seed (everything that is
#: not a time).
EXACT_METRICS = tuple(
    name for name, unit in LAYER_METRICS.items()
    if unit != "s" and name != "bench.trace_overhead_ratio"
)

#: Public telemetry counters read at the end of a repetition for the
#: failure/retry counts that no public call boundary exposes.
TELEMETRY_COUNTS = {
    "tsdb.proxy.retries": ("proxy.retries",),
    "hbase.client.retries": ("client.retries", "client.scan_retries"),
    "hbase.regionserver.rejects": ("rpc.rejected",),
    "serve.gateway.shed": ("serve.sheds",),
    "lifecycle.retention.cells_expired": (
        "lifecycle.expired.raw_points", "lifecycle.expired.tier_points"),
}


def callback_layer(func: Any) -> Tuple[Optional[str], str]:
    """``(layer, span name)`` for a callback's underlying function, from
    the module defining it."""
    module = getattr(func, "__module__", None) or ""
    if not module.startswith("repro."):
        return None, ""
    short = module[len("repro."):]
    if short.startswith("cluster."):
        layer: Optional[str] = "cluster.sim"
    elif short == "hbase.replication":
        layer = "hbase.regionserver"
    else:
        layer = short if short in LAYERS else None
    return layer, f"{short}:{getattr(func, '__qualname__', 'callback')}"


class _ThreadState:
    __slots__ = ("ident", "stack", "totals", "counts", "spans")

    def __init__(self, ident: int) -> None:
        self.ident = ident
        self.stack: List[list] = []  # open spans: [name, child_seconds]
        self.totals: Dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: Counts = {}
        self.spans: List[tuple] = []


class Recorder:
    """In-memory span recorder; one per traced repetition."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []
        self._restore: List[Tuple[Any, str, Any]] = []
        self._layer_of: Dict[str, str] = {"bench:root": "bench"}
        self._callback_names: Dict[Any, Tuple[Optional[str], str]] = {}
        self.driver = threading.get_ident()
        self.wall_s = 0.0

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState(threading.get_ident())
            with self._lock:
                self._states.append(state)
            return state

    @staticmethod
    def _close(state: _ThreadState, name: str, t0: float, t1: float) -> None:
        stack = state.stack
        child = stack.pop()[1]
        duration = t1 - t0
        parent = None
        if stack:
            stack[-1][1] += duration
            parent = stack[-1][0]
        total = state.totals.get(name)
        if total is None:
            state.totals[name] = [1, duration, duration - child]
        else:
            total[0] += 1
            total[1] += duration
            total[2] += duration - child
        if len(state.spans) < SPAN_CAP:
            state.spans.append((name, t0, t1, parent))

    def wrap(
        self, fn: Callable[..., Any], name: str, layer: str, counter: Optional[Counter] = None
    ) -> Callable[..., Any]:
        """``fn`` timed as one span per call (per ``next()`` for a generator)."""
        self._layer_of[name] = layer
        state_of, close, clock = self._state, self._close, self._clock

        if inspect.isgeneratorfunction(fn):

            def generator_wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
                iterator = fn(*args, **kwargs)
                while True:
                    state = state_of()
                    state.stack.append([name, 0.0])
                    t0 = clock()
                    try:
                        item = next(iterator, _EXHAUSTED)
                    finally:
                        close(state, name, t0, clock())
                    if item is _EXHAUSTED:
                        return
                    yield item

            return generator_wrapper

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            state = state_of()
            state.stack.append([name, 0.0])
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(state, name, t0, clock())
            if counter is not None:
                counter(state.counts, args, kwargs, result)
            return result

        return wrapper

    def wrap_callback(
        self, callback: Callable[..., Any], counter: Optional[Counter] = None
    ) -> Callable[..., Any]:
        """A library callback as a span of the module that defines it."""
        func = getattr(callback, "func", callback)  # functools.partial
        func = getattr(func, "__func__", func)  # bound method
        key = getattr(func, "__code__", func)  # closures share their code
        try:
            named = self._callback_names[key]
        except KeyError:
            named = self._callback_names[key] = callback_layer(func)
        layer, name = named
        if layer is None:
            return callback
        return self.wrap(callback, name, layer, counter)

    @contextmanager
    def root(self) -> Iterator[None]:
        """The repetition's root span; its self time is ``bench.unattributed_s``."""
        state = self._state()
        state.stack.append(["bench:root", 0.0])
        t0 = self._clock()
        try:
            yield
        finally:
            t1 = self._clock()
            self.wall_s = t1 - t0
            self._close(state, "bench:root", t0, t1)

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap_target(
        self, fn: Callable[..., Any], name: str, layer: str, counter: Optional[Counter]
    ) -> Callable[..., Any]:
        return functools.update_wrapper(self.wrap(fn, name, layer, counter), fn)

    def install(self) -> None:
        """Wrap every target; idempotence is the caller's job (install once)."""
        import repro

        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if not info.name.endswith("__main__"):
                importlib.import_module(info.name)
        modules = [m for m in list(sys.modules.values()) if isinstance(m, types.ModuleType)]
        for layer, target, counter in TARGETS:
            module_name, qualname = target.split(":")
            module = importlib.import_module(module_name)
            name = f"{module_name[len('repro.'):]}:{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                raw = vars(cls)[attr]
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped: Any = type(raw)(
                        self._wrap_target(raw.__func__, name, layer, counter))
                else:
                    wrapped = self._wrap_target(raw, name, layer, counter)
                self._patch(cls, attr, wrapped)
            else:
                original = getattr(module, qualname)
                wrapped = self._wrap_target(original, name, layer, counter)
                # ``from .x import f`` binds f in the importer's globals, so
                # every loaded module holding the object is rebound (the
                # library's own modules and the benchmark's).
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapped)

        from repro.cluster.simulation import Simulator
        from repro.sparklet.streaming import DStream

        schedule_at = Simulator.schedule_at
        foreach_rdd = DStream.foreach_rdd
        wrap_callback = self.wrap_callback

        @functools.wraps(schedule_at)
        def traced_schedule_at(sim: Any, when: float, callback: Any, *args: Any) -> Any:
            return schedule_at(sim, when, wrap_callback(callback), *args)

        @functools.wraps(foreach_rdd)
        def traced_foreach_rdd(stream: Any, f: Any) -> None:
            foreach_rdd(stream, wrap_callback(f, _calls("alerting.stream.intervals")))

        self._patch(Simulator, "schedule_at", traced_schedule_at)
        self._patch(DStream, "foreach_rdd", traced_foreach_rdd)

    def uninstall(self) -> None:
        """Put every original back (reverse order, so nothing is left wrapped)."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # read-out
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Dict[str, Any]]:
        """Per span name: layer, calls, total and self seconds (all threads),
        and the self seconds spent on the driving thread."""
        out: Dict[str, Dict[str, Any]] = {}
        for state in self._states:
            for name, (calls, total, self_s) in state.totals.items():
                row = out.setdefault(name, {
                    "layer": self._layer_of[name], "calls": 0,
                    "total_s": 0.0, "self_s": 0.0, "driver_self_s": 0.0,
                })
                row["calls"] += calls
                row["total_s"] += total
                row["self_s"] += self_s
                if state.ident == self.driver:
                    row["driver_self_s"] += self_s
        return out

    def counts(self) -> Counts:
        merged: Counts = {}
        for state in self._states:
            for key, value in state.counts.items():
                if isinstance(key, tuple):  # per-simulator clocks never add up
                    merged[key] = value
                else:
                    merged[key] = merged.get(key, 0) + value
        return merged

    def layer_metrics(
        self, telemetry: Dict[str, float], untraced_wall_s: float
    ) -> Dict[str, float]:
        """Every name in :data:`LAYER_METRICS` for this repetition.

        ``telemetry`` holds the workload's read-out of the public
        counters named in :data:`TELEMETRY_COUNTS` (and the streaming
        report's quarantine count).
        """
        summary, counts = self.summary(), self.counts()
        metrics = {name: 0.0 for name in LAYER_METRICS}
        for name, row in summary.items():
            layer = row["layer"]
            if layer == "bench":
                continue
            if layer == "hbase.region":
                bucket = _REGION_BUCKET.get(name.rsplit(".", 1)[1], "maint")
                metrics[f"hbase.region.{bucket}_busy_s"] += row["self_s"]
            else:
                metrics[f"{layer}.busy_s"] += row["self_s"]
        for name, value in counts.items():
            if name in metrics:
                metrics[name] = float(value)
        for name, value in telemetry.items():
            metrics[name] = float(value)

        def ratio(num: str, den: str) -> float:
            return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0

        metrics["cluster.sim.elapsed_sim_s"] = float(
            sum(v for k, v in counts.items() if isinstance(k, tuple))
        )
        metrics["hbase.master.region_scans_per_query"] = ratio(
            "hbase.region.scans", "tsdb.query.queries")
        metrics["tsdb.query.cells_per_point"] = ratio(
            "hbase.region.cells_scanned", "tsdb.query.points")
        metrics["lifecycle.planner.tier_served_ratio"] = ratio(
            "lifecycle.planner.tier_served", "lifecycle.planner.plans")
        metrics["serve.cache.hit_ratio"] = ratio("serve.cache.hits", "serve.cache.gets")
        # A dashboard reads through QueryEngine.run or QueryGateway.run;
        # the gateway's own clients call serve.
        counts["viz.queries"] = counts.get("tsdb.query.engine_runs", 0) + counts.get(
            "viz.gateway_runs", 0)
        metrics["viz.queries_per_page"] = ratio("viz.queries", "viz.pages")
        metrics["sparklet.wait_s"] = summary.get(
            "sparklet.context:SparkletContext.run_job", {}).get("driver_self_s", 0.0)
        metrics["bench.traced_wall_s"] = self.wall_s
        metrics["bench.unattributed_s"] = summary["bench:root"]["self_s"]
        metrics["bench.trace_overhead_ratio"] = (
            self.wall_s / untraced_wall_s if untraced_wall_s > 0 else 0.0)
        metrics["bench.spans"] = float(sum(row["calls"] for row in summary.values()))
        return metrics

    def driver_self_total(self) -> float:
        """Self seconds on the driving thread, root included (== traced wall)."""
        return sum(row["driver_self_s"] for row in self.summary().values())

    def write(self, path: Any, header: Dict[str, Any], metrics: Dict[str, float]) -> None:
        """Write the trace file: header, per-layer metrics, per-name
        summary, and the first :data:`SPAN_CAP` raw spans of each thread."""
        spans = [
            [name, start, end, parent, state.ident]
            for state in self._states
            for name, start, end, parent in state.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                **header,
                "driver_thread": self.driver,
                "span_fields": ["name", "start", "end", "parent", "thread"],
                "metrics": metrics,
                "summary": self.summary(),
                "spans": spans,
            }, fh)
