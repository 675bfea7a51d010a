"""The query-serving gateway: cache → admission → engine.

:class:`QueryGateway` is the façade the control-center talks to
instead of a raw :class:`~repro.tsdb.query.QueryEngine`.  A request
flows::

    serve(query, client_id)
      │ result cache probe
      ├─ fresh  ──────────────▶ serve (ETag match -> NotModified)
      ├─ stale  ─ backend down ▶ serve stale, age-stamped
      │          backend up    ▶ refresh (admission-gated); saturated
      │                          -> serve stale now, revalidate behind
      └─ miss   ─▶ admission slots ─ full queue -> QueryRejected("queue_full")
                      │ FIFO wait (deadline-bounded)
                      └▶ QueryEngine.run ─▶ fill cache ─▶ respond

Responses are **bit-identical** to a direct ``QueryEngine.run`` in
every cache state *while every landing is followed by its batch's
ack*: the cache key only merges queries the engine must answer
identically (see :mod:`repro.serve.cache`), and write-through
invalidation is driven from the cluster's write paths.  Invalidation
fires twice per batch — optimistically at submit time and again when
the batch's ack lands — because a result computed *between* the two
would otherwise be cached without the in-flight points.  A write-epoch
guard closes the remaining async window: results computed before a
write landed are served but never cached.  Cells that land after their
batch's final ack, or from a batch never acked, invalidate nothing: a
result cached before them is then a stale fresh hit (DESIGN.md §10.1).

Execution latency is simulated: the engine's offline read is free, so
the gateway charges a :class:`ServeServiceModel` cost (per scan range
+ per returned point) on the simulator clock.  This is what makes the
E14 queueing/stampede dynamics real and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from ..hbase.master import RegionUnavailableError
from ..tsdb.aggregation import Series
from ..tsdb.blocks import WriteSpans
from ..tsdb.query import TsdbQuery
from .admission import AdmissionController, QueryRejected, Ticket
from .cache import CanonicalQuery, ResultCache, canonical_key, result_etag

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..tsdb.ingest import TsdbCluster

__all__ = ["GatewayConfig", "QueryGateway", "ServeResult", "ServeServiceModel"]

#: Histogram bounds for ``serve.latency`` — cache hits land around
#: 0.2 ms, queued executions out to multi-second deadlines.
_LATENCY_BOUNDS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)

#: Seconds a queued request may wait for a slot when its caller names
#: no deadline of its own.
DEFAULT_DEADLINE = 5.0


@dataclass(frozen=True)
class ServeServiceModel:
    """Simulated cost of answering one query from storage.

    ``overhead`` covers parse/plan/RPC setup, ``per_range`` each
    salt-bucket scan issued, ``per_point`` each datapoint in the
    result, and ``hit_cost`` a cache hit (serialization only).
    """

    overhead: float = 0.002
    per_range: float = 5e-5
    per_point: float = 2e-6
    hit_cost: float = 2e-4

    def __post_init__(self) -> None:
        if min(self.overhead, self.per_range, self.per_point, self.hit_cost) < 0:
            raise ValueError("service-model costs must be non-negative")

    def cost(self, n_ranges: int, n_points: int) -> float:
        return self.overhead + self.per_range * n_ranges + self.per_point * n_points


@dataclass(frozen=True)
class GatewayConfig:
    """Knobs for one :class:`QueryGateway`."""

    ttl: float = 2.0
    cache_enabled: bool = True
    max_concurrent: int = 4
    max_queue: int = 32
    service_model: ServeServiceModel = field(default_factory=ServeServiceModel)


@dataclass
class ServeResult:
    """One gateway response.

    ``status`` is ``"hit"`` (fresh cache), ``"miss"`` (executed) or
    ``"stale"`` (expired entry served under stale-while-revalidate —
    ``age`` then carries its staleness in seconds; fresh responses
    have ``age == 0.0``).  When the caller's ``if_none_match`` etag
    still matches, ``not_modified`` is True and ``series`` is None —
    the cheap unchanged-poll path.  ``latency`` is simulated seconds
    from issue to completion.

    ``degraded`` marks a response assembled (at least partly) from
    follower replicas because a primary was down; ``max_staleness``
    then bounds how far behind the primary the data may be.  Degraded
    responses are served but never cached.
    """

    status: str
    series: Optional[List[Series]]
    etag: str
    age: float
    latency: float
    not_modified: bool = False
    degraded: bool = False
    max_staleness: float = 0.0

    @property
    def served_from_cache(self) -> bool:
        return self.status in ("hit", "stale")


class QueryGateway:
    """Serving tier composing result cache, admission control and engine."""

    def __init__(
        self, cluster: "TsdbCluster", config: Optional[GatewayConfig] = None
    ) -> None:
        self.cluster = cluster
        self.engine = cluster.query_engine()
        self.sim = cluster.sim
        self.config = config if config is not None else GatewayConfig()
        self.metrics = cluster.metrics
        self.cache = ResultCache(self.config.ttl)
        self.admission = AdmissionController(self.config.max_concurrent, self.config.max_queue)
        # Bumped on every write notification; executions that straddle a
        # bump are served but never cached (coherence under async races).
        self._write_epoch = 0
        # Bound once: a cache hit pays no registry lookup.
        self._latency = self.metrics.histogram("serve.latency", _LATENCY_BOUNDS)
        self._staleness = self.metrics.histogram("serve.staleness")
        self._hits = self.metrics.counter("serve.hits")
        self._misses = self.metrics.counter("serve.misses")
        self._stale_serves = self.metrics.counter("serve.stale_serves")
        self._not_modified = self.metrics.counter("serve.not_modified")
        cluster.add_write_listener(self.notify_writes)
        if cluster.lifecycle is not None:
            cluster.lifecycle.add_expiry_listener(self.notify_expiry)

    # ------------------------------------------------------------------
    # engine-compatible surface (Dashboard/FleetAnalytics drop-in)
    # ------------------------------------------------------------------
    @property
    def uids(self):  # noqa: ANN201 - UniqueIdRegistry, typed at the engine
        return self.engine.uids

    def run(self, query: TsdbQuery) -> List[Series]:
        """Engine-compatible execute: serve and unwrap the series."""
        result = self.serve(query, client_id="dashboard")
        assert result.series is not None  # no etag passed -> never NotModified
        return result.series

    # ------------------------------------------------------------------
    # synchronous serving (dashboard renders, tests)
    # ------------------------------------------------------------------
    def serve(
        self,
        query: TsdbQuery,
        client_id: str = "interactive",
        if_none_match: Optional[str] = None,
    ) -> ServeResult:
        """Serve one query now (no simulated time passes).

        The synchronous path never waits in the FIFO queue: if every
        execution slot is held by in-flight async work it serves stale
        (revalidating behind) or sheds.  Raises :class:`QueryRejected`
        on saturation with nothing cached, or a down backend with
        nothing cached.
        """
        now = self.sim.now
        saturated = self.admission.in_flight >= self.admission.max_concurrent
        key, cached = self._probe(query, client_id, now, if_none_match, 0.0, saturated)
        if cached is not None:
            return cached
        if saturated:
            self._count_shed("queue_full")
            raise QueryRejected("queue_full", self.admission.retry_after(), f"client {client_id}")
        ticket = self.admission.admit(client_id, now)  # slot free: grants inline
        result = self._execute(ticket, query, key, now, if_none_match)
        assert result is not None  # no on_done: settled inline (a rejection raised)
        return result

    # ------------------------------------------------------------------
    # asynchronous serving (the workload driver's path)
    # ------------------------------------------------------------------
    def serve_async(
        self,
        query: TsdbQuery,
        client_id: str,
        on_done: Callable[[ServeResult], None],
        on_reject: Optional[Callable[[QueryRejected], None]] = None,
        deadline: Optional[float] = None,
        if_none_match: Optional[str] = None,
    ) -> None:
        """Serve through the simulator: completions and rejections are
        delivered as scheduled events, with queueing and execution cost
        charged on the sim clock.

        ``deadline`` (relative seconds, :data:`DEFAULT_DEADLINE` when
        None) bounds the FIFO wait; requests still queued past it are
        shed.
        """
        now = self.sim.now
        hit_cost = self.config.service_model.hit_cost
        try:
            key, cached = self._probe(query, client_id, now, if_none_match, hit_cost, True)
        except QueryRejected as exc:
            self._deliver_reject(exc, on_reject)
            return
        if cached is not None:
            self.sim.schedule(hit_cost, on_done, cached)
            return
        abs_deadline = now + (deadline if deadline is not None else DEFAULT_DEADLINE)

        def granted(ticket: Ticket) -> None:
            self._execute(ticket, query, key, now, if_none_match, on_done, on_reject)

        def timed_out(ticket: Ticket) -> None:
            self._count_shed("deadline")
            self._deliver_reject(
                QueryRejected("deadline", self.admission.retry_after(), f"client {client_id}"),
                on_reject,
            )

        try:
            ticket = self.admission.admit(client_id, now, abs_deadline, granted, timed_out)
        except QueryRejected as exc:
            self._count_shed("queue_full")
            self._deliver_reject(exc, on_reject)
            return
        self._sync_admission_gauges()
        if ticket.state == "granted":
            granted(ticket)
        else:
            # Strict comparison in expire_due: fire just past the deadline.
            self.sim.schedule(abs_deadline - now + 1e-9, self._expire_tick)

    def _probe(
        self,
        query: TsdbQuery,
        client_id: str,
        now: float,
        if_none_match: Optional[str],
        latency: float,
        stale_ok: bool,
    ) -> Tuple[Optional[CanonicalQuery], Optional[ServeResult]]:
        """Answer from the cache if it can.

        Returns ``(cache key, response)``; a ``None`` response means
        execute.  A stale entry is served when the backend is down, or —
        revalidating behind — when ``stale_ok``.  Raises
        :class:`QueryRejected` when the backend is down with nothing
        cached.
        """
        key: Optional[CanonicalQuery] = None
        if self.config.cache_enabled:
            # The planner's serving source is part of the key: a raw-served
            # answer is never replayed for a query now routed to a tier.
            key = canonical_key(query, self.engine.route_tier(query))
            lookup = self.cache.get(key, now)
            if lookup.state == "fresh":
                return key, self._respond("hit", lookup.value, lookup.etag, if_none_match, latency)
            if lookup.state == "stale":
                backend_up = self.backend_available()
                if not backend_up or stale_ok:
                    if backend_up:
                        self._queue_revalidation(query, key, client_id, now)
                    return key, self._respond(
                        "stale", lookup.value, lookup.etag, if_none_match, latency, lookup.age
                    )
        if not self.backend_available():
            self._count_shed("unavailable")
            raise QueryRejected("unavailable", 1.0, "storage tier down and nothing cached")
        return key, None

    # ------------------------------------------------------------------
    # write-through invalidation
    # ------------------------------------------------------------------
    def notify_expiry(self, spans) -> None:
        """Evict cache entries over expired (or re-rolled) time ranges.

        Wired to the lifecycle manager's expiry notifications.  Expiry
        drops every series of a metric in the range, so eviction skips
        tag-filter matching; the write epoch is bumped so in-flight
        executions that straddle the expiry are served but not cached.
        """
        self._write_epoch += 1
        evicted = 0
        for metric, start, end in spans:
            evicted += self.cache.invalidate_range(metric, start, end - 1)
        if evicted:
            self.metrics.counter("serve.invalidations").inc(evicted)

    def notify_writes(self, writes: WriteSpans) -> None:
        """Evict cache entries overlapping freshly written points.

        Wired to the cluster's write listeners; touches are coalesced
        per ``(metric, tags)`` series into one time-range probe — the
        batch's by-series spans, walked once for both of a submitted
        batch's notifications.
        """
        self._write_epoch += 1
        evicted = 0
        for (metric, tags), (t_min, t_max, _n) in writes.by_series().items():
            evicted += self.cache.invalidate(metric, dict(tags), t_min, t_max)
        if evicted:
            self.metrics.counter("serve.invalidations").inc(evicted)

    def backend_available(self) -> bool:
        """Is the storage tier reachable? (needs ≥ 1 live TSD frontend).

        The offline engine reads region state directly, so this is the
        gateway's availability model: with every TSD down there is no
        daemon to answer a query and only stale serving remains.
        """
        return any(not tsd.crashed for tsd in self.cluster.tsds)

    # ------------------------------------------------------------------
    # internals: execution
    # ------------------------------------------------------------------
    def _run_engine(self, query: TsdbQuery) -> Tuple[List[Series], bool, float]:
        """Execute through the engine, degrading to follower reads.

        Returns ``(series, degraded, max_staleness)``.  Raises
        :class:`RegionUnavailableError` when no replica can answer.
        """
        result = self.engine.run_available(query)
        degraded = result.mode != "strong"
        if degraded:
            self.metrics.counter("serve.degraded").inc()
            self.metrics.gauge("serve.degraded_staleness").set(result.staleness)
        return result.series, degraded, result.staleness

    def _execute(
        self,
        ticket: Ticket,
        query: TsdbQuery,
        key: Optional[CanonicalQuery],
        issued_at: float,
        if_none_match: Optional[str],
        on_done: Optional[Callable[[ServeResult], None]] = None,
        on_reject: Optional[Callable[[QueryRejected], None]] = None,
    ) -> Optional[ServeResult]:
        """Run the engine under a granted slot, then settle.

        Without ``on_done`` (the synchronous path) the settle step runs
        inline and the response is returned; with it, the settle step
        runs after the modelled execution cost and delivers there.
        """
        self._sync_admission_gauges()
        try:
            series, degraded, staleness = self._run_engine(query)
        except RegionUnavailableError as exc:
            self._release(ticket)
            self._count_shed("unavailable")
            self._deliver_reject(QueryRejected("unavailable", 1.0, str(exc)), on_reject)
            return None
        # The result is a snapshot at grant time; the epoch guard keeps
        # it out of the cache if a write lands before completion.
        epoch = self._write_epoch

        def complete() -> ServeResult:
            etag = self._settle(ticket, key, series, epoch, degraded)
            if etag is None:  # not cached: the answer still needs its etag
                etag = result_etag(series)
            result = self._respond(
                "miss", series, etag, if_none_match, self.sim.now - issued_at,
                degraded=degraded, staleness=staleness,
            )
            if on_done is not None:
                on_done(result)
            return result

        if on_done is None:
            return complete()
        self.sim.schedule(self._execution_cost(query, series), complete)
        return None

    def _release(self, ticket: Ticket) -> None:
        self.admission.release(self.sim.now, started_at=ticket.granted_at)
        self._sync_admission_gauges()

    def _settle(
        self,
        ticket: Ticket,
        key: Optional[CanonicalQuery],
        series: List[Series],
        epoch: int,
        degraded: bool,
    ) -> Optional[str]:
        """The one completion of an execution: free the slot, then cache
        the answer unless it is degraded or a write landed since it was
        computed.  Returns the cached entry's etag, ``None`` if uncached."""
        self._release(ticket)
        if key is not None and epoch == self._write_epoch and not degraded:
            return self.cache.put(key, series, self.sim.now)
        return None

    def _execution_cost(self, query: TsdbQuery, series: List[Series]) -> float:
        # The plan's range count, read off the codec rather than planned
        # twice: one per salt bucket (one unsalted), none for a metric
        # never written.
        n_ranges = 0
        if self.engine.uids.known("metric", query.metric):
            n_ranges = self.engine.codec.salt_buckets or 1
        n_points = sum(len(s.timestamps) for s in series)
        return self.config.service_model.cost(n_ranges, n_points)

    # ------------------------------------------------------------------
    # internals: stale-while-revalidate
    # ------------------------------------------------------------------
    def _queue_revalidation(
        self, query: TsdbQuery, key: CanonicalQuery, client_id: str, now: float
    ) -> None:
        """Kick one background refresh for a stale key (best effort)."""
        if not self.cache.begin_refresh(key):
            return  # a refresh is already in flight

        def granted(ticket: Ticket) -> None:
            try:
                series, degraded, _ = self._run_engine(query)
            except RegionUnavailableError:
                series, degraded = [], True
            if degraded:
                # Never freshen the cache from a follower snapshot; the
                # stale entry stays and a later probe retries.
                self._release(ticket)
                self.cache.abort_refresh(key)
                return
            cost = self._execution_cost(query, series)
            self.sim.schedule(cost, refreshed, ticket, series, self._write_epoch)

        def refreshed(ticket: Ticket, series: List[Series], epoch: int) -> None:
            if self._settle(ticket, key, series, epoch, False) is None:
                self.cache.abort_refresh(key)

        def timed_out(ticket: Ticket) -> None:
            self.cache.abort_refresh(key)

        try:
            ticket = self.admission.admit(client_id, now, None, granted, timed_out)
        except QueryRejected:
            self.cache.abort_refresh(key)  # saturated: retry on a later probe
            return
        self._sync_admission_gauges()
        self.metrics.counter("serve.revalidations").inc()
        if ticket.state == "granted":
            granted(ticket)

    # ------------------------------------------------------------------
    # internals: responses and accounting
    # ------------------------------------------------------------------
    def _respond(
        self,
        status: str,
        series: List[Series],
        etag: str,
        if_none_match: Optional[str],
        latency: float,
        age: float = 0.0,
        degraded: bool = False,
        staleness: float = 0.0,
    ) -> ServeResult:
        """Count one response by kind and honour the caller's etag."""
        if status == "hit":
            self._hits.inc()
        elif status == "miss":
            self._misses.inc()
        else:
            self._stale_serves.inc()
            self._staleness.observe(age)
        self._latency.observe(latency)
        nm = if_none_match is not None and if_none_match == etag
        if nm:
            self._not_modified.inc()
        return ServeResult(
            status, None if nm else series, etag, age, latency,
            not_modified=nm, degraded=degraded, max_staleness=staleness,
        )

    def _deliver_reject(
        self, exc: QueryRejected, on_reject: Optional[Callable[[QueryRejected], None]]
    ) -> None:
        if on_reject is None:
            raise exc
        self.sim.schedule(0.0, on_reject, exc)

    def _count_shed(self, reason: str) -> None:
        self.metrics.counter("serve.sheds").inc(label=reason)

    def _expire_tick(self) -> None:
        self.admission.expire_due(self.sim.now)
        self._sync_admission_gauges()

    def _sync_admission_gauges(self) -> None:
        self.metrics.gauge("serve.queue_depth").set(float(self.admission.queue_depth))
        self.metrics.gauge("serve.in_flight").set(float(self.admission.in_flight))
        self.metrics.gauge("serve.cache_size").set(float(len(self.cache)))

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Cache + admission counters, for reports and examples."""
        out = dict(self.cache.stats())
        out.update(
            granted=self.admission.granted,
            queued=self.admission.queued,
            shed_queue_full=self.admission.shed_queue_full,
            shed_deadline=self.admission.shed_deadline,
            queue_high_water=self.admission.queue_high_water,
            in_flight_high_water=self.admission.in_flight_high_water,
        )
        return out
