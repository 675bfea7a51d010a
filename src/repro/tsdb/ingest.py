"""Cluster assembly and ingestion drivers.

``build_cluster`` wires a complete simulated deployment — master,
RegionServers (one per node, as in the paper), TSD daemons (one per
node), row-key codec, UID registry, and either the buffering reverse
proxy or a fire-and-forget submitter.  ``IngestionDriver`` offers load
from a workload generator at a configured sample rate and produces the
measurements Figure 2 and the E6/E7 ablations report.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional

from ..cluster.failures import OverflowCrashPolicy
from ..cluster.metrics import MetricsRegistry, TimeSeriesRecorder, skew_ratio
from ..cluster.network import Network
from ..cluster.node import Node
from ..cluster.simulation import Simulator
from ..hbase.master import HMaster
from ..hbase.regionserver import RegionServer, ServiceModel
from ..hbase.replication import ReplicationCoordinator
from ..obs.trace import Tracer
from .blocks import BlockBatch, SeriesBlock, WriteSpans
from .proxy import DirectSubmitter, ReverseProxy
from .query import QueryEngine
from .rowkey import RowKeyCodec
from .tsd import DATA_TABLE, DataPoint, PutAck, TSDaemon
from .uid import UniqueIdRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..lifecycle.manager import LifecycleManager
    from ..lifecycle.tiers import LifecyclePolicy
    from ..obs.selfreport import SelfReporter
    from ..serve.gateway import GatewayConfig, QueryGateway
    from .compaction import RowCompactor

__all__ = ["ClusterConfig", "TsdbCluster", "build_cluster", "IngestionDriver", "IngestionReport"]

#: The proxy's in-flight window, in batches per node (see
#: :meth:`ClusterConfig.resolved_proxy_window`).
PROXY_WINDOW_PER_NODE = 40

#: Sim-seconds between an ingestion run's committed-sample readings.
RECORD_INTERVAL = 0.25


@dataclass
class ClusterConfig:
    """Knobs for a simulated ingestion deployment.

    Defaults reproduce the paper's tuned configuration: salted keys,
    regions pre-split per salt bucket, the buffering reverse proxy on,
    compaction off, WAL on.
    """

    n_nodes: int = 30
    salt_buckets: Optional[int] = None  # None -> smallest node multiple >= 128, capped at 256
    use_proxy: bool = True
    retain_data: bool = False
    compaction_enabled: bool = False
    crash_on_overflow: bool = True
    direct_spray: bool = True  # fire-and-forget mode: round-robin vs single TSD
    trace: bool = False  # span tracing across proxy -> TSD -> RegionServer
    replication_factor: int = 1  # 1 = primary only; N>=2 adds N-1 follower replicas
    failure_detection_delay: float = 0.0  # master's crash-detection lag (sim-seconds)
    # None = no lifecycle tier; a LifecyclePolicy wires a LifecycleManager
    # (rollups, TTL retention, tier-routed queries) into the deployment.
    lifecycle: Optional["LifecyclePolicy"] = None

    def resolved_salt_buckets(self) -> int:
        """Default bucket count: the smallest multiple of ``n_nodes`` that
        is at least 128, capped at 256.

        The paper's one-byte random salt gives ~256 buckets over 29
        RegionServers — many buckets per server, so per-bucket hash
        imbalance averages out.  Up to 256 nodes the count is a node
        multiple, which keeps the round-robin region assignment exactly
        even; above 256 nodes the one-byte cap gives 256 buckets, which
        is not a multiple of ``n_nodes``.
        """
        if self.salt_buckets is None:
            per_node = -(-128 // self.n_nodes)  # ceil
            return min(256, self.n_nodes * per_node)
        return self.salt_buckets

    def resolved_proxy_window(self) -> int:
        """The proxy's in-flight window: sized to the bandwidth-delay product.

        Cluster capacity grows with node count while the dominant ack
        latency (the TSD coalescing timer) is constant, so the window
        must scale with nodes or it becomes the bottleneck.
        :data:`PROXY_WINDOW_PER_NODE` (40) batches per node keeps the
        pipe full while still bounding what can pile onto any
        RegionServer queue.
        """
        return PROXY_WINDOW_PER_NODE * self.n_nodes


class TsdbCluster:
    """A fully wired simulated OpenTSDB/HBase deployment."""

    def __init__(self, config: ClusterConfig) -> None:
        if config.n_nodes < 1:
            raise ValueError("need at least one node")
        if config.replication_factor < 1:
            raise ValueError("replication_factor must be >= 1")
        if config.failure_detection_delay < 0:
            raise ValueError("failure_detection_delay must be non-negative")
        self.config = config
        self.sim = Simulator()
        # One registry per deployment, handed to every component it
        # builds, so e.g. ``proxy.retries`` is one counter cluster-wide.
        self.metrics = MetricsRegistry()
        # Sim-clock tracer shared by the whole ingest path; spans carry
        # sim-seconds so traces line up with the simulated timeline.
        self.tracer = Tracer(enabled=config.trace, clock=lambda: self.sim.now)
        self.network = Network(self.sim)
        self.master = HMaster(
            metrics=self.metrics,
            sim=self.sim,
            failure_detection_delay=config.failure_detection_delay,
        )
        self.uids = UniqueIdRegistry()
        self.codec = RowKeyCodec(config.resolved_salt_buckets())
        # Logical write clock shared by every writer (TSDs, bulk loads,
        # the compactor) so newest-write-wins is globally consistent:
        # 1.0, 2.0, ... from a C-level callable, so a block's worth is
        # drawn without an interpreted call per cell.
        self.next_write_ts = itertools.count(1.0).__next__

        service_model = ServiceModel()
        if config.compaction_enabled:
            # OpenTSDB compaction re-reads and rewrites finished rows,
            # adding RPC traffic to the RegionServers.  Modelled as a
            # 50% surcharge on the put price's two write rates — the
            # reason the paper disabled compaction during ingestion runs.
            service_model = replace(
                service_model,
                per_run_write=service_model.per_run_write * 1.5,
                per_cell_write=service_model.per_cell_write * 1.5,
            )

        self.nodes: List[Node] = []
        self.servers: List[RegionServer] = []
        self.tsds: List[TSDaemon] = []
        for i in range(config.n_nodes):
            node = Node(self.sim, f"node{i:02d}")
            self.nodes.append(node)
            rs = RegionServer(
                self.sim,
                self.network,
                node,
                f"rs{i:02d}",
                service_model=service_model,
                metrics=self.metrics,
                tracer=self.tracer,
                crash_policy_factory=(
                    (lambda srv: OverflowCrashPolicy(
                        self.sim, on_crash=srv.crash, on_restart=srv.restart
                    ))
                    if config.crash_on_overflow
                    else None
                ),
            )
            self.master.register_server(rs)
            self.servers.append(rs)
        # Regions pre-split on salt boundaries ("manually split to ensure
        # each region handled an equal proportion of the writes").
        self.master.create_table(
            DATA_TABLE, self.codec.split_keys(), retain_data=config.retain_data
        )
        #: Region replication (None when replication_factor == 1): each
        #: region gets ``rf - 1`` follower replicas on distinct servers,
        #: fed asynchronously by the shares the primary's one writer
        #: logs (:meth:`HMaster.enable_replication` wires every server).
        self.replication: Optional[ReplicationCoordinator] = None
        if config.replication_factor > 1:
            self.replication = ReplicationCoordinator(
                self.sim,
                self.network,
                self.master,
                n_followers=config.replication_factor - 1,
                metrics=self.metrics,
            )
            self.master.enable_replication(self.replication)
        for i, node in enumerate(self.nodes):
            tsd = TSDaemon(
                self.sim,
                self.network,
                node,
                f"tsd{i:02d}",
                self.master,
                self.uids,
                self.codec,
                metrics=self.metrics,
                write_ts=self.next_write_ts,
                tracer=self.tracer,
            )
            self.tsds.append(tsd)

        #: Write listeners (the serving gateway's cache invalidation
        #: hook): called with the :class:`WriteSpans` of every
        #: submitted/bulk-loaded batch.  NOTE: fired twice per submitted
        #: batch (optimistic + at ack), so listeners must be idempotent.
        self._write_listeners: List[Callable[[WriteSpans], None]] = []
        #: Ingest observers: called exactly once per batch — at ack for
        #: submitted batches, at completion for bulk loads — with
        #: ``(writes, written, failed)``.  The exact-once counterpart of
        #: the write listeners, for accounting that must not double.
        self._ingest_observers: List[Callable] = []

        if config.use_proxy:
            self.ingress: ReverseProxy | DirectSubmitter = ReverseProxy(
                self.sim,
                self.network,
                self.tsds,
                max_in_flight=config.resolved_proxy_window(),
                metrics=self.metrics,
                tracer=self.tracer,
            )
        else:
            self.ingress = DirectSubmitter(
                self.sim, self.network, self.tsds, spray=config.direct_spray
            )

        #: The data-lifecycle tier (rollups / retention / tier routing);
        #: wired last so its write hooks see a fully built deployment.
        self.lifecycle: Optional["LifecycleManager"] = None
        if config.lifecycle is not None:
            from ..lifecycle.manager import LifecycleManager

            self.lifecycle = LifecycleManager(self, config.lifecycle)

    # ------------------------------------------------------------------
    # convenience accessors
    # ------------------------------------------------------------------
    def submit(self, points, on_ack: Optional[Callable[[PutAck], None]] = None) -> None:
        """Submit a point batch (list of points or a :class:`BlockBatch`).

        The ingress path is payload-shape-agnostic — it only ever takes
        ``len()`` and point-granular slices — so columnar batches flow
        through the same proxy window, retries, and delivery
        accounting as point lists.
        """
        if points and (self._write_listeners or self._ingest_observers):
            # Notify listeners twice: optimistically at submit (evict
            # before the batch is even durable — conservative and cheap)
            # and again when its ack lands, because a query executed
            # *between* the two would otherwise cache a result missing
            # these points.  Observers fire exactly once, at ack.  All
            # of them share one WriteSpans, so the points are walked at
            # most once per granularity across both notifications.
            writes = WriteSpans(points)
            self._notify_writes(writes)
            inner = on_ack

            def acked(ack: PutAck) -> None:
                self._notify_writes(writes)
                self._notify_ingest(writes, ack.written, ack.failed)
                if inner is not None:
                    inner(ack)

            on_ack = acked
        self.ingress.submit(points, on_ack)

    def submit_blocks(
        self,
        blocks,
        on_ack: Optional[Callable[[PutAck], None]] = None,
    ) -> None:
        """Submit columnar blocks through the ingress (the hot path).

        Accepts a :class:`BlockBatch`, a single :class:`SeriesBlock`,
        or an iterable of blocks; each server prices the batch by what it
        carries, which for blocks is one series lookup per series and
        long row runs.
        """
        if isinstance(blocks, SeriesBlock):
            blocks = BlockBatch([blocks])
        elif not isinstance(blocks, BlockBatch):
            blocks = BlockBatch(list(blocks))
        self.submit(blocks, on_ack)

    def add_write_listener(self, listener: Callable[[WriteSpans], None]) -> None:
        """Subscribe to write notifications (cache invalidation feed).

        ``listener(writes)`` gets each written batch's
        :class:`~repro.tsdb.blocks.WriteSpans`: its extents by series
        or by metric.
        """
        self._write_listeners.append(listener)

    def remove_write_listener(self, listener: Callable[[WriteSpans], None]) -> None:
        self._write_listeners.remove(listener)

    def _notify_writes(self, writes: WriteSpans) -> None:
        for listener in self._write_listeners:
            listener(writes)

    def add_ingest_observer(self, observer: Callable) -> None:
        """Subscribe to exact-once batch notifications.

        ``observer(writes, written, failed)`` is called once per batch,
        with the batch's :class:`~repro.tsdb.blocks.WriteSpans`: at ack
        time for :meth:`submit`, synchronously for bulk loads.
        Unlike write listeners it never double-fires, so it can carry
        counting that must balance (the lifecycle conservation ledger).
        """
        self._ingest_observers.append(observer)

    def _notify_ingest(self, writes: WriteSpans, written: int, failed: int) -> None:
        for observer in self._ingest_observers:
            observer(writes, written, failed)

    def query_engine(self) -> QueryEngine:
        return QueryEngine(
            self.master, self.uids, self.codec, lifecycle=self.lifecycle
        )

    def self_reporter(self, chaos_report=None) -> "SelfReporter":
        """A :class:`~repro.obs.SelfReporter` flushing this deployment's
        metrics back into its own TSDB as ``tsd.*``/``proxy.*`` series."""
        from ..obs.selfreport import SelfReporter

        return SelfReporter(self, chaos_report=chaos_report)

    def compactor(self) -> "RowCompactor":
        """A row compactor wired to this deployment's write clock (and,
        when configured, its lifecycle tier — compaction-integrated
        expiry drops expired rows before any rewriting happens)."""
        from .compaction import RowCompactor

        return RowCompactor(
            self.master,
            DATA_TABLE,
            write_ts=self.next_write_ts,
            lifecycle=self.lifecycle,
        )

    def gateway(self, config: Optional["GatewayConfig"] = None) -> "QueryGateway":
        """A serving gateway over this deployment's read path.

        The gateway counts its ``serve.*`` metrics into this
        deployment's registry and subscribes its cache invalidation to
        this cluster's write paths.
        """
        from ..serve.gateway import QueryGateway

        return QueryGateway(self, config=config)

    def async_query_executor(self, host: str = "query-client"):
        """A timing-aware query executor over the simulated RPC path.

        Its client counts into this deployment's registry, so its
        ``client.*`` retries, hedges and follower reads show beside
        the TSDs' own.
        """
        from ..hbase.client import HTableClient
        from .readpath import AsyncQueryExecutor

        client = HTableClient(self.sim, self.network, self.master, host, metrics=self.metrics)
        return AsyncQueryExecutor(
            self.sim, client, self.uids, self.codec, lifecycle=self.lifecycle
        )

    def direct_put(self, points) -> int:
        """Bulk-load points straight into the regions (no simulated RPC).

        The offline path: analysis results written back to the TSDB
        ("results from online evaluation are reported back to OpenTSDB")
        and example/bench data loading, where ingestion *timing* is not
        under study.  Accepts an iterable of points, a
        :class:`SeriesBlock`, or a :class:`BlockBatch`; either shape is
        encoded to one cell batch by one encoder call
        (:meth:`TSDaemon.encode_points` or :meth:`TSDaemon.encode_block`)
        and bulk-loaded (:meth:`HMaster.direct_put`: the RegionServers'
        one writer, WAL logged and synced, shipped to followers
        asynchronously).  Returns the number of cells written.
        """
        tsd = self.tsds[0]
        if isinstance(points, SeriesBlock):
            points = BlockBatch([points])
        if isinstance(points, BlockBatch):
            cells = tsd.encode_block(points)
        else:
            points = list(points)
            cells = tsd.encode_points(points)
        if not cells.rows:
            return 0
        written = self.master.direct_put(DATA_TABLE, cells)
        # Bulk loads land synchronously and whole: one notification.
        writes = WriteSpans(points)
        self._notify_writes(writes)
        self._notify_ingest(writes, written, 0)
        return written

    def per_server_writes(self) -> Dict[str, int]:
        return {rs.name: rs.cells_written for rs in self.servers}

    def total_crashes(self) -> int:
        return int(self.metrics.counter("regionserver.crashes").get())

    def write_skew(self) -> float:
        return skew_ratio(self.per_server_writes().values())


@dataclass
class IngestionReport:
    """Outcome of one ingestion run (all rates in simulated seconds)."""

    n_nodes: int
    duration: float
    offered_samples: int
    committed_samples: int
    failed_samples: int
    throughput: float  # committed samples per simulated second
    per_server_writes: Dict[str, int]
    write_skew: float
    crashes: int
    proxy_buffer_high_water: int
    client_retries: int
    timeline: TimeSeriesRecorder


class IngestionDriver:
    """Open-loop load generator over a simulated cluster.

    Emits batches of ``batch_size`` points from ``workload`` every
    ``batch_size / offered_rate`` simulated seconds and counts durable
    acknowledgements.  Offered load above cluster capacity is the
    interesting regime: throughput then measures capacity, as in
    Figure 2.
    """

    def __init__(
        self,
        cluster: TsdbCluster,
        workload: Iterator[List[DataPoint]],
        offered_rate: float,
        batch_size: int = 50,
    ) -> None:
        if offered_rate <= 0:
            raise ValueError("offered_rate must be positive")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.cluster = cluster
        self.workload = workload
        self.offered_rate = offered_rate
        self.batch_size = batch_size
        self.offered = 0
        self.committed = 0
        self.failed = 0
        self.committed_at_stop = 0
        self.committed_at_warm = 0
        self.timeline = TimeSeriesRecorder("samples_committed")
        self._stop_at = 0.0

    # ------------------------------------------------------------------
    def run(self, duration: float, drain: float = 1.0, warmup: float = 0.0) -> IngestionReport:
        """Offer load for ``warmup + duration`` sim-seconds, then report.

        Throughput is the committed-sample delta over the measurement
        window ``[warmup, warmup + duration]`` — the warm-up excludes
        pipeline fill, the drain window merely lets in-flight batches
        resolve so total accounting is exact.
        """
        if duration <= 0:
            raise ValueError("duration must be positive")
        if warmup < 0:
            raise ValueError("warmup must be non-negative")
        sim = self.cluster.sim
        self._stop_at = sim.now + warmup + duration
        interval = self.batch_size / self.offered_rate
        sim.schedule(0.0, self._tick, interval)
        sim.schedule(RECORD_INTERVAL, self._record)
        sim.schedule(warmup, self._snapshot_warm)
        sim.schedule(warmup + duration, self._snapshot_stop)
        sim.run(until=self._stop_at + drain)
        self.timeline.record(sim.now, self.committed)
        return IngestionReport(
            n_nodes=self.cluster.config.n_nodes,
            duration=duration,
            offered_samples=self.offered,
            committed_samples=self.committed,
            failed_samples=self.failed,
            throughput=(self.committed_at_stop - self.committed_at_warm) / duration,
            per_server_writes=self.cluster.per_server_writes(),
            write_skew=self.cluster.write_skew(),
            crashes=self.cluster.total_crashes(),
            proxy_buffer_high_water=getattr(self.cluster.ingress, "buffer_high_water", 0),
            client_retries=int(self.cluster.metrics.counter("client.retries").get()),
            timeline=self.timeline,
        )

    # ------------------------------------------------------------------
    def _tick(self, interval: float) -> None:
        sim = self.cluster.sim
        if sim.now >= self._stop_at:
            return
        batch = next(self.workload, None)
        if batch:
            self.offered += len(batch)
            self.cluster.submit(batch, self._on_ack)
        if batch is not None:
            sim.schedule(interval, self._tick, interval)

    def _snapshot_warm(self) -> None:
        self.committed_at_warm = self.committed

    def _snapshot_stop(self) -> None:
        # Throughput is measured over the offered-load window only;
        # commits that land during the drain are excluded.
        self.committed_at_stop = self.committed

    def _on_ack(self, ack: PutAck) -> None:
        self.committed += ack.written
        self.failed += ack.failed

    def _record(self) -> None:
        sim = self.cluster.sim
        self.timeline.record(sim.now, self.committed)
        if sim.now < self._stop_at:
            sim.schedule(RECORD_INTERVAL, self._record)


def build_cluster(config: Optional[ClusterConfig] = None, **overrides) -> TsdbCluster:
    """Build a simulated deployment (``ClusterConfig`` fields as kwargs)."""
    if config is None:
        config = ClusterConfig(**overrides)
    elif overrides:
        raise ValueError("pass either a config object or keyword overrides, not both")
    return TsdbCluster(config)
