"""RegionServers: the RPC-serving shard hosts.

A RegionServer hosts a set of regions and serves put and scan RPCs
through a single bounded-queue service loop (:class:`repro.cluster.Server`).
Two behaviours from the paper's §III-B are modelled faithfully:

* **Bounded RPC queue** — HBase RegionServers have a fixed call-queue;
  sustained overflow crashes the server.  Overflow here rejects the RPC
  and feeds an :class:`~repro.cluster.failures.OverflowCrashPolicy`.
* **Service capacity** — each RPC costs ``rpc_overhead +
  per_cell * batch_size`` seconds of server time, so a single server
  saturates at a fixed cell rate and cluster throughput scales with the
  number of servers *provided writes are spread across them* (the
  row-key salting finding, E6).

On crash the memstores are lost, each hosted region's log survives, and
the master replays it during reassignment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..cluster.failures import OverflowCrashPolicy
from ..cluster.metrics import MetricsRegistry
from ..cluster.network import Network
from ..cluster.node import Node, Server
from ..cluster.simulation import Simulator
from ..obs.trace import NULL_SPAN, SpanLike, Tracer
from .region import CellBatch, Region, RouteTable

__all__ = [
    "ServiceModel",
    "PutRequest",
    "ScanRequest",
    "RpcReply",
    "RegionServer",
]

#: RPC call-queue bound; calls past it are rejected (retryable), and a
#: burst of rejections is what the overflow crash policy counts.
QUEUE_CAPACITY = 256


@dataclass(frozen=True)
class ServiceModel:
    """Server-side cost model for RPC service times (seconds).

    Calibrated end-to-end so a deployed server saturates at ≈13-15k
    cell-writes/s at the coalesced batch sizes the TSD write path
    actually produces, putting a 30-server cluster in the ≈400k
    samples/s regime — the paper's headline point.  The cost is
    deliberately per-cell dominated (as in real HBase multi-puts), so
    partially filled flushes degrade throughput only mildly rather
    than multiplying RPC count into a server-killing overhead.
    """

    rpc_overhead: float = 0.00025
    per_cell_write: float = 0.00005
    per_cell_read: float = 0.00002
    #: Marginal cost of a cell arriving in a *block* put.  Block RPCs
    #: deliver pre-sorted per-series runs, so the server skips the
    #: per-cell region lookup and framing that dominate point puts and
    #: appends whole runs — modelled as per_cell_write / 5, matching
    #: the measured kernel-level speedup of the columnar path.
    per_cell_write_block: float = 0.00001

    def put_cost(self, n_cells: int) -> float:
        return self.rpc_overhead + self.per_cell_write * n_cells

    def put_block_cost(self, n_cells: int) -> float:
        return self.rpc_overhead + self.per_cell_write_block * n_cells

    def scan_cost(self, n_cells: int) -> float:
        return self.rpc_overhead + self.per_cell_read * max(1, n_cells)


@dataclass
class PutRequest:
    """Batched write RPC: cells for one table, possibly many regions.

    ``batch_ids`` carries trace correlation only — the inbound ingest
    batch ids whose coalesced cells this RPC delivers.
    """

    table: str
    cells: CellBatch
    batch_ids: Tuple[int, ...] = ()
    #: Modelled cost only: the cells arrive as sorted per-series runs,
    #: so the RPC is charged the cheaper ``put_block_cost``.  Every put
    #: executes the same way (:meth:`RegionServer.write`).
    block: bool = False


@dataclass
class ScanRequest:
    """Scan of ``[start_row, end_row)`` within one named region.

    ``strong`` is served by the primary copy only; ``timeline`` may be
    served from a follower replica, with the reply carrying the
    replica's staleness bound.
    """

    table: str
    start_row: bytes
    end_row: bytes
    region_name: str
    consistency: str = "strong"


@dataclass
class RpcReply:
    """Reply envelope delivered back to the caller over the network."""

    ok: bool
    result: object = None
    error: str = ""
    server: str = ""
    retryable: bool = False
    #: Staleness bound (seconds) of the replica that served a timeline
    #: read; 0.0 for primary-served results.
    staleness: float = 0.0

    @staticmethod
    def success(result: object, server: str) -> "RpcReply":
        return RpcReply(True, result, "", server)

    @staticmethod
    def failure(error: str, server: str, retryable: bool = True) -> "RpcReply":
        return RpcReply(False, None, error, server, retryable)


class RegionServer:
    """One RegionServer process: RPC queue + hosted regions (each with its log)."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node: Node,
        name: str,
        service_model: Optional[ServiceModel] = None,
        metrics: Optional[MetricsRegistry] = None,
        crash_policy_factory: Optional[Callable[["RegionServer"], OverflowCrashPolicy]] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.node = node
        self.name = name
        self.service_model = service_model if service_model is not None else ServiceModel()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        self.rpc_server = Server(sim, name, QUEUE_CAPACITY, self.metrics)
        node.add_server(self.rpc_server)
        self.regions: Dict[str, Region] = {}
        # Per-table route table over the hosted regions, rebuilt when
        # one opens or closes here.
        self._routes: Dict[str, RouteTable[Region]] = {}
        # Read-only follower replicas hosted here, keyed by region name.
        # Never written by client RPCs; only timeline scans read them.
        self.follower_regions: Dict[str, object] = {}
        # Post-WAL-sync replication hook: ``(region_name, batch, server)``
        # per region touched by the synced batch (set by the deployment
        # when region replication is enabled).
        self.replication_ship: Optional[Callable[[str, CellBatch, str], None]] = None
        self.crash_policy = crash_policy_factory(self) if crash_policy_factory else None
        self.on_crash: Optional[Callable[["RegionServer"], None]] = None
        self.on_restart: Optional[Callable[["RegionServer"], None]] = None
        self.crashed = False
        self.cells_written = 0
        self.rpcs_rejected = 0
        self.wal_roll_threshold = 200_000
        self._logged = 0  # cells logged since the last roll

    # ------------------------------------------------------------------
    # region hosting (control plane, driven by the master)
    # ------------------------------------------------------------------
    def open_region(self, region: Region) -> None:
        self.regions[region.info.name] = region
        self._reroute(region.info.table)

    def close_region(self, region_name: str) -> Optional[Region]:
        region = self.regions.pop(region_name, None)
        if region is not None:
            self._reroute(region.info.table)
        return region

    def _reroute(self, table: str) -> None:
        self._routes[table] = RouteTable(
            (region.info, region) for region in self.regions.values() if region.info.table == table
        )

    def open_follower(self, replica: object) -> None:
        """Host a read-only follower replica (timeline reads only)."""
        self.follower_regions[replica.region.info.name] = replica  # type: ignore[attr-defined]

    def close_follower(self, region_name: str) -> None:
        self.follower_regions.pop(region_name, None)

    def hosted_regions(self) -> List[Region]:
        return list(self.regions.values())

    # ------------------------------------------------------------------
    # RPC entry point
    # ------------------------------------------------------------------
    def rpc(
        self,
        request: object,
        reply_to: Callable[[RpcReply], None],
        src_host: str,
    ) -> None:
        """Handle one inbound RPC; the reply travels back over the network.

        Queue overflow rejects the call immediately (the client sees a
        retryable failure) and is reported to the crash policy.
        """
        if isinstance(request, PutRequest):
            if request.block:
                cost = self.service_model.put_block_cost(len(request.cells))
            else:
                cost = self.service_model.put_cost(len(request.cells))
        elif isinstance(request, ScanRequest):
            cost = self.service_model.scan_cost(self._estimate_scan_cells(request))
        else:
            self._reply(reply_to, src_host, RpcReply.failure("bad request", self.name, False))
            return

        span: SpanLike = NULL_SPAN
        if self.tracer.enabled and isinstance(request, PutRequest):
            # Covers queueing + service + region writes for one put RPC.
            span = self.tracer.begin(
                "regionserver.put",
                server=self.name,
                cells=len(request.cells),
                batch_ids=request.batch_ids,
            )
        accepted = self.rpc_server.submit(
            request,
            cost,
            on_done=lambda req: self._serve(req, reply_to, src_host, span),
            on_reject=lambda req: self._rejected(req, reply_to, src_host, span),
        )
        if accepted:
            self.metrics.gauge("rpc.queue_depth").set(self.rpc_server.queue_depth)

    def _estimate_scan_cells(self, request: ScanRequest) -> int:
        # A cheap proxy for the size of the copy scanned (the primary if
        # hosted here, else a follower) rather than the scan run twice.
        copy = self.regions.get(request.region_name)
        if copy is None and request.region_name in self.follower_regions:
            copy = self.follower_regions[request.region_name].region  # type: ignore[attr-defined]
        return 0 if copy is None else copy.memstore_size + copy.store_file_count * 1000

    def _rejected(
        self,
        request: object,
        reply_to: Callable[[RpcReply], None],
        src_host: str,
        span: SpanLike = NULL_SPAN,
    ) -> None:
        span.end(outcome="rejected")
        self.rpcs_rejected += 1
        self.metrics.counter("rpc.rejected").inc(label=self.name)
        self._reply(
            reply_to, src_host, RpcReply.failure("CallQueueTooBigException", self.name, True)
        )
        if self.crash_policy is not None and not self.crashed:
            self.crash_policy.record_rejection()

    # ------------------------------------------------------------------
    # request execution (runs after the modelled service time)
    # ------------------------------------------------------------------
    def _serve(
        self,
        request: object,
        reply_to: Callable[[RpcReply], None],
        src_host: str,
        span: SpanLike = NULL_SPAN,
    ) -> None:
        if self.crashed:
            span.end(outcome="crashed")
            return  # dying server never replies; client will time out / retry
        if isinstance(request, PutRequest):
            reply = self._serve_put(request)
        else:
            reply = self._serve_scan(request)  # type: ignore[arg-type]
        span.end(outcome="ok" if reply.ok else reply.error)
        self._reply(reply_to, src_host, reply)

    def route(self, table: str, batch: CellBatch) -> Optional[Dict[Region, CellBatch]]:
        """Split ``batch`` by the hosted region of ``table`` each row is in.

        ``None`` when some row's region is not hosted here.  One
        :meth:`CellBatch.partition` over this server's route table, so
        a salted table's rows cost a table index each.
        """
        if not batch.rows:
            return {}
        routes = self._routes.get(table)
        if routes is None:
            return None
        shares = batch.partition(routes.owners)
        return None if None in shares else shares  # type: ignore[return-value]

    def write(self, shares: Dict[Region, CellBatch]) -> bool:
        """The one writer: log, sync and land each region's share of a routed batch.

        Put RPCs route here (:meth:`route`); bulk loads arrive routed by
        the master (:meth:`HMaster.direct_put`).  Hosting is checked
        once per region, by name; each share is appended to its
        region's log and synced, then ingested in one
        :meth:`Region.put_block`.  All or nothing: ``False``, and no
        write, when some region is not hosted here (moved, split or
        dropped by a restart since it was routed).  Past
        ``wal_roll_threshold`` cells logged since the last roll, the
        log rolls: every hosted region flushes, which empties its log
        (HBase's roll-and-archive cycle).
        """
        hosted = [self.regions.get(region.info.name) for region in shares]
        if None in hosted:
            return False
        for region, share in zip(hosted, shares.values()):
            region.wal.append_batch(share)  # type: ignore[union-attr]
            region.wal.sync()  # type: ignore[union-attr]
            region.put_block(share)  # type: ignore[union-attr]
            self._logged += len(share)
        if self._logged > self.wal_roll_threshold:
            for region in self.regions.values():
                region.flush()
            self._logged = 0
        return True

    def _serve_put(self, request: PutRequest) -> RpcReply:
        shares = self.route(request.table, request.cells)
        if shares is None or not self.write(shares):
            return RpcReply.failure("NotServingRegionException", self.name, True)
        if self.replication_ship is not None:
            for region, share in shares.items():
                self.replication_ship(region.info.name, share, self.name)
        n = len(request.cells)
        self.cells_written += n
        self.metrics.counter("cells.written").inc(n, label=self.name)
        return RpcReply.success(n, self.name)

    def _serve_scan(self, request: ScanRequest) -> RpcReply:
        """Scan the named region.

        A primary copy serves either consistency mode at staleness 0;
        a follower copy serves *timeline* reads only, stamping its
        staleness bound on the reply so the caller can surface it.
        """
        staleness = 0.0
        region = self.regions.get(request.region_name)
        if region is None:
            replica = self.follower_regions.get(request.region_name)
            if replica is None or request.consistency != "timeline":
                return RpcReply.failure("NotServingRegionException", self.name, True)
            region = replica.region  # type: ignore[attr-defined]
            staleness = replica.staleness(self.sim.now)  # type: ignore[attr-defined]
            self.metrics.counter("regionserver.follower_reads").inc(label=self.name)
        reply = RpcReply.success(region.scan(request.start_row, request.end_row), self.name)
        reply.staleness = staleness
        return reply

    def _reply(self, reply_to: Callable[[RpcReply], None], dst_host: str, reply: RpcReply) -> None:
        self.network.send(self.node.hostname, dst_host, reply_to, reply)

    # ------------------------------------------------------------------
    # crash / restart
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Abort: stop serving, lose memstores (each region's log survives)."""
        if self.crashed:
            return
        self.crashed = True
        self.rpc_server.stop()
        self.metrics.counter("regionserver.crashes").inc(label=self.name)
        if self.on_crash is not None:
            self.on_crash(self)

    def restart(self) -> None:
        """Come back up empty; the master recovers the crash first if it
        has not yet, then re-assigns regions."""
        if not self.crashed:
            return
        self.crashed = False
        self.regions.clear()
        self._routes.clear()
        self.follower_regions.clear()
        self._logged = 0
        self.rpc_server.start()
        if self.on_restart is not None:
            self.on_restart(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "crashed" if self.crashed else "up"
        return f"<RegionServer {self.name} {state} regions={len(self.regions)}>"
