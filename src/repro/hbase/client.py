"""HBase client: row-key routing, retries, deadlines and hedged reads.

The client looks up region locations from the master (the meta-table
stand-in), groups batched puts per destination RegionServer, and retries
retryable failures — queue overflow, regions in motion after a crash —
with exponential backoff, exactly the behaviour the TSD daemons layer
on top of.

The read path is replica-aware: scans fan out one RPC per region with
a per-RPC deadline, bounded *jittered* retries, an optional hedged
second request after a latency threshold, and an explicit consistency
mode — ``strong`` reads primary copies only, ``timeline`` may rotate
onto follower replicas and reports the staleness bound that came back
with the data.

All operations are asynchronous: they return immediately and invoke the
supplied callback when the RPC (including retries) resolves, in
simulated time.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from ..cluster.metrics import MetricsRegistry
from ..cluster.network import Network
from ..cluster.simulation import Simulator
from .master import HMaster, ReplicaLocation
from .region import EMPTY_BATCH, CellBatch, merge_newest
from .regionserver import PutRequest, RpcReply, ScanRequest

__all__ = ["CONSISTENCY_MODES", "HTableClient", "ScanResult"]

#: Explicit read-consistency modes (HBase's Consistency.STRONG/TIMELINE).
CONSISTENCY_MODES = ("strong", "timeline")

#: Per-RPC deadline (s): an RPC to a crashed server never replies, and
#: only this timer turns the silence into a retry or a failover.
RPC_TIMEOUT = 2.0

#: Retry backoff: retry ``k`` waits ``BACKOFF_BASE * BACKOFF_MULT**k``
#: seconds (jittered on the read path).
BACKOFF_BASE = 0.02
BACKOFF_MULT = 2.0


@dataclass
class ScanResult:
    """Outcome of one replica-aware scan.

    ``ok`` is False when at least one region's share could not be read
    within the retry budget (the merged ``cells`` are then partial).
    ``staleness`` is the worst follower staleness bound that
    contributed; 0.0 when every share came from a primary.
    """

    cells: CellBatch = field(default_factory=lambda: EMPTY_BATCH)
    ok: bool = True
    staleness: float = 0.0
    retries: int = 0
    hedges: int = 0
    follower_reads: int = 0


class HTableClient:
    """Asynchronous table client for the simulated cluster.

    Parameters
    ----------
    host:
        Hostname the client runs on (for network latency purposes).
    max_retries:
        Attempts per RPC before reporting permanent failure.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        master: HMaster,
        host: str,
        max_retries: int = 8,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.sim = sim
        self.network = network
        self.master = master
        self.host = host
        self.max_retries = max_retries
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # Deterministic per-host jitter source (seeded, so simulations
        # replay identically; hash() is process-randomised, crc32 is not).
        self._rng = random.Random(zlib.crc32(host.encode("utf-8", "replace")))

    # ------------------------------------------------------------------
    # puts
    # ------------------------------------------------------------------
    def put(
        self,
        table: str,
        cells: CellBatch,
        on_done: Optional[Callable[[bool, CellBatch], None]] = None,
        batch_ids: Tuple[int, ...] = (),
        block: bool = False,
    ) -> None:
        """Write a batch of cells; ``on_done(ok, cells)`` when resolved.

        The batch is partitioned by destination server; each partition
        succeeds or fails independently and ``on_done`` fires once per
        partition with that partition's cells (on failure too, so
        callers can reconcile exactly which cells each resolution
        covers).  ``batch_ids`` is trace correlation only: the ingest
        batch ids whose cells this put carries, stamped onto the
        :class:`PutRequest` so RegionServer spans join the batch trace.
        ``block=True`` declares the cells to be sorted per-series runs,
        so each partition's RPC is *charged* the cheaper block-put cost
        (the retry path keeps the flag); execution is the same either
        way.
        """
        if not cells.rows:
            if on_done is not None:
                on_done(True, cells)
            return
        for server_name, group in self.master.group_by_server(table, cells).items():
            self._send_put(table, server_name, group, 0, on_done, batch_ids, block)

    def _send_put(
        self,
        table: str,
        server_name: Optional[str],
        cells: CellBatch,
        attempt: int,
        on_done: Optional[Callable[[bool, CellBatch], None]],
        batch_ids: Tuple[int, ...] = (),
        block: bool = False,
    ) -> None:
        if server_name is None:
            # Region currently unassigned (recovery in flight): back off and re-route.
            self._retry_put(table, cells, attempt, on_done, batch_ids, block)
            return
        server = self.master.server(server_name)
        request = PutRequest(table, cells, batch_ids, block)
        # One attempt resolves exactly once: first of {reply, timeout,
        # dropped send} wins; a late reply after a timeout is ignored
        # (the retry chain owns the cells from then on).
        resolved = [False]
        timeout_handle: List[Optional[object]] = [None]

        def settle() -> bool:
            if resolved[0]:
                return False
            resolved[0] = True
            handle = timeout_handle[0]
            if handle is not None:
                handle.cancel()  # type: ignore[attr-defined]
            return True

        def handle_reply(reply: RpcReply) -> None:
            if not settle():
                return
            if reply.ok:
                self.metrics.counter("client.put_ok").inc(len(cells))
                if on_done is not None:
                    on_done(True, cells)
            elif reply.retryable:
                self._retry_put(table, cells, attempt, on_done, batch_ids, block)
            else:
                self._fail_put(cells, on_done)

        def handle_timeout() -> None:
            # Crashed server never replied / partition ate the reply.
            if not settle():
                return
            self.metrics.counter("client.rpc_timeouts").inc()
            self._retry_put(table, cells, attempt, on_done, batch_ids, block)

        sent = self.network.send(
            self.host, server.node.hostname, server.rpc, request, handle_reply, self.host
        )
        if sent is None:
            # The network dropped the send (partitioned endpoint): fail
            # fast into the retry path instead of hanging forever.
            if settle():
                self.metrics.counter("client.sends_dropped").inc()
                self._retry_put(table, cells, attempt, on_done, batch_ids, block)
            return
        timeout_handle[0] = self.sim.schedule(RPC_TIMEOUT, handle_timeout)

    def _retry_put(
        self,
        table: str,
        cells: CellBatch,
        attempt: int,
        on_done: Optional[Callable[[bool, CellBatch], None]],
        batch_ids: Tuple[int, ...] = (),
        block: bool = False,
    ) -> None:
        if attempt >= self.max_retries:
            self._fail_put(cells, on_done)
            return
        self.metrics.counter("client.retries").inc()
        delay = BACKOFF_BASE * (BACKOFF_MULT ** attempt)

        def resend() -> None:
            # Re-locate: assignments may have changed while backing off.
            for server_name, group in self.master.group_by_server(table, cells).items():
                self._send_put(table, server_name, group, attempt + 1, on_done, batch_ids, block)

        self.sim.schedule(delay, resend)

    def _fail_put(
        self, cells: CellBatch, on_done: Optional[Callable[[bool, CellBatch], None]]
    ) -> None:
        self.metrics.counter("client.put_failed").inc(len(cells))
        if on_done is not None:
            on_done(False, cells)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def scan(
        self,
        table: str,
        start_row: bytes,
        end_row: bytes,
        on_done: Callable[[CellBatch], None],
        consistency: str = "strong",
        deadline: Optional[float] = RPC_TIMEOUT,
        hedge_delay: Optional[float] = None,
    ) -> None:
        """Range scan across all overlapping regions; results merged sorted.

        Compatibility wrapper over :meth:`scan_replicated` delivering
        the merged cells alone (callers that need the availability/
        staleness envelope use :meth:`scan_replicated` directly).
        """
        self.scan_replicated(
            table,
            start_row,
            end_row,
            lambda result: on_done(result.cells),
            consistency=consistency,
            deadline=deadline,
            hedge_delay=hedge_delay,
        )

    def scan_replicated(
        self,
        table: str,
        start_row: bytes,
        end_row: bytes,
        on_done: Callable[[ScanResult], None],
        consistency: str = "strong",
        deadline: Optional[float] = RPC_TIMEOUT,
        hedge_delay: Optional[float] = None,
    ) -> None:
        """Replica-aware range scan; delivers a :class:`ScanResult`.

        One RPC per overlapping region, each with a per-RPC ``deadline``
        (:data:`RPC_TIMEOUT` by default; pass ``None`` to wait forever).
        Failed attempts retry with jittered exponential backoff up to
        ``max_retries``; ``timeline`` mode rotates retries
        across the primary and its follower replicas.  With
        ``hedge_delay`` set, a duplicate RPC goes to the next replica
        candidate once the first has been outstanding that long —
        first answer wins, the loser is ignored.
        """
        if consistency not in CONSISTENCY_MODES:
            raise ValueError(f"consistency must be one of {CONSISTENCY_MODES}")
        if deadline is not None and deadline <= 0:
            raise ValueError("deadline must be positive (or None)")
        locations = self.master.locate_range_replicas(table, start_row, end_row)
        if not locations:
            on_done(ScanResult())
            return
        shares: List[ScanResult] = []
        remaining = [len(locations)]

        def settle_share(share: ScanResult) -> None:
            shares.append(share)
            remaining[0] -= 1
            if remaining[0] > 0:
                return
            # Shares settle in any order and a range re-located across a
            # concurrent split can deliver a cell twice: merge by key.
            on_done(
                ScanResult(
                    cells=merge_newest([s.cells for s in shares]),
                    ok=all(s.ok for s in shares),
                    staleness=max((s.staleness for s in shares), default=0.0),
                    retries=sum(s.retries for s in shares),
                    hedges=sum(s.hedges for s in shares),
                    follower_reads=sum(s.follower_reads for s in shares),
                )
            )

        for location in locations:
            anchor = max(start_row, location.info.start_key)
            self._scan_region(
                table, start_row, end_row, anchor, consistency,
                deadline, hedge_delay, 0, ScanResult(), settle_share,
            )

    def _replica_candidates(
        self, location: ReplicaLocation, consistency: str, attempt: int
    ) -> List[str]:
        """Replica servers to try this attempt, preferred target first.

        ``strong`` always targets the primary.  ``timeline`` rotates the
        start of the candidate ring by attempt number, so consecutive
        retries walk away from a dead or slow primary instead of
        hammering it.
        """
        if consistency == "strong":
            return [location.primary] if location.primary is not None else []
        ring = [location.primary] if location.primary is not None else []
        ring.extend(location.followers)
        if not ring:
            return []
        shift = attempt % len(ring)
        return ring[shift:] + ring[:shift]

    def _scan_region(
        self,
        table: str,
        start_row: bytes,
        end_row: bytes,
        anchor: bytes,
        consistency: str,
        deadline: Optional[float],
        hedge_delay: Optional[float],
        attempt: int,
        stats: ScanResult,
        settle_share: Callable[[ScanResult], None],
    ) -> None:
        """One attempt at reading one region's share of a scan."""
        location = self.master.locate_replicas(table, anchor)
        candidates = self._replica_candidates(location, consistency, attempt)
        if not candidates:
            # No copy of the region is assigned anywhere: resolve this
            # share immediately (empty, failed) — matching the legacy
            # behaviour where unassigned regions contributed nothing —
            # rather than burning the retry budget on an empty cluster.
            self.metrics.counter("client.scan_failed").inc()
            settle_share(ScanResult(ok=False, retries=stats.retries,
                                    hedges=stats.hedges,
                                    follower_reads=stats.follower_reads))
            return
        request = ScanRequest(table, start_row, end_row,
                              region_name=location.info.name,
                              consistency=consistency)
        # One attempt settles exactly once: first of {reply, hedged
        # reply, deadline, dropped send} wins; late arrivals are ignored.
        resolved = [False]
        outstanding = [0]
        timers: List[object] = []

        def settle() -> bool:
            if resolved[0]:
                return False
            resolved[0] = True
            for handle in timers:
                handle.cancel()  # type: ignore[attr-defined]
            return True

        def retry() -> None:
            if attempt >= self.max_retries:
                self.metrics.counter("client.scan_failed").inc()
                settle_share(ScanResult(ok=False, retries=stats.retries,
                                        hedges=stats.hedges,
                                        follower_reads=stats.follower_reads))
                return
            stats.retries += 1
            self.metrics.counter("client.scan_retries").inc()
            # Jittered exponential backoff: the 0.5-1.5x spread keeps a
            # fleet of clients from re-converging on a recovering server.
            delay = (BACKOFF_BASE * (BACKOFF_MULT ** attempt)
                     * (0.5 + self._rng.random()))
            self.sim.schedule(
                delay, self._scan_region, table, start_row, end_row, anchor,
                consistency, deadline, hedge_delay, attempt + 1, stats, settle_share,
            )

        def handle_reply(reply: RpcReply) -> None:
            if resolved[0]:
                return
            if not reply.ok and reply.retryable:
                # A fast-reject from one replica (e.g. a crashed server
                # bouncing its call queue) must not abandon a sibling
                # RPC — the original or its hedge — still in flight:
                # the first good answer or the shared deadline decides.
                outstanding[0] -= 1
                if outstanding[0] > 0:
                    return
            if not settle():
                return
            if reply.ok:
                if reply.staleness > 0.0 or reply.server != location.primary:
                    stats.follower_reads += 1
                    self.metrics.counter("client.follower_reads").inc()
                settle_share(ScanResult(
                    cells=reply.result,  # type: ignore[arg-type]
                    ok=True,
                    staleness=reply.staleness,
                    retries=stats.retries,
                    hedges=stats.hedges,
                    follower_reads=stats.follower_reads,
                ))
            elif reply.retryable:
                retry()
            else:
                self.metrics.counter("client.scan_failed").inc()
                settle_share(ScanResult(ok=False, retries=stats.retries,
                                        hedges=stats.hedges,
                                        follower_reads=stats.follower_reads))

        def handle_deadline() -> None:
            # Crashed server never replied / partition ate the reply.
            if not settle():
                return
            self.metrics.counter("client.scan_timeouts").inc()
            retry()

        def send_to(server_name: str) -> bool:
            server = self.master.server(server_name)
            sent = self.network.send(
                self.host, server.node.hostname, server.rpc,
                request, handle_reply, self.host,
            )
            if sent is not None:
                outstanding[0] += 1
            return sent is not None

        def fire_hedge(server_name: str) -> None:
            if resolved[0]:
                return
            stats.hedges += 1
            self.metrics.counter("client.hedges").inc()
            send_to(server_name)  # a dropped hedge changes nothing

        if not send_to(candidates[0]):
            # The network dropped the send (partitioned endpoint): fail
            # fast into the retry path instead of hanging forever.
            if settle():
                self.metrics.counter("client.sends_dropped").inc()
                retry()
            return
        if deadline is not None:
            timers.append(self.sim.schedule(deadline, handle_deadline))
        if hedge_delay is not None and len(candidates) > 1:
            timers.append(self.sim.schedule(hedge_delay, fire_hedge, candidates[1]))
