"""Region replication: WAL shipping, follower replicas, promotion.

Read-path fault tolerance for the simulated HBase deployment.  Each
region gets a *primary* (the writable copy the master assigns today)
plus ``n_followers`` read-only follower replicas placed on distinct
RegionServers.  After every WAL sync on the primary, the synced cells
are *shipped* to each follower over the network and applied by a
serial, bounded-lag apply loop — exactly HBase's async region-replica
replication, so followers trail the primary by a measurable, reported
staleness rather than participating in a synchronous quorum.

On primary crash the master rebuilds the region from its store files
and its own log, which holds every write since its last flush (no
follower's data is read).  While that server is still down the most-caught-up
live follower is *promoted*: it retires, and the region reopens on its
server.  Timeline-consistency reads may be served from any follower;
the staleness bound travels with every reply.

The coordinator is control-plane state owned alongside the master;
only the *shipping* of cells and their *application* consume simulated
network/CPU time, which is what keeps the fault-free overhead of
replication off the write critical path (the primary acks after its
own WAL sync, never waiting for followers).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Set, Tuple

from ..cluster.metrics import MetricsRegistry
from ..cluster.network import Network
from ..cluster.simulation import Simulator
from .region import CellBatch, Region

__all__ = ["FollowerReplica", "ReplicaSet", "ReplicationCoordinator"]

#: Baseline batching delay (s) before a shipped WAL batch leaves the
#: primary; the chaos ``wal_lag`` event multiplies it.
SHIP_DELAY = 0.002

#: How often (s) a blocked shipping loop re-checks a partitioned link.
REPUMP_INTERVAL = 0.05


class FollowerReplica:
    """One read-only copy of a region, hosted on a follower server.

    ``applied_seq`` / ``applied_through`` track how far the apply loop
    has caught up with the primary's shipped WAL stream; the gap is the
    replica's staleness bound, surfaced on every timeline read.
    """

    __slots__ = (
        "rset",
        "region",
        "server_name",
        "applied_seq",
        "applied_through",
        "pending",
        "in_flight",
        "closed",
    )

    def __init__(
        self,
        rset: "ReplicaSet",
        region: Region,
        server_name: str,
        applied_seq: int,
        applied_through: float,
    ) -> None:
        self.rset = rset
        self.region = region
        self.server_name = server_name
        self.applied_seq = applied_seq
        self.applied_through = applied_through
        # Shipped-but-unapplied WAL batches: (seq_hi, shipped_at, batch).
        self.pending: Deque[Tuple[int, float, CellBatch]] = deque()
        self.in_flight = False
        self.closed = False

    def staleness(self, now: float) -> float:
        """Upper bound on how far this replica trails the primary (seconds).

        Zero when fully caught up; otherwise the age of the oldest
        write the replica has *not* applied yet.
        """
        if not self.pending and not self.in_flight and self.applied_seq >= self.rset.shipped_seq:
            return 0.0
        return max(0.0, now - self.applied_through)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<FollowerReplica {self.region.info.name}@{self.server_name} "
            f"applied={self.applied_seq}/{self.rset.shipped_seq}>"
        )


class ReplicaSet:
    """Replication state for one region: primary identity + followers."""

    __slots__ = ("region_name", "primary_region", "primary_server", "shipped_seq", "followers")

    def __init__(self, region_name: str, primary_region: Region, primary_server: Optional[str]) -> None:
        self.region_name = region_name
        self.primary_region = primary_region
        self.primary_server = primary_server
        #: Monotone count of cells shipped into the replication stream.
        self.shipped_seq = 0
        self.followers: List[FollowerReplica] = []


class ReplicationCoordinator:
    """Owns replica placement and the WAL-shipping apply loops.

    Parameters
    ----------
    n_followers:
        Follower replicas per region (replication factor minus one).
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        master: "object",
        n_followers: int = 1,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if n_followers < 1:
            raise ValueError("n_followers must be >= 1")
        self.sim = sim
        self.network = network
        self.master = master
        self.n_followers = n_followers
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._sets: Dict[str, ReplicaSet] = {}
        self._stalled: Set[str] = set()
        self._ship_lag: Dict[str, float] = {}
        self._cursor = 0
        self._pending_cells = 0
        self.promotions = 0

    # ------------------------------------------------------------------
    # placement (driven by the master)
    # ------------------------------------------------------------------
    def ensure_replicas(self, region: Region, primary_server: Optional[str]) -> None:
        """Create/refresh the follower set for one region."""
        name = region.info.name
        rset = self._sets.get(name)
        if rset is None:
            rset = ReplicaSet(name, region, primary_server)
            self._sets[name] = rset
        else:
            rset.primary_server = primary_server
        self._top_up(rset)

    def _top_up(self, rset: ReplicaSet) -> None:
        """Bring the set back to ``n_followers`` on distinct live servers."""
        if rset.primary_server is None:
            return
        while len(rset.followers) < self.n_followers:
            used = {rset.primary_server} | {f.server_name for f in rset.followers}
            candidates = [n for n in self.master.live_servers() if n not in used]
            if not candidates:
                return
            name = candidates[self._cursor % len(candidates)]
            self._cursor += 1
            self._spawn_follower(rset, name)

    def _spawn_follower(self, rset: ReplicaSet, server_name: str) -> None:
        src = rset.primary_region
        region = Region(src.info, src.flush_threshold, src.retain_data)
        snapshot = src.scan()
        if snapshot.rows:
            # Bootstrap from the primary's current contents (the
            # snapshot-then-tail pattern); shipped batches from here on
            # are idempotent on top of it (newest-wins).
            region.put_block(snapshot)
        follower = FollowerReplica(rset, region, server_name, rset.shipped_seq, self.sim.now)
        self.master.server(server_name).open_follower(follower)
        rset.followers.append(follower)
        self.metrics.counter("replication.bootstraps").inc()

    def follower_servers(self, region_name: str) -> Tuple[str, ...]:
        rset = self._sets.get(region_name)
        if rset is None:
            return ()
        return tuple(f.server_name for f in rset.followers)

    def primary_moved(self, region_name: str, server_name: str) -> None:
        """The master reassigned a region's primary copy to ``server_name``."""
        rset = self._sets.get(region_name)
        if rset is None:
            return
        rset.primary_server = server_name
        conflict = next((f for f in rset.followers if f.server_name == server_name), None)
        if conflict is not None:
            # Placement invariant: primary and followers on distinct
            # servers.  Drop the colliding follower and re-place it.
            rset.followers.remove(conflict)
            self._close_follower(conflict)
            self._top_up(rset)

    def on_split(self, parent_name: str, daughters: List[Tuple[Region, Optional[str]]]) -> None:
        """A region split: retire the parent's set, replicate the daughters."""
        old = self._sets.pop(parent_name, None)
        if old is not None:
            for follower in old.followers:
                self._close_follower(follower)
        for region, server_name in daughters:
            self.ensure_replicas(region, server_name)

    def _close_follower(self, follower: FollowerReplica) -> None:
        follower.closed = True
        for _, _, cells in follower.pending:
            self._pending_cells -= len(cells)
        follower.pending.clear()
        self.master.server(follower.server_name).close_follower(follower.region.info.name)

    # ------------------------------------------------------------------
    # WAL shipping (called by the primary RegionServer after wal.sync)
    # ------------------------------------------------------------------
    def ship(self, region_name: str, cells: CellBatch, source_server: str) -> None:
        """Enqueue one synced WAL batch for every follower of the region."""
        rset = self._sets.get(region_name)
        if rset is None or not cells.rows:
            return
        rset.primary_server = source_server
        rset.shipped_seq += len(cells)
        # A batch is read-only once built, so every follower queues this one.
        entry = (rset.shipped_seq, self.sim.now, cells)
        self.metrics.counter("replication.shipped").inc(len(cells))
        for follower in rset.followers:
            follower.pending.append(entry)
            self._pending_cells += len(cells)
            self._drain(rset, follower)
        self.metrics.gauge("replication.lag_cells").set(self._pending_cells)

    def _drain(self, rset: ReplicaSet, follower: FollowerReplica) -> None:
        """Serial apply loop: ship the oldest pending batch, one in flight."""
        if follower.closed or follower.in_flight or not follower.pending:
            return
        if follower.server_name in self._stalled:
            return  # resume_followers re-kicks the loop
        if self.master.server(follower.server_name).crashed:
            return  # recovery rebuilds this follower elsewhere
        follower.in_flight = True
        delay = SHIP_DELAY * self._ship_lag.get(rset.primary_server, 1.0)
        self.sim.schedule(delay, self._ship_entry, rset, follower)

    def _ship_entry(self, rset: ReplicaSet, follower: FollowerReplica) -> None:
        if follower.closed or not follower.pending:
            follower.in_flight = False
            return
        _, _, cells = follower.pending[0]
        src = self.master.server(rset.primary_server)
        dst = self.master.server(follower.server_name)
        handle = self.network.send(
            src.node.hostname, dst.node.hostname, self._apply_entry, rset, follower
        )
        if handle is None:
            # Partitioned link: leave the batch queued and re-check on
            # the next pump tick (the lag gauge keeps growing, which is
            # exactly what the wal_lag panel should show).
            follower.in_flight = False
            self.metrics.counter("replication.ship_blocked").inc()
            self.sim.schedule(REPUMP_INTERVAL, self._drain, rset, follower)
            return
        del cells  # applied on delivery

    def _apply_entry(self, rset: ReplicaSet, follower: FollowerReplica) -> None:
        if follower.closed or not follower.pending:
            follower.in_flight = False
            return
        server = self.master.server(follower.server_name)
        if server.crashed:
            follower.in_flight = False
            return
        seq_hi, shipped_at, cells = follower.pending.popleft()
        follower.region.put_block(cells)
        follower.applied_seq = seq_hi
        follower.applied_through = shipped_at
        self._pending_cells -= len(cells)
        self.metrics.counter("replication.applied").inc(len(cells))
        self.metrics.gauge("replication.lag_cells").set(self._pending_cells)
        cost = server.service_model.put_block_cost(len(cells))
        self.sim.schedule(cost, self._entry_applied, rset, follower)

    def _entry_applied(self, rset: ReplicaSet, follower: FollowerReplica) -> None:
        follower.in_flight = False
        self._drain(rset, follower)

    # ------------------------------------------------------------------
    # failover
    # ------------------------------------------------------------------
    def promote(self, region_name: str) -> Optional[str]:
        """Retire the most-caught-up live follower; return its server.

        The master reopens the region it rebuilt there (a failover).
        ``None`` when no follower is live.
        """
        best = self._best(region_name)
        if best is None:
            return None
        best.rset.followers.remove(best)
        self._close_follower(best)
        self.promotions += 1
        self.metrics.counter("replication.promotions").inc()
        return best.server_name

    def handle_server_crash(self, server_name: str) -> None:
        """Drop followers hosted on the dead server and re-place them."""
        for rset in self._sets.values():
            for follower in [f for f in rset.followers if f.server_name == server_name]:
                rset.followers.remove(follower)
                self._close_follower(follower)
            self._top_up(rset)

    def mirror(self, region_name: str, cells: CellBatch) -> None:
        """Apply cells to every follower outside the WAL stream.

        Used for bulk loads (``direct_put``) and master WAL replay,
        neither of which ships a WAL batch, so followers would
        otherwise stay permanently behind.
        """
        rset = self._sets.get(region_name)
        if rset is None:
            return
        for follower in rset.followers:
            follower.region.put_block(cells)

    def mirror_delete(
        self, region_name: str, start_row: bytes, end_row: bytes, ts: float
    ) -> None:
        """Apply a range tombstone to every follower outside the WAL stream.

        The delete-side counterpart of :meth:`mirror`: retention expiry
        writes into primaries directly, so followers must be tombstoned
        explicitly or timeline reads would resurface expired cells.
        """
        rset = self._sets.get(region_name)
        if rset is None:
            return
        for follower in rset.followers:
            follower.region.delete_range(start_row, end_row, ts)

    def best_follower(self, region_name: str) -> Optional[Tuple[Region, float]]:
        """Most-caught-up live follower's copy and its staleness bound, if any."""
        best = self._best(region_name)
        if best is None:
            return None
        return best.region, best.staleness(self.sim.now)

    def _best(self, region_name: str) -> Optional[FollowerReplica]:
        rset = self._sets.get(region_name)
        live = [
            f for f in (rset.followers if rset is not None else ())
            if not self.master.server(f.server_name).crashed
        ]
        return max(live, key=lambda f: f.applied_seq, default=None)

    # ------------------------------------------------------------------
    # chaos hooks
    # ------------------------------------------------------------------
    def stall_followers(self, server_name: str) -> None:
        """``replica_stall``: the server's apply loops stop draining."""
        self._stalled.add(server_name)
        self.metrics.counter("replication.stalls").inc(label=server_name)

    def resume_followers(self, server_name: str) -> None:
        self._stalled.discard(server_name)
        for rset in self._sets.values():
            for follower in rset.followers:
                if follower.server_name == server_name:
                    self._drain(rset, follower)

    def set_ship_lag(self, server_name: str, factor: float) -> None:
        """``wal_lag``: multiply the shipping delay out of ``server_name``."""
        self._ship_lag[server_name] = max(1.0, factor)
        self.metrics.counter("replication.wal_lag_events").inc(label=server_name)

    def clear_ship_lag(self, server_name: str) -> None:
        self._ship_lag.pop(server_name, None)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        return {
            "regions": len(self._sets),
            "followers": sum(len(r.followers) for r in self._sets.values()),
            "pending_cells": self._pending_cells,
            "promotions": self.promotions,
        }

    def max_staleness(self) -> float:
        """Worst staleness bound across every live follower (seconds)."""
        worst = 0.0
        now = self.sim.now
        for rset in self._sets.values():
            for follower in rset.followers:
                worst = max(worst, follower.staleness(now))
        return worst
