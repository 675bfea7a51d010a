"""HMaster: table catalog, region assignment, splits and crash recovery.

The master is control-plane only — it never touches the data path, so
its operations execute synchronously in simulated time.  It provides:

* ``create_table`` with optional pre-split keys (the paper manually
  pre-split regions so "each region handled an equal proportion of the
  writes");
* ``route`` — the meta-table lookup every write is split by, once, into
  region shares grouped per server (``locate`` is its one-row form);
* crash recovery — once per crash, each region the dead server hosted
  is rebuilt in place from its store files and its own log and
  reopened on a follower's server or round-robin across the survivors;
* region splitting and moves (manual, as in the paper) and a simple
  count-based balancer.

Liveness is each RegionServer's own ``crashed`` flag, and a crash
reaches the master through the server's ``on_crash`` callback; with a
simulator attached, recovery waits out ``failure_detection_delay`` (the
window a ZooKeeper session timeout opens in real HBase), or runs when
the server restarts, if that comes first.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..cluster.metrics import MetricsRegistry
from .region import CellBatch, Region, RegionInfo, RouteTable, RowFilter
from .regionserver import RegionServer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.simulation import EventHandle, Simulator
    from .replication import ReplicationCoordinator

__all__ = ["HMaster", "RegionUnavailableError", "ReplicaLocation", "TableNotFoundError"]


class TableNotFoundError(KeyError):
    """Lookup of a table that was never created."""


class RegionUnavailableError(RuntimeError):
    """No copy of a region can serve the requested consistency mode."""


@dataclass(frozen=True)
class ReplicaLocation:
    """Replica-aware routing entry: region + primary + follower servers."""

    info: RegionInfo
    primary: Optional[str]
    followers: Tuple[str, ...]


@dataclass(eq=False)  # hashed by identity: a route table's owner
class _Assignment:
    region: Region
    server: Optional[str]  # None while unassigned (no live servers)


class HMaster:
    """Cluster coordinator for the simulated HBase deployment."""

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        sim: Optional["Simulator"] = None,
        failure_detection_delay: float = 0.0,
    ) -> None:
        if failure_detection_delay < 0:
            raise ValueError("failure_detection_delay must be >= 0")
        self._servers: Dict[str, RegionServer] = {}
        self._tables: Dict[str, List[_Assignment]] = {}
        # Per-table route table over the assignments, rebuilt when the
        # table's layout changes (create, split); its start keys,
        # parallel to the assignment list, serve range lookups.
        self._routes: Dict[str, RouteTable[_Assignment]] = {}
        self._region_ids = itertools.count(1)
        self._assign_cursor = 0
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Simulator + detection delay model a session timeout:
        #: with a simulator attached and a positive delay, recovery runs
        #: that long after the crash (the window failover must bridge).
        #: Without a simulator, recovery stays synchronous as before.
        self.sim = sim
        self.failure_detection_delay = failure_detection_delay
        #: Region replication coordinator (see :meth:`enable_replication`).
        self.replication: Optional["ReplicationCoordinator"] = None
        #: Per crashed server, its pending detection.
        self._detections: Dict[str, EventHandle] = {}

    # ------------------------------------------------------------------
    # server membership
    # ------------------------------------------------------------------
    def register_server(self, server: RegionServer) -> None:
        """Add a RegionServer to the cluster and subscribe to its crashes.

        With replication enabled, its writer ships to the coordinator
        from the start, as every server registered before does.
        """
        if server.name in self._servers:
            raise ValueError(f"duplicate server {server.name}")
        self._servers[server.name] = server
        server.on_crash = self._handle_crash
        server.on_restart = self._handle_restart
        if self.replication is not None:
            server.replication_ship = self.replication.ship

    def live_servers(self) -> List[str]:
        return sorted(
            name for name, srv in self._servers.items() if not srv.crashed
        )

    def server(self, name: str) -> RegionServer:
        return self._servers[name]

    # ------------------------------------------------------------------
    # tables
    # ------------------------------------------------------------------
    def create_table(
        self,
        table: str,
        split_keys: Optional[List[bytes]] = None,
        retain_data: bool = True,
    ) -> None:
        """Create a table pre-split at ``split_keys`` (sorted, non-empty keys).

        ``n`` split keys produce ``n + 1`` regions covering the whole
        keyspace.  With no split keys the table starts as one region —
        the configuration that exhibits the hot-spotting pathology E6
        measures.
        """
        if table in self._tables:
            raise ValueError(f"table {table!r} already exists")
        keys = sorted(split_keys or [])
        if any(not k for k in keys):
            raise ValueError("split keys must be non-empty")
        if len(set(keys)) != len(keys):
            raise ValueError("split keys must be distinct")
        boundaries = [b""] + keys + [b""]
        assignments: List[_Assignment] = []
        for start, end in zip(boundaries[:-1], boundaries[1:]):
            info = RegionInfo(table, start, end, next(self._region_ids))
            assignments.append(_Assignment(Region(info, retain_data=retain_data), None))
        self._tables[table] = assignments
        self._reroute(table)
        for assignment in assignments:
            self._assign(table, assignment)
        if self.replication is not None:
            for assignment in assignments:
                self.replication.ensure_replicas(assignment.region, assignment.server)

    def table_regions(self, table: str) -> List[Tuple[RegionInfo, Optional[str]]]:
        """Region layout: ``[(info, server_name)]`` sorted by start key."""
        return [(a.region.info, a.server) for a in self._assignments(table)]

    def _assignments(self, table: str) -> List[_Assignment]:
        try:
            return self._tables[table]
        except KeyError:
            raise TableNotFoundError(table) from None

    def _route_table(self, table: str) -> RouteTable[_Assignment]:
        try:
            return self._routes[table]
        except KeyError:
            raise TableNotFoundError(table) from None

    def _reroute(self, table: str) -> None:
        self._routes[table] = RouteTable((a.region.info, a) for a in self._tables[table])

    # ------------------------------------------------------------------
    # routing (the meta table)
    # ------------------------------------------------------------------
    def locate(self, table: str, row: bytes) -> Tuple[RegionInfo, Optional[str]]:
        """Which region serves ``row``, and on which server (binary search).

        The one-row lookup (clients' replica routing, tools, tests).
        Writes never ask it: they route a whole batch at once through
        the table's :class:`RouteTable` (:meth:`route`).
        """
        assignment = self._route_table(table).locate(row)
        if assignment is None:  # pragma: no cover - regions tile the keyspace
            raise RuntimeError(f"no region covers row {row.hex()} in {table!r}")
        return assignment.region.info, assignment.server

    def locate_range(self, table: str, start: bytes, end: bytes) -> List[Tuple[RegionInfo, Optional[str]]]:
        """All regions overlapping the scan range ``[start, end)``."""
        return [(a.region.info, a.server) for a in self._overlapping(table, start, end)]

    def route(
        self, table: str, batch: CellBatch
    ) -> Dict[Optional[str], Dict[Region, CellBatch]]:
        """Split a non-empty ``batch`` by region, grouped by the server each is assigned to.

        The one write router: one :meth:`CellBatch.partition` over the
        table's route table, a run's region one index by its row's first
        byte (a bisect only inside a byte a split cut).  Returns
        ``{server: {region: share}}``; the ``None`` server collects the
        regions that are unassigned.  Servers and each server's regions
        come out in first-appearance order, and every share keeps its
        cells in batch order.  A move or failover changes an assignment's
        server, not the route table, so routing needs no rebuild.
        """
        routed: Dict[Optional[str], Dict[Region, CellBatch]] = {}
        for assignment, share in batch.partition(self._route_table(table).owners).items():
            routed.setdefault(assignment.server, {})[assignment.region] = share
        return routed

    def _overlapping(self, table: str, start: bytes, end: bytes) -> List[_Assignment]:
        """Assignments whose region overlaps ``[start, end)``, in key order.

        Regions tile the keyspace in start-key order, so the overlap is
        one contiguous slice found by bisecting the route table's start
        keys: from the region containing ``start`` up to the first one
        starting at or after ``end`` (``b""`` end = unbounded).
        """
        assignments = self._assignments(table)
        starts = self._routes[table].starts
        first = max(bisect.bisect_right(starts, start) - 1, 0)
        last = bisect.bisect_left(starts, end) if end else len(starts)
        return assignments[first:last]

    def locate_replicas(self, table: str, row: bytes) -> ReplicaLocation:
        """Replica-aware :meth:`locate`: primary plus follower servers."""
        info, server = self.locate(table, row)
        return ReplicaLocation(info, server, self._follower_names(info.name))

    def locate_range_replicas(
        self, table: str, start: bytes, end: bytes
    ) -> List[ReplicaLocation]:
        """Replica-aware :meth:`locate_range` for scan fan-out."""
        return [
            ReplicaLocation(info, server, self._follower_names(info.name))
            for info, server in self.locate_range(table, start, end)
        ]

    def _follower_names(self, region_name: str) -> Tuple[str, ...]:
        if self.replication is None:
            return ()
        return self.replication.follower_servers(region_name)

    def direct_scan(
        self,
        table: str,
        start_row: bytes = b"",
        end_row: bytes = b"",
        row_filter: Optional[RowFilter] = None,
    ) -> CellBatch:
        """Administrative scan reading region data directly (no RPC timing).

        Used by offline components — the TSDB query engine, tests, the
        visualization pipeline — where simulated network timing is not
        under study.  Returns a batch sorted by ``(row, qualifier)``:
        regions are disjoint, visited in key order, and each returns
        sorted cells.  ``row_filter`` is pushed down to every region
        scan (see :meth:`Region.scan`).
        """
        return self._scan(table, ((start_row, end_row),), row_filter, None)[0]

    def direct_put(self, table: str, batch: CellBatch) -> int:
        """Administrative put: bulk-load ``batch`` into the regions, no RPC.

        The batch is split by region once (:meth:`route`) and each
        server's shares go to its one writer (:meth:`write`), as for a
        put RPC.  Returns the number of cells written, all of them.
        Raises when a row's region is unassigned, before anything is
        written.
        """
        if not batch.rows:
            return 0
        routed = self.route(table, batch)
        if None in routed:
            raise RuntimeError("region unassigned; cannot bulk-load")
        self.write(routed)  # type: ignore[arg-type]
        return len(batch)

    def write(self, routed: Dict[str, Dict[Region, CellBatch]]) -> None:
        """Hand each server's routed shares to its :meth:`RegionServer.write`.

        The bulk side of the one writer: each server logs, lands and
        ships its regions' shares.  The master's assignments and the
        servers' hosted regions change together, so a refusal means the
        two disagree, and raises.
        """
        for server_name, shares in routed.items():
            if not self._servers[server_name].write(shares):
                raise RuntimeError(f"{server_name} does not host the regions assigned to it")

    def direct_delete_range(
        self, table: str, start_row: bytes, end_row: bytes, ts: float
    ) -> int:
        """Administrative range delete: tombstone ``[start_row, end_row)``.

        The retention manager's expiry path.  Applies a range tombstone
        (at logical write time ``ts``) to every overlapping region and
        mirrors it to follower replicas: a tombstone is not logged, so
        it is not shipped (tombstones are durable region metadata), and
        followers never resurface expired cells on a timeline read.
        Returns the number of visible cells masked across primaries.
        """
        masked = 0
        for assignment in self._overlapping(table, start_row, end_row):
            masked += assignment.region.delete_range(start_row, end_row, ts)
            if self.replication is not None:
                self.replication.mirror_delete(
                    assignment.region.info.name, start_row, end_row, ts
                )
        return masked

    def direct_scan_consistent(
        self,
        table: str,
        start_row: bytes = b"",
        end_row: bytes = b"",
        timeline: bool = False,
        row_filter: Optional[RowFilter] = None,
    ) -> Tuple[CellBatch, float]:
        """Availability-aware :meth:`direct_scan` with a consistency mode.

        ``strong`` (the default) reads primary copies only and raises
        :class:`RegionUnavailableError` if any region overlapping the
        range has no live primary.  ``timeline=True`` falls back to the
        most-caught-up live follower for such regions and returns the
        worst staleness bound alongside the cells.  On a healthy
        cluster both modes return exactly what :meth:`direct_scan`
        returns for the same range and ``row_filter``, at staleness 0.
        """
        return self._scan(
            table, ((start_row, end_row),), row_filter, "timeline" if timeline else "strong"
        )

    def _scan(
        self,
        table: str,
        ranges: Sequence[Tuple[bytes, bytes]],
        row_filter: Optional[RowFilter],
        consistency: Optional[str],
    ) -> Tuple[CellBatch, float]:
        """The one region-range read loop: ``(sorted batch, worst staleness)``.

        Reads every ``[start, end)`` of ``ranges`` — a query's whole
        plan, one range per salt bucket, or a single range for
        :meth:`direct_scan` and :meth:`direct_scan_consistent`.  Each
        range's overlap is bisected here as in :meth:`_overlapping`.
        Ranges given in key order yield a sorted batch.  Most regions
        of a salted range hold nothing of it: their shared empty batch
        is skipped, and a lone non-empty share is returned as it stands.

        ``consistency`` is the replica policy for a region whose primary
        is down: ``None`` (administrative) reads the primary's data
        anyway, ``"strong"`` refuses, ``"timeline"`` falls back to the
        most-caught-up live follower.
        """
        assignments = self._assignments(table)
        starts = self._routes[table].starts
        shares: List[CellBatch] = []
        staleness = 0.0
        for start_row, end_row in ranges:
            first = max(bisect.bisect_right(starts, start_row) - 1, 0)
            last = bisect.bisect_left(starts, end_row) if end_row else len(starts)
            for assignment in assignments[first:last]:
                region = assignment.region
                if consistency is not None and (
                    assignment.server is None or self._servers[assignment.server].crashed
                ):
                    fallback = None
                    if consistency == "timeline" and self.replication is not None:
                        fallback = self.replication.best_follower(region.info.name)
                    if fallback is None:
                        raise RegionUnavailableError(region.info.name)
                    region, follower_staleness = fallback
                    staleness = max(staleness, follower_staleness)
                share = region.scan(start_row, end_row, row_filter)
                if share.rows:
                    shares.append(share)
        return CellBatch.concat(shares), staleness

    # ------------------------------------------------------------------
    # assignment / balancing
    # ------------------------------------------------------------------
    def _assign(self, table: str, assignment: _Assignment) -> None:
        live = self.live_servers()
        if not live:
            assignment.server = None
            return
        self._open(assignment, live[self._assign_cursor % len(live)])
        self._assign_cursor += 1

    def _open(self, assignment: _Assignment, name: str) -> None:
        """Open the assignment's region on server ``name``; its followers follow."""
        assignment.server = name
        self._servers[name].open_region(assignment.region)
        if self.replication is not None:
            self.replication.primary_moved(assignment.region.info.name, name)

    def move_region(self, table: str, region_name: str, dest: str) -> None:
        """Relocate one region to ``dest`` (must be live)."""
        if dest not in self._servers or self._servers[dest].crashed:
            raise ValueError(f"destination server {dest!r} not live")
        for assignment in self._assignments(table):
            if assignment.region.info.name == region_name:
                if assignment.server is not None:
                    # Close flushes the memstore (HBase close semantics).
                    assignment.region.flush()
                    self._servers[assignment.server].close_region(region_name)
                self._open(assignment, dest)
                return
        raise KeyError(f"region {region_name!r} not in table {table!r}")

    def split_region(self, table: str, region_name: str, split_key: Optional[bytes] = None) -> Tuple[str, str]:
        """Split a region (at ``split_key`` or its data midpoint).

        Daughters are assigned round-robin, so splitting a hot region
        spreads its load — the manual-split remedy from §III-B.
        """
        assignments = self._assignments(table)
        for i, assignment in enumerate(assignments):
            if assignment.region.info.name != region_name:
                continue
            key = split_key if split_key is not None else assignment.region.midpoint_key()
            if key is None:
                raise ValueError("region has too little data to split at its midpoint")
            left, right = assignment.region.split(
                key, (next(self._region_ids), next(self._region_ids))
            )
            # The daughters' cells are in neither daughter's log, so they
            # are flushed before the daughters open (HBase daughters start
            # from the parent's store files): a crash of a daughter's
            # new host must not lose them.
            left.flush()
            right.flush()
            if assignment.server is not None:
                self._servers[assignment.server].close_region(region_name)
            la, ra = _Assignment(left, None), _Assignment(right, None)
            assignments[i : i + 1] = [la, ra]
            self._reroute(table)
            self._assign(table, la)
            self._assign(table, ra)
            if self.replication is not None:
                self.replication.on_split(
                    region_name, [(la.region, la.server), (ra.region, ra.server)]
                )
            return left.info.name, right.info.name
        raise KeyError(f"region {region_name!r} not in table {table!r}")

    def balance(self) -> int:
        """Even out region counts across live servers.  Returns moves made."""
        live = self.live_servers()
        if not live:
            return 0
        loads: Dict[str, List[Tuple[str, str]]] = {name: [] for name in live}
        for table, assignments in self._tables.items():
            for a in assignments:
                if a.server in loads:
                    loads[a.server].append((table, a.region.info.name))
        total = sum(len(v) for v in loads.values())
        target = -(-total // len(live))  # ceil
        moves = 0
        overloaded = [(n, regions) for n, regions in loads.items() if len(regions) > target]
        underloaded = [n for n, regions in loads.items() if len(regions) < target]
        for name, regions in overloaded:
            while len(regions) > target and underloaded:
                dest = underloaded[0]
                table, region_name = regions.pop()
                self.move_region(table, region_name, dest)
                loads[dest].append((table, region_name))
                if len(loads[dest]) >= target:
                    underloaded.pop(0)
                moves += 1
        return moves

    # ------------------------------------------------------------------
    # replication
    # ------------------------------------------------------------------
    def enable_replication(self, coordinator: "ReplicationCoordinator") -> None:
        """Attach a replication coordinator and replicate existing tables.

        Every registered server's writer ships to the coordinator
        (``RegionServer.replication_ship`` is set here, and by
        :meth:`register_server` for a server added later).  From
        here on the master keeps follower sets placed through every
        assignment change (create/move/split/crash), promotes the
        best follower on primary death, and serves timeline fallbacks
        via :meth:`direct_scan_consistent`.
        """
        self.replication = coordinator
        for server in self._servers.values():
            server.replication_ship = coordinator.ship
        for assignments in self._tables.values():
            for a in assignments:
                coordinator.ensure_replicas(a.region, a.server)

    # ------------------------------------------------------------------
    # crash recovery
    # ------------------------------------------------------------------
    def _handle_crash(self, server: RegionServer) -> None:
        """A crash is recovered once, from its regions' logs.

        With a simulator attached and ``failure_detection_delay > 0``,
        recovery runs after the detection window (a session timeout in
        real HBase), or at the server's restart if that comes first
        (:meth:`_handle_restart`); otherwise at once.
        """
        if self.sim is not None and self.failure_detection_delay > 0:
            self._detections[server.name] = self.sim.schedule(
                self.failure_detection_delay, self._detect_crash, server
            )
        else:
            self._recover(server)

    def _detect_crash(self, server: RegionServer) -> None:
        del self._detections[server.name]
        self._recover(server)

    def _recover(self, server: RegionServer) -> None:
        """Rebuild every region the dead server hosted from its store files and log.

        The same steps at every rf, on the region itself, so its store
        files stay: discard the memstore; replay the region's log,
        which holds every write it took since its last flush; flush,
        which empties the log; reopen it.  While the server is down the
        best live follower retires and the region reopens on its server
        (a failover); after a restart (:meth:`_handle_restart`), or
        with no live follower, it is placed round-robin.  Replay is a
        newest-wins upsert.
        """
        self.metrics.counter("master.recoveries").inc(label=server.name)
        victims = [a for table in self._tables.values() for a in table if a.server == server.name]
        failover = self.replication is not None and server.crashed
        for a in victims:
            region = a.region
            region.discard_memstore()
            server.close_region(region.info.name)
            a.server = None
            region.put_block(region.wal.entries)
            region.flush()
            target = self.replication.promote(region.info.name) if failover else None
            if target is not None:
                self._open(a, target)
                self.metrics.counter("master.failovers").inc(label=server.name)
            else:
                self._assign(region.info.table, a)
        if self.replication is not None:
            # Re-place followers lost with the dead server, bootstrapped
            # from the recovered regions.  Surviving followers need no
            # replay: the stream shipped them each cell when it was
            # written, and their queues outlive the dead primary.
            self.replication.handle_server_crash(server.name)

    def _handle_restart(self, server: RegionServer) -> None:
        """Recover the server's undetected crash, then give it work again.

        A server that restarts inside its detection window re-registers
        as a new instance (HBase's new start code), so its crash is
        recovered now, from its regions' logs.  Regions left unassigned
        while no server was live are then assigned, with their
        followers placed, and the load is balanced.
        """
        detection = self._detections.pop(server.name, None)
        if detection is not None:
            detection.cancel()
            self._recover(server)
        for table, assignments in self._tables.items():
            for a in assignments:
                if a.server is None:
                    self._assign(table, a)
                    if self.replication is not None:
                        self.replication.ensure_replicas(a.region, a.server)
        self.balance()
