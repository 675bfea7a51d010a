"""Write-ahead log for RegionServer durability.

Every mutation is appended to the server's WAL before being applied to
a region's memstore.  When a RegionServer crashes (e.g. from RPC-queue
overflow, §III-B of the paper) the master replays its WAL into the
reassigned regions, so acknowledged writes survive crashes — which the
backpressure ablation (E7) relies on to distinguish *lost* throughput
from *recovered* throughput.  What is logged and what is replayed is a
:class:`~repro.hbase.region.CellBatch`: the log is four growing
columns, not a list of cells.
"""

from __future__ import annotations

from .region import Cell, CellBatch

__all__ = ["WriteAheadLog"]


class WriteAheadLog:
    """Append-only log of cells with a sync watermark.

    The log is four growing columns (a :class:`CellBatch`), so a put
    RPC's batch is logged by four ``extend`` calls, not cell by cell.
    ``append`` adds entries; ``sync`` advances the durable watermark.
    On crash, only entries up to the last sync are replayable (entries
    after it are torn, as with a real un-fsynced tail).  RegionServers
    here sync per RPC batch, matching HBase's default `hflush`-per-batch
    behaviour.
    """

    def __init__(self, owner: str) -> None:
        self.owner = owner
        self._entries = CellBatch()
        self._synced = 0
        self.syncs = 0

    def append(self, cell: Cell) -> None:
        self._entries.append(cell.row, cell.qualifier, cell.value, cell.ts)

    def append_batch(self, batch: CellBatch) -> None:
        self._entries.extend(batch)

    def sync(self) -> None:
        """Make everything appended so far durable."""
        self._synced = len(self._entries)
        self.syncs += 1

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def durable_count(self) -> int:
        return self._synced

    def replayable(self) -> CellBatch:
        """Durable entries, in append order (what survives a crash)."""
        return self._entries.slice(0, self._synced)

    def truncate(self) -> None:
        """Discard the log (after regions have been flushed/replayed)."""
        self._entries = CellBatch()
        self._synced = 0
