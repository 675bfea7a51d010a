"""Write-ahead log for region durability.

Each region keeps its own log of the cells written to it since its last
flush: its RegionServer appends a share to the region's log before the
share lands in the memstore, and :meth:`Region.flush` empties it.  When
a RegionServer crashes (e.g. from RPC-queue overflow, §III-B of the
paper) the master replays each of its regions' logs, so acknowledged
writes survive crashes — which the backpressure ablation (E7) relies on
to distinguish *lost* throughput from *recovered* throughput.  What is
logged and what is replayed is a :class:`~repro.hbase.region.CellBatch`:
the log is four growing columns, not a list of cells.
"""

from __future__ import annotations

# A module reference, not its names: region.py imports this module.
from . import region

__all__ = ["WriteAheadLog"]


class WriteAheadLog:
    """Append-only log of one region's unflushed cells.

    The log is four growing columns (a :class:`CellBatch`), so a put
    RPC's share is logged by four ``extend`` calls, not cell by cell.
    Every appended entry is durable: the writer syncs in the same call
    (HBase's default ``hflush`` per batch), and ``sync`` only counts
    those hflushes.
    """

    def __init__(self, owner: str) -> None:
        self.owner = owner
        self._entries = region.CellBatch()
        self.syncs = 0

    def append(self, cell: region.Cell) -> None:
        self._entries.append(cell.row, cell.qualifier, cell.value, cell.ts)

    def append_batch(self, batch: region.CellBatch) -> None:
        self._entries.extend(batch)

    def sync(self) -> None:
        """One hflush of everything appended so far."""
        self.syncs += 1

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> region.CellBatch:
        """Every logged cell, in append order (what a crash replays)."""
        return self._entries

    def truncate(self) -> None:
        """Discard the log (after its region has been flushed)."""
        self._entries = region.CellBatch()
