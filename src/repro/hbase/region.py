"""Regions: contiguous key-range shards backed by a mini-LSM tree.

A region owns the half-open row-key interval ``[start_key, end_key)``
(empty bytes meaning unbounded on either side, as in HBase).  Writes
land in an in-memory *memstore*; when the memstore exceeds its flush
threshold it is frozen into an immutable, sorted :class:`StoreFile`.
Reads merge the memstore with all store files, newest first.  Minor
compaction merges store files back into one.

Both levels are indexed per *row*, not per cell: the memstore is
``row -> {qualifier -> Cell}`` beside a sorted list of its rows, a
store file is a sorted cell run beside its distinct rows and their
offsets.  A scan bisects to the rows of its range, so it costs what it
returns, and a row filter (the TSDB's tag push-down) is asked once per
row and skips a rejected row's cells without touching them.

The data plane is real — cells written here are the cells the TSDB
query engine later reads — while the *timing* of RPCs is modelled by
the RegionServer's service loop, not here.

Deletes are modelled as HBase-style *range tombstones*: a tombstone
``(start_row, end_row, ts)`` masks every cell in the row range whose
write timestamp is ``<= ts`` — a later re-write of the same cell wins
over the tombstone, exactly like newest-wins between versions.  Masked
cells stay on disk until the next :meth:`Region.compact`, which purges
them physically and retires the tombstones.  Tombstones are treated as
durable region metadata (as if WAL-persisted at write time), so a
RegionServer crash loses unflushed *data* but never an acknowledged
delete.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

__all__ = ["Cell", "StoreFile", "Region", "RegionInfo", "RowFilter"]

#: Scan push-down: ``row -> keep?``, evaluated once per row.
RowFilter = Callable[[bytes], bool]

_cell_key = attrgetter("row", "qualifier")
_cell_row = attrgetter("row")
_cell_qualifier = attrgetter("qualifier")


def _merge_newest(runs: Iterable[Iterable[Cell]]) -> Dict[Tuple[bytes, bytes], Cell]:
    """One cell per key over runs given oldest first: newer or equal ``ts`` wins."""
    merged: Dict[Tuple[bytes, bytes], Cell] = {}
    for run in runs:
        for cell in run:
            existing = merged.get(cell.key)
            if existing is None or cell.ts >= existing.ts:
                merged[cell.key] = cell
    return merged


@dataclass(frozen=True, slots=True)
class Cell:
    """One HBase cell: ``(row, qualifier) -> value`` at a write timestamp.

    ``ts`` is a logical write timestamp used for newest-wins conflict
    resolution between memstore and store files.
    """

    row: bytes
    qualifier: bytes
    value: bytes
    ts: float

    @property
    def key(self) -> Tuple[bytes, bytes]:
        return (self.row, self.qualifier)


@dataclass(frozen=True)
class RegionInfo:
    """Identity and key range of a region."""

    table: str
    start_key: bytes
    end_key: bytes  # exclusive; b"" = unbounded
    region_id: int

    @property
    def name(self) -> str:
        return f"{self.table},{self.start_key.hex()},{self.region_id}"

    def contains(self, row: bytes) -> bool:
        if row < self.start_key:
            return False
        if self.end_key and row >= self.end_key:
            return False
        return True


class StoreFile:
    """Immutable sorted run of cells (an HFile stand-in).

    Cells are stored sorted by ``(row, qualifier)`` beside an index of
    the distinct rows and where each starts; point lookups and scans
    bisect the row index.  One entry per key (the flush already
    deduplicated by newest timestamp).
    """

    def __init__(self, cells: List[Cell]) -> None:
        self._cells = sorted(cells, key=_cell_key)
        self._rows: List[bytes] = []
        # Offset of each row's first cell, plus the end sentinel.
        self._starts: List[int] = []
        prev_row: Optional[bytes] = None
        for i, cell in enumerate(self._cells):
            if cell.row != prev_row:
                prev_row = cell.row
                self._rows.append(prev_row)
                self._starts.append(i)
        self._starts.append(len(self._cells))

    def __len__(self) -> int:
        return len(self._cells)

    def get(self, row: bytes, qualifier: bytes) -> Optional[Cell]:
        r = bisect.bisect_left(self._rows, row)
        if r == len(self._rows) or self._rows[r] != row:
            return None
        end = self._starts[r + 1]
        i = bisect.bisect_left(
            self._cells, qualifier, self._starts[r], end, key=_cell_qualifier
        )
        if i < end and self._cells[i].qualifier == qualifier:
            return self._cells[i]
        return None

    def scan(
        self, start_row: bytes, end_row: bytes, row_filter: Optional[RowFilter] = None
    ) -> List[Cell]:
        """Cells with ``start_row <= row < end_row`` (``b''`` end = unbounded).

        With a ``row_filter``, only rows it accepts; it is called once
        per row in range, and a rejected row's cells are not visited.
        """
        rows, starts = self._rows, self._starts
        first = bisect.bisect_left(rows, start_row)
        last = bisect.bisect_left(rows, end_row, first) if end_row else len(rows)
        if row_filter is None:
            return self._cells[starts[first] : starts[last]]
        out: List[Cell] = []
        for r in range(first, last):
            if row_filter(rows[r]):
                out.extend(self._cells[starts[r] : starts[r + 1]])
        return out

    def cells(self) -> Iterator[Cell]:
        return iter(self._cells)


class Region:
    """A key-range shard with memstore + store files.

    Parameters
    ----------
    info:
        Identity/key-range of the region.
    flush_threshold:
        Number of memstore entries that triggers an automatic flush.
        Real HBase flushes on bytes; entries keep the model simple and
        deterministic.
    """

    def __init__(
        self,
        info: RegionInfo,
        flush_threshold: int = 100_000,
        retain_data: bool = True,
    ) -> None:
        if flush_threshold < 1:
            raise ValueError("flush_threshold must be >= 1")
        self.info = info
        self.flush_threshold = flush_threshold
        self.retain_data = retain_data
        self._memstore: Dict[bytes, Dict[bytes, Cell]] = {}
        self._memstore_cells = 0
        # Sorted row index of the memstore; rows put since the last scan
        # wait in ``_unindexed`` so the write path does no index work.
        self._rows: List[bytes] = []
        self._unindexed: List[bytes] = []
        self._store_files: List[StoreFile] = []
        self._tombstones: List[Tuple[bytes, bytes, float]] = []
        self.writes = 0
        self.flushes = 0
        self.compactions = 0
        self.deletes = 0

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def put(self, cell: Cell) -> None:
        """Insert/overwrite one cell.  Raises if the row is out of range.

        Point-wise convenience form of :meth:`put_block` (the single
        implementation).
        """
        self.put_block([cell])

    def put_block(self, cells: List[Cell]) -> None:
        """Insert a run of cells in one call (the block write path).

        Semantically identical to calling :meth:`put` per cell, but the
        range check runs once per distinct row (block runs repeat rows
        for long stretches), counting-only mode becomes one counter
        bump, and the flush trigger is evaluated once per run instead
        of once per cell.
        """
        if not cells:
            return
        prev_row: Optional[bytes] = None
        for cell in cells:
            if cell.row != prev_row:
                if not self.info.contains(cell.row):
                    raise KeyError(
                        f"row {cell.row.hex()} outside region range "
                        f"[{self.info.start_key.hex()}, {self.info.end_key.hex()})"
                    )
                prev_row = cell.row
        if not self.retain_data:
            # Counting-only mode for pure-throughput ingestion studies:
            # the writes are accounted for but the bytes are discarded, so
            # multi-million-sample simulations stay within memory.
            self.writes += len(cells)
            return
        memstore = self._memstore
        added = 0
        prev_row = None
        for cell in cells:
            if cell.row != prev_row:
                prev_row = cell.row
                quals = memstore.get(prev_row)
                if quals is None:
                    quals = memstore[prev_row] = {}
                    self._unindexed.append(prev_row)
            existing = quals.get(cell.qualifier)
            if existing is None:
                quals[cell.qualifier] = cell
                added += 1
            elif cell.ts >= existing.ts:
                quals[cell.qualifier] = cell
        self._memstore_cells += added
        self.writes += len(cells)
        if self._memstore_cells >= self.flush_threshold:
            self.flush()

    def flush(self) -> None:
        """Freeze the memstore into a new store file."""
        if not self._memstore:
            return
        self._store_files.append(
            StoreFile([c for quals in self._memstore.values() for c in quals.values()])
        )
        self._set_memstore({})
        self.flushes += 1

    def _set_memstore(self, memstore: Dict[bytes, Dict[bytes, Cell]]) -> None:
        self._memstore = memstore
        self._memstore_cells = sum(len(quals) for quals in memstore.values())
        self._rows = []
        self._unindexed = list(memstore)

    def discard_memstore(self) -> int:
        """Drop unflushed data (crash model).  Returns the number of cells lost.

        Store files survive a RegionServer crash (they live on shared
        storage); the memstore does not.  The master replays the WAL
        after calling this, restoring acknowledged writes.
        """
        lost = self._memstore_cells
        self._set_memstore({})
        return lost

    # ------------------------------------------------------------------
    # delete path (range tombstones)
    # ------------------------------------------------------------------
    def delete_range(self, start_row: bytes, end_row: bytes, ts: float) -> int:
        """Mask every cell in ``[start_row, end_row)`` written at or before ``ts``.

        Returns the number of currently-visible cells the tombstone
        masks (for expiry accounting).  The mask is logical until the
        next :meth:`compact` purges the bytes; a re-write with a newer
        timestamp resurfaces the cell, which is what lets the lifecycle
        tier detect and re-drop too-late backfill explicitly.
        """
        doomed = sum(1 for c in self.scan(start_row, end_row) if c.ts <= ts)
        self._tombstones.append((start_row, end_row, ts))
        self.deletes += 1
        return doomed

    def _masked(self, cell: Cell) -> bool:
        for lo, hi, ts in self._tombstones:
            if cell.row >= lo and (not hi or cell.row < hi) and cell.ts <= ts:
                return True
        return False

    @property
    def tombstone_count(self) -> int:
        return len(self._tombstones)

    def compact(self) -> None:
        """Minor compaction: merge store files into one, newest-wins.

        Also the physical delete point: cells masked by a tombstone are
        dropped from the merged file *and* the memstore, after which the
        tombstones are retired.
        """
        if len(self._store_files) <= 1 and not self._tombstones:
            return
        merged = _merge_newest(sf.cells() for sf in self._store_files)
        if self._tombstones:
            merged = {k: c for k, c in merged.items() if not self._masked(c)}
            kept: Dict[bytes, Dict[bytes, Cell]] = {}
            for row, quals in self._memstore.items():
                live = {q: c for q, c in quals.items() if not self._masked(c)}
                if live:
                    kept[row] = live
            self._set_memstore(kept)
            self._tombstones.clear()
        self._store_files = [StoreFile(list(merged.values()))] if merged else []
        self.compactions += 1

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def get(self, row: bytes, qualifier: bytes) -> Optional[Cell]:
        """Point lookup, newest version wins; tombstoned cells are invisible."""
        quals = self._memstore.get(row)
        best = quals.get(qualifier) if quals is not None else None
        for sf in reversed(self._store_files):
            cell = sf.get(row, qualifier)
            if cell is not None and (best is None or cell.ts > best.ts):
                best = cell
        if best is not None and self._tombstones and self._masked(best):
            return None
        return best

    def scan(
        self,
        start_row: bytes = b"",
        end_row: bytes = b"",
        row_filter: Optional[RowFilter] = None,
    ) -> List[Cell]:
        """Range scan, sorted by ``(row, qualifier)``, newest version wins.

        Bounds are clamped to the region's own range.  ``row_filter``
        restricts the scan to the rows it accepts (see
        :meth:`StoreFile.scan`); it never sees a row outside the range.
        """
        lo = max(start_row, self.info.start_key)
        hi = end_row
        if self.info.end_key:
            hi = self.info.end_key if not hi else min(hi, self.info.end_key)
        # Each source is sorted and holds one cell per key, so a lone
        # non-empty source is the answer as it stands.
        sources = [run for sf in self._store_files if (run := sf.scan(lo, hi, row_filter))]
        if run := self._scan_memstore(lo, hi, row_filter):
            sources.append(run)
        if len(sources) > 1:
            cells = sorted(_merge_newest(sources).values(), key=_cell_key)
        else:
            cells = sources[0] if sources else []
        if self._tombstones:
            cells = [c for c in cells if not self._masked(c)]
        return cells

    def _scan_memstore(
        self, lo: bytes, hi: bytes, row_filter: Optional[RowFilter]
    ) -> List[Cell]:
        rows = self._rows
        if self._unindexed:
            # Two sorted runs back to back: timsort merges them in O(n).
            self._unindexed.sort()
            rows.extend(self._unindexed)
            rows.sort()
            self._unindexed = []
        first = bisect.bisect_left(rows, lo)
        last = bisect.bisect_left(rows, hi, first) if hi else len(rows)
        out: List[Cell] = []
        for r in range(first, last):
            row = rows[r]
            if row_filter is None or row_filter(row):
                quals = self._memstore[row]
                out.extend([quals[q] for q in sorted(quals)])
        return out

    # ------------------------------------------------------------------
    # split support
    # ------------------------------------------------------------------
    @property
    def memstore_size(self) -> int:
        return self._memstore_cells

    @property
    def store_file_count(self) -> int:
        return len(self._store_files)

    def cell_count(self) -> int:
        """Total live cells (deduplicated)."""
        return len(self.scan())

    def midpoint_key(self) -> Optional[bytes]:
        """A row key that splits the live data roughly in half.

        Returns ``None`` when the region holds fewer than two distinct
        rows (nothing to split).
        """
        cells = self.scan()
        rows = sorted({c.row for c in cells})
        if len(rows) < 2:
            return None
        return rows[len(rows) // 2]

    def split(self, split_key: bytes, new_region_ids: Tuple[int, int]) -> Tuple["Region", "Region"]:
        """Split into two daughter regions at ``split_key``.

        The parent must contain ``split_key`` strictly inside its range.
        Live cells are rewritten into the daughters' memstores (real
        HBase uses reference files; the observable result is the same).
        """
        if not self.info.contains(split_key) or split_key == self.info.start_key:
            raise ValueError("split key must fall strictly inside the region range")
        left_info = RegionInfo(self.info.table, self.info.start_key, split_key, new_region_ids[0])
        right_info = RegionInfo(self.info.table, split_key, self.info.end_key, new_region_ids[1])
        left = Region(left_info, self.flush_threshold, self.retain_data)
        right = Region(right_info, self.flush_threshold, self.retain_data)
        cells = self.scan()
        cut = bisect.bisect_left(cells, split_key, key=_cell_row)
        left.put_block(cells[:cut])
        right.put_block(cells[cut:])
        # Splitting must not inflate the write counters used for skew metrics.
        left.writes = 0
        right.writes = 0
        return left, right

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Region {self.info.name} memstore={self.memstore_size} "
            f"files={self.store_file_count}>"
        )
