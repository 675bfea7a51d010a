"""Regions: contiguous key-range shards backed by a mini-LSM tree.

A region owns the half-open row-key interval ``[start_key, end_key)``
(empty bytes meaning unbounded on either side, as in HBase).  Writes
land in an in-memory *memstore*; when the memstore exceeds its flush
threshold it is frozen into an immutable, sorted :class:`StoreFile`.
Reads merge the memstore with all store files, newest first.  Minor
compaction merges store files back into one.

The store holds *columns, not cells* (DESIGN §20).  What crosses its
boundary in either direction is a :class:`CellBatch` — four parallel
columns ``(rows, qualifiers, values, ts)`` — and what it keeps is the
same thing per row: the memstore is ``row -> (qualifiers, values, ts)``
beside a sorted list of its rows, a store file is one sorted batch
beside its distinct rows and their offsets.  Nothing is allocated per
sample.  A row's memstore columns are sorted by qualifier and hold one
entry per qualifier *at write time* (newest-wins is resolved when the
cell arrives), so a scan copies them out as they stand.  A scan bisects
to the rows of its range, so it costs what it returns, and a row filter
(the TSDB's tag push-down) is asked once per row and skips a rejected
row's cells without touching them.  A :class:`Cell` exists only where
one cell is the natural unit (:meth:`Region.get`, :meth:`Region.put`,
iterating a batch).

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
from array import array
from dataclasses import dataclass
from itertools import chain, compress, count, islice, pairwise, repeat
from operator import itemgetter, lt, ne
from typing import Callable, Dict, Generic, Hashable, Iterable, Iterator, List, Optional
from typing import Sequence, Tuple, TypeVar

from .wal import WriteAheadLog

__all__ = [
    "Cell",
    "CellBatch",
    "EMPTY_BATCH",
    "StoreFile",
    "Region",
    "RegionInfo",
    "RouteTable",
    "RowFilter",
    "merge_newest",
]

#: Scan push-down: ``row -> keep?``, evaluated once per row.
RowFilter = Callable[[bytes], bool]

Owner = TypeVar("Owner", bound=Hashable)

#: One memstore row: parallel ``(qualifiers, values, ts)``, sorted by
#: qualifier, one entry per qualifier.
_RowColumns = Tuple[List[bytes], List[bytes], array]


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


class CellBatch:
    """Cells as four parallel columns — the one shape the store trades in.

    ``rows``, ``qualifiers`` and ``values`` are lists of ``bytes``,
    ``ts`` an ``array('d')`` of write timestamps; ``len()`` is the cell
    count.  Nothing in a batch is allocated per cell that the cyclic
    collector tracks.  *Runs* are the stretches of equal row
    (:meth:`run_starts`); writers deliver long runs (a series block is
    one run per row hour) or single-cell runs (a tick-major point
    batch), and every consumer works per run.

    A batch is built once (the constructor adopts the columns it is
    given; :meth:`append` / :meth:`extend` grow one under construction)
    and read-only from then on: the store copies out of it and never
    keeps its lists, so one batch may sit in the WAL, a replication
    queue and a retry closure at once.  Scan results are additionally
    sorted by ``(row, qualifier)`` with one cell per key.  Iterating
    yields :class:`Cell` objects — for oracles and tests, never on a
    hot path.
    """

    __slots__ = ("rows", "qualifiers", "values", "ts", "_starts")

    def __init__(
        self,
        rows: Optional[Sequence[bytes]] = None,
        qualifiers: Optional[Sequence[bytes]] = None,
        values: Optional[Sequence[bytes]] = None,
        ts: Optional[Sequence[float]] = None,
    ) -> None:
        self.rows = [] if rows is None else rows
        self.qualifiers = [] if qualifiers is None else qualifiers
        self.values = [] if values is None else values
        self.ts = array("d") if ts is None else ts
        self._starts: Optional[List[int]] = None

    @classmethod
    def from_cells(cls, cells: Iterable[Cell]) -> "CellBatch":
        """The one way a :class:`Cell` sequence enters the store."""
        cells = list(cells)
        return cls(
            [c.row for c in cells],
            [c.qualifier for c in cells],
            [c.value for c in cells],
            array("d", [c.ts for c in cells]),
        )

    @classmethod
    def concat(cls, batches: Iterable["CellBatch"]) -> "CellBatch":
        """The batches' cells back to back (a lone batch as it stands)."""
        parts = [b for b in batches if b.rows]
        if len(parts) == 1:
            return parts[0]
        if not parts:
            return EMPTY_BATCH
        ts = array("d")
        for part in parts:
            ts.extend(part.ts)
        return cls(
            list(chain.from_iterable([p.rows for p in parts])),
            list(chain.from_iterable([p.qualifiers for p in parts])),
            list(chain.from_iterable([p.values for p in parts])),
            ts,
        )

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Cell]:
        return map(Cell, self.rows, self.qualifiers, self.values, self.ts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CellBatch):
            return NotImplemented
        return list(self) == list(other)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<CellBatch {len(self.rows)} cells>"

    # -- construction --------------------------------------------------
    def append(self, row: bytes, qualifier: bytes, value: bytes, ts: float) -> None:
        self._starts = None
        self.rows.append(row)
        self.qualifiers.append(qualifier)
        self.values.append(value)
        self.ts.append(ts)

    def extend(self, other: "CellBatch") -> None:
        self._starts = None
        self.rows.extend(other.rows)
        self.qualifiers.extend(other.qualifiers)
        self.values.extend(other.values)
        self.ts.extend(other.ts)

    # -- reading -------------------------------------------------------
    def slice(self, start: int, stop: int) -> "CellBatch":
        """Cells ``[start, stop)`` as a new batch."""
        return CellBatch(
            self.rows[start:stop],
            self.qualifiers[start:stop],
            self.values[start:stop],
            self.ts[start:stop],
        )

    def take(self, indices: Sequence[int]) -> "CellBatch":
        """The cells at ``indices`` (non-empty), in that order."""
        if len(indices) == 1:
            return self.slice(indices[0], indices[0] + 1)
        pick = itemgetter(*indices)
        return CellBatch(
            list(pick(self.rows)),
            list(pick(self.qualifiers)),
            list(pick(self.values)),
            array("d", pick(self.ts)),
        )

    def compress(self, keep: Sequence[bool]) -> "CellBatch":
        """The cells whose ``keep`` flag is set."""
        return CellBatch(
            list(compress(self.rows, keep)),
            list(compress(self.qualifiers, keep)),
            list(compress(self.values, keep)),
            array("d", compress(self.ts, keep)),
        )

    def run_starts(self) -> List[int]:
        """Where each run of equal row starts, then ``len()`` as the end
        sentinel — so ``pairwise`` of it walks the runs.  Found in C and
        kept until the batch grows (read-only to callers).  A writer
        that built the batch run by run sets ``_starts`` itself, as
        ``TSDaemon.encode_block`` and :meth:`partition` do."""
        starts = self._starts
        if starts is None:
            rows = self.rows
            starts = [0]
            if rows:
                starts.extend(compress(count(1), map(ne, rows, islice(rows, 1, None))))
                starts.append(len(rows))
            self._starts = starts
        return starts

    def partition(
        self, owners_of: Callable[[Sequence[bytes]], List[Owner]]
    ) -> Dict[Owner, "CellBatch"]:
        """Split a non-empty batch by owner, cell order kept within each.

        The one routing loop: ``owners_of`` is asked once, with the row
        of every run (row change), and answers one owner each — a
        :meth:`RouteTable.owners`, typically.  Each owner's cells are
        gathered once, owners come out in first-appearance order, and a
        batch with a single owner is returned as it stands.  A share
        gathered from long runs keeps them as its :meth:`run_starts`.
        """
        rows = self.rows
        starts = self.run_starts()
        owners = owners_of(rows if len(starts) > len(rows) else [rows[i] for i in starts[:-1]])
        if owners.count(owners[0]) == len(owners):
            return {owners[0]: self}
        if len(owners) == len(rows):
            # Every run is one cell (a tick-major batch): gather by index.
            members: Dict[Owner, List[int]] = {}
            for i, owner in enumerate(owners):
                members.setdefault(owner, []).append(i)
            return {owner: self.take(indices) for owner, indices in members.items()}
        # Long runs: each owner's columns are its runs' slices, chained.
        cuts: Dict[Owner, List[slice]] = {}
        for owner, i, j in zip(owners, starts, islice(starts, 1, None)):
            cuts.setdefault(owner, []).append(slice(i, j))
        columns = (self.rows, self.qualifiers, self.values)
        shares = {}
        for owner, runs in cuts.items():
            share = shares[owner] = CellBatch(
                *[list(chain.from_iterable(map(col.__getitem__, runs))) for col in columns],
                array("d", chain.from_iterable(map(self.ts.__getitem__, runs))),
            )
            share._starts = _gathered_starts(rows, runs)
        return shares


def _gathered_starts(rows: Sequence[bytes], runs: Sequence[slice]) -> List[int]:
    """The :meth:`CellBatch.run_starts` of ``runs`` of ``rows`` chained:
    two gathered runs that meet on one row are one run."""
    starts: List[int] = []
    row, end = None, 0
    for run in runs:
        if rows[run.start] != row:
            row = rows[run.start]
            starts.append(end)
        end += run.stop - run.start
    starts.append(end)
    return starts


#: What a scan that found nothing returns: one shared batch, immutable
#: (its columns are tuples), so an empty scan allocates nothing.
EMPTY_BATCH = CellBatch((), (), (), ())


def merge_newest(sources: Sequence[CellBatch]) -> CellBatch:
    """One cell per key over sorted, one-per-key batches given oldest first.

    Newer or equal ``ts`` wins, the later source on a tie: after a
    stable sort by ``(row, qualifier, ts)`` that is the last cell of
    each key's stretch.  The sort and the pick run in C; a lone
    non-empty source is returned as it stands.
    """
    sources = [source for source in sources if source.rows]
    if len(sources) < 2:
        return sources[0] if sources else EMPTY_BATCH
    merged = CellBatch.concat(sources)
    versions = list(zip(merged.rows, merged.qualifiers, merged.ts))
    pick = itemgetter(*sorted(range(len(versions)), key=versions.__getitem__))
    rows, qualifiers = pick(merged.rows), pick(merged.qualifiers)
    keys = list(zip(rows, qualifiers))
    keep = list(map(ne, keys, islice(keys, 1, None)))
    keep.append(True)
    return CellBatch(
        list(compress(rows, keep)),
        list(compress(qualifiers, keep)),
        list(compress(pick(merged.values), keep)),
        array("d", compress(pick(merged.ts), keep)),
    )


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


class RouteTable(Generic[Owner]):
    """Row -> owner over disjoint regions, by a row's first byte.

    Built from ``(RegionInfo, owner)`` pairs wherever a layout changes
    (a table created or split, a region opened on or closed by a
    server).  Entry ``b`` of its 256 is the owner of the one region
    covering every row whose first byte is ``b`` — all of ``[b, b+1)``
    — or ``None`` where no single region does: a split inside that
    byte, or no region of the set touching it.  Such rows, and the
    empty row, are bisected (:meth:`locate`).  Regions that start on
    first-byte boundaries — a salted table's buckets — never need it.
    """

    __slots__ = ("starts", "_regions", "_entries")

    def __init__(self, regions: Iterable[Tuple[RegionInfo, Owner]]) -> None:
        self._regions = sorted(regions, key=lambda pair: pair[0].start_key)
        #: Region start keys, ascending.
        self.starts: List[bytes] = [info.start_key for info, _ in self._regions]
        entries: List[Optional[Owner]] = [None] * 256
        for info, owner in self._regions:
            start, end = info.start_key, info.end_key
            # First byte whose every row is >= start, first byte past end.
            lo = start[0] + (len(start) > 1) if start else 0
            hi = end[0] if end else 256
            if lo < hi:
                entries[lo:hi] = [owner] * (hi - lo)
        self._entries = entries

    def locate(self, row: bytes) -> Optional[Owner]:
        """Owner of the region containing ``row``; ``None`` if none does."""
        i = bisect.bisect_right(self.starts, row) - 1
        if i >= 0:
            info, owner = self._regions[i]
            if info.contains(row):
                return owner
        return None

    def owners(self, rows: Sequence[bytes]) -> List[Optional[Owner]]:
        """:meth:`locate` of every row: one table index per row, and a
        bisect only for rows the table leaves open."""
        entries = self._entries
        owners = [entries[row[0]] if row else None for row in rows]
        if None in owners:
            locate = self.locate
            owners = [
                locate(row) if owner is None else owner for row, owner in zip(rows, owners)
            ]
        return owners


class StoreFile:
    """Immutable sorted run of cells (an HFile stand-in).

    One batch sorted by ``(row, qualifier)`` with one cell per key (a
    flush hands over the memstore's columns, which already are) beside
    an index of the distinct rows and where each starts; point lookups
    and scans bisect the row index.
    """

    def __init__(self, batch: CellBatch) -> None:
        self.batch = batch
        # Offset of each row's first cell, plus the end sentinel.
        self._starts = batch.run_starts()
        self._rows: List[bytes] = [batch.rows[i] for i in self._starts[:-1]]

    def get(self, row: bytes, qualifier: bytes) -> Optional[Cell]:
        r = bisect.bisect_left(self._rows, row)
        if r == len(self._rows) or self._rows[r] != row:
            return None
        batch, end = self.batch, self._starts[r + 1]
        i = bisect.bisect_left(batch.qualifiers, qualifier, self._starts[r], end)
        if i < end and batch.qualifiers[i] == qualifier:
            return Cell(row, qualifier, batch.values[i], batch.ts[i])
        return None

    def scan(
        self, start_row: bytes, end_row: bytes, row_filter: Optional[RowFilter] = None
    ) -> CellBatch:
        """Cells with ``start_row <= row < end_row`` (``b''`` end = unbounded).

        With a ``row_filter``, only rows it accepts; it is called once
        per row in range, and a rejected row's cells are not visited.
        A scan covering the whole file returns its batch as it stands.
        """
        rows, starts = self._rows, self._starts
        first = bisect.bisect_left(rows, start_row)
        last = bisect.bisect_left(rows, end_row, first) if end_row else len(rows)
        if first == last:
            return EMPTY_BATCH
        if row_filter is None:
            if last - first == len(rows):
                return self.batch
            return self.batch.slice(starts[first], starts[last])
        return CellBatch.concat(
            [
                self.batch.slice(starts[r], starts[r + 1])
                for r in range(first, last)
                if row_filter(rows[r])
            ]
        )


def _place(columns: _RowColumns, qualifier: bytes, value: bytes, ts: float) -> int:
    """Put one late or duplicate cell where it belongs in a row's
    columns, by bisection; returns how many entries that added (0 / 1)."""
    qualifiers, values, stamps = columns
    at = bisect.bisect_left(qualifiers, qualifier)
    if at < len(qualifiers) and qualifiers[at] == qualifier:
        if ts >= stamps[at]:
            values[at] = value
            stamps[at] = ts
        return 0
    qualifiers.insert(at, qualifier)
    values.insert(at, value)
    stamps.insert(at, ts)
    return 1


def _merge_run(
    columns: _RowColumns, qualifiers: Sequence[bytes], values: Sequence[bytes], ts: Sequence[float]
) -> int:
    """Fold a run that is itself unordered or self-duplicating into a
    row's columns through a dict; returns how many entries that added."""
    held = dict(zip(columns[0], zip(columns[1], columns[2])))
    before = len(held)
    for qualifier, value, stamp in zip(qualifiers, values, ts):
        existing = held.get(qualifier)
        if existing is None or stamp >= existing[1]:
            held[qualifier] = (value, stamp)
    order = sorted(held)
    columns[0][:] = order
    columns[1][:] = [held[q][0] for q in order]
    columns[2][:] = array("d", [held[q][1] for q in order])
    return len(held) - before


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

    ``wal`` is the region's own log of the cells written to it since
    its last flush: its RegionServer appends there before a share
    lands, and a crash is recovered by replaying it.
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
        self._memstore: Dict[bytes, _RowColumns] = {}
        self._memstore_cells = 0
        # Sorted row index of the memstore; rows put since the last scan
        # wait in ``_unindexed`` so the write path does no index work.
        self._rows: List[bytes] = []
        self._unindexed: List[bytes] = []
        self._store_files: List[StoreFile] = []
        self._tombstones: List[Tuple[bytes, bytes, float]] = []
        self.wal = WriteAheadLog(info.name)
        self.writes = 0
        self.flushes = 0
        self.compactions = 0
        self.deletes = 0

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def put(self, cell: Cell) -> None:
        """Insert/overwrite one cell.  Raises if the row is out of range.

        One-cell convenience form of :meth:`put_block` (the single
        implementation).
        """
        self.put_block(CellBatch.from_cells((cell,)))

    def put_block(self, batch: CellBatch) -> None:
        """Insert a batch of cells in one call (the one write path).

        Semantically a newest-wins upsert per cell in batch order, but
        paid per *run*: the range check runs once per run before
        anything is written, counting-only mode is one counter bump,
        and an in-order run — strictly increasing qualifiers, all past
        the row's last — extends the row's columns in three calls.  A
        late or duplicate cell is placed by bisection; only a run that
        is itself unordered or self-duplicating takes the dict merge.
        The flush trigger is evaluated once, on the de-duplicated count.
        """
        rows = batch.rows
        if not rows:
            return
        starts = batch.run_starts()
        start_key, end_key = self.info.start_key, self.info.end_key
        for i in starts[:-1]:
            row = rows[i]
            if row < start_key or (end_key and row >= end_key):
                raise KeyError(
                    f"row {row.hex()} outside region range "
                    f"[{start_key.hex()}, {end_key.hex()})"
                )
        if not self.retain_data:
            # Counting-only mode for pure-throughput ingestion studies:
            # the writes are accounted for but the bytes are discarded, so
            # multi-million-sample simulations stay within memory.
            self.writes += len(rows)
            return
        memstore, unindexed = self._memstore, self._unindexed
        qualifiers, values, ts = batch.qualifiers, batch.values, batch.ts
        added = 0
        if len(starts) - 1 == len(rows):
            # Every run is one cell (a tick-major point batch): no slices.
            for row, qualifier, value, stamp in zip(rows, qualifiers, values, ts):
                columns = memstore.get(row)
                if columns is None:
                    memstore[row] = ([qualifier], [value], array("d", (stamp,)))
                    unindexed.append(row)
                    added += 1
                elif qualifier > columns[0][-1]:
                    columns[0].append(qualifier)
                    columns[1].append(value)
                    columns[2].append(stamp)
                    added += 1
                else:
                    added += _place(columns, qualifier, value, stamp)
        else:
            for i, j in pairwise(starts):
                row = rows[i]
                run = qualifiers[i:j]
                in_order = j - i == 1 or all(map(lt, run, islice(run, 1, None)))
                columns = memstore.get(row)
                if columns is None:
                    unindexed.append(row)
                    if in_order:
                        memstore[row] = (run, values[i:j], ts[i:j])
                        added += j - i
                        continue
                    columns = memstore[row] = ([], [], array("d"))
                elif in_order and run[0] > columns[0][-1]:
                    columns[0].extend(run)
                    columns[1].extend(values[i:j])
                    columns[2].extend(ts[i:j])
                    added += j - i
                    continue
                if in_order:
                    for k in range(i, j):
                        added += _place(columns, qualifiers[k], values[k], ts[k])
                else:
                    added += _merge_run(columns, run, values[i:j], ts[i:j])
        self._memstore_cells += added
        self.writes += len(rows)
        if self._memstore_cells >= self.flush_threshold:
            self.flush()

    def flush(self) -> None:
        """Freeze the memstore into a new store file; the log empties."""
        self.wal.truncate()
        if not self._memstore:
            return
        self._store_files.append(StoreFile(self._scan_memstore(b"", b"", None)))
        self._set_memstore({})
        self.flushes += 1

    def _set_memstore(self, memstore: Dict[bytes, _RowColumns]) -> None:
        self._memstore = memstore
        self._memstore_cells = sum(len(columns[0]) for columns in memstore.values())
        self._rows = []
        self._unindexed = list(memstore)

    def discard_memstore(self) -> int:
        """Drop unflushed data (crash model).  Returns the number of cells lost.

        Store files survive a RegionServer crash (they live on shared
        storage); the memstore does not.  The master replays the
        region's log after calling this, restoring acknowledged writes.
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
        ts = float(ts)  # float.__ge__ below; an int's would not compare
        doomed = sum(map(ts.__ge__, self.scan(start_row, end_row).ts))
        self._tombstones.append((start_row, end_row, ts))
        self.deletes += 1
        return doomed

    def _cover(self, row: bytes) -> Optional[float]:
        """The newest tombstone over ``row`` (None when none covers it):
        the row's cells written at or before it are masked."""
        return max(
            (ts for lo, hi, ts in self._tombstones if row >= lo and (not hi or row < hi)),
            default=None,
        )

    def _live(self, row: bytes, stamps: Sequence[float]) -> Iterable[bool]:
        """Per cell of one row: does it survive the tombstones?"""
        cover = self._cover(row)
        if cover is None:
            return repeat(True, len(stamps))
        return map(cover.__lt__, stamps)

    def _unmasked(self, batch: CellBatch) -> CellBatch:
        """``batch`` without its tombstoned cells; asked once per run."""
        rows, ts = batch.rows, batch.ts
        keep: List[bool] = []
        for i, j in pairwise(batch.run_starts()):
            keep.extend(self._live(rows[i], ts[i:j]))
        if all(keep):
            return batch
        return batch.compress(keep) if any(keep) else EMPTY_BATCH

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
        merged = merge_newest([sf.batch for sf in self._store_files])
        if self._tombstones:
            merged = self._unmasked(merged)
            kept: Dict[bytes, _RowColumns] = {}
            for row, (qualifiers, values, ts) in self._memstore.items():
                keep = list(self._live(row, ts))
                if all(keep):
                    kept[row] = (qualifiers, values, ts)
                elif any(keep):
                    kept[row] = (
                        list(compress(qualifiers, keep)),
                        list(compress(values, keep)),
                        array("d", compress(ts, keep)),
                    )
            self._set_memstore(kept)
            self._tombstones.clear()
        self._store_files = [StoreFile(merged)] if merged.rows else []
        self.compactions += 1

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def get(self, row: bytes, qualifier: bytes) -> Optional[Cell]:
        """Point lookup, newest version wins; tombstoned cells are invisible."""
        best: Optional[Cell] = None
        columns = self._memstore.get(row)
        if columns is not None:
            at = bisect.bisect_left(columns[0], qualifier)
            if at < len(columns[0]) and columns[0][at] == qualifier:
                best = Cell(row, qualifier, columns[1][at], columns[2][at])
        for sf in reversed(self._store_files):
            cell = sf.get(row, qualifier)
            if cell is not None and (best is None or cell.ts > best.ts):
                best = cell
        if best is not None and self._tombstones:
            cover = self._cover(row)
            if cover is not None and best.ts <= cover:
                return None
        return best

    def scan(
        self,
        start_row: bytes = b"",
        end_row: bytes = b"",
        row_filter: Optional[RowFilter] = None,
    ) -> CellBatch:
        """Range scan, sorted by ``(row, qualifier)``, newest version wins.

        Bounds are clamped to the region's own range.  ``row_filter``
        restricts the scan to the rows it accepts (see
        :meth:`StoreFile.scan`); it never sees a row outside the range.
        A scan that finds nothing returns :data:`EMPTY_BATCH`, and a
        region holding nothing returns it before any bound is computed:
        most regions a salted query fans out to are empty.
        """
        if not self._memstore and not self._store_files:
            return EMPTY_BATCH
        lo = max(start_row, self.info.start_key)
        hi = end_row
        if self.info.end_key:
            hi = self.info.end_key if not hi else min(hi, self.info.end_key)
        # Each source is sorted and holds one cell per key, so a lone
        # non-empty source is the answer as it stands.
        sources = [run for sf in self._store_files if (run := sf.scan(lo, hi, row_filter)).rows]
        if self._memstore and (run := self._scan_memstore(lo, hi, row_filter)).rows:
            sources.append(run)
        if not sources:
            return EMPTY_BATCH
        batch = sources[0] if len(sources) == 1 else merge_newest(sources)
        if self._tombstones:
            batch = self._unmasked(batch)
        return batch

    def _scan_memstore(self, lo: bytes, hi: bytes, row_filter: Optional[RowFilter]) -> CellBatch:
        rows = self._rows
        if self._unindexed:
            # Two sorted runs back to back: timsort merges them in O(n).
            self._unindexed.sort()
            rows.extend(self._unindexed)
            rows.sort()
            self._unindexed = []
        first = bisect.bisect_left(rows, lo)
        last = bisect.bisect_left(rows, hi, first) if hi else len(rows)
        if first == last:
            return EMPTY_BATCH
        memstore = self._memstore
        out = CellBatch()
        out_rows, out_qualifiers, out_values, out_ts = out.rows, out.qualifiers, out.values, out.ts
        for row in islice(rows, first, last):
            if row_filter is None or row_filter(row):
                qualifiers, values, ts = memstore[row]
                out_rows.extend(repeat(row, len(qualifiers)))
                out_qualifiers.extend(qualifiers)
                out_values.extend(values)
                out_ts.extend(ts)
        return out if out_rows else EMPTY_BATCH

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
        return len(self.scan().rows)

    def midpoint_key(self) -> Optional[bytes]:
        """A row key that splits the live data roughly in half.

        Returns ``None`` when the region holds fewer than two distinct
        rows (nothing to split).
        """
        batch = self.scan()
        starts = batch.run_starts()
        if len(starts) < 3:
            return None
        return batch.rows[starts[(len(starts) - 1) // 2]]

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
        batch = self.scan()
        cut = bisect.bisect_left(batch.rows, split_key)
        left.put_block(batch.slice(0, cut))
        right.put_block(batch.slice(cut, len(batch.rows)))
        # Splitting must not inflate the write counters used for skew metrics.
        left.writes = 0
        right.writes = 0
        return left, right

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Region {self.info.name} memstore={self.memstore_size} "
            f"files={self.store_file_count}>"
        )
