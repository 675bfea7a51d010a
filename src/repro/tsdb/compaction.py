"""OpenTSDB row compaction.

OpenTSDB periodically rewrites the (up to 3600) individual columns of a
finished hourly row into a single wide column whose qualifier is the
concatenation of the per-point qualifiers and whose value concatenates
the 8-byte point values.  This shrinks HBase storage and speeds scans
— at the cost of extra read+write RPC traffic against the
RegionServers while ingesting, which is why the paper *disabled*
compaction during its throughput runs.

We implement the real byte format so the query engine can read mixed
compacted/uncompacted tables, and expose an offline compactor that
walks a table and rewrites completed rows.
"""

from __future__ import annotations

import struct
from array import array
from itertools import pairwise, repeat
from typing import Dict, Sequence, Tuple

from ..hbase.bytescodec import decode_f64, decode_u16
from ..hbase.master import HMaster
from ..hbase.region import CellBatch
from .blocks import TS_TYPECODE, VAL_TYPECODE, SeriesBlock

__all__ = [
    "COMPACTED_MARKER",
    "compact_row_cells",
    "decompact_columns",
    "decompact_block",
    "first_blob",
    "is_compacted",
    "RowCompactor",
]

# A real TSDB distinguishes compacted columns by qualifier length; we
# additionally prefix them so 2-byte single points can never be confused
# with a compacted blob.  The marker sorts after every point qualifier
# (offsets stay below 0x0E10), so a row's blobs end its sorted run.
COMPACTED_MARKER = b"\xF0"


def is_compacted(qualifier: bytes) -> bool:
    """True if the qualifier names a compacted row blob."""
    return qualifier[:1] == COMPACTED_MARKER


def first_blob(qualifiers: Sequence[bytes], start: int, stop: int) -> int:
    """Where the compacted blobs of the sorted row run ``[start, stop)``
    begin (``stop`` when it has none): they sort after its point cells."""
    while stop > start and is_compacted(qualifiers[stop - 1]):
        stop -= 1
    return stop


def compact_row_cells(cells: CellBatch) -> CellBatch:
    """Merge one row's cells into a single compacted cell (a one-cell batch).

    ``cells`` must share a row key and hold 2-byte qualifiers or earlier
    blobs (re-compaction explodes and merges them).  Points are ordered
    by offset; duplicate offsets keep the newest write, the later cell
    on a tie.  The blob carries the newest write timestamp it merged.
    """
    if not cells.rows:
        raise ValueError("cannot compact an empty row")
    row = cells.rows[0]
    if cells.rows.count(row) != len(cells.rows):
        raise ValueError("cells from different rows")
    newest: Dict[bytes, Tuple[bytes, float]] = {}  # 2-byte qualifier -> (value, ts)
    for qualifier, value, ts in zip(cells.qualifiers, cells.values, cells.ts):
        if is_compacted(qualifier):
            body = qualifier[1:]
            points = zip(
                (body[i : i + 2] for i in range(0, len(body), 2)),
                (value[i : i + 8] for i in range(0, len(value), 8)),
                repeat(ts),
            )
        elif len(qualifier) != 2:
            raise ValueError(f"unexpected qualifier length {len(qualifier)}")
        else:
            points = ((qualifier, value, ts),)
        for point_qualifier, point_value, point_ts in points:
            held = newest.get(point_qualifier)
            if held is None or point_ts >= held[1]:
                newest[point_qualifier] = (point_value, point_ts)
    # Big-endian offsets: byte order is offset order.
    ordered = sorted(newest)
    return CellBatch(
        [row],
        [COMPACTED_MARKER + b"".join(ordered)],
        [b"".join(newest[q][0] for q in ordered)],
        array("d", (max(ts for _, ts in newest.values()),)),
    )


def decompact_columns(qualifier: bytes, value: bytes) -> Tuple[Tuple[int, ...], Tuple[float, ...]]:
    """Vectorized decompact: a cell's ``(offsets, values)`` parallel columns.

    One ``struct.unpack`` call per column instead of one decode per
    point — the block read path's inner loop.  Works on both compacted
    blobs and single-point cells, so readers can treat every cell
    uniformly.
    """
    if is_compacted(qualifier):
        body = qualifier[1:]
        n = len(body) // 2
        offsets = struct.unpack(f">{n}H", body)
        values = struct.unpack(f">{n}d", value[: 8 * n])
        return offsets, values
    return (decode_u16(qualifier),), (decode_f64(value),)


def decompact_block(
    qualifier: bytes,
    value: bytes,
    metric: str,
    tags: Tuple[Tuple[str, str], ...],
    base_time: int,
) -> SeriesBlock:
    """Expand a cell straight into a :class:`SeriesBlock`.

    Compacted blobs store offsets sorted and de-duplicated, so the
    resulting columns are already monotone and adopted without copies.
    """
    offsets, values = decompact_columns(qualifier, value)
    ts = array(TS_TYPECODE, [base_time + o for o in offsets])
    vals = array(VAL_TYPECODE, values)
    return SeriesBlock(metric, tags, ts, vals, _trusted=True)


class RowCompactor:
    """Offline compactor: rewrite completed rows of a TSDB table.

    Walks the table via the master's administrative scan, whose batch
    arrives in row runs, and for every row with more than one point
    cell writes a single compacted cell back through the
    RegionServers' one writer, followers included (the individual cells
    become shadowed by the newer compacted write at read time — the
    query engine prefers the compacted column when present, as
    OpenTSDB's does).
    """

    def __init__(self, master: HMaster, table: str, write_ts=None, lifecycle=None) -> None:
        self.master = master
        self.table = table
        # The deployment's logical write clock: the rewritten blob must
        # carry a write-ts strictly greater than every merged cell so it
        # shadows them (and only them) at read time.  Fallback: max+1,
        # which is correct when no concurrent writers share the table.
        self._write_ts = write_ts
        # Optional LifecycleManager: compaction-integrated expiry.
        self._lifecycle = lifecycle
        self.rows_compacted = 0
        self.cells_merged = 0

    def run(self) -> int:
        """Compact every eligible row of an assigned region; returns the
        rows rewritten so far.

        With a lifecycle tier attached, a full maintenance pass runs
        first — rollups advance, TTL-expired row-hours are tombstoned
        and physically purged — so expired rows are already gone from
        the scan below and are never rewritten (or re-read) here.
        """
        if self._lifecycle is not None:
            self._lifecycle.on_compaction()
        cells = self.master.direct_scan(self.table)
        qualifiers, ts = cells.qualifiers, cells.ts
        blobs, merged = CellBatch(), {}
        for i, j in pairwise(cells.run_starts()):
            blobs_at = first_blob(qualifiers, i, j)
            n_points, n_blobs = blobs_at - i, j - blobs_at
            if not n_blobs and n_points < 2:
                continue  # nothing worth merging
            if n_blobs == 1 and (not n_points or max(ts[i:blobs_at]) <= ts[blobs_at]):
                continue  # fully compacted; a second run is a no-op
            blob = compact_row_cells(cells.slice(i, j))
            bumped = self._write_ts() if self._write_ts is not None else blob.ts[0] + 1.0
            blobs.append(blob.rows[0], blob.qualifiers[0], blob.values[0], bumped)
            merged[blob.rows[0]] = n_points
        if not blobs.rows:
            return self.rows_compacted
        routed = self.master.route(self.table, blobs)
        routed.pop(None, None)  # rows of an unassigned region wait for the next pass
        self.master.write(routed)  # type: ignore[arg-type]
        for shares in routed.values():
            for share in shares.values():
                self.rows_compacted += len(share.rows)
                self.cells_merged += sum(merged[row] for row in share.rows)
        return self.rows_compacted
