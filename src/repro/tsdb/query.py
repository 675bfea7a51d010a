"""TSDB query engine: scan, decode, filter, group, aggregate.

Answers OpenTSDB-style queries against the simulated HBase tables:

1. plan row-key scan ranges for the metric and time window (one range
   per salt bucket — the read-side cost of salting);
2. scan, decode row keys, and expand compacted columns;
3. filter by tag predicates — pushed into the scan as a row filter, so
   a series the query rejects costs one look at each of its row keys and
   none at its cells — and group series by tag keys;
4. within each group, aggregate / downsample / rate-convert.

Queries read through the master's administrative scan: the
visualization and analysis paths study *data* semantics, not RPC
timing (which E1/E2/E6/E7 cover on the write path).  A scan hands back
a sorted :class:`~repro.hbase.region.CellBatch` — columns, not cells —
and the assembler (:class:`_BlockScanState`) gathers a whole batch at
once into columns shared by every series the query reads, resolves
newest-wins for all of them with one sort, and cuts one
:class:`~repro.tsdb.aggregation.Series` per series from the result.
Outside a row that holds a compacted blob nothing is interpreted per
cell; per row key the assembler does one memo lookup, per series one
tag-memo lookup and one ``Series``.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import compress, pairwise
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..lifecycle.manager import LifecycleManager

from ..hbase.bytescodec import decode_u32
from ..hbase.master import HMaster, RegionUnavailableError
from ..hbase.region import CellBatch, RowFilter
from .aggregation import AGGREGATORS, Series, aggregate, downsample, rate
from .blocks import TS_TYPECODE, VAL_TYPECODE, SeriesBlock
from .compaction import COMPACTED_MARKER, decompact_columns, first_blob, is_compacted
from .rowkey import _UID_WIDTH, RowKeyCodec
from .tsd import DATA_TABLE
from .uid import UniqueIdRegistry, UnknownUidError

__all__ = ["ConsistentResult", "TsdbQuery", "QueryEngine", "group_and_aggregate"]

WILDCARD = "*"


def group_and_aggregate(query: "TsdbQuery", raw: List[Series]) -> List[Series]:
    """Apply a query's group-by/aggregate/downsample/rate stages to raw series.

    Shared by the offline engine and the RPC-path executor so the two
    read paths cannot diverge semantically.
    """
    if not raw:
        return []
    groups: Dict[Tuple[Tuple[str, str], ...], List[Series]] = {}
    if not query.group_by:
        groups[()] = raw
    else:
        for series in raw:
            tags = series.tag_dict
            key = tuple((k, tags.get(k, "")) for k in query.group_by)
            groups.setdefault(key, []).append(series)
    out: List[Series] = []
    for key in sorted(groups):
        combined = aggregate(groups[key], query.aggregator)
        if query.downsample_window is not None:
            combined = downsample(
                combined, query.downsample_window, query.downsample_aggregator
            )
        if query.rate:
            combined = rate(combined)
        out.append(combined)
    return out


class _BlockScanState:
    """Columnar accumulator shared across the salt-bucket scans of one query.

    The one assembler behind every executor.  A scan hands it a sorted
    :class:`~repro.hbase.region.CellBatch`, and it gathers the whole
    batch's point cells at once: one unpack of the joined 2-byte
    qualifiers and one of the joined values, each cell's row-hour base
    and series slot spread over its row run by ``repeat``, and the query
    window cut by one mask.  Only a row that holds a compacted blob is
    walked on its own.  Each batch lands as one chunk of four parallel
    columns ``(slot, timestamp, value, write_ts)``; :meth:`to_series`
    resolves newest-wins duplicates for every series at once with one
    stable lexsort and slices the result per series.

    A row key is decoded once per query (``_row_cache``) and a series'
    tags once per deployment (:meth:`UniqueIdRegistry.series_tags`);
    only the tag-filter decision is made per query.

    Newest-wins is the per-cell dict rule "newer or equal write-ts
    wins, later arrival breaks ties", which is exactly "last element of
    each (series, timestamp) run after a stable sort by (series,
    timestamp, write_ts, arrival)".
    """

    __slots__ = ("codec", "uids", "query", "tags", "_base_at", "_slots", "_row_cache", "_chunks")

    def __init__(self, codec: RowKeyCodec, uids: UniqueIdRegistry, query: "TsdbQuery") -> None:
        self.codec = codec
        self.uids = uids
        self.query = query
        #: slot -> sorted tag tuple of each series the query matched
        self.tags: List[Tuple[Tuple[str, str], ...]] = []
        # where a row key's 4-byte base time starts: after salt and metric
        self._base_at = (1 if codec.salted else 0) + _UID_WIDTH
        # series_id -> slot, or -1 when the query's tag filter rejects it
        self._slots: Dict[bytes, int] = {}
        # row bytes -> (slot, base_time); slot -1 when filtered out
        self._row_cache: Dict[bytes, Tuple[int, int]] = {}  # repro-lint: ignore[unbounded-cache] -- per-query scan state; dies with the query
        # (slot, ts, value, write_ts) columns, one group per ingested piece
        self._chunks: List[Tuple[np.ndarray, ...]] = []

    # ------------------------------------------------------------------
    # ingest
    # ------------------------------------------------------------------
    def ingest_scan(self, cells: CellBatch) -> None:
        """Fold a sorted batch — a whole plan's, or one range's reply on
        the RPC path — into the columns, whole."""
        rows, qualifiers, values = cells.rows, cells.qualifiers, cells.values
        if not rows:
            return
        starts = cells.run_starts()
        get, resolve = self._row_cache.get, self._resolve_row
        runs = np.array(
            [get(row) or resolve(row) for row in map(rows.__getitem__, starts[:-1])],
            dtype=np.int64,
        ).reshape(-1, 2)
        slot, base = runs[:, 0], runs[:, 1]
        lengths = np.diff(starts)
        # Point cells per run, ahead of any blobs (they sort last in
        # their row: a run holds one iff it ends in one).
        points = np.where(slot >= 0, lengths, 0)
        blobbed = np.fromiter(
            map(is_compacted, map(qualifiers.__getitem__, [j - 1 for j in starts[1:]])),
            dtype=bool,
            count=len(slot),
        )
        walked = np.flatnonzero(points.astype(bool) & blobbed).tolist()
        if walked:
            points[walked] = self._ingest_blobs(cells, starts, walked, slot, base)
        if not points.any():
            return
        stamps = np.array(cells.ts, dtype=np.float64)
        if not np.array_equal(points, lengths):
            first = np.repeat(np.asarray(starts[:-1]), lengths)
            in_runs = np.arange(len(rows)) - first < np.repeat(points, lengths)
            keep = in_runs.tolist()
            qualifiers = list(compress(qualifiers, keep))
            values = list(compress(values, keep))
            stamps = stamps[in_runs]
        self._add_window(
            np.repeat(slot, points),
            np.repeat(base, points) + np.frombuffer(b"".join(qualifiers), dtype=">u2"),
            np.frombuffer(b"".join(values), dtype=">f8").astype(np.float64),
            stamps,
        )

    def _ingest_blobs(
        self,
        cells: CellBatch,
        starts: List[int],
        runs: List[int],
        slot: np.ndarray,
        base: np.ndarray,
    ) -> List[int]:
        """The compacted blobs ending the row runs ``runs`` of
        ``cells``, as one chunk; returns each run's count of point
        cells ahead of its blobs, which :meth:`ingest_scan` reads.

        A blob never shadows a point cell: compaction leaves the cells
        it merged in place, so a blob holds only values its row's
        points also hold, and a point encoded before the compaction but
        landed after it is newer than what the blob merged, whatever
        the blob's write ts says.  So blob values rank below every
        point (``-1 / (1 + ts)`` < 0 ≤ a point's write ts) and, among
        blobs, by write ts; they surface only where no point is left.
        A blob whose offsets are exactly its row's point cells' (the
        row as the compactor left it) is not decoded at all.
        """
        qualifiers, values, stamps = cells.qualifiers, cells.values, cells.ts
        offsets, vals = array(TS_TYPECODE), array(VAL_TYPECODE)
        # one entry per blob: its run, size, rank
        piece_run: List[int] = []
        piece_len: List[int] = []
        piece_wts = array("d")
        n_points: List[int] = []
        for k in runs:
            i, j = starts[k], starts[k + 1]
            blobs_at = first_blob(qualifiers, i, j)
            n_points.append(blobs_at - i)
            merged = COMPACTED_MARKER + b"".join(qualifiers[i:blobs_at])
            for b in range(blobs_at, j):
                if qualifiers[b] == merged:
                    continue
                blob_offsets, blob_values = decompact_columns(qualifiers[b], values[b])
                offsets.extend(blob_offsets)
                vals.extend(blob_values)
                piece_run.append(k)
                piece_len.append(len(blob_offsets))
                piece_wts.append(-1.0 / (1.0 + stamps[b]))
        owner = np.repeat(np.array(piece_run, dtype=np.intp), piece_len)
        self._add_window(
            slot[owner],
            base[owner] + np.frombuffer(offsets, dtype=np.int64),
            np.frombuffer(vals, dtype=np.float64),
            np.repeat(np.frombuffer(piece_wts, dtype=np.float64), piece_len),
        )
        return n_points

    def _add_window(
        self, slots: np.ndarray, ts: np.ndarray, vals: np.ndarray, stamps: np.ndarray
    ) -> None:
        """Keep the cells inside the query window as one more chunk."""
        window = (ts >= self.query.start) & (ts < self.query.end)
        if not window.all():
            slots, ts, vals, stamps = slots[window], ts[window], vals[window], stamps[window]
        if len(ts):
            self._chunks.append((slots, ts, vals, stamps))

    def row_filter(self) -> Optional[RowFilter]:
        """The query's tag predicate as a scan push-down (None = keep all).

        OpenTSDB's row-key filter on its HBase scanners: the scan asks
        it once per row and never collects a rejected series' cells.
        It answers from :meth:`_resolve_row`'s memo, which the ingest
        above then hits, so each row is still decoded once.
        """
        if not self.query.tag_filters:
            return None
        get, resolve = self._row_cache.get, self._resolve_row
        return lambda row: (get(row) or resolve(row))[0] >= 0

    def _resolve_row(self, row: bytes) -> Tuple[int, int]:
        """``(slot, base_time)`` of a row not yet seen by this query."""
        sid = self.codec.series_id(row)
        slot = self._slots.get(sid)
        if slot is None:
            tags = self.uids.series_tags(sid)
            filters = self.query.tag_filters
            if not filters or QueryEngine._match_tags(dict(tags), filters):
                slot = len(self.tags)
                self.tags.append(tags)
            else:
                slot = -1
            self._slots[sid] = slot
        resolved = self._row_cache[row] = (slot, decode_u32(row, self._base_at))
        return resolved

    # ------------------------------------------------------------------
    # finalize
    # ------------------------------------------------------------------
    def to_series(self, metric: str = "") -> List[Series]:
        """Resolve duplicates and materialise one Series per matched
        series that kept a point, sorted by tags."""
        if not self._chunks:
            return []
        slots, ts, vals, wts = (
            cols[0] if len(cols) == 1 else np.concatenate(cols) for cols in zip(*self._chunks)
        )
        # Slots renumbered in tag order, so the one sort also orders the output.
        by_tags = sorted(range(len(self.tags)), key=self.tags.__getitem__)
        rank = np.empty(len(by_tags), dtype=np.int64)
        rank[by_tags] = np.arange(len(by_tags))
        series = rank[slots]
        # Stable sort by (series, ts, write_ts): the last element of each
        # (series, timestamp) run is the newest write, arrival order
        # breaking write-ts ties, matching the reference dict semantics.
        order = np.lexsort((wts, ts, series))
        series, ts = series[order], ts[order]
        keep = np.empty(len(ts), dtype=bool)
        keep[:-1] = (ts[1:] != ts[:-1]) | (series[1:] != series[:-1])
        keep[-1] = True
        series, ts, vals = series[keep], ts[keep], vals[order[keep]]
        bounds = [0, *(np.flatnonzero(series[1:] != series[:-1]) + 1).tolist(), len(ts)]
        ts_col = array(TS_TYPECODE)
        ts_col.frombytes(ts.tobytes())
        val_col = array(VAL_TYPECODE)
        val_col.frombytes(vals.tobytes())
        out: List[Series] = []
        for first, (a, b) in zip(series[bounds[:-1]].tolist(), pairwise(bounds)):
            tags = self.tags[by_tags[first]]
            block = SeriesBlock(metric, tags, ts_col[a:b], val_col[a:b], _trusted=True)
            out.append(Series.from_block(block, validate=False))
        return out


@dataclass
class TsdbQuery:
    """A query: metric over ``[start, end)`` with tag predicates.

    ``tag_filters`` maps tag key -> exact value or ``"*"`` (present with
    any value).  ``group_by`` lists tag keys whose distinct values each
    produce one output series; series differing only in non-grouped
    tags are combined with ``aggregator``.
    """

    metric: str
    start: int
    end: int
    tag_filters: Dict[str, str] = field(default_factory=dict)
    group_by: Tuple[str, ...] = ()
    aggregator: str = "avg"
    downsample_window: Optional[int] = None
    downsample_aggregator: str = "avg"
    rate: bool = False

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError("query end must be after start")
        if self.aggregator not in AGGREGATORS:
            raise ValueError(
                f"unknown aggregator {self.aggregator!r}; "
                f"choose from {sorted(AGGREGATORS)}"
            )
        if self.downsample_window is not None:
            # Fractional windows used to slip through silently and
            # produce float bucket boundaries downstream; an integer
            # window is the only thing either raw or rollup tiers can
            # satisfy, and at the 1 s base resolution any window >= 1
            # is as coarse as the data.
            if isinstance(self.downsample_window, bool) or not isinstance(
                self.downsample_window, int
            ):
                raise TypeError("downsample window must be an integer (seconds)")
            if self.downsample_window < 1:
                raise ValueError("downsample window must be >= 1 second")
        if self.downsample_aggregator not in AGGREGATORS:
            raise ValueError(
                f"unknown downsample aggregator {self.downsample_aggregator!r}; "
                f"choose from {sorted(AGGREGATORS)}"
            )


@dataclass
class ConsistentResult:
    """A query answer annotated with the consistency it was served at.

    ``mode`` is ``"strong"`` when every region's share came from a live
    primary, else ``"timeline"``; ``staleness`` is the worst follower
    staleness bound that contributed (0.0 in strong mode).
    """

    series: List[Series]
    mode: str
    staleness: float = 0.0


class QueryEngine:
    """Executes :class:`TsdbQuery` objects against a simulated deployment."""

    def __init__(
        self,
        master: HMaster,
        uids: UniqueIdRegistry,
        codec: RowKeyCodec,
        lifecycle: Optional["LifecycleManager"] = None,
    ) -> None:
        self.master = master
        self.uids = uids
        self.codec = codec
        #: Tier router (None = always raw).  Injected by the cluster
        #: factory when a lifecycle policy is configured.
        self.lifecycle = lifecycle
        #: Cumulative cells touched by scans — the deterministic cost
        #: proxy the lifecycle soak gates on (wall time is too noisy).
        self.scan_cells = 0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def run(self, query: TsdbQuery) -> List[Series]:
        """Execute a query; returns one Series per group (sorted by tags).

        With a lifecycle manager attached, the query is transparently
        served from the coarsest rollup tier whose answer is
        bit-identical to the raw path (or pooled tier math once raw has
        been expired); otherwise it scans raw cells exactly as before.
        """
        return self._execute(query, None)[0]

    def route_tier(self, query: TsdbQuery) -> str:
        """The serving source :meth:`run` would use (pure; for cache keys)."""
        if self.lifecycle is None:
            return "raw"
        return self.lifecycle.route_tier(query)

    def run_available(self, query: TsdbQuery) -> ConsistentResult:
        """Execute preferring strong reads, degrading to timeline.

        Strong mode reads primary region copies only; when a primary is
        down (crash window before failover completes) and the cluster
        has region replication, the query is re-served in timeline mode
        from the most-caught-up live followers, with the staleness
        bound reported in the result.  Raises
        :class:`RegionUnavailableError` when some region has *no*
        readable copy.  On a healthy cluster the series are exactly
        :meth:`run`'s (strong mode, staleness 0).  Tier routing applies
        exactly as in :meth:`run`, at whichever consistency level the
        read ends up served.
        """
        try:
            series, staleness = self._execute(query, "strong")
            return ConsistentResult(series, "strong", staleness)
        except RegionUnavailableError:
            series, staleness = self._execute(query, "timeline")
            return ConsistentResult(series, "timeline", staleness)

    def series_for(self, query: TsdbQuery) -> List[Series]:
        """Raw matching series with no grouping/aggregation (drill-down view)."""
        return self._read_series(query, None)[0]

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _execute(
        self, query: TsdbQuery, consistency: Optional[str]
    ) -> Tuple[List[Series], float]:
        """Tier-route then group/aggregate; also the worst staleness read."""
        worst = 0.0

        def reader(q: TsdbQuery) -> List[Series]:
            nonlocal worst
            series, staleness = self._read_series(q, consistency)
            worst = max(worst, staleness)
            return series

        if self.lifecycle is not None:
            routed = self.lifecycle.route(query, reader)
            if routed is not None:
                return routed, worst
        return group_and_aggregate(query, reader(query)), worst

    def plan_scan(
        self, query: TsdbQuery
    ) -> Tuple[_BlockScanState, List[Tuple[bytes, bytes]]]:
        """The read plan: a fresh assembler plus one row-key range per
        salt bucket (none when the metric was never written).

        The offline scanners read every range in one master pass and
        feed the batch to ``state.ingest_scan`` once; the RPC scanner
        feeds each range's reply as it lands.  All finish with
        ``state.to_series()``.
        """
        state = _BlockScanState(self.codec, self.uids, query)
        try:
            metric_uid = self.uids.get("metric", query.metric)
        except UnknownUidError:
            return state, []
        return state, self.codec.scan_ranges(metric_uid, query.start, query.end)

    def _read_series(
        self, query: TsdbQuery, consistency: Optional[str]
    ) -> Tuple[List[Series], float]:
        """Plan → scan → columnar assembly, each once per query.

        One master read covers all the plan's row-key ranges, with the
        query's tag predicate pushed down and ``consistency`` as the
        replica policy (:meth:`HMaster._scan`: ``None`` reads
        administratively, ``"strong"`` or ``"timeline"`` as
        :meth:`run_available` asks), and reports the worst staleness of
        what it read.  The buckets are visited in key order, so the one
        batch is already sorted.
        """
        state, ranges = self.plan_scan(query)
        cells, staleness = self.master._scan(DATA_TABLE, ranges, state.row_filter(), consistency)
        self.scan_cells += len(cells.rows)
        state.ingest_scan(cells)
        return state.to_series(), staleness

    @staticmethod
    def _match_tags(tags: Dict[str, str], filters: Dict[str, str]) -> bool:
        """Exact-or-wildcard predicate evaluation."""
        for key, expected in filters.items():
            actual = tags.get(key)
            if actual is None:
                return False
            if expected != WILDCARD and actual != expected:
                return False
        return True
