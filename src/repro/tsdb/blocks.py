"""Columnar series blocks: the write path's unit of data movement.

The per-point ingest path moved one Python ``DataPoint`` object at a
time through parse → rowkey → region, which caps simulated goodput far
below the paper's near-linear Figure 2 regime.  This module introduces
:class:`SeriesBlock` — one or more series of one metric on one shared
``timestamp`` column, their values in one contiguous ``value`` column,
both backed by stdlib ``array`` buffers (no numpy dependency) — and
:class:`BlockBatch`, an ordered collection of blocks that still quacks
like the flat point sequence the proxy/publisher retry machinery
slices, so every delivery-accounting invariant carries over unchanged.
A block is a write payload: ingest, rollup materialization and detector
write-back build blocks to write.  The read path returns
:class:`~repro.tsdb.aggregation.Series`, which own their NumPy columns
and hold no block.

Design rules:

* a ``SeriesBlock`` identifies its series by ``metric`` + each series'
  sorted tag set (:attr:`SeriesBlock.series_tags`, in value-column
  order) — per-series invariants (UID interning, row-key prefixes) are
  paid once per series instead of once per point, and the timestamp
  column's row-hour runs once per block.  Parsing, rollups and
  compaction build one-series blocks; a detector record's write-back
  is one block of all its sensors (:func:`repro.core.engine.data_blocks`);
* a block's points run series-major: every point of its first series,
  then of its second, each series in timestamp order;
* timestamps are kept sorted (non-decreasing; duplicates allowed, as
  ingest may legitimately re-write a second) so slices and row-span
  grouping are ``O(log n)`` + memcpy;
* point-wise views (``iter_points`` / ``BlockBatch`` iteration) exist
  as compatibility shims only — hot paths must stay columnar.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from itertools import accumulate, islice
from operator import attrgetter, le
from typing import TYPE_CHECKING, Any, Dict, Iterable, Iterator, List, Sequence, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (tsd imports us)
    from .tsd import DataPoint

__all__ = ["SeriesBlock", "BlockBatch", "WriteSpans", "blocks_from_points", "series_spans"]

Tags = Tuple[Tuple[str, str], ...]

#: array typecodes for the two columns: int64 seconds, float64 values.
TS_TYPECODE = "q"
VAL_TYPECODE = "d"


def _as_ts_array(values: object) -> array:
    """Coerce timestamps to a contiguous int64 ``array('q')``.

    Buffer-protocol inputs with 8-byte items (numpy ``int64`` included)
    are adopted via one C-level memcpy; other iterables element-wise.
    """
    if isinstance(values, array) and values.typecode == TS_TYPECODE:
        return values
    try:
        view = memoryview(values)  # type: ignore[arg-type]
    except TypeError:
        return array(TS_TYPECODE, (int(v) for v in values))  # type: ignore[union-attr]
    if view.itemsize == 8 and view.format in ("q", "l") and view.contiguous:
        out = array(TS_TYPECODE)
        out.frombytes(view.cast("B"))
        return out
    return array(TS_TYPECODE, (int(v) for v in values))  # type: ignore[union-attr]


def _as_val_array(values: object) -> array:
    """Coerce values to a contiguous float64 ``array('d')``."""
    if isinstance(values, array) and values.typecode == VAL_TYPECODE:
        return values
    try:
        view = memoryview(values)  # type: ignore[arg-type]
    except TypeError:
        return array(VAL_TYPECODE, (float(v) for v in values))  # type: ignore[union-attr]
    if view.itemsize == 8 and view.format == "d" and view.contiguous:
        out = array(VAL_TYPECODE)
        out.frombytes(view.cast("B"))
        return out
    return array(VAL_TYPECODE, (float(v) for v in values))  # type: ignore[union-attr]


def _is_sorted(ts: array) -> bool:
    # Each element against its successor, with no interpreted step per element.
    return all(map(le, ts, islice(ts, 1, None)))


class SeriesBlock:
    """Contiguous ``(timestamps, values)`` columns of one or more series.

    The canonical in-flight representation on the write path: parsing
    fills blocks, row-key encoding consumes a block's timestamp column
    in one call, and region writes land a block's cells as one append.

    Every series of a block shares its ``metric`` and its one timestamp
    column; the value column holds the series back to back, series
    ``k``'s values at ``[k * n, (k + 1) * n)`` for ``n`` timestamps.
    ``len()`` counts points, ``n`` per series.  A one-series block
    (:meth:`from_points`, :meth:`from_columns` or the raw constructor)
    also answers :attr:`tags`; :meth:`from_series` builds a wider one.
    The raw constructor adopts pre-validated arrays without copying.
    """

    __slots__ = ("metric", "series_tags", "_ts", "_vals")

    def __init__(
        self,
        metric: str,
        tags: Tags,
        timestamps: array,
        values: array,
        *,
        _trusted: bool = False,
    ) -> None:
        if not _trusted:
            timestamps = _as_ts_array(timestamps)
            values = _as_val_array(values)
            if len(timestamps) != len(values):
                raise ValueError("timestamps and values must be the same length")
            if not _is_sorted(timestamps):
                order = sorted(range(len(timestamps)), key=timestamps.__getitem__)
                timestamps = array(TS_TYPECODE, (timestamps[i] for i in order))
                values = array(VAL_TYPECODE, (values[i] for i in order))
            tags = tuple(sorted(tags))
        self.metric = metric
        self.series_tags: Tuple[Tags, ...] = (tags,)
        self._ts = timestamps
        self._vals = values

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_series(
        cls,
        metric: str,
        series_tags: Sequence[Tags],
        timestamps: Iterable[int],
        values: Iterable[float],
    ) -> "SeriesBlock":
        """Several series of one metric on one sorted timestamp column.

        ``values`` holds the series' values series-major, as the block
        keeps them; each tag set must already be sorted by key (as
        :attr:`DataPoint.tags` are), and is adopted as given.  Typed
        columns are adopted without copying.
        """
        timestamps = _as_ts_array(timestamps)
        values = _as_val_array(values)
        series_tags = tuple(series_tags)
        if len(values) != len(timestamps) * len(series_tags):
            raise ValueError("values must hold one timestamp column's worth per series")
        if not _is_sorted(timestamps):
            raise ValueError("a shared timestamp column must be sorted")
        block = cls.__new__(cls)
        block.metric, block.series_tags = metric, series_tags
        block._ts, block._vals = timestamps, values
        return block

    @classmethod
    def from_columns(
        cls,
        metric: str,
        tags: Union[Tags, Dict[str, str]],
        timestamps: Iterable[int],
        values: Iterable[float],
    ) -> "SeriesBlock":
        """Build from parallel columns (any iterables or 8-byte buffers)."""
        if isinstance(tags, dict):
            tags = tuple(sorted(tags.items()))
        return cls(metric, tags, timestamps, values)  # type: ignore[arg-type]

    @classmethod
    def from_points(cls, points: Iterable["DataPoint"]) -> "SeriesBlock":
        """Columnarise points of a *single* series (round-trip shim).

        Every point must carry the same ``(metric, tags)`` identity;
        use :func:`blocks_from_points` for heterogeneous batches.
        """
        ts = array(TS_TYPECODE)
        vals = array(VAL_TYPECODE)
        metric: str = ""
        tags: Tags = ()
        first = True
        for p in points:
            if first:
                metric, tags, first = p.metric, p.tags, False
            elif p.metric != metric or p.tags != tags:
                raise ValueError(
                    f"mixed series in from_points: {metric}{dict(tags)} vs "
                    f"{p.metric}{dict(p.tags)}; use blocks_from_points"
                )
            ts.append(p.timestamp)
            vals.append(p.value)
        if first:
            raise ValueError("cannot build a SeriesBlock from zero points")
        return cls(metric, tags, ts, vals)

    # ------------------------------------------------------------------
    # columnar accessors
    # ------------------------------------------------------------------
    @property
    def tags(self) -> Tags:
        """A one-series block's tag set; a wider block has no one."""
        if len(self.series_tags) != 1:
            raise ValueError(f"a {len(self.series_tags)}-series block has no one tag set")
        return self.series_tags[0]

    @property
    def timestamps(self) -> array:
        """The int64 timestamp column every series shares (buffer-protocol contiguous)."""
        return self._ts

    @property
    def values(self) -> array:
        """The float64 value column, series-major (buffer-protocol contiguous)."""
        return self._vals

    @property
    def start(self) -> int:
        """First (smallest) timestamp; raises on an empty block."""
        return self._ts[0]

    @property
    def end(self) -> int:
        """Last (largest) timestamp; raises on an empty block."""
        return self._ts[-1]

    def __len__(self) -> int:
        return len(self._vals)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        ident = self.metric or "<series>"
        return f"<SeriesBlock {ident} series={len(self.series_tags)} n={len(self)}>"

    # ------------------------------------------------------------------
    # point-wise compatibility shims (NOT for hot paths)
    # ------------------------------------------------------------------
    def iter_points(self) -> Iterator["DataPoint"]:
        """Box the columns back into :class:`DataPoint` objects, series-major.

        The inverse of :meth:`from_points`; exists so legacy point-wise
        consumers keep working.  Hot paths consume the columns.
        """
        from .tsd import DataPoint

        metric, ts, vals, n = self.metric, self._ts, self._vals, len(self._ts)
        for k, tags in enumerate(self.series_tags):
            for t, v in zip(ts, vals[k * n : (k + 1) * n]):
                yield DataPoint(metric, t, v, tags)

    # ------------------------------------------------------------------
    # columnar operations
    # ------------------------------------------------------------------
    def pieces(self, start: int, stop: int) -> List["SeriesBlock"]:
        """Points ``[start:stop)``, series-major, as blocks (memcpy, no boxing).

        The series the range holds whole stay one block on the shared
        timestamp column; a series it cuts comes out as a one-series
        piece before or after them, so a range splits off at most one
        piece at each end.
        """
        n = len(self._ts)
        first, lo = divmod(start, n)
        last, hi = divmod(stop, n)
        if first == last:
            return [self._piece(first, lo, hi)]
        out = []
        if lo:
            out.append(self._piece(first, lo, n))
            first += 1
        if first < last:
            tags, vals = self.series_tags[first:last], self._vals[first * n : last * n]
            out.append(SeriesBlock.from_series(self.metric, tags, self._ts, vals))
        if hi:
            out.append(self._piece(last, 0, hi))
        return out

    def _piece(self, k: int, lo: int, hi: int) -> "SeriesBlock":
        """Series ``k``'s points ``[lo:hi)`` as a one-series block."""
        base = k * len(self._ts)
        return SeriesBlock(
            self.metric,
            self.series_tags[k],
            self._ts[lo:hi],
            self._vals[base + lo : base + hi],
            _trusted=True,
        )


def blocks_from_points(points: Iterable["DataPoint"]) -> List["SeriesBlock"]:
    """Group a heterogeneous point batch into one block per series.

    Blocks come out in first-seen series order; timestamps within each
    block are sorted (arrival order is already sorted for the common
    per-sensor streams, costing only the ``_is_sorted`` scan).
    """
    columns: Dict[Tuple[str, Tags], Tuple[array, array]] = {}
    for p in points:
        key = (p.metric, p.tags)
        cols = columns.get(key)
        if cols is None:
            cols = columns[key] = (array(TS_TYPECODE), array(VAL_TYPECODE))
        cols[0].append(p.timestamp)
        cols[1].append(p.value)
    return [
        SeriesBlock(metric, tags, ts, vals)
        for (metric, tags), (ts, vals) in columns.items()
    ]


class BlockBatch:
    """An ordered batch of blocks that still acts like a point sequence.

    The proxy, publisher, and TSD retry/accounting machinery reason in
    *points*: they take ``len(batch)``, slice off durably written
    prefixes (``batch[ack.written:]``), and re-chunk.  ``BlockBatch``
    preserves that exact contract over columnar payloads — points are
    counted block by block, and within a block series-major, so a
    batch of record blocks slices as the same series in one-series
    blocks would.  Slicing drops whole blocks and cuts at most the two
    edge blocks (:meth:`SeriesBlock.pieces`: memcpy, no boxing, at most
    a one-series piece split off at each end), so blocks flow through
    every delivery path without forked logic.  Both slice bounds are
    found by bisecting the cumulative block ends: a slice costs
    O(log blocks + blocks kept), not a walk from block 0.
    """

    __slots__ = ("blocks", "_ends", "_len")

    def __init__(self, blocks: Sequence[SeriesBlock]) -> None:
        self.blocks: Tuple[SeriesBlock, ...] = tuple(b for b in blocks if len(b))
        # _ends[k] = points in blocks[:k + 1], so a slice bound is one bisect
        self._ends: List[int] = list(accumulate(map(len, self.blocks)))
        self._len = self._ends[-1] if self._ends else 0

    @classmethod
    def from_points(cls, points: Iterable["DataPoint"]) -> "BlockBatch":
        """Columnarise an arbitrary point batch (one block per series)."""
        return cls(blocks_from_points(points))

    @property
    def n_series(self) -> int:
        """The series the batch carries, each block's counted (what the TSD prices)."""
        return sum(len(block.series_tags) for block in self.blocks)

    def __len__(self) -> int:
        return self._len

    def __bool__(self) -> bool:
        return self._len > 0

    def __iter__(self) -> Iterator["DataPoint"]:
        """Boxed point iteration — compatibility shim, not a hot path."""
        for block in self.blocks:
            yield from block.iter_points()

    def __getitem__(self, index: slice) -> "BlockBatch":
        start, stop, step = index.indices(self._len)
        if step != 1:
            raise ValueError("BlockBatch slicing must be contiguous (step 1)")
        if start >= stop:
            return BlockBatch(())
        blocks, ends = self.blocks, self._ends
        # Only the blocks holding the slice's first and last points can
        # be cut; every block between them is kept whole.
        first, last = bisect_right(ends, start), bisect_left(ends, stop)
        lo = start - (ends[first] - len(blocks[first]))
        hi = stop - (ends[last] - len(blocks[last]))
        if first == last:
            block = blocks[first]
            return BlockBatch([block] if (lo, hi) == (0, len(block)) else block.pieces(lo, hi))
        head, tail = blocks[first], blocks[last]
        out = head.pieces(lo, len(head)) if lo else [head]
        out.extend(blocks[first + 1 : last])
        out.extend(tail.pieces(0, hi) if hi != len(tail) else (tail,))
        return BlockBatch(out)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<BlockBatch blocks={len(self.blocks)} points={self._len}>"


_METRIC = attrgetter("metric")
_TIMESTAMP = attrgetter("timestamp")


def series_spans(
    payload: Union[BlockBatch, Iterable["DataPoint"]], by_tags: bool
) -> Dict[Any, List[int]]:
    """Time extent and size of a write payload, per series or per metric.

    ``{(metric, tags): [t_min, t_max, n_points]}`` with ``by_tags``,
    else keyed by metric alone — what write listeners act on instead of
    the points.  A :class:`BlockBatch` contributes one run per series
    of each block (a block already knows its extent, which its series
    share), a point iterable one per point —
    except that a point list of one metric, keyed by metric, is the
    min and max of its one timestamp column, taken in C.
    """
    if isinstance(payload, BlockBatch):
        runs: Iterable[Tuple[str, Tags, int, int, int]] = (
            (b.metric, tags, b.start, b.end, len(b.timestamps))
            for b in payload.blocks
            for tags in b.series_tags
        )
    else:
        points = payload if isinstance(payload, list) else list(payload)
        if not by_tags and points:
            metrics = set(map(_METRIC, points))
            if len(metrics) == 1:
                stamps = list(map(_TIMESTAMP, points))
                return {metrics.pop(): [min(stamps), max(stamps), len(stamps)]}
        runs = ((p.metric, p.tags, p.timestamp, p.timestamp, 1) for p in points)
    spans: Dict[Any, List[int]] = {}
    for metric, tags, t_min, t_max, n in runs:
        key = (metric, tags) if by_tags else metric
        span = spans.get(key)
        if span is None:
            spans[key] = [t_min, t_max, n]
        else:
            if t_min < span[0]:
                span[0] = t_min
            if t_max > span[1]:
                span[1] = t_max
            span[2] += n
    return spans


class WriteSpans:
    """One write payload as its listeners see it: extents, walked once.

    The cluster wraps each payload it writes in one of these and hands
    that one object to every write listener and ingest observer — at
    submit and again at ack — so :func:`series_spans` walks the points
    at most once per granularity, however many listeners ask: by series
    for the serving cache, by metric for the lifecycle tier.  The
    answers are shared; listeners read them and never change them.
    """

    __slots__ = ("_payload", "_spans")

    def __init__(self, payload: Union[BlockBatch, Sequence["DataPoint"]]) -> None:
        self._payload = payload
        self._spans: Dict[bool, Dict[Any, List[int]]] = {}

    def by_series(self) -> Dict[Tuple[str, Tags], List[int]]:
        """``{(metric, tags): [t_min, t_max, n_points]}``."""
        return self._walk(True)

    def by_metric(self) -> Dict[str, List[int]]:
        """``{metric: [t_min, t_max, n_points]}``."""
        return self._walk(False)

    def _walk(self, by_tags: bool) -> Dict[Any, List[int]]:
        spans = self._spans.get(by_tags)
        if spans is None:
            spans = self._spans[by_tags] = series_spans(self._payload, by_tags)
        return spans
