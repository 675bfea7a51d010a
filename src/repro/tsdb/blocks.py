"""Columnar series blocks: the write path's unit of data movement.

The per-point ingest path moved one Python ``DataPoint`` object at a
time through parse → rowkey → region, which caps simulated goodput far
below the paper's near-linear Figure 2 regime.  This module introduces
:class:`SeriesBlock` — one series' worth of contiguous, parallel
``timestamp``/``value`` columns backed by stdlib ``array`` buffers (no
numpy dependency) — and :class:`BlockBatch`, an ordered collection of
blocks that still quacks like the flat point sequence the
proxy/publisher retry machinery slices, so every delivery-accounting
invariant carries over unchanged.  A block is a write payload: ingest,
rollup materialization and detector write-back build blocks to write.
The read path returns :class:`~repro.tsdb.aggregation.Series`, which
own their NumPy columns and hold no block.

Design rules:

* a ``SeriesBlock`` identifies exactly one series (``metric`` +
  sorted ``tags``) — per-series invariants (UID interning, row-key
  prefixes) are paid once per block instead of once per point;
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
    """One series' contiguous ``(timestamps, values)`` columns.

    The canonical in-flight representation on the write path: parsing
    fills blocks, row-key encoding consumes a block's timestamp column
    in one call, and region writes land a block's cells as one append.

    Construct via :meth:`from_points` / :meth:`from_columns`; the raw
    constructor adopts pre-validated arrays without copying.
    """

    __slots__ = ("metric", "tags", "_ts", "_vals")

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
        self.tags = tags
        self._ts = timestamps
        self._vals = values

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
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
    def timestamps(self) -> array:
        """The int64 timestamp column (buffer-protocol contiguous)."""
        return self._ts

    @property
    def values(self) -> array:
        """The float64 value column (buffer-protocol contiguous)."""
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
        return len(self._ts)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        ident = self.metric or "<series>"
        return f"<SeriesBlock {ident}{dict(self.tags)} n={len(self)}>"

    # ------------------------------------------------------------------
    # point-wise compatibility shims (NOT for hot paths)
    # ------------------------------------------------------------------
    def iter_points(self) -> Iterator["DataPoint"]:
        """Box the columns back into :class:`DataPoint` objects.

        The inverse of :meth:`from_points`; exists so legacy point-wise
        consumers keep working.  Hot paths consume the columns.
        """
        from .tsd import DataPoint

        metric, tags = self.metric, self.tags
        for t, v in zip(self._ts, self._vals):
            yield DataPoint(metric, t, v, tags)

    # ------------------------------------------------------------------
    # columnar operations
    # ------------------------------------------------------------------
    def slice_positional(self, start: int, stop: int) -> "SeriesBlock":
        """Positional slice ``[start:stop)`` as a new block."""
        return SeriesBlock(
            self.metric, self.tags, self._ts[start:stop], self._vals[start:stop], _trusted=True
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
    preserves that exact contract over columnar payloads — slicing
    drops whole blocks and splits at most the two edge blocks (memcpy,
    no boxing) — so blocks flow through every delivery path without
    forked logic.  Both slice bounds are found by bisecting the
    cumulative block ends: a slice costs O(log blocks + blocks kept),
    not a walk from block 0.
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
    def n_blocks(self) -> int:
        return len(self.blocks)

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
        out = list(blocks[first : last + 1])
        if first == last:
            if (lo, hi) != (0, len(out[0])):
                out[0] = out[0].slice_positional(lo, hi)
        else:
            if lo:
                out[0] = out[0].slice_positional(lo, len(out[0]))
            if hi != len(out[-1]):
                out[-1] = out[-1].slice_positional(0, hi)
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
    the points.  A :class:`BlockBatch` contributes one run per block (a
    block already knows its extent), a point iterable one per point —
    except that a point list of one metric, keyed by metric, is the
    min and max of its one timestamp column, taken in C.
    """
    if isinstance(payload, BlockBatch):
        runs: Iterable[Tuple[str, Tags, int, int, int]] = (
            (b.metric, b.tags, b.start, b.end, len(b)) for b in payload.blocks
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
