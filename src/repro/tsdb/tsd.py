"""TSD daemons: the OpenTSDB write/query frontends.

Each cluster node runs one TSD.  A TSD accepts batched data points
(the HTTP ``/api/put`` equivalent), interns names to UIDs, encodes the
salted row keys, and writes to HBase through an asynchronous client
that — like AsyncHBase — **buffers cells per destination region** so
RegionServers see full batches even though a single inbound batch
scatters across salt buckets.

Encoding has one implementation per payload shape —
:meth:`TSDaemon.encode_points` (whose one-point form is
:meth:`TSDaemon.encode_point`) and :meth:`TSDaemon.encode_block` — and
both pay a series' set-up once per *series*, not once per sample: the
``(metric, tags) -> SeriesKey`` memo they share (hosted by the
:class:`~repro.tsdb.uid.UniqueIdRegistry`, so shared by every TSD of a
deployment; it interns a series the first time it is asked for it)
holds the interned UIDs and the row the series last wrote to, so a row
key is materialised once per row hour a series writes, whichever
encoder wrote it.  A sample on a known series in a known hour costs a
memo hit (per block, for a block), a qualifier-table index and its
share of an ``extend`` of each of four columns: the bulk encoders
(:meth:`TSDaemon.encode_block`, which takes a whole
:class:`~repro.tsdb.blocks.BlockBatch` in one pass, and
:meth:`TSDaemon.encode_points`) return one
:class:`~repro.hbase.region.CellBatch` per payload and allocate nothing
per sample.  No :class:`~repro.hbase.region.Cell` is built on the
write path: a point list's cells are dealt off its batch into the
per-bucket linger buffers, each a batch under construction, and only
:meth:`TSDaemon.encode_point` returns one.

A put batch is acknowledged only when every one of its cells has been
acknowledged by a RegionServer (durable ack), which is what gives the
reverse proxy's in-flight window (:mod:`repro.tsdb.proxy`) its
backpressure semantics.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import chain, count, repeat, starmap
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..cluster.metrics import MetricsRegistry
from ..cluster.network import Network
from ..cluster.node import Node, Server
from ..cluster.simulation import Simulator
from ..hbase.bytescodec import encode_f64_column
from ..hbase.client import HTableClient
from ..hbase.master import HMaster
from ..hbase.region import Cell, CellBatch
from ..obs.trace import NULL_SPAN, SpanLike, Tracer
from .blocks import BlockBatch, SeriesBlock
from .rowkey import QUALIFIER_TABLE, ROW_SPAN_SECONDS, TIMESTAMP_LIMIT, RowKeyCodec
from .uid import UniqueIdRegistry

__all__ = ["DataPoint", "PutAck", "TSDaemon", "TSDServiceModel", "DATA_TABLE"]

DATA_TABLE = "tsdb"

#: Cells buffered per destination salt bucket before one HBase put RPC
#: is flushed (AsyncHBase-style write coalescing).
RPC_BATCH_SIZE = 50

#: Linger timer (s) that flushes a partly filled bucket buffer, so tail
#: points are not stranded.
FLUSH_INTERVAL = 0.15

#: Inbound request queue bound; overflow rejects the batch and the
#: proxy retries it elsewhere.
QUEUE_CAPACITY = 1024


@dataclass(frozen=True, slots=True)
class DataPoint:
    """One sensor sample: ``metric{tags} timestamp = value``."""

    metric: str
    timestamp: int
    value: float
    tags: Tuple[Tuple[str, str], ...]

    @staticmethod
    def make(metric: str, timestamp: int, value: float, tags: Dict[str, str]) -> "DataPoint":
        return DataPoint(metric, timestamp, value, tuple(sorted(tags.items())))


@dataclass
class PutAck:
    """Resolution of one inbound put batch."""

    ok: bool
    written: int
    failed: int
    tsd: str


@dataclass
class TSDServiceModel:
    """TSD-side CPU cost of handling a put batch (seconds).

    ``overhead + per_point × n``: parsing, UID lookups, key encoding.
    Defaults give ≈41k points/s per TSD — comfortably above a single
    RegionServer's ≈13.3k cells/s, so the storage tier stays the
    bottleneck (as in the paper), while a *single* TSD still caps well
    below full-cluster capacity, which is why the proxy's round-robin
    fan-out matters (E7 ablation).
    """

    overhead: float = 0.0002
    per_point: float = 0.00002
    #: Block-batch costs: per-series setup (UID interning, row prefix,
    #: one salt hash per row hour) is paid once per *block*, and the
    #: residual per-point work is one table-lookup qualifier + column
    #: append — calibrated at per_point / 10 to match the measured
    #: wall-clock ratio of the columnar parse/encode kernels.
    per_block: float = 0.00005
    per_point_block: float = 0.000002

    def batch_cost(self, n_points: int) -> float:
        return self.overhead + self.per_point * n_points

    def block_cost(self, n_blocks: int, n_points: int) -> float:
        return self.overhead + self.per_block * n_blocks + self.per_point_block * n_points


class _BatchContext:
    """Refcount tracker tying buffered cells back to their inbound batch."""

    __slots__ = ("pending", "written", "failed", "reply", "batch_id", "span")

    def __init__(
        self,
        n_points: int,
        reply: Callable[[PutAck], None],
        batch_id: Optional[int] = None,
        span: SpanLike = NULL_SPAN,
    ) -> None:
        self.pending = n_points
        self.written = 0
        self.failed = 0
        self.reply = reply
        self.batch_id = batch_id
        self.span = span


class TSDaemon:
    """One OpenTSDB daemon instance.

    Writes coalesce per salt bucket (:data:`RPC_BATCH_SIZE` cells, or
    whatever arrived when :data:`FLUSH_INTERVAL` expires) behind an
    inbound queue of :data:`QUEUE_CAPACITY` batches.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node: Node,
        name: str,
        master: HMaster,
        uids: UniqueIdRegistry,
        codec: RowKeyCodec,
        metrics: Optional[MetricsRegistry] = None,
        write_ts: Optional[Callable[[], float]] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.node = node
        self.name = name
        self.uids = uids
        self.codec = codec
        self.service_model = TSDServiceModel()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        self.http_server = Server(sim, name, QUEUE_CAPACITY, self.metrics)
        node.add_server(self.http_server)
        # Default: a tiny local clock, 1.0, 2.0, ...
        self._next_write_ts = write_ts if write_ts is not None else count(1.0).__next__
        self._series = uids.series_memo(codec)
        self.client = HTableClient(sim, network, master, node.hostname, metrics=self.metrics)
        # Per-salt-bucket write buffers: bucket -> (cells under
        # construction, credit runs [batch context, n cells] in cell order)
        self._buffers: Dict[int, Tuple[CellBatch, List[list]]] = {}
        # Per-bucket linger timers (armed when the first cell arrives).
        self._linger_timers: Dict[int, object] = {}
        self.points_received = 0
        self.points_written = 0
        self.points_failed = 0
        self.crashed = False
        self.batches_swallowed = 0

    # ------------------------------------------------------------------
    # lifecycle (chaos hooks)
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Kill the daemon process: queued work is lost, nothing replies.

        Unlike a queue-overflow rejection (which still sends a negative
        ack), a crashed TSD is silent — in-flight batches are swallowed
        and their acks never arrive, which is exactly the failure the
        proxy's ack timeouts and the publisher's ack deadlines exist to
        survive.  Buffered-but-unflushed cells die with the process.
        """
        if self.crashed:
            return
        self.crashed = True
        self.http_server.stop()
        for timer in self._linger_timers.values():
            timer.cancel()  # type: ignore[attr-defined]
        self._linger_timers.clear()
        self._buffers.clear()
        self.metrics.counter("tsd.crashes").inc(label=self.name)

    def restart(self) -> None:
        """Bring the daemon back up with empty buffers."""
        if not self.crashed:
            return
        self.crashed = False
        self.http_server.start()

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def put_batch(
        self,
        points: "Union[List[DataPoint], BlockBatch]",
        reply_to: Callable[[PutAck], None],
        src_host: str,
        batch_id: Optional[int] = None,
    ) -> None:
        """Accept a batch of points (async); ack routed back over the network.

        The payload may be a plain point list or a :class:`BlockBatch`;
        a block batch is serviced at the cheaper columnar cost and
        written block-granularly (the delivery/ack contract — one
        :class:`PutAck` covering every point — is identical, so the
        proxy and publisher need no forked logic).  ``batch_id`` is
        trace correlation only (stamped by the proxy) — it ties this
        daemon's ingest span to the proxy's batch trace.
        """
        if self.crashed:
            # Dead process: the batch vanishes without an ack.
            self.batches_swallowed += 1
            self.metrics.counter("tsd.batches_swallowed").inc(label=self.name)
            return
        # Covers HTTP queueing + parse/encode service + HBase round trips
        # until the last cell of the batch is durably acked.
        span = self.tracer.begin(
            "tsd.ingest", batch_id=batch_id, tsd=self.name, points=len(points)
        )
        if isinstance(points, BlockBatch):
            cost = self.service_model.block_cost(points.n_blocks, len(points))
        else:
            cost = self.service_model.batch_cost(len(points))
        accepted = self.http_server.submit(
            points,
            cost,
            on_done=lambda pts: self._process(pts, reply_to, src_host, batch_id, span),
            on_reject=lambda pts: self._reject(pts, reply_to, src_host, span),
        )
        if accepted:
            self.metrics.counter("tsd.batches_accepted").inc(label=self.name)

    def _reject(
        self,
        points: List[DataPoint],
        reply_to: Callable[[PutAck], None],
        src_host: str,
        span: SpanLike = NULL_SPAN,
    ) -> None:
        span.end(outcome="rejected")
        self.metrics.counter("tsd.batches_rejected").inc(label=self.name)
        self._send_ack(reply_to, src_host, PutAck(False, 0, len(points), self.name))

    def _process(
        self,
        payload: "Union[List[DataPoint], BlockBatch]",
        reply_to: Callable[[PutAck], None],
        src_host: str,
        batch_id: Optional[int] = None,
        span: SpanLike = NULL_SPAN,
    ) -> None:
        """Encode a payload once and write it under one batch context.

        The linger decision is keyed on payload shape.  A block batch
        arrives coalesced per series upstream, so its one batch is one
        put.  A point list's cells are dealt, in order, into the
        per-salt-bucket linger buffers; a bucket is put when it holds
        :data:`RPC_BATCH_SIZE` cells or its linger timer fires.  An
        empty payload of either shape has no cell to resolve its
        context, so it is put as one empty batch, which acks at once.
        """
        n_points = len(payload)
        self.points_received += n_points
        ctx = _BatchContext(
            n_points,
            lambda ack: self._send_ack(reply_to, src_host, ack),
            batch_id=batch_id,
            span=span,
        )
        if not n_points:
            self._put(CellBatch(), [[ctx, 0]], block=False)
            return
        if isinstance(payload, BlockBatch):
            self._put(self.encode_block(payload), [[ctx, n_points]], block=True)
            return
        cells = self.encode_points(payload)
        salted = self.codec.salted
        for row, qualifier, value, ts in zip(cells.rows, cells.qualifiers, cells.values, cells.ts):
            bucket = row[0] if salted else 0
            entry = self._buffers.get(bucket)
            if entry is None:
                entry = self._buffers[bucket] = (CellBatch(), [])
            buf, credits = entry
            buf.append(row, qualifier, value, ts)
            if credits and credits[-1][0] is ctx:
                credits[-1][1] += 1
            else:
                credits.append([ctx, 1])
            if len(buf) >= RPC_BATCH_SIZE:
                self._flush_bucket(bucket)
            elif len(buf) == 1:
                # First cell in an empty buffer: arm this bucket's linger
                # timer so stragglers are flushed even at low rates.
                self._linger_timers[bucket] = self.sim.schedule(
                    FLUSH_INTERVAL, self._linger_flush, bucket
                )

    def _put(self, cells: CellBatch, credits: List[list], block: bool) -> None:
        """Send ``cells`` as one put, covered in order by the credit runs
        ``[batch context, n cells]``; ``block`` charges the block-put cost.

        The client resolves the put in parts (one per server partition;
        retries can regroup), each handing back the cells it resolved.
        A part is charged to the contexts that own its cells: all of
        them when the put resolves whole or has one context, else cell
        by cell through the write ts, which is unique per cell.  A
        context acks its inbound batch when its last cell resolves.
        """
        batch_ids: tuple = ()
        flush_span: SpanLike = NULL_SPAN
        if self.tracer.enabled:
            # One flush coalesces cells from several inbound batches;
            # the span lists every one so each batch trace includes it.
            batch_ids = tuple(
                sorted({c.batch_id for c, _ in credits if c.batch_id is not None})
            )
            flush_span = self.tracer.begin(
                "hbase.put_block" if block else "hbase.put",
                tsd=self.name,
                cells=len(cells),
                batch_ids=batch_ids,
            )
        unresolved = len(cells)

        def on_done(ok: bool, part: CellBatch) -> None:
            nonlocal unresolved
            count = len(part)
            if ok:
                self.points_written += count
            else:
                self.points_failed += count
            if len(credits) == 1:
                charges: Iterable = ((credits[0][0], count),)
            elif count == unresolved == len(cells):
                charges = credits
            else:
                owner = dict(zip(cells.ts, chain.from_iterable(starmap(repeat, credits))))
                charges = Counter(map(owner.__getitem__, part.ts)).items()
            unresolved -= count
            for ctx, charge in charges:
                ctx.pending -= charge
                if ok:
                    ctx.written += charge
                else:
                    ctx.failed += charge
                if not ctx.pending:
                    ctx.span.end(written=ctx.written, failed=ctx.failed)
                    ctx.reply(PutAck(ctx.failed == 0, ctx.written, ctx.failed, self.name))
            if not unresolved:
                flush_span.end(ok=ok)

        self.client.put(DATA_TABLE, cells, on_done, batch_ids=batch_ids, block=block)

    def encode_block(self, payload: Union[SeriesBlock, BlockBatch]) -> CellBatch:
        """UID-intern and row-key-encode a block, or a whole batch of them.

        One pass over the payload makes one cell batch, blocks in batch
        order.  Every block's ends are range-checked before anything is
        drawn or memoised (a block's column is sorted, so its ends bound
        every timestamp in it): a payload that raises leaves the clock
        and the series memo as they were.  A block then costs one memo
        hit, and each of its row-hour runs one qualifier-table lookup
        per cell: the run reuses the row its series last wrote to, as
        :meth:`encode_points` does, and a row key is materialised (one
        salt hash) only when a run's hour differs from the memo's.  The
        value column is packed in one call, and write timestamps are
        drawn one per cell, in cell order, from the same logical clock
        as :meth:`encode_points`, so newest-wins semantics are unchanged.
        """
        blocks = payload.blocks if isinstance(payload, BlockBatch) else (payload,)
        for block in blocks:
            ts = block.timestamps
            if ts and (ts[0] < 0 or ts[-1] >= TIMESTAMP_LIMIT):
                raise ValueError("timestamp must fit in an unsigned 32-bit second count")
        rows: List[bytes] = []
        qualifiers: List[bytes] = []
        values = array("d")
        add_rows, add_qualifiers = rows.extend, qualifiers.extend
        memo, encode, table = self._series, self.codec.encode, QUALIFIER_TABLE
        for block in blocks:
            series = memo[block.metric, block.tags]
            ts = block.timestamps
            values.extend(block.values)
            start = 0
            while start < len(ts):
                first = ts[start]
                base = first - first % ROW_SPAN_SECONDS
                stop = bisect_left(ts, base + ROW_SPAN_SECONDS, start)
                if base != series.base:
                    series.row, _ = encode(series.metric_uid, first, series.tag_pairs)
                    series.base = base
                add_rows(repeat(series.row, stop - start))
                add_qualifiers([table[t - base] for t in ts[start:stop]])
                start = stop
        write_ts = array("d", starmap(self._next_write_ts, repeat((), len(rows))))
        return CellBatch(rows, qualifiers, list(encode_f64_column(values)), write_ts)

    def encode_point(self, point: DataPoint) -> Cell:
        """UID-intern and row-key-encode one data point into an HBase cell.

        The cell's ``ts`` is a *write* timestamp from the deployment's
        logical clock (wall-clock write time in real HBase), so
        newest-write-wins resolution and compaction shadowing are
        well-defined even when old data timestamps are backfilled.
        The one-point form of :meth:`encode_points`.
        """
        cells = self.encode_points((point,))
        return Cell(cells.rows[0], cells.qualifiers[0], cells.values[0], cells.ts[0])

    def encode_points(self, points: Sequence[DataPoint]) -> CellBatch:
        """UID-intern and row-key-encode a point list, as one batch and no cells.

        The bulk form for a point list in arrival order (one point per
        series per tick, typically), and the one home of the per-point
        row-hour memo: a point whose series last wrote to its row hour
        reuses that row, and a row key is materialised (one salt hash)
        only when the hour differs.  The range check runs on every
        point — the last row hour before 2**32 is partial, and a memo
        hit on it must not admit what lies past.  One write timestamp
        is drawn per point, in point order, and the value column packed
        in one call, as :meth:`encode_block` does.
        """
        rows: List[bytes] = []
        qualifiers: List[bytes] = []
        add_row, add_qualifier = rows.append, qualifiers.append
        memo, encode, table = self._series, self.codec.encode, QUALIFIER_TABLE
        for point in points:
            series = memo[point.metric, point.tags]
            timestamp = point.timestamp
            offset = timestamp % ROW_SPAN_SECONDS
            if timestamp - offset != series.base or timestamp >= TIMESTAMP_LIMIT:
                series.row, _ = encode(series.metric_uid, timestamp, series.tag_pairs)
                series.base = timestamp - offset
            add_row(series.row)
            add_qualifier(table[offset])
        write_ts = array("d", starmap(self._next_write_ts, repeat((), len(rows))))
        values = list(encode_f64_column([point.value for point in points]))
        return CellBatch(rows, qualifiers, values, write_ts)

    def _linger_flush(self, bucket: int) -> None:
        self._linger_timers.pop(bucket, None)
        self._flush_bucket(bucket)

    def _flush_bucket(self, bucket: int) -> None:
        entry = self._buffers.pop(bucket, None)
        timer = self._linger_timers.pop(bucket, None)
        if timer is not None:
            timer.cancel()  # type: ignore[attr-defined]
        if entry is not None:
            self._put(*entry, block=False)

    def flush_all(self) -> None:
        """Flush every buffered bucket immediately (shutdown/drain hook)."""
        for bucket in list(self._buffers):
            self._flush_bucket(bucket)

    def _send_ack(self, reply_to: Callable[[PutAck], None], dst_host: str, ack: PutAck) -> None:
        if self.crashed:
            return  # a dead process sends nothing; the batch is swallowed
        self.network.send(self.node.hostname, dst_host, reply_to, ack)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<TSDaemon {self.name} received={self.points_received}>"
