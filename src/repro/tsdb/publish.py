"""Backpressured batch publishing into the cluster's real ingress.

The paper's §III lesson is that *all* writes must flow through the
buffering reverse proxy: fire-and-forget submission overflows the
RegionServer RPC queues and crashes them.  The analysis pipeline used
to sidestep that path with :meth:`TsdbCluster.direct_put`;
:class:`BatchPublisher` routes results through
:meth:`TsdbCluster.submit` instead — the same ingress the ingestion
benchmarks exercise — while keeping the *driver* side honest too:

* **Batching** — points accumulate into fixed-size put batches (the
  TSD ``/api/put`` granularity) instead of per-point RPCs.
* **Bounded in-flight** — at most ``max_in_flight_batches`` batches may
  be awaiting durable acknowledgement; past that the publisher steps
  the discrete-event simulator until acks free the window, so the
  producing pipeline cannot run ahead of the storage tier.
* **Ack deadlines + dead-letter ledger** — every submitted batch
  carries a deadline; a batch with no ack by then (a crashed TSD
  swallowed it) is retransmitted up to :data:`MAX_RETRANSMITS` times and
  then *dead-lettered*: its points are recorded on the publisher's
  :attr:`~BatchPublisher.dead_letter` ledger and counted in the
  report, never silently lost.  Retransmission makes delivery
  at-least-once; storage dedupes via newest-write-wins cells.
* **Delivery conservation** — :meth:`PublishReport.check_conservation`
  enforces that every submitted point is accounted exactly once:
  ``points_submitted == points_written + points_failed +
  points_dead_lettered``.  ``flush`` verifies it on every run.

A ``use_proxy_path=False`` publisher falls back to the bulk
:meth:`~TsdbCluster.direct_put` load (identical stored cells, no
simulated RPC), which storage-less studies and tests use to compare
the two paths land the same data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..analysis.raceaudit import assert_holds, audited_lock
from ..cluster.metrics import MetricsRegistry
from ..cluster.simulation import EventHandle
from .blocks import BlockBatch, SeriesBlock
from .ingest import TsdbCluster
from .tsd import DataPoint, PutAck

__all__ = [
    "BatchPublisher",
    "DeliveryAccountingError",
    "PublishReport",
    "PublishStalledError",
]

#: Deadline-triggered retransmissions per batch before it goes to the
#: dead-letter ledger.
MAX_RETRANSMITS = 2


class DeliveryAccountingError(RuntimeError):
    """The delivery conservation invariant was violated (a point was
    double-counted or lost without being written, failed, or
    dead-lettered)."""


class PublishStalledError(RuntimeError):
    """The simulator drained with acks still pending.

    Raised by :meth:`BatchPublisher.flush` instead of quietly returning
    a report whose ``complete`` is false.  ``pending`` carries the
    stalled ledger: ``(batch_size, attempts)`` per unresolved batch.
    """

    def __init__(self, report: "PublishReport", pending: List[Tuple[int, int]]) -> None:
        self.report = report
        self.pending = pending
        points = sum(n for n, _ in pending)
        super().__init__(
            f"publish stalled: {len(pending)} batch(es) / {points} point(s) "
            "still awaiting acks after the simulator drained "
            "(enable ack_deadline to convert stalls into dead letters)"
        )


@dataclass
class PublishReport:
    """Accounting for one publisher's lifetime (returned by ``flush``).

    ``mode`` is ``"proxy"`` (through :meth:`TsdbCluster.submit`) or
    ``"direct"`` (bulk-loaded via :meth:`TsdbCluster.direct_put`).
    ``points_written`` counts durably acknowledged cells;
    ``points_failed`` counts points the ingress reported permanently
    failed; ``points_dead_lettered`` counts points whose acks never
    arrived within the deadline/retransmit budget; ``retries`` counts
    proxy re-dispatches of bounced batches during this publisher's
    lifetime; ``retransmits`` counts publisher-level deadline
    retransmissions.  ``pending_unresolved`` is always zero on a
    report returned by ``flush`` (a stall raises
    :class:`PublishStalledError` instead).
    """

    mode: str
    points_submitted: int = 0
    batches_submitted: int = 0
    batches_acked: int = 0
    points_written: int = 0
    points_failed: int = 0
    points_dead_lettered: int = 0
    batches_dead_lettered: int = 0
    retries: int = 0
    retransmits: int = 0
    max_pending: int = 0
    pending_unresolved: int = 0

    @property
    def complete(self) -> bool:
        """True when every submitted batch resolved to an ack."""
        return self.pending_unresolved == 0

    @property
    def points_accounted(self) -> int:
        """Points with a definite fate: written, failed, or dead-lettered."""
        return self.points_written + self.points_failed + self.points_dead_lettered

    @property
    def conservation_ok(self) -> bool:
        """Every submitted point accounted exactly once."""
        return self.points_submitted == self.points_accounted

    def check_conservation(self) -> None:
        """Raise :class:`DeliveryAccountingError` unless every point is
        accounted exactly once (the ingest tier's delivery invariant)."""
        if not self.conservation_ok:
            raise DeliveryAccountingError(
                f"delivery accounting violated: submitted={self.points_submitted} "
                f"!= written={self.points_written} + failed={self.points_failed} "
                f"+ dead_lettered={self.points_dead_lettered}"
            )


class _PendingBatch:
    """Ledger entry for one submitted-but-unacked batch."""

    __slots__ = ("points", "attempts", "deadline_handle")

    def __init__(self, points) -> None:
        # ``points`` is any point-sequence payload (list of DataPoints
        # or a BlockBatch); the ledger only ever takes its length and
        # hands it back to ``cluster.submit``.
        self.points = points
        self.attempts = 0
        self.deadline_handle: Optional[EventHandle] = None


class BatchPublisher:
    """Batching, backpressured writer of analysis results to the TSDB.

    Parameters
    ----------
    cluster:
        The simulated deployment to publish into.
    batch_size:
        Points per put batch submitted to the ingress.
    max_in_flight_batches:
        Driver-side backpressure window: publishing blocks (stepping
        the simulator) while this many batches await acknowledgement.
    use_proxy_path:
        ``True`` routes through ``cluster.submit()`` (the reverse
        proxy / direct submitter, with simulated RPC and durable acks);
        ``False`` falls back to ``cluster.direct_put()`` bulk loads.
    ack_deadline:
        Sim-seconds a batch may await its durable ack before being
        retransmitted; after :data:`MAX_RETRANSMITS` retransmissions it
        is dead-lettered.  ``None`` disables deadlines (a swallowed
        batch then stalls ``flush``, which raises
        :class:`PublishStalledError`).
    metrics:
        Registry receiving ``<channel>.batches`` / ``.acks`` /
        ``.points_written`` / ``.points_failed`` / ``.retries`` /
        ``.retransmits`` / ``.dead_lettered`` counters and the
        ``<channel>.max_pending`` gauge.
    channel:
        Metric-name prefix, so independent publishers (e.g. sensor
        data vs anomaly flags) stay separately accounted.
    """

    def __init__(
        self,
        cluster: TsdbCluster,
        *,
        batch_size: int = 500,
        max_in_flight_batches: int = 32,
        use_proxy_path: bool = True,
        ack_deadline: Optional[float] = 30.0,
        metrics: Optional[MetricsRegistry] = None,
        channel: str = "publish",
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if max_in_flight_batches < 1:
            raise ValueError("max_in_flight_batches must be >= 1")
        if ack_deadline is not None and ack_deadline <= 0:
            raise ValueError("ack_deadline must be positive (or None)")
        self.cluster = cluster
        self.batch_size = batch_size
        self.max_in_flight_batches = max_in_flight_batches
        self.use_proxy_path = use_proxy_path
        self.ack_deadline = ack_deadline
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.channel = channel
        self.report = PublishReport(mode="proxy" if use_proxy_path else "direct")
        #: Dead-letter ledger: batches whose acks never arrived in budget.
        self.dead_letter: List[List[DataPoint]] = []
        self._batch: List[DataPoint] = []
        # Ack state is mutated by _on_ack callbacks fired from simulator
        # steps as well as by the submitting driver code.
        self._state_lock = audited_lock("tsdb.publish.state")
        self._pending = 0  # guarded-by: _state_lock
        # Unresolved batches only: an ack or a dead letter removes its
        # entry, so a delivered payload is not kept for the publisher's life.
        self._ledger: Dict[int, _PendingBatch] = {}  # guarded-by: _state_lock
        self._next_token = 0
        self._closed = False
        self._retries_at_start = cluster.metrics.counter("proxy.retries").get()

    # ------------------------------------------------------------------
    # ingress
    # ------------------------------------------------------------------
    def publish(self, points: Iterable[DataPoint]) -> None:
        """Buffer points, submitting every full batch (with backpressure)."""
        if self._closed:
            raise RuntimeError("publisher already flushed")
        batch = self._batch
        for point in points:
            batch.append(point)
            if len(batch) >= self.batch_size:
                self._submit(batch)
                batch = self._batch = []

    def publish_blocks(self, blocks) -> None:
        """Publish columnar blocks through the same submission window.

        Accepts a :class:`BlockBatch`, one :class:`SeriesBlock`, or an
        iterable of blocks.  The batch is chunked into
        ``batch_size``-point :class:`BlockBatch` slices (whole blocks
        where possible; at most one block splits per boundary) and each
        chunk rides the identical ledger / deadline / dead-letter
        machinery as :meth:`publish` — the payload stays columnar all
        the way to the TSD.  Any buffered point tail is submitted first
        so FIFO ordering holds across mixed publishes; block chunks are
        not buffered (blocks arrive pre-batched upstream).
        """
        if self._closed:
            raise RuntimeError("publisher already flushed")
        if isinstance(blocks, SeriesBlock):
            batch = BlockBatch([blocks])
        elif isinstance(blocks, BlockBatch):
            batch = blocks
        else:
            batch = BlockBatch(list(blocks))
        if self._batch:
            self._submit(self._batch)
            self._batch = []
        pos, total = 0, len(batch)
        while pos < total:
            chunk = batch[pos : pos + self.batch_size]
            pos += len(chunk)
            self._submit(chunk)

    @property
    def pending_batches(self) -> int:
        """Batches submitted but not yet durably acknowledged."""
        with self._state_lock:
            return self._pending

    # ------------------------------------------------------------------
    # drain
    # ------------------------------------------------------------------
    def flush(self) -> PublishReport:
        """Submit the tail batch, await every ack, and return the report.

        Raises :class:`PublishStalledError` if the simulator drains
        with acks still pending (only possible with ``ack_deadline``
        disabled — deadlines convert stalls into dead letters), and
        :class:`DeliveryAccountingError` if the conservation invariant
        is violated.
        """
        if self._closed:
            return self.report
        if self._batch:
            self._submit(self._batch)
            self._batch = []
        sim = self.cluster.sim
        while self.pending_batches and sim.step():
            pass
        self._closed = True
        rep = self.report
        with self._state_lock:
            stalled = [(len(entry.points), entry.attempts) for entry in self._ledger.values()]
        rep.pending_unresolved = len(stalled)
        rep.retries = int(
            self.cluster.metrics.counter("proxy.retries").get() - self._retries_at_start
        )
        self.metrics.counter(f"{self.channel}.retries").inc(rep.retries)
        if stalled:
            raise PublishStalledError(rep, stalled)
        rep.check_conservation()
        return rep

    # ------------------------------------------------------------------
    def _submit(self, batch) -> None:
        rep = self.report
        rep.batches_submitted += 1
        rep.points_submitted += len(batch)
        self.metrics.counter(f"{self.channel}.batches").inc()
        if not self.use_proxy_path:
            written = self.cluster.direct_put(batch)
            rep.batches_acked += 1
            rep.points_written += written
            rep.points_failed += len(batch) - written
            self.metrics.counter(f"{self.channel}.acks").inc()
            self.metrics.counter(f"{self.channel}.points_written").inc(written)
            return
        entry = _PendingBatch(batch)
        with self._state_lock:
            token = self._next_token
            self._next_token += 1
            self._ledger[token] = entry
            self._pending += 1
            rep.max_pending = max(rep.max_pending, self._pending)
            self.metrics.gauge(f"{self.channel}.max_pending").set(self._pending)
        self._transmit(token, entry)
        # Backpressure: step the cluster simulation until the in-flight
        # window has room again, so the producer cannot outrun storage.
        sim = self.cluster.sim
        while self.pending_batches >= self.max_in_flight_batches and sim.step():
            pass

    def _transmit(self, token: int, entry: _PendingBatch) -> None:
        """Send one (re)transmission of a ledger entry and arm its deadline."""
        if self.ack_deadline is not None:
            entry.deadline_handle = self.cluster.sim.schedule(
                self.ack_deadline, self._on_deadline, token
            )
        self.cluster.submit(entry.points, lambda ack: self._on_ack(token, ack))

    def _on_ack(self, token: int, ack: PutAck) -> None:
        with self._state_lock:
            entry = self._ledger.get(token)
            if entry is None:
                # Ack for a batch already retransmitted-and-resolved or
                # dead-lettered: count it once only (at-least-once
                # delivery; storage dedupes duplicate cells).
                self.metrics.counter(f"{self.channel}.late_acks").inc()
                return
            self._resolve(token, entry)
            self._record_ack(ack)

    def _on_deadline(self, token: int) -> None:
        with self._state_lock:
            entry = self._ledger.get(token)
            if entry is None:
                return
            if entry.attempts < MAX_RETRANSMITS:
                entry.attempts += 1
                self.report.retransmits += 1
                self.metrics.counter(f"{self.channel}.retransmits").inc()
                retransmit = True
            else:
                # Budget exhausted: to the dead-letter ledger, with the
                # points preserved for later replay/inspection.
                self._resolve(token, entry)
                self.report.batches_dead_lettered += 1
                self.report.points_dead_lettered += len(entry.points)
                self.dead_letter.append(entry.points)
                self._pending -= 1
                self.metrics.counter(f"{self.channel}.dead_lettered").inc(
                    len(entry.points)
                )
                retransmit = False
        if retransmit:
            self._transmit(token, entry)

    def _resolve(self, token: int, entry: _PendingBatch) -> None:
        """Settle a ledger entry: it leaves the ledger and its deadline
        is cancelled.  Caller holds ``_state_lock``."""
        assert_holds(self._state_lock)
        del self._ledger[token]
        if entry.deadline_handle is not None:
            entry.deadline_handle.cancel()
            entry.deadline_handle = None

    def _record_ack(self, ack: PutAck) -> None:
        """Fold one durable ack into the report; caller holds ``_state_lock``."""
        assert_holds(self._state_lock)
        self._pending -= 1
        rep = self.report
        rep.batches_acked += 1
        rep.points_written += ack.written
        rep.points_failed += ack.failed
        self.metrics.counter(f"{self.channel}.acks").inc()
        self.metrics.counter(f"{self.channel}.points_written").inc(ack.written)
        if ack.failed:
            self.metrics.counter(f"{self.channel}.points_failed").inc(ack.failed)
