"""Buffering reverse proxy in front of the TSD daemons.

Reproduces the component the paper built after RegionServers "crashed
frequently due to overloaded RPC queues", hardened for component
failure (the half of §III-B the happy-path reproduction left out):

* **Backpressure** — at most ``max_in_flight`` put batches are
  outstanding at once; excess batches wait in an internal buffer rather
  than piling onto TSD/RegionServer queues.
* **Load balancing with liveness** — buffered batches are dispatched to
  the TSD daemons round-robin, skipping daemons whose node is down or
  whose process has crashed.
* **Circuit breaking** — consecutive failures against one TSD eject it
  from the rotation (*open*); after :data:`EJECT_DURATION` a single
  *half-open* probe batch tests it, and a success closes the breaker.
  If every breaker is open the proxy falls back to treating all live
  TSDs as candidates rather than deadlocking (*all-open fallback*).
* **Bounded retry with backoff** — a bounced, timed-out, or partially
  written batch is retried with exponential backoff and deterministic
  (seeded) jitter, up to :data:`MAX_BATCH_RETRIES` attempts; exhausted
  batches resolve to a *permanent-failure* ack instead of silently
  recirculating forever.
* **Partial-batch retry** — a batch acked with ``0 < written <
  len(points)`` is resubmitted whole.  The TSD counts the points of
  whichever RegionServer writes succeeded, so ``written`` says how many
  landed, not which; rewriting the ones that did is idempotent
  (newest-wins cells).
* **Ack timeouts** — a dispatch with no ack after ``ack_timeout``
  (crashed TSD swallowed it, partition dropped it) is treated as a
  failure and retried; a late ack for a timed-out dispatch is ignored.

The E7 ablation compares this against a fire-and-forget path
(:class:`DirectSubmitter`) which reproduces the crash behaviour.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Callable, Deque, List, Optional, Sequence

import numpy as np

from ..cluster.metrics import MetricsRegistry
from ..cluster.network import Network
from ..cluster.simulation import EventHandle, Simulator
from ..obs.trace import NULL_SPAN, SpanLike, Tracer
from .tsd import DataPoint, PutAck, TSDaemon

__all__ = ["ReverseProxy", "DirectSubmitter", "TsdBreaker"]

AckCallback = Callable[[PutAck], None]

#: Sentinel "tsd" name on a permanent-failure ack synthesized by the proxy.
PROXY_EXHAUSTED = "proxy-exhausted"

#: Hostnames the two ingress paths send from.
PROXY_HOST = "proxy"
DIRECT_HOST = "ingress"

#: Retry backoff: attempt ``k`` waits ``RETRY_DELAY * BACKOFF_MULT**k``
#: seconds, capped at ``MAX_BACKOFF``, then jittered into [0.5, 1.0) of
#: that by an RNG seeded with ``JITTER_SEED`` (so runs replay exactly).
RETRY_DELAY = 0.05
BACKOFF_MULT = 2.0
MAX_BACKOFF = 1.0
JITTER_SEED = 0

#: Retry budget per batch; exhaustion resolves the batch to a
#: permanent-failure ack instead of recirculating it forever.
MAX_BATCH_RETRIES = 12

#: Circuit breakers: consecutive failures that open a TSD's breaker,
#: and how long (s) it stays ejected before a half-open probe.
FAILURE_THRESHOLD = 3
EJECT_DURATION = 0.5


class TsdBreaker:
    """Per-TSD circuit breaker: closed → open → half-open → closed.

    ``record_failure`` counts consecutive failures; at
    ``failure_threshold`` the breaker opens (the TSD leaves the
    rotation) for ``eject_duration`` seconds.  After that, ``available``
    admits exactly one half-open probe dispatch; its outcome either
    closes the breaker or re-opens it for another full ejection period.
    """

    __slots__ = ("failure_threshold", "eject_duration", "consecutive_failures",
                 "state", "opened_at", "probe_in_flight", "ejections")

    def __init__(self, failure_threshold: int, eject_duration: float) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if eject_duration <= 0:
            raise ValueError("eject_duration must be positive")
        self.failure_threshold = failure_threshold
        self.eject_duration = eject_duration
        self.consecutive_failures = 0
        self.state = "closed"
        self.opened_at = 0.0
        self.probe_in_flight = False
        self.ejections = 0

    def available(self, now: float) -> bool:
        """May a dispatch be routed here right now?"""
        if self.state == "closed":
            return True
        if self.state == "open":
            return now - self.opened_at >= self.eject_duration
        return not self.probe_in_flight  # half-open: one probe at a time

    def on_dispatch(self, now: float) -> None:
        """Note that a dispatch was routed here (may start a probe)."""
        if self.state == "open" and now - self.opened_at >= self.eject_duration:
            self.state = "half-open"
            self.probe_in_flight = True
        elif self.state == "half-open":
            self.probe_in_flight = True

    def record_success(self) -> None:
        self.consecutive_failures = 0
        self.state = "closed"
        self.probe_in_flight = False

    def record_failure(self, now: float) -> None:
        self.consecutive_failures += 1
        if self.state == "half-open" or (
            self.state == "closed"
            and self.consecutive_failures >= self.failure_threshold
        ):
            self.state = "open"
            self.opened_at = now
            self.ejections += 1
        self.probe_in_flight = False

    @property
    def open(self) -> bool:
        return self.state == "open"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<TsdBreaker {self.state} fails={self.consecutive_failures}>"


class _BatchState:
    """One submitted batch's delivery lifecycle across retries.

    ``remaining`` is the batch still owed to storage: every retry
    resends all of it, so the final ack writes or fails it whole.
    """

    __slots__ = ("remaining", "on_ack", "attempts", "submitted_at", "batch_id", "span")

    def __init__(
        self,
        points,
        on_ack: Optional[AckCallback],
        submitted_at: float,
        batch_id: int = 0,
        span: SpanLike = NULL_SPAN,
    ) -> None:
        # ``points`` is any point-sequence payload — a DataPoint list or
        # a columnar BlockBatch.  The delivery machinery only takes
        # ``len()`` and forwards it, so both shapes retry identically.
        self.remaining = points
        self.on_ack = on_ack
        self.attempts = 0
        self.submitted_at = submitted_at
        self.batch_id = batch_id
        self.span = span


class _Dispatch:
    """One wire-level attempt of a batch; guards against double resolution."""

    __slots__ = ("state", "tsd_index", "sent", "resolved", "timeout_handle", "span")

    def __init__(
        self, state: _BatchState, tsd_index: int, sent: int, span: SpanLike = NULL_SPAN
    ) -> None:
        self.state = state
        self.tsd_index = tsd_index
        self.sent = sent
        self.resolved = False
        self.timeout_handle: Optional[EventHandle] = None
        self.span = span


class ReverseProxy:
    """Health-aware, bounded-in-flight buffer in front of the TSDs.

    Parameters
    ----------
    max_in_flight:
        Outstanding dispatch window (backpressure bound).
    ack_timeout:
        Seconds a dispatch may await its ack before being declared lost
        and retried.  ``None`` disables timeouts (a crashed TSD then
        wedges the window — the pre-hardening behaviour).

    Setting :attr:`breakers` to ``None`` after construction switches
    the circuit breakers off (the other half of the pre-hardening
    ingress E12 ablates).
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        tsds: Sequence[TSDaemon],
        max_in_flight: int = 64,
        ack_timeout: Optional[float] = 5.0,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if not tsds:
            raise ValueError("proxy needs at least one TSD")
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if ack_timeout is not None and ack_timeout <= 0:
            raise ValueError("ack_timeout must be positive (or None)")
        self.sim = sim
        self.network = network
        self.tsds = list(tsds)
        self.max_in_flight = max_in_flight
        self.ack_timeout = ack_timeout
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        self._batch_seq = itertools.count(1)
        self._rng = np.random.default_rng(JITTER_SEED)
        self.breakers: Optional[List[TsdBreaker]] = [
            TsdBreaker(FAILURE_THRESHOLD, EJECT_DURATION) for _ in tsds
        ]
        self._buffer: Deque[_BatchState] = deque()
        self._in_flight = 0
        self._rr = 0
        self.buffer_high_water = 0
        self.dispatched = 0
        self.retried = 0
        self.ack_timeouts = 0
        self.failed_batches = 0
        self.failed_points = 0

    # ------------------------------------------------------------------
    # ingress
    # ------------------------------------------------------------------
    def submit(self, points, on_ack: Optional[AckCallback] = None) -> None:
        """Accept a put batch; buffered if the in-flight window is full.

        ``points`` may be a :class:`DataPoint` list or a columnar
        :class:`~repro.tsdb.blocks.BlockBatch` — the proxy is
        payload-shape-agnostic (length and forwarding are all it
        ever does), so block batches inherit the breakers,
        bounded retries, and ack-timeout machinery unchanged.
        """
        batch_id = next(self._batch_seq)
        # Root span of the batch's trace: submit() to final aggregate
        # ack, spanning every dispatch/retry in between.
        span = self.tracer.begin("proxy.batch", batch_id=batch_id, points=len(points))
        self._enqueue(_BatchState(points, on_ack, self.sim.now, batch_id, span))

    def _enqueue(self, state: _BatchState) -> None:
        self._buffer.append(state)
        self.buffer_high_water = max(self.buffer_high_water, len(self._buffer))
        self._drain()

    @property
    def buffered(self) -> int:
        return len(self._buffer)

    @property
    def in_flight(self) -> int:
        return self._in_flight

    def breaker_ejections(self) -> int:
        """Total times any TSD was ejected from the rotation."""
        if self.breakers is None:
            return 0
        return sum(b.ejections for b in self.breakers)

    # ------------------------------------------------------------------
    # dispatch loop
    # ------------------------------------------------------------------
    def _drain(self) -> None:
        while self._buffer and self._in_flight < self.max_in_flight:
            self._dispatch(self._buffer.popleft())

    def _alive(self, tsd: TSDaemon) -> bool:
        return not tsd.crashed

    def _select_tsd(self) -> Optional[int]:
        """Next healthy TSD index: round-robin over live, breaker-admitted TSDs.

        Falls back to ignoring breaker state when every live TSD's
        breaker is open (all-open fallback), and returns ``None`` only
        when no TSD is alive at all.
        """
        n = len(self.tsds)
        now = self.sim.now
        fallback: Optional[int] = None
        for offset in range(n):
            idx = (self._rr + offset) % n
            tsd = self.tsds[idx]
            if not self._alive(tsd):
                continue
            if fallback is None:
                fallback = idx
            if self.breakers is not None and not self.breakers[idx].available(now):
                continue
            self._rr = idx + 1
            return idx
        if fallback is not None:
            self.metrics.counter("proxy.all_open_fallback").inc()
            self._rr = fallback + 1
            return fallback
        return None

    def _dispatch(self, state: _BatchState) -> None:
        idx = self._select_tsd()
        if idx is None:
            # Nothing alive to talk to: back off and retry (bounded).
            self._retry_later(state)
            return
        tsd = self.tsds[idx]
        if self.breakers is not None:
            self.breakers[idx].on_dispatch(self.sim.now)
        route_span = self.tracer.begin(
            "proxy.route",
            parent=state.span,
            batch_id=state.batch_id,
            tsd=tsd.name,
            attempt=state.attempts,
        )
        dispatch = _Dispatch(state, idx, len(state.remaining), route_span)
        self._in_flight += 1
        self.dispatched += 1
        if self.ack_timeout is not None:
            dispatch.timeout_handle = self.sim.schedule(
                self.ack_timeout, self._on_timeout, dispatch
            )
        handle = self.network.send(
            PROXY_HOST,
            tsd.node.hostname,
            tsd.put_batch,
            state.remaining,
            lambda ack: self._on_tsd_ack(dispatch, ack),
            PROXY_HOST,
            state.batch_id,
        )
        if handle is None:
            # The network dropped the send (partition): fail fast rather
            # than waiting out the ack timeout.  No _drain() here — this
            # runs inside the _drain loop, which continues on its own.
            self._settle(dispatch)
            dispatch.span.end(outcome="partition-drop")
            if self.breakers is not None:
                self.breakers[idx].record_failure(self.sim.now)
            self._retry_later(state)

    # ------------------------------------------------------------------
    # ack / failure handling
    # ------------------------------------------------------------------
    def _on_tsd_ack(self, dispatch: _Dispatch, ack: PutAck) -> None:
        if dispatch.resolved:
            self.metrics.counter("proxy.late_acks").inc()
            return
        self._settle(dispatch)
        dispatch.span.end(
            outcome="ack" if ack.written >= dispatch.sent else
            ("partial" if ack.written > 0 else "bounce"),
            written=ack.written,
        )
        state = dispatch.state
        if ack.written >= dispatch.sent:
            # Fully written: the batch is done.
            if self.breakers is not None:
                self.breakers[dispatch.tsd_index].record_success()
            self._finish(state, ok=True, tsd=ack.tsd)
        else:
            # Bounced (TSD queue full / stopped) or partly written: which
            # points landed is unknown, so the whole batch goes again.
            if self.breakers is not None:
                self.breakers[dispatch.tsd_index].record_failure(self.sim.now)
            self._retry_later(state)
        self._drain()

    def _on_timeout(self, dispatch: _Dispatch) -> None:
        """No ack within ``ack_timeout``: the batch was swallowed or dropped."""
        if dispatch.resolved:
            return
        self._settle(dispatch)
        dispatch.span.end(outcome="timeout")
        self.ack_timeouts += 1
        self.metrics.counter("proxy.ack_timeouts").inc()
        if self.breakers is not None:
            self.breakers[dispatch.tsd_index].record_failure(self.sim.now)
        self._retry_later(dispatch.state)
        self._drain()

    def _settle(self, dispatch: _Dispatch) -> None:
        dispatch.resolved = True
        self._in_flight -= 1
        if dispatch.timeout_handle is not None:
            dispatch.timeout_handle.cancel()
            dispatch.timeout_handle = None

    def _retry_later(self, state: _BatchState) -> None:
        """Requeue after jittered exponential backoff, within the budget."""
        if state.attempts >= MAX_BATCH_RETRIES:
            self.failed_batches += 1
            self.failed_points += len(state.remaining)
            self.metrics.counter("proxy.failed_points").inc(len(state.remaining))
            self._finish(state, ok=False, tsd=PROXY_EXHAUSTED)
            return
        delay = min(MAX_BACKOFF, RETRY_DELAY * (BACKOFF_MULT ** state.attempts))
        # Deterministic jitter in [0.5, 1.0): decorrelates retry storms
        # while keeping runs reproducible per proxy seed.
        delay *= 0.5 + 0.5 * float(self._rng.random())
        state.attempts += 1
        self.retried += 1
        self.metrics.counter("proxy.retries").inc()
        self.sim.schedule(delay, self._enqueue, state)

    def _finish(self, state: _BatchState, ok: bool, tsd: str) -> None:
        """Deliver the batch's single aggregate ack to the submitter."""
        # End-to-end ack latency: submit() to final aggregate ack,
        # spanning any retries/timeouts in between.
        self.metrics.histogram("proxy.ack_latency").observe(
            self.sim.now - state.submitted_at
        )
        written, failed = (len(state.remaining), 0) if ok else (0, len(state.remaining))
        state.span.end(
            outcome="ok" if ok else "failed",
            written=written,
            failed=failed,
            tsd=tsd,
        )
        if state.on_ack is not None:
            state.on_ack(PutAck(ok, written, failed, tsd))


class DirectSubmitter:
    """Fire-and-forget round-robin submission straight to the TSDs.

    The "before" configuration of the paper's §III-B: no in-flight
    bound, no buffering, no retry.  Offered load lands unchecked on the
    TSD and RegionServer queues; under overload the RegionServers
    overflow and crash.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        tsds: Sequence[TSDaemon],
        spray: bool = True,
    ) -> None:
        if not tsds:
            raise ValueError("need at least one TSD")
        self.sim = sim
        self.network = network
        self.tsds = list(tsds)
        self.spray = spray
        self._rr = 0
        self.dispatched = 0

    def submit(self, points, on_ack: Optional[AckCallback] = None) -> None:
        """Send immediately to the next TSD (or always the first if not
        spraying).  Accepts point lists and :class:`BlockBatch` alike."""
        if self.spray:
            tsd = self.tsds[self._rr % len(self.tsds)]
            self._rr += 1
        else:
            tsd = self.tsds[0]
        self.dispatched += 1

        def handle(ack: PutAck) -> None:
            if on_ack is not None:
                on_ack(ack)

        self.network.send(
            DIRECT_HOST, tsd.node.hostname, tsd.put_batch, points, handle, DIRECT_HOST
        )
