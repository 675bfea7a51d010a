"""Simulated machines and single-threaded service loops.

A :class:`Node` models one cluster machine.  The unit of computation is
the :class:`Server`: a serial service loop with a bounded FIFO queue,
which is exactly the abstraction needed to reproduce the paper's two
systems findings — RegionServer RPC-queue overflow (bounded queue,
rejects) and per-machine service capacity (serial loop with a service
time per request, so a machine saturates at ``1 / service_time``
requests per second).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional, Tuple

from .metrics import MetricsRegistry
from .simulation import Simulator

__all__ = ["Node", "Server"]


class Node:
    """A machine in the simulated cluster.

    Nodes are bookkeeping: they own a hostname and the servers running
    on them.  Capacity lives in the servers.
    """

    def __init__(self, sim: Simulator, hostname: str) -> None:
        self.sim = sim
        self.hostname = hostname
        self.servers: list["Server"] = []

    def add_server(self, server: "Server") -> None:
        self.servers.append(server)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Node {self.hostname} servers={len(self.servers)}>"


class Server:
    """Serial service loop with a bounded FIFO queue.

    Jobs are ``(payload, service_time, on_done)`` tuples.  The server
    processes one job at a time; a job submitted while busy waits in the
    queue.  If the queue is full the job is *rejected*: ``submit``
    returns ``False`` and the optional ``on_reject`` callback fires.
    Rejection is the hook the RegionServer uses to model RPC-queue
    overflow (see :mod:`repro.hbase.regionserver`).

    Parameters
    ----------
    sim:
        The owning simulator.
    name:
        Diagnostic name (also the metrics label).
    queue_capacity:
        Maximum number of queued (not in-service) jobs; ``None`` means
        unbounded.
    metrics:
        Optional shared registry; the server records ``<name>.served``,
        ``<name>.rejected`` and a busy-time counter for utilisation.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        queue_capacity: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if queue_capacity is not None and queue_capacity < 0:
            raise ValueError("queue_capacity must be >= 0 or None")
        self.sim = sim
        self.name = name
        self.queue_capacity = queue_capacity
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._queue: Deque[Tuple[Any, float, Optional[Callable[[Any], None]]]] = deque()
        self._busy = False
        self._stopped = False
        self._busy_since: Optional[float] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Stop serving.  Queued jobs are dropped (counted as ``dropped``)."""
        self._stopped = True
        dropped = len(self._queue)
        if dropped:
            self.metrics.counter("server.dropped").inc(dropped, label=self.name)
        self._queue.clear()

    def start(self) -> None:
        self._stopped = False

    # ------------------------------------------------------------------
    # queueing
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Jobs waiting (excluding the one in service)."""
        return len(self._queue)

    @property
    def busy(self) -> bool:
        return self._busy

    def submit(
        self,
        payload: Any,
        service_time: float,
        on_done: Optional[Callable[[Any], None]] = None,
        on_reject: Optional[Callable[[Any], None]] = None,
    ) -> bool:
        """Enqueue a job.  Returns True if accepted, False if rejected.

        ``on_done(payload)`` fires when service completes.  A submission
        to a stopped server is rejected (never an exception — the caller
        is a remote client that can only observe failure).
        """
        if service_time < 0:
            raise ValueError("service_time must be non-negative")
        if self._stopped:
            self.metrics.counter("server.rejected").inc(label=self.name)
            if on_reject is not None:
                on_reject(payload)
            return False
        if (
            self.queue_capacity is not None
            and self._busy
            and len(self._queue) >= self.queue_capacity
        ):
            self.metrics.counter("server.rejected").inc(label=self.name)
            if on_reject is not None:
                on_reject(payload)
            return False
        self._queue.append((payload, service_time, on_done))
        self._pump()
        return True

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _pump(self) -> None:
        if self._busy or self._stopped or not self._queue:
            return
        payload, service_time, on_done = self._queue.popleft()
        self._busy = True
        self._busy_since = self.sim.now
        self.sim.schedule(service_time, self._complete, payload, on_done)

    def _complete(self, payload: Any, on_done: Optional[Callable[[Any], None]]) -> None:
        self._busy = False
        if self._busy_since is not None:
            self.metrics.counter("server.busy_time").inc(
                self.sim.now - self._busy_since, label=self.name
            )
            self._busy_since = None
        if self._stopped:
            # The server died mid-service; the in-flight job is lost.
            self.metrics.counter("server.dropped").inc(label=self.name)
            return
        self.metrics.counter("server.served").inc(label=self.name)
        if on_done is not None:
            on_done(payload)
        self._pump()

    def utilization(self, horizon: float) -> float:
        """Fraction of ``horizon`` spent busy (current busy period excluded)."""
        if horizon <= 0:
            return 0.0
        return self.metrics.counter("server.busy_time").get(self.name) / horizon

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Server {self.name} depth={self.queue_depth} busy={self._busy}>"
