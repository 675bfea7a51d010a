"""Admission control for the query-serving gateway.

Bounds the number of queries executing concurrently against the
storage tier (``max_concurrent`` slots), parks overflow in a FIFO wait
queue with per-request deadlines, and **sheds load** — raising
:class:`QueryRejected` with a retry-after hint — once the queue
saturates.

The controller is clock-agnostic and callback-driven: callers pass
``now`` explicitly and supply ``on_grant`` / ``on_timeout`` callbacks
when queueing, so the gateway can drive it from the discrete-event
simulator deterministically.  State machine for one request::

    admit() ──granted──▶ executing ──release()──▶ done
       │                                   │
       │ slots busy, queue has room        └─▶ promotes FIFO head(s)
       ├──▶ queued ──on_grant──▶ executing
       │        └──deadline──▶ expired (on_timeout, "deadline" shed)
       └──▶ QueryRejected("queue_full")    # queue saturated
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional

__all__ = ["AdmissionController", "QueryRejected", "Ticket"]

#: Seed of the EWMA service-time estimate behind retry-after hints.
SERVICE_ESTIMATE = 0.01


class QueryRejected(RuntimeError):
    """A query was shed before execution.

    ``reason`` is one of ``"queue_full"``, ``"deadline"`` or
    ``"unavailable"``; ``retry_after`` is the controller's estimate
    (seconds) of when a retry could succeed.
    """

    def __init__(self, reason: str, retry_after: float, detail: str) -> None:
        self.reason = reason
        self.retry_after = retry_after
        super().__init__(
            f"query rejected ({reason}); retry after {retry_after:.3f}s: {detail}"
        )


class Ticket:
    """One admitted-or-queued request.

    ``state`` transitions ``queued -> granted`` (via ``on_grant``) or
    ``queued -> expired`` (via ``on_timeout``); tickets granted a slot
    immediately are born ``granted``.
    """

    __slots__ = (
        "client_id",
        "enqueued_at",
        "deadline",
        "granted_at",
        "state",
        "on_grant",
        "on_timeout",
    )

    def __init__(
        self,
        client_id: str,
        enqueued_at: float,
        deadline: Optional[float],
        on_grant: Optional[Callable[["Ticket"], None]],
        on_timeout: Optional[Callable[["Ticket"], None]],
    ) -> None:
        self.client_id = client_id
        self.enqueued_at = enqueued_at
        self.deadline = deadline
        self.granted_at: Optional[float] = None
        self.state = "queued"
        self.on_grant = on_grant
        self.on_timeout = on_timeout

    @property
    def wait(self) -> float:
        """Queue wait in seconds (0.0 while still queued)."""
        if self.granted_at is None:
            return 0.0
        return self.granted_at - self.enqueued_at


class AdmissionController:
    """Bounded execution slots + FIFO wait queue + load shedding."""

    def __init__(self, max_concurrent: int, max_queue: int) -> None:
        if max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        if max_queue < 0:
            raise ValueError("max_queue must be >= 0")
        self.max_concurrent = max_concurrent
        self.max_queue = max_queue
        self.in_flight = 0
        self._queue: Deque[Ticket] = deque()
        # EWMA of observed execution times; feeds retry-after hints.
        self._service_estimate = SERVICE_ESTIMATE
        self.granted = 0
        self.queued = 0
        self.shed_queue_full = 0
        self.shed_deadline = 0
        self.queue_high_water = 0
        self.in_flight_high_water = 0

    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    @property
    def service_estimate(self) -> float:
        return self._service_estimate

    def retry_after(self) -> float:
        """Estimated drain time of the current backlog plus one service."""
        backlog = len(self._queue) + max(0, self.in_flight - self.max_concurrent + 1)
        return (backlog + 1) * self._service_estimate / self.max_concurrent + self._service_estimate

    # ------------------------------------------------------------------
    def admit(
        self,
        client_id: str,
        now: float,
        deadline: Optional[float] = None,
        on_grant: Optional[Callable[[Ticket], None]] = None,
        on_timeout: Optional[Callable[[Ticket], None]] = None,
    ) -> Ticket:
        """Request an execution slot.

        Returns a ticket whose ``state`` is ``"granted"`` (run now) or
        ``"queued"`` (``on_grant`` fires later, from some ``release``).
        ``deadline`` is the *absolute* time after which waiting is
        pointless; queued tickets past it are shed with ``on_timeout``.
        Raises :class:`QueryRejected` when the wait queue is full.
        """
        ticket = Ticket(client_id, now, deadline, on_grant, on_timeout)
        if self.in_flight < self.max_concurrent:
            self._grant(ticket, now)
            return ticket
        if len(self._queue) >= self.max_queue:
            self.shed_queue_full += 1
            raise QueryRejected("queue_full", self.retry_after(), f"client {client_id}")
        self._queue.append(ticket)
        self.queued += 1
        self.queue_high_water = max(self.queue_high_water, len(self._queue))
        return ticket

    def _grant(self, ticket: Ticket, now: float) -> None:
        ticket.state = "granted"
        ticket.granted_at = now
        self.in_flight += 1
        self.in_flight_high_water = max(self.in_flight_high_water, self.in_flight)
        self.granted += 1

    def release(self, now: float, started_at: Optional[float] = None) -> List[Ticket]:
        """Free one slot; promote FIFO waiters (skipping expired ones).

        Returns the tickets granted during this release, *after* their
        ``on_grant`` callbacks ran, so a sim-driven caller can also
        poll the list.  ``started_at`` (the grant time of the request
        being released) feeds the EWMA service-time estimate.
        """
        if self.in_flight <= 0:
            raise RuntimeError("release() without matching grant")
        self.in_flight -= 1
        if started_at is not None and now > started_at:
            observed = now - started_at
            self._service_estimate += 0.2 * (observed - self._service_estimate)
        promoted: List[Ticket] = []
        while self._queue and self.in_flight < self.max_concurrent:
            head = self._queue.popleft()
            if head.deadline is not None and now > head.deadline:
                self._expire(head)
                continue
            self._grant(head, now)
            promoted.append(head)
            if head.on_grant is not None:
                head.on_grant(head)
        return promoted

    # ------------------------------------------------------------------
    def expire_due(self, now: float) -> List[Ticket]:
        """Shed every queued ticket whose deadline has passed.

        The gateway schedules a simulator event at each queued
        ticket's deadline and calls this; lazily expiring only on
        ``release`` would let a dead queue strand waiters forever.
        """
        live: Deque[Ticket] = deque()
        expired: List[Ticket] = []
        for ticket in self._queue:
            if ticket.deadline is not None and now > ticket.deadline:
                expired.append(ticket)
            else:
                live.append(ticket)
        self._queue = live
        for ticket in expired:
            self._expire(ticket)
        return expired

    def _expire(self, ticket: Ticket) -> None:
        ticket.state = "expired"
        self.shed_deadline += 1
        if ticket.on_timeout is not None:
            ticket.on_timeout(ticket)
