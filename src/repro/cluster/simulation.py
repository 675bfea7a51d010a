"""Discrete-event simulation kernel.

This module provides the event loop that underpins the simulated
HBase/OpenTSDB cluster (:mod:`repro.hbase`, :mod:`repro.tsdb`).  The
paper's ingestion results (Figure 2) are *systems* effects — service
capacity, queueing, key-range routing — so the substrate is a classic
calendar-queue discrete-event simulator: a heap of timestamped events,
each a plain Python callback.

Design notes
------------
* Events are ordered by ``(time, seq)`` where ``seq`` is a monotonically
  increasing tie-breaker, so simultaneous events fire in scheduling
  order and runs are deterministic.
* Cancellation is *lazy*: :meth:`EventHandle.cancel` marks the handle
  and the main loop skips cancelled entries when they surface.  This
  keeps ``schedule`` / ``cancel`` at ``O(log n)`` / ``O(1)``.
* There is no implicit wall-clock coupling; simulated time is a float
  in seconds and advances only through the event heap.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple

__all__ = ["EventHandle", "Simulator", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised for invalid simulator operations (e.g. scheduling in the past)."""


class EventHandle:
    """A scheduled event that may be cancelled before it fires.

    Instances are returned by :meth:`Simulator.schedule`.  ``callback``
    is invoked with ``*args`` when simulated time reaches ``time``
    unless :meth:`cancel` was called first.
    """

    __slots__ = ("time", "callback", "args", "cancelled", "fired")

    def __init__(self, time: float, callback: Callable[..., Any], args: tuple):
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent; a no-op if already fired.

        The handle stays in the heap until its time comes, so it lets go
        of its callback here: a cancelled RPC timeout must not pin the
        request's payload for the length of the timeout.
        """
        self.cancelled = True
        if not self.fired:
            self.callback, self.args = None, ()  # type: ignore[assignment]

    @property
    def pending(self) -> bool:
        """True while the event is scheduled and not cancelled/fired."""
        return not (self.cancelled or self.fired)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        return f"<EventHandle t={self.time:.6f} {name} {state}>"


class Simulator:
    """Deterministic discrete-event simulator.

    Examples
    --------
    >>> sim = Simulator()
    >>> seen = []
    >>> _ = sim.schedule(1.0, seen.append, "a")
    >>> _ = sim.schedule(0.5, seen.append, "b")
    >>> sim.run()
    >>> seen
    ['b', 'a']
    >>> sim.now
    1.0
    """

    def __init__(self) -> None:
        # (time, seq, handle): seq is unique, so a handle is never compared
        self._heap: List[Tuple[float, int, EventHandle]] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._running = False
        self.events_processed = 0

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        ``delay`` must be non-negative; zero-delay events run after the
        current event completes, in scheduling order.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay!r})")
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time!r}, before current time t={self._now!r}"
            )
        handle = EventHandle(time, callback, args)
        heapq.heappush(self._heap, (time, next(self._seq), handle))
        return handle

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the next pending event.  Returns False if the heap is empty."""
        while self._heap:
            time, _, handle = heapq.heappop(self._heap)
            if handle.cancelled:
                continue
            self._now = time
            handle.fired = True
            handle.callback(*handle.args)
            self.events_processed += 1
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the heap drains, ``until`` is reached, or ``max_events`` fire.

        When ``until`` is given, the clock is advanced to exactly
        ``until`` on return even if the last event fired earlier, so
        rate computations over a fixed horizon are well defined.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        fired = 0
        try:
            while self._heap:
                if max_events is not None and fired >= max_events:
                    return
                next_time = self._peek_time()
                if next_time is None:
                    break
                if until is not None and next_time > until:
                    break
                if self.step():
                    fired += 1
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._running = False

    def _peek_time(self) -> Optional[float]:
        """Time of the next non-cancelled event, discarding cancelled heads."""
        while self._heap:
            time, _, handle = self._heap[0]
            if handle.cancelled:
                heapq.heappop(self._heap)
                continue
            return time
        return None

    @property
    def pending_events(self) -> int:
        """Number of scheduled, non-cancelled events."""
        return sum(1 for _, _, handle in self._heap if not handle.cancelled)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Simulator t={self._now:.6f} pending={self.pending_events}>"
