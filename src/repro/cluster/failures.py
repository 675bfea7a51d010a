"""Failure-injection policies for simulated components.

The paper reports that RegionServers "frequently crashed due to
overloaded RPC queues" until a buffering reverse proxy added
backpressure.  :class:`OverflowCrashPolicy` models exactly that
mechanism: a component that sheds load too often within a window is
declared crashed and restarts after a recovery delay.
:class:`RandomCrashInjector` provides unrelated background failures for
robustness tests.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional

import numpy as np

from .simulation import Simulator

__all__ = ["OverflowCrashPolicy", "RandomCrashInjector"]

#: Overflow rejections a component tolerates within ``CRASH_WINDOW``
#: seconds; one more crashes it, and it restarts ``RESTART_DELAY``
#: seconds later.
REJECT_BUDGET = 500
CRASH_WINDOW = 1.0
RESTART_DELAY = 5.0


class OverflowCrashPolicy:
    """Crash a component when queue-overflow rejections exceed a budget.

    A real RegionServer under sustained RPC-queue overflow exhausts
    heap/handlers and aborts.  We model this as: if more than
    :data:`REJECT_BUDGET` rejections occur within any
    :data:`CRASH_WINDOW` seconds, ``on_crash`` fires; ``on_restart``
    (if given) fires :data:`RESTART_DELAY` seconds later.  Rejections
    while crashed are not counted.
    """

    def __init__(
        self,
        sim: Simulator,
        on_crash: Callable[[], None],
        on_restart: Optional[Callable[[], None]] = None,
    ) -> None:
        self.sim = sim
        self.on_crash = on_crash
        self.on_restart = on_restart
        self._reject_times: Deque[float] = deque()
        self.crashed = False
        self.crash_count = 0

    def record_rejection(self) -> bool:
        """Note one overflow rejection.  Returns True if this crashed the component."""
        if self.crashed:
            return False
        now = self.sim.now
        self._reject_times.append(now)
        cutoff = now - CRASH_WINDOW
        while self._reject_times and self._reject_times[0] < cutoff:
            self._reject_times.popleft()
        if len(self._reject_times) > REJECT_BUDGET:
            self._crash()
            return True
        return False

    def _crash(self) -> None:
        self.crashed = True
        self.crash_count += 1
        self._reject_times.clear()
        self.on_crash()
        self.sim.schedule(RESTART_DELAY, self._restart)

    def _restart(self) -> None:
        self.crashed = False
        if self.on_restart is not None:
            self.on_restart()


class RandomCrashInjector:
    """Poisson-process crash injector for robustness testing.

    Schedules crashes with exponential inter-arrival times (mean
    ``mtbf`` seconds) on a target, restarting after ``mttr`` seconds.
    Deterministic given the seed.
    """

    def __init__(
        self,
        sim: Simulator,
        crash: Callable[[], None],
        restart: Callable[[], None],
        mtbf: float,
        mttr: float,
        seed: int = 0,
    ) -> None:
        if mtbf <= 0 or mttr < 0:
            raise ValueError("mtbf must be positive and mttr non-negative")
        self.sim = sim
        self.crash = crash
        self.restart = restart
        self.mtbf = mtbf
        self.mttr = mttr
        self.rng = np.random.default_rng(seed)
        self.injected = 0
        self._armed = False

    def arm(self) -> None:
        """Start injecting failures."""
        if self._armed:
            return
        self._armed = True
        self._schedule_next()

    def disarm(self) -> None:
        self._armed = False

    def _schedule_next(self) -> None:
        delay = float(self.rng.exponential(self.mtbf))
        self.sim.schedule(delay, self._fire)

    def _fire(self) -> None:
        if not self._armed:
            return
        self.injected += 1
        self.crash()
        self.sim.schedule(self.mttr, self._recover)

    def _recover(self) -> None:
        self.restart()
        if self._armed:
            self._schedule_next()
