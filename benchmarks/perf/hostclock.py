"""Interval timing corrected for the host's momentary speed."""

from __future__ import annotations

import signal
import time
from typing import Any, Dict, List, Tuple


#: What the probe kernel walks: 3,000 (row, qualifier) keys, about half a
#: MiB with their tuples and bytes, so that the kernel slows when the
#: core's cache is under pressure as well as when its clock is.
_WALK = {
    ((i * 2654435761 % 2**32).to_bytes(4, "big") + i.to_bytes(8, "big"),
     (i % 3600).to_bytes(2, "big")): float(i)
    for i in range(3000)
}
_WALK_FROM = b"\x80"


class Stopwatch:
    """Interval timer that reports seconds at the reference host's speed.

    The hosts this runs on change speed by tens of percent: in epochs of
    a few seconds (the same 90 us loop averages 70-115 us from one second
    to the next) with a further +-10% from one 10 ms to the next; CPU
    time moves with wall time, so it is the core that slows, not the
    scheduler.  Raw wall time therefore says more about the moment than
    about the code.  A fixed probe kernel (arithmetic, then a walk over
    ``_WALK``) is run at both ends of each interval and, while
    :meth:`sampling` is on, every :attr:`TICK_S` inside it (from a timer
    signal, so on the timed thread itself); the interval is scaled by
    the mean speed those probes saw.  A 20 ms interval has two or three
    probes and leans on the median over many intervals; a 1 s one has
    fifty of its own (with the two end probes alone, correcting a 2 s
    interval did no better than not correcting it).  On a steady host
    the factor is a constant, and a code change moves the corrected time
    exactly as it moves the raw one.
    """

    #: The probe kernel's duration on the reference host (this sandbox
    #: in its fast state), so corrected values read as its milliseconds.
    REFERENCE_S = 270e-6
    #: Probe period inside intervals: ~0.3 ms of probing per 20 ms.
    TICK_S = 0.02

    def __init__(self) -> None:
        self.raw_s = 0.0
        self.corrected_s = 0.0
        self._speeds: List[float] = []  # REFERENCE_S / probe duration, in order taken
        self._last_probe_at = 0.0
        self._tick_s = 0.0  # seconds spent in timer probes, taken out of raw times
        self._probing = False

    @staticmethod
    def _kernel() -> int:
        total = 0
        table: Dict[int, int] = {}
        for i in range(2800):
            table[i & 63] = total
            total += i * i
        for key in _WALK:
            if key[0] < _WALK_FROM:
                continue
            total += 1
        return total

    def _probe(self) -> None:
        self._probing = True
        t0 = time.perf_counter()
        self._kernel()
        self._last_probe_at = time.perf_counter()
        self._speeds.append(self.REFERENCE_S / (self._last_probe_at - t0))
        self._probing = False

    def _tick(self, signum: int, frame: Any) -> None:
        if self._probing:  # the timer fired inside an end-of-interval probe
            return
        t0 = time.perf_counter()
        self._probe()
        self._tick_s += time.perf_counter() - t0

    def sampling(self, on: bool) -> None:
        """Turn the in-interval probes (a ``SIGALRM`` timer) on or off."""
        if on:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.TICK_S, self.TICK_S)
        else:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def start(self) -> Tuple[int, float, float]:
        if time.perf_counter() - self._last_probe_at >= 1e-3:
            self._probe()  # else back-to-back intervals share a probe
        return len(self._speeds) - 1, self._tick_s, time.perf_counter()

    def stop(self, started: Tuple[int, float, float]) -> float:
        """Corrected seconds since ``started``."""
        now = time.perf_counter()
        first_probe, tick_s, t0 = started
        raw = (now - t0) - (self._tick_s - tick_s)
        self._probe()
        speeds = self._speeds[first_probe:]
        corrected = raw * sum(speeds) / len(speeds)
        self.raw_s += raw
        self.corrected_s += corrected
        return corrected
