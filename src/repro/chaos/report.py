"""Per-run chaos accounting: what fired, and who was down for how long.

The :class:`~repro.chaos.injector.Injector` feeds a
:class:`ChaosReport` as its plan replays: every fault that actually
fires is recorded with its sim timestamp, and outage actions
open/close per-component downtime intervals.  After the run the report
answers the two questions a chaos experiment always asks — *did the
faults really happen?* and *how long was each component degraded?* —
so tests can assert on injected failure rather than hoping for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = ["ChaosReport", "FiredEvent"]


@dataclass(frozen=True)
class FiredEvent:
    """One fault that actually fired during the run."""

    at: float
    action: str
    target: str


@dataclass
class ChaosReport:
    """Mutable per-run ledger of injected faults and component downtime."""

    plan_name: str = "chaos-plan"
    fired: List[FiredEvent] = field(default_factory=list)
    #: component -> closed downtime intervals [(down_at, up_at), ...]
    intervals: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)
    #: component -> time it went down, for outages still open
    _open: Dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # recording (called by the injector)
    # ------------------------------------------------------------------
    def record(self, at: float, action: str, target: str) -> None:
        self.fired.append(FiredEvent(at, action, target))

    def mark_down(self, component: str, at: float) -> None:
        """Open a downtime interval (idempotent while already down)."""
        self._open.setdefault(component, at)

    def mark_up(self, component: str, at: float) -> None:
        """Close the open downtime interval, if any."""
        down_at = self._open.pop(component, None)
        if down_at is None:
            return
        self.intervals.setdefault(component, []).append((down_at, at))

    def close(self, now: float) -> None:
        """Close every still-open outage at ``now`` (end-of-run sweep)."""
        for component in list(self._open):
            self.mark_up(component, now)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def events_fired(self, action: Optional[str] = None) -> int:
        if action is None:
            return len(self.fired)
        return sum(1 for event in self.fired if event.action == action)

    def downtime(self, component: str, now: Optional[float] = None) -> float:
        """Total downtime for one component, in sim-seconds.

        An outage still open is counted up to ``now`` when given
        (without mutating the report).
        """
        total = sum(up - down for down, up in self.intervals.get(component, []))
        if now is not None and component in self._open:
            total += max(0.0, now - self._open[component])
        return total

    def still_down(self) -> Tuple[str, ...]:
        return tuple(sorted(self._open))

    def edges(self, now: Optional[float] = None) -> List[Tuple[float, str, int]]:
        """Downtime windows as ``(time, component, state)`` transitions.

        ``state`` is 1 at a down edge and 0 at the matching up edge —
        the 0/1 square-wave shape the self-telemetry write-back stores
        as ``chaos.down`` so fault windows overlay on platform metrics.
        Still-open outages contribute their down edge (and, when ``now``
        is given, a trailing still-down sample at ``now``) without
        mutating the report.  Sorted by time.
        """
        out: List[Tuple[float, str, int]] = []
        for component, windows in self.intervals.items():
            for down_at, up_at in windows:
                out.append((down_at, component, 1))
                out.append((up_at, component, 0))
        for component, down_at in self._open.items():
            out.append((down_at, component, 1))
            if now is not None and now > down_at:
                out.append((now, component, 1))
        out.sort()
        return out

    def summary(self) -> str:
        """Human-readable per-run digest (one line per component)."""
        lines = [f"chaos plan {self.plan_name!r}: {len(self.fired)} events fired"]
        for event in self.fired:
            lines.append(f"  t={event.at:8.3f}s  {event.action:<14} {event.target}")
        components = sorted(set(self.intervals) | set(self._open))
        if components:
            lines.append("downtime:")
            for component in components:
                open_note = "  (still down)" if component in self._open else ""
                lines.append(
                    f"  {component:<10} {self.downtime(component):8.3f}s{open_note}"
                )
        return "\n".join(lines)
