"""Alerting domain objects: events, incidents, lifecycle, severity.

The detection tier produces *anomaly points* — one flagged
``(time, unit, sensor)`` cell per discovery.  At fleet scale that is
the wrong operator currency: a single correlated fault lights up dozens
of sensors for hundreds of intervals, and naive per-sensor firing turns
one physical problem into thousands of pages.  The alerting tier (per
DeCorus and the smart-alerting literature in PAPERS.md) folds anomaly
events into **incidents**: deduplicated per unit, severity-scored,
hysteresis-gated, flap-suppressed, and rolled up sensor → unit → fleet.

The incident lifecycle is a small explicit state machine::

    CLEAR ──anomalous──▶ PENDING ──open_after──▶ OPEN
      ▲                     │                      │
      └────────clean────────┘        clean × CLOSE_AFTER
      ▲                                            │
      └──────────────── RESOLVED ◀─────────────────┘

    OPEN/RESOLVED ──rapid re-open × MAX_FLAPS──▶ SUPPRESSED
    SUPPRESSED ──FLAP_WINDOW quiet──▶ CLEAR

``PENDING`` is the opening hysteresis (one noisy interval never pages);
``CLOSE_AFTER`` is the closing hysteresis (one quiet interval never
closes a real fault); ``SUPPRESSED`` absorbs flapping units — they keep
being tracked, but stop emitting operator-facing transitions until they
hold quiet for a full ``FLAP_WINDOW``.  The upper-case constants live in
:mod:`repro.alerting.manager`, which runs the machine.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Set

__all__ = [
    "AlertingConfig",
    "AnomalyEvent",
    "Incident",
    "IncidentState",
    "severity_for",
]

#: Peak |z| at which an incident's severity becomes "warning", and
#: "critical" (below ``WARNING_Z`` it is "info").
WARNING_Z = 4.0
CRITICAL_Z = 8.0


class IncidentState(enum.Enum):
    """Lifecycle states of a tracked scope (unit or fleet)."""

    CLEAR = "clear"
    PENDING = "pending"
    OPEN = "open"
    SUPPRESSED = "suppressed"
    RESOLVED = "resolved"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class AnomalyEvent:
    """One flagged detection cell entering the alerting tier.

    ``score`` is the standardised (windowed z) magnitude at the flagged
    instant — the severity currency.  ``timestamp`` is stream time
    (seconds at 1 Hz), not wall clock, so detection latency is
    measured in the same units faults are injected in.
    """

    unit_id: int
    sensor_id: int
    timestamp: int
    score: float


@dataclass(frozen=True)
class AlertingConfig:
    """Knobs of the dedup/suppression/roll-up layer.

    Parameters
    ----------
    open_after:
        Consecutive anomalous intervals before a PENDING scope opens
        (opening hysteresis; 1 disables it).
    """

    open_after: int = 2

    def __post_init__(self) -> None:
        if self.open_after < 1:
            raise ValueError("open_after must be >= 1")


def severity_for(score: float) -> str:
    """Map a peak |z| score to an operator-facing severity label."""
    if score >= CRITICAL_Z:
        return "critical"
    if score >= WARNING_Z:
        return "warning"
    return "info"


@dataclass
class Incident:
    """One deduplicated operator-facing incident.

    ``scope`` is ``"unit"`` or ``"fleet"``; fleet incidents carry
    ``unit_id = -1`` and track the member units instead of sensors.
    ``first_event_at`` is the earliest contributing event (before the
    opening hysteresis cleared), so detection latency measures from the
    first evidence, not from when the hysteresis let it page.
    """

    incident_id: int
    scope: str
    unit_id: int
    opened_at: int
    first_event_at: int
    severity_score: float = 0.0
    sensors: Set[int] = field(default_factory=set)
    member_units: Set[int] = field(default_factory=set)
    events: int = 0
    flaps: int = 0
    resolved_at: Optional[int] = None

    def absorb(self, event: AnomalyEvent) -> None:
        """Fold one more anomaly event into this incident (the dedup)."""
        self.events += 1
        self.sensors.add(event.sensor_id)
        score = abs(event.score)
        if score > self.severity_score:
            self.severity_score = score

    def severity(self) -> str:
        return severity_for(self.severity_score)

    @property
    def open(self) -> bool:
        return self.resolved_at is None

    @property
    def duration(self) -> int:
        """Seconds open (0 while still open)."""
        return 0 if self.resolved_at is None else self.resolved_at - self.opened_at
