"""The smart-alerting core: dedup, hysteresis, flap suppression, roll-up.

:class:`AlertManager` consumes per-interval batches of
:class:`~repro.alerting.events.AnomalyEvent` and maintains one
lifecycle tracker per unit plus a fleet-scope roll-up.  Everything an
operator would page on funnels through here — ``repro-lint``'s
``unsuppressed-alert-emit`` rule forbids any other module from minting
``alert.*`` series or incidents directly.

Design decisions, in alerting-literature terms:

* **Dedup / correlation window** — all events for one unit inside one
  interval, and all intervals while an incident stays open, fold into a
  single :class:`Incident` (``absorb``).  The incident remembers the
  distinct sensor set and peak score, so nothing operator-relevant is
  lost by the folding.
* **Hysteresis** — ``open_after`` consecutive anomalous intervals to
  open, :data:`CLOSE_AFTER` consecutive clean intervals to resolve.
  The opening gate discards one-interval transients entirely (counted,
  not paged).
* **Flap suppression** — a unit that re-opens within
  :data:`FLAP_WINDOW` seconds of resolving is flapping; after
  :data:`MAX_FLAPS` such cycles the unit is SUPPRESSED: still tracked,
  still counted, but emitting no operator transitions until it holds
  quiet for a full :data:`FLAP_WINDOW`.
* **Hierarchical roll-up** — when :data:`FLEET_THRESHOLD` units are OPEN
  simultaneously, one fleet-scope incident replaces the individual
  pages conceptually (unit incidents stay queryable; the fleet incident
  is the operator entry point for a common-cause event).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from ..cluster.metrics import MetricsRegistry
from .events import AlertingConfig, AnomalyEvent, Incident, IncidentState
from .store import AlertStore

__all__ = ["AlertManager"]

FLEET_UNIT_ID = -1

#: Consecutive clean intervals before an OPEN scope resolves (the
#: closing hysteresis).
CLOSE_AFTER = 3

#: Seconds after a resolve within which a re-open counts as a flap; also
#: the quiet period a SUPPRESSED scope must hold before it is CLEAR.
FLAP_WINDOW = 60

#: Flaps tolerated before a scope is SUPPRESSED.
MAX_FLAPS = 3

#: Simultaneously OPEN units that escalate to one fleet-scope incident.
FLEET_THRESHOLD = 3


@dataclass
class _ScopeTracker:
    """Per-unit lifecycle state (the state machine's mutable half)."""

    state: IncidentState = IncidentState.CLEAR
    pending_intervals: int = 0
    clean_intervals: int = 0
    flaps: int = 0
    last_resolved_at: Optional[int] = None
    last_anomalous_at: Optional[int] = None
    first_event_at: Optional[int] = None
    pending_events: List[AnomalyEvent] = field(default_factory=list)
    incident: Optional[Incident] = None


class AlertManager:
    """Turns anomaly events into deduplicated, suppressed incidents.

    Call :meth:`observe` once per stream interval with every event the
    detection tier flagged in that interval (an empty list is a *clean*
    interval and drives the closing hysteresis).  Newly opened
    incidents are returned and, when a ``store`` is attached, written
    into the TSDB as ``alert.*`` series.
    """

    def __init__(
        self,
        config: Optional[AlertingConfig] = None,
        *,
        metrics: Optional[MetricsRegistry] = None,
        store: Optional[AlertStore] = None,
    ) -> None:
        self.config = config if config is not None else AlertingConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.store = store
        #: Full incident history, unit and fleet scopes interleaved in
        #: open order (the alert-history ledger; resolved stay listed).
        self.incidents: List[Incident] = []
        self.events_total = 0
        self.events_deduped = 0
        self.transients_discarded = 0
        self.events_suppressed = 0
        self._trackers: Dict[int, _ScopeTracker] = {}
        self._fleet_incident: Optional[Incident] = None
        self._fleet_clean_intervals = 0
        self._next_id = 0

    # ------------------------------------------------------------------
    # the per-interval entry point
    # ------------------------------------------------------------------
    def observe(
        self, timestamp: int, events: Sequence[AnomalyEvent]
    ) -> List[Incident]:
        """Fold one interval's events in; returns incidents opened now.

        ``timestamp`` is the interval's end time in stream seconds and
        must be non-decreasing across calls.
        """
        by_unit: Dict[int, List[AnomalyEvent]] = {}
        for event in events:
            by_unit.setdefault(event.unit_id, []).append(event)
        self.events_total += len(events)
        self.metrics.counter("alerting.events").inc(len(events))

        opened: List[Incident] = []
        for unit_id in set(self._trackers) | set(by_unit):
            tracker = self._trackers.setdefault(unit_id, _ScopeTracker())
            incident = self._step_unit(
                unit_id, tracker, timestamp, by_unit.get(unit_id, [])
            )
            if incident is not None:
                opened.append(incident)
        fleet = self._step_fleet(timestamp)
        if fleet is not None:
            opened.append(fleet)
        self.metrics.gauge("alerting.open_incidents").set(
            float(len(self.open_incidents()))
        )
        return opened

    # ------------------------------------------------------------------
    # unit-scope state machine
    # ------------------------------------------------------------------
    def _step_unit(
        self,
        unit_id: int,
        tracker: _ScopeTracker,
        timestamp: int,
        events: List[AnomalyEvent],
    ) -> Optional[Incident]:
        anomalous = bool(events)
        if anomalous:
            tracker.last_anomalous_at = timestamp
        state = tracker.state

        if state is IncidentState.SUPPRESSED:
            if anomalous:
                self.events_suppressed += len(events)
                self.metrics.counter("alerting.suppressed_events").inc(len(events))
            elif (
                tracker.last_anomalous_at is None
                or timestamp - tracker.last_anomalous_at >= FLAP_WINDOW
            ):
                # Held quiet for a full flap window: forgiven.
                tracker.state = IncidentState.CLEAR
                tracker.flaps = 0
            return None

        if state in (IncidentState.CLEAR, IncidentState.RESOLVED):
            if not anomalous:
                if (
                    tracker.last_resolved_at is not None
                    and timestamp - tracker.last_resolved_at >= FLAP_WINDOW
                ):
                    tracker.flaps = 0  # flap memory decays once stable
                return None
            tracker.state = IncidentState.PENDING
            tracker.pending_intervals = 1
            tracker.first_event_at = min(e.timestamp for e in events)
            tracker.pending_events = list(events)
            if tracker.pending_intervals >= self.config.open_after:
                return self._open_unit(unit_id, tracker, timestamp)
            return None

        if state is IncidentState.PENDING:
            if not anomalous:
                # A transient: evaporates without ever paging.
                self.transients_discarded += len(tracker.pending_events)
                self.metrics.counter("alerting.transients").inc(
                    len(tracker.pending_events)
                )
                tracker.state = IncidentState.CLEAR
                tracker.pending_intervals = 0
                tracker.pending_events = []
                tracker.first_event_at = None
                return None
            tracker.pending_intervals += 1
            tracker.pending_events.extend(events)
            if tracker.pending_intervals >= self.config.open_after:
                return self._open_unit(unit_id, tracker, timestamp)
            return None

        # state is OPEN
        incident = tracker.incident
        assert incident is not None
        if anomalous:
            tracker.clean_intervals = 0
            for event in events:
                incident.absorb(event)
            self.events_deduped += len(events)
            self.metrics.counter("alerting.deduped").inc(len(events))
            return None
        tracker.clean_intervals += 1
        if tracker.clean_intervals >= CLOSE_AFTER:
            self._resolve(incident, timestamp)
            tracker.state = IncidentState.RESOLVED
            tracker.incident = None
            tracker.clean_intervals = 0
            tracker.last_resolved_at = timestamp
        return None

    def _open_unit(
        self, unit_id: int, tracker: _ScopeTracker, timestamp: int
    ) -> Optional[Incident]:
        first_event_at = tracker.first_event_at
        assert first_event_at is not None
        flapping = (
            tracker.last_resolved_at is not None
            and first_event_at - tracker.last_resolved_at < FLAP_WINDOW
        )
        if flapping:
            tracker.flaps += 1
            self.metrics.counter("alerting.flaps").inc()
            if tracker.flaps >= MAX_FLAPS:
                # Into the penalty box: no incident, no page.
                tracker.state = IncidentState.SUPPRESSED
                self.events_suppressed += len(tracker.pending_events)
                self.metrics.counter("alerting.suppressed").inc()
                self.metrics.counter("alerting.suppressed_events").inc(
                    len(tracker.pending_events)
                )
                tracker.pending_events = []
                tracker.pending_intervals = 0
                return None
        incident = Incident(
            incident_id=self._take_id(),
            scope="unit",
            unit_id=unit_id,
            opened_at=timestamp,
            first_event_at=first_event_at,
            flaps=tracker.flaps,
        )
        for event in tracker.pending_events:
            incident.absorb(event)
        # The first event is the alert; the rest were deduplicated.
        self.events_deduped += max(0, len(tracker.pending_events) - 1)
        self.metrics.counter("alerting.deduped").inc(
            max(0, len(tracker.pending_events) - 1)
        )
        tracker.pending_events = []
        tracker.pending_intervals = 0
        tracker.clean_intervals = 0
        tracker.state = IncidentState.OPEN
        tracker.incident = incident
        self._record_open(incident, timestamp)
        return incident

    # ------------------------------------------------------------------
    # fleet-scope roll-up
    # ------------------------------------------------------------------
    def _step_fleet(self, timestamp: int) -> Optional[Incident]:
        open_units = {
            unit_id
            for unit_id, tracker in self._trackers.items()
            if tracker.state is IncidentState.OPEN
        }
        incident = self._fleet_incident
        if incident is None:
            if len(open_units) < FLEET_THRESHOLD:
                return None
            members = self._member_incidents(open_units)
            incident = Incident(
                incident_id=self._take_id(),
                scope="fleet",
                unit_id=FLEET_UNIT_ID,
                opened_at=timestamp,
                first_event_at=min(m.first_event_at for m in members),
                severity_score=max(m.severity_score for m in members),
                member_units=set(open_units),
            )
            self._fleet_incident = incident
            self._fleet_clean_intervals = 0
            self.metrics.counter("alerting.fleet_opened").inc()
            self._record_open(incident, timestamp)
            return incident
        if len(open_units) >= FLEET_THRESHOLD:
            self._fleet_clean_intervals = 0
            incident.member_units |= open_units
            for member in self._member_incidents(open_units):
                if member.severity_score > incident.severity_score:
                    incident.severity_score = member.severity_score
            return None
        self._fleet_clean_intervals += 1
        if self._fleet_clean_intervals >= CLOSE_AFTER:
            self._resolve(incident, timestamp)
            self.metrics.counter("alerting.fleet_resolved").inc()
            self._fleet_incident = None
            self._fleet_clean_intervals = 0
        return None

    def _member_incidents(self, open_units: Set[int]) -> List[Incident]:
        out = []
        for unit_id in open_units:
            incident = self._trackers[unit_id].incident
            if incident is not None:
                out.append(incident)
        return out

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def _take_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _record_open(self, incident: Incident, timestamp: int) -> None:
        self.incidents.append(incident)
        self.metrics.counter("alerting.opened").inc()
        self.metrics.histogram("alerting.detection_delay").observe(
            float(timestamp - incident.first_event_at)
        )
        if self.store is not None:
            self.store.record_incident(incident)

    def _resolve(self, incident: Incident, timestamp: int) -> None:
        incident.resolved_at = timestamp
        self.metrics.counter("alerting.resolved").inc()
        if self.store is not None:
            self.store.record_resolve(incident)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def open_incidents(self) -> List[Incident]:
        """Incidents (unit and fleet) currently open, in open order."""
        return [i for i in self.incidents if i.open]

    def incidents_for_unit(self, unit_id: int) -> List[Incident]:
        """A unit's incident history (unit scope only), in open order."""
        return [
            i for i in self.incidents if i.scope == "unit" and i.unit_id == unit_id
        ]

    def state_of(self, unit_id: int) -> IncidentState:
        tracker = self._trackers.get(unit_id)
        return tracker.state if tracker is not None else IncidentState.CLEAR

    @property
    def incidents_opened(self) -> int:
        return len(self.incidents)

    def volume_reduction(self) -> float:
        """Raw anomaly events per emitted incident (the smart-alerting
        headline number; ``inf`` when events arrived but nothing ever
        had to page)."""
        if not self.incidents:
            return float("inf") if self.events_total else 1.0
        return self.events_total / len(self.incidents)
