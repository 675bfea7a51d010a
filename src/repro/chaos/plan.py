"""Declarative, seeded fault plans.

A :class:`FaultPlan` is a list of timed :class:`FaultEvent`\\ s that an
:class:`~repro.chaos.injector.Injector` replays deterministically
against a :class:`~repro.tsdb.ingest.TsdbCluster`'s simulator.  Plans
are plain frozen data — they can be built inline in a test, printed,
compared, and rerun bit-identically (the only randomness, overload
burst payloads and background crash schedules, derives from
``plan.seed``).

Supported actions
-----------------
``tsd_crash`` / ``tsd_restart``
    Kill / revive one TSD daemon by name (a crashed TSD swallows
    batches silently — no acks).
``rs_crash`` / ``rs_restart``
    Kill / revive one RegionServer by name (the master runs WAL-replay
    recovery, as on a real crash).
``partition`` / ``heal``
    Cut a host (``node.hostname``) off the network / restore it.
``slow_link`` / ``restore_link``
    Inflate latency on every link touching a host by ``factor``.
``overload_burst``
    Inject ``points`` synthetic data points through the cluster
    ingress, spread over ``duration`` seconds — the §III-B overload
    that exercises :class:`~repro.cluster.failures.OverflowCrashPolicy`.
``random_crashes``
    Arm a :class:`~repro.cluster.failures.RandomCrashInjector`
    (Poisson ``mtbf``/``mttr``) against one RegionServer for
    ``duration`` seconds.
``wal_lag`` / ``wal_lag_clear``
    Multiply the WAL-shipping delay out of one RegionServer by
    ``factor`` — follower replicas fed from it fall behind, widening
    timeline-read staleness bounds (degraded, not down).
``replica_stall`` / ``replica_resume``
    Freeze the follower apply loops hosted on one RegionServer — its
    replicas stop draining shipped entries entirely until resumed
    (degraded, not down).
``lifecycle_expire``
    Fire a full lifecycle maintenance pass (rollup advance + TTL
    expiry + tombstone purge) at an adversarial moment — e.g. between
    an ``rs_crash`` and its recovery — to probe the retention
    conservation invariant under partial availability.  Instantaneous;
    needs no target (the cluster's lifecycle manager is the target).

Events that model an outage (``tsd_crash``, ``rs_crash``,
``partition``, ``slow_link``, ``wal_lag``, ``replica_stall``) accept a
``duration``; the injector derives the matching recovery event
automatically.  Omitting it leaves the component down (or degraded)
for the rest of the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

__all__ = ["FaultEvent", "FaultPlan", "ACTIONS", "RECOVERY_ACTIONS"]

#: Action -> the recovery action the injector schedules after ``duration``.
RECOVERY_ACTIONS = {
    "tsd_crash": "tsd_restart",
    "rs_crash": "rs_restart",
    "partition": "heal",
    "slow_link": "restore_link",
    "wal_lag": "wal_lag_clear",
    "replica_stall": "replica_resume",
}

ACTIONS = frozenset(RECOVERY_ACTIONS) | frozenset(RECOVERY_ACTIONS.values()) | {
    "overload_burst",
    "random_crashes",
    "lifecycle_expire",
}


@dataclass(frozen=True)
class FaultEvent:
    """One timed fault: *at* ``at`` sim-seconds, do ``action`` to ``target``.

    ``target`` is a component name (``tsd01``, ``rs02``) or hostname
    (``node00`` for ``partition``/``slow_link``).  ``duration`` turns
    an outage action into a bounded one (recovery is auto-scheduled).
    ``factor`` parameterises ``slow_link``; ``points``/``batch_size``
    parameterise ``overload_burst``; ``mtbf``/``mttr`` parameterise
    ``random_crashes``.
    """

    at: float
    action: str
    target: str
    duration: Optional[float] = None
    factor: float = 4.0
    points: int = 0
    batch_size: int = 100
    mtbf: float = 1.0
    mttr: float = 0.5

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError("event time must be non-negative")
        if self.action not in ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}")
        if not self.target and self.action not in ("overload_burst", "lifecycle_expire"):
            raise ValueError(f"action {self.action!r} needs a target")
        if self.duration is not None and self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.action in ("slow_link", "wal_lag") and self.factor < 1.0:
            raise ValueError(f"{self.action} factor must be >= 1")
        if self.action == "overload_burst" and self.points < 1:
            raise ValueError("overload_burst needs points >= 1")
        if self.action == "random_crashes":
            if self.duration is None:
                raise ValueError("random_crashes needs a duration")
            if self.mtbf <= 0 or self.mttr < 0:
                raise ValueError("mtbf must be positive and mttr non-negative")

    @property
    def recovery(self) -> Optional["FaultEvent"]:
        """The auto-derived recovery event, if this outage is bounded."""
        action = RECOVERY_ACTIONS.get(self.action)
        if action is None or self.duration is None:
            return None
        return FaultEvent(at=self.at + self.duration, action=action, target=self.target)


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, seeded set of fault events (frozen; safe to reuse)."""

    events: Tuple[FaultEvent, ...] = ()
    seed: int = 0
    name: str = "chaos-plan"

    def __post_init__(self) -> None:
        if not isinstance(self.events, tuple):
            object.__setattr__(self, "events", tuple(self.events))

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def expanded(self) -> Tuple[FaultEvent, ...]:
        """All events including auto-derived recoveries, sorted by time.

        Ties are broken by position in the plan, so replays are
        deterministic regardless of how the plan was assembled.
        """
        out: List[Tuple[float, int, int, FaultEvent]] = []
        for i, event in enumerate(self.events):
            out.append((event.at, i, 0, event))
            rec = event.recovery
            if rec is not None:
                out.append((rec.at, i, 1, rec))
        out.sort(key=lambda item: (item[0], item[1], item[2]))
        return tuple(event for _, _, _, event in out)

    def horizon(self) -> float:
        """Time of the last event (including recoveries)."""
        expanded = self.expanded()
        return expanded[-1].at if expanded else 0.0
