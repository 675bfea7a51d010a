"""Alert history persisted into the TSDB itself, as ``alert.*`` series.

The paper's platform stores *everything* queryable in OpenTSDB —
sensor data, anomalies, even the platform's own self-telemetry.  The
alerting tier follows suit: every incident open and resolve becomes a
data point, written through the same ack-tracked, backpressured
:class:`~repro.tsdb.publish.BatchPublisher` ingress as everything else
(channel ``publish.alerts``, so delivery stays separately accounted
and the conservation invariant covers alerts too).

Series schema::

    alert.incident  @ opened_at   value = peak |z| severity score
                    tags: scope=unit|fleet, severity=info|warning|critical,
                          unit=unitNNN (or "fleet")
    alert.resolve   @ resolved_at value = incident duration (seconds)
                    tags: same

Both are ordinary series: queryable through the
:class:`~repro.serve.gateway.QueryGateway`, visible on the dashboard's
incident panel, and aggregatable like any other metric.
"""

from __future__ import annotations

from typing import Optional

from ..cluster.metrics import MetricsRegistry
from ..simdata.workload import unit_tag
from ..tsdb.ingest import TsdbCluster
from ..tsdb.publish import BatchPublisher, PublishReport
from ..tsdb.tsd import DataPoint
from .events import Incident

__all__ = ["ALERT_INCIDENT_METRIC", "ALERT_RESOLVE_METRIC", "AlertStore", "alert_unit_tag"]

ALERT_INCIDENT_METRIC = "alert.incident"
ALERT_RESOLVE_METRIC = "alert.resolve"

#: Points per alert put batch; alerts are low-volume, so it is small to
#: keep persistence latency low.
BATCH_SIZE = 25


def alert_unit_tag(incident: Incident) -> str:
    """The ``unit`` tag value for an incident (fleet scope is literal)."""
    if incident.scope == "fleet":
        return "fleet"
    return unit_tag(incident.unit_id)


class AlertStore:
    """Writes incident lifecycle transitions into the TSDB.

    Parameters
    ----------
    cluster:
        The deployment to persist into.
    metrics:
        Registry for the publisher's ``publish.alerts.*`` counters.
    """

    def __init__(
        self,
        cluster: TsdbCluster,
        *,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.publisher = BatchPublisher(
            cluster,
            batch_size=BATCH_SIZE,
            metrics=metrics,
            channel="publish.alerts",
        )

    # ------------------------------------------------------------------
    def record_incident(self, incident: Incident) -> None:
        """Persist an incident open as one ``alert.incident`` point."""
        self.publisher.publish([self._point(ALERT_INCIDENT_METRIC, incident,
                                            incident.opened_at,
                                            incident.severity_score)])

    def record_resolve(self, incident: Incident) -> None:
        """Persist a resolve as one ``alert.resolve`` point (value = duration)."""
        assert incident.resolved_at is not None
        self.publisher.publish([self._point(ALERT_RESOLVE_METRIC, incident,
                                            incident.resolved_at,
                                            float(incident.duration))])

    def flush(self) -> PublishReport:
        """Drain pending alert writes; enforces delivery conservation."""
        return self.publisher.flush()

    # ------------------------------------------------------------------
    def _point(
        self,
        metric: str,
        incident: Incident,
        timestamp: int,
        value: float,
    ) -> DataPoint:
        return DataPoint(
            metric,
            timestamp,
            value,
            (
                ("scope", incident.scope),
                ("severity", incident.severity()),
                ("unit", alert_unit_tag(incident)),
            ),
        )
