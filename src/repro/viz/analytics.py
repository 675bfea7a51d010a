"""Real-time fleet analytics over the TSDB.

"Analytics summarize global system status across a large deployment of
power-generating assets.  By selectively surfacing the most concerning
anomalies, we allow users to focus only on what is important." (§V)

Everything here is computed from TSDB queries — the same store the
ingestion pipeline writes — so the dashboard is a pure read-side
consumer, as in the paper's architecture.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.pipeline import ANOMALY_METRIC, UNIT_ALARM_METRIC
from ..simdata.workload import METRIC, unit_tag
from ..tsdb.aggregation import Series
from ..tsdb.query import QueryEngine, TsdbQuery
from .statusbar import HealthGrade, UnitStatus, grade_unit

__all__ = ["FleetAnalytics", "SensorActivity", "FleetSummary"]


@dataclass
class SensorActivity:
    """Anomaly activity on one sensor of one unit."""

    sensor: str
    anomaly_count: int
    last_anomaly_time: int
    peak_score: float


@dataclass
class FleetSummary:
    """Global numbers for the overview header."""

    n_units: int
    total_anomalies: int
    units_with_anomalies: int
    units_critical: int
    worst_unit: Optional[int]


class FleetAnalytics:
    """Computes unit statuses and anomaly rankings from TSDB queries."""

    def __init__(self, engine: QueryEngine) -> None:
        self.engine = engine

    # ------------------------------------------------------------------
    def anomaly_series(self, unit_id: int, start: int, end: int) -> List[Series]:
        """Per-sensor anomaly event series for one unit."""
        return self.engine.run(
            TsdbQuery(
                metric=ANOMALY_METRIC,
                start=start,
                end=end,
                tag_filters={"unit": unit_tag(unit_id)},
                group_by=("sensor",),
                aggregator="max",
            )
        )

    def sensor_series(self, unit_id: int, start: int, end: int) -> List[Series]:
        """Per-sensor raw data series for one unit."""
        return self.engine.run(
            TsdbQuery(
                metric=METRIC,
                start=start,
                end=end,
                tag_filters={"unit": unit_tag(unit_id)},
                group_by=("sensor",),
                aggregator="avg",
            )
        )

    def unit_alarm_times(self, unit_id: int, start: int, end: int) -> np.ndarray:
        series = self.engine.run(
            TsdbQuery(
                metric=UNIT_ALARM_METRIC,
                start=start,
                end=end,
                tag_filters={"unit": unit_tag(unit_id)},
                aggregator="max",
            )
        )
        if not series:
            return np.empty(0, dtype=np.int64)
        return series[0].timestamps

    # ------------------------------------------------------------------
    @staticmethod
    def unit_status_from(
        unit_id: int, anomalies: Sequence[Series], alarms: np.ndarray
    ) -> UnitStatus:
        """Roll a unit's status up from already-fetched query results.

        The dashboard fetches each unit's anomaly series once and feeds
        the same result to the status roll-up, the trend sparkline and
        the top-sensor ranking — one engine call per unit instead of
        one per consumer.
        """
        count = int(sum(len(s) for s in anomalies))
        sensors = len([s for s in anomalies if len(s)])
        return UnitStatus(
            unit_id=unit_id,
            grade=grade_unit(count, sensors, int(len(alarms))),
            anomaly_count=count,
            sensors_affected=sensors,
            unit_alarms=int(len(alarms)),
        )

    def unit_overview(
        self, unit_id: int, start: int, end: int
    ) -> Tuple[UnitStatus, List[Series]]:
        """Status roll-up plus the per-sensor anomaly series behind it."""
        anomalies = self.anomaly_series(unit_id, start, end)
        alarms = self.unit_alarm_times(unit_id, start, end)
        return self.unit_status_from(unit_id, anomalies, alarms), anomalies

    def fleet_overview(
        self, unit_ids: Sequence[int], start: int, end: int
    ) -> List[Tuple[UnitStatus, List[Series]]]:
        """Per-unit ``(status, anomaly_series)`` with one anomaly query each."""
        return [self.unit_overview(u, start, end) for u in unit_ids]

    def summary(self, statuses: Sequence[UnitStatus]) -> FleetSummary:
        with_anoms = [s for s in statuses if s.anomaly_count > 0]
        worst = max(statuses, key=lambda s: s.anomaly_count, default=None)
        return FleetSummary(
            n_units=len(statuses),
            total_anomalies=sum(s.anomaly_count for s in statuses),
            units_with_anomalies=len(with_anoms),
            units_critical=sum(1 for s in statuses if s.grade is HealthGrade.CRITICAL),
            worst_unit=worst.unit_id if worst and worst.anomaly_count else None,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def top_sensors_from(
        anomalies: Sequence[Series], k: int = 8
    ) -> List[SensorActivity]:
        """The most anomalous sensors of an already-fetched anomaly result
        set, by flag count then severity."""
        activities: List[SensorActivity] = []
        for series in anomalies:
            if not len(series):
                continue
            sensor = series.tag_dict.get("sensor", "?")
            activities.append(
                SensorActivity(
                    sensor=sensor,
                    anomaly_count=len(series),
                    last_anomaly_time=int(series.timestamps[-1]),
                    peak_score=float(np.max(np.abs(series.values))),
                )
            )
        activities.sort(key=lambda a: (-a.anomaly_count, -a.peak_score))
        return activities[:k]
