"""Fleet/unit status summarisation.

"Unit status is summarized neatly into a single status bar as seen at
the top of Figure 3."  A unit's health grade is derived from its recent
anomaly activity; the fleet status bar shows the grade mix as coloured
segments.
"""

from __future__ import annotations

import enum
import html
from dataclasses import dataclass
from typing import Dict, Sequence

from ..simdata.workload import unit_tag
from .svg import Svg

__all__ = ["HealthGrade", "UnitStatus", "grade_unit", "render_status_bar"]


class HealthGrade(enum.Enum):
    """Traffic-light health grade of a unit (drives status-bar colours)."""

    OK = "ok"
    WARNING = "warning"
    CRITICAL = "critical"

    @property
    def color(self) -> str:
        return {
            HealthGrade.OK: "#2da44e",
            HealthGrade.WARNING: "#d4a72c",
            HealthGrade.CRITICAL: "#cf222e",
        }[self]


@dataclass
class UnitStatus:
    """Health summary for one unit over the displayed window."""

    unit_id: int
    grade: HealthGrade
    anomaly_count: int
    sensors_affected: int
    unit_alarms: int

    @property
    def label(self) -> str:
        return unit_tag(self.unit_id)


def grade_unit(
    anomaly_count: int,
    sensors_affected: int,
    unit_alarms: int,
    warning_threshold: int = 1,
    critical_threshold: int = 25,
) -> HealthGrade:
    """Grade from anomaly activity.

    CRITICAL when the unit-level T² alarm fired or per-sensor flags are
    heavy; WARNING on any flag; OK otherwise.  Thresholds are in flag
    counts over the displayed window.
    """
    if unit_alarms > 0 or anomaly_count >= critical_threshold:
        return HealthGrade.CRITICAL
    if anomaly_count >= warning_threshold or sensors_affected > 0:
        return HealthGrade.WARNING
    return HealthGrade.OK


def render_status_bar(
    statuses: Sequence[UnitStatus], width: int = 960, height: int = 26
) -> str:
    """The fleet status strip: one segment per unit, coloured by grade.

    Hovering a segment names the unit and its anomaly count.
    """
    svg = Svg(width, height)
    n = len(statuses)
    if n == 0:
        svg.text(width / 2, height / 2 + 4, "no units", fill="#57606a",
                 font_size=11, text_anchor="middle")
        return svg.to_string("status-bar")
    seg_w = width / n
    for i, status in enumerate(statuses):
        tooltip = (
            f"{status.label}: {status.grade.value}, "
            f"{status.anomaly_count} anomalies on {status.sensors_affected} sensors"
        )
        svg.raw(
            f'<g><title>{html.escape(tooltip)}</title>'
            f'<rect x="{i * seg_w:.2f}" y="0" width="{max(seg_w - 1, 1):.2f}" '
            f'height="{height}" fill="{status.grade.color}" rx="2"/></g>'
        )
    return svg.to_string("status-bar")


def grade_counts(statuses: Sequence[UnitStatus]) -> Dict[HealthGrade, int]:
    """How many units hold each grade."""
    out: Dict[HealthGrade, int] = {g: 0 for g in HealthGrade}
    for status in statuses:
        out[status.grade] += 1
    return out
