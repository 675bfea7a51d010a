"""Visualization: the static web control centre (Figure 3).

SVG sparklines with anomaly annotations, fleet/unit status bars,
TSDB-backed analytics, and the dashboard builder producing
self-contained HTML for desktop and mobile browsers.
"""

from .analytics import FleetAnalytics, FleetSummary, SensorActivity
from .dashboard import Dashboard
from .figures import render_stability_figure, render_throughput_figure
from .sparkline import SparklineStyle, render_detail_chart, render_sparkline
from .statusbar import (
    HealthGrade,
    UnitStatus,
    grade_counts,
    grade_unit,
    render_status_bar,
)
from .svg import Svg, path_from_points

__all__ = [
    "Dashboard",
    "FleetAnalytics",
    "FleetSummary",
    "HealthGrade",
    "SensorActivity",
    "SparklineStyle",
    "Svg",
    "UnitStatus",
    "grade_counts",
    "grade_unit",
    "path_from_points",
    "render_detail_chart",
    "render_sparkline",
    "render_stability_figure",
    "render_status_bar",
    "render_throughput_figure",
]
