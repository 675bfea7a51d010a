"""Dashboard generation: the Figure 3 web application, statically.

Produces a self-contained HTML control centre:

* **fleet overview** (``index.html``) — global analytics header, the
  fleet status bar, and a per-unit table linking to machine pages;
* **machine pages** (``machine-XXX.html``) — Figure 3's layout: the
  unit status strip on top, a grid of per-sensor sparklines with
  anomalies flagged in red in the centre, and drill-down detail charts
  (control band, axes, severity) for the most anomalous sensors at the
  bottom.

Everything is read back from the TSDB through
:class:`~repro.viz.analytics.FleetAnalytics`; the builder never touches
the generator's ground truth.
"""

from __future__ import annotations

import html
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..tsdb.query import QueryEngine, TsdbQuery
from .analytics import FleetAnalytics, SensorActivity
from .sparkline import render_detail_chart, render_sparkline
from .statusbar import HealthGrade, grade_counts, render_status_bar

__all__ = ["Dashboard"]

#: Page title of the control centre.
TITLE = "Power Asset Monitor"

#: Sensors shown in a machine page's sparkline grid, and drill-down
#: charts below it.
MAX_SPARKLINES = 60
MAX_DETAILS = 4

#: Rows in the overview's platform-health ((metric, host) series) and
#: incident panels.
MAX_HEALTH_ROWS = 40
MAX_INCIDENT_ROWS = 30

#: Metric-name prefixes that identify SelfReporter write-back series
#: (one per self-metric namespace, plus the chaos edge series).
_SELF_METRIC_PREFIXES = (
    "proxy.",
    "tsd.",
    "client.",
    "regionserver.",
    "rpc.",
    "cells.",
    "engine.",
    "pipeline.",
    "publish.",
    "chaos.",
    "serve.",
    "master.",
    "replication.",
    # Server-level load metrics report under the "cluster" host but
    # are written back by SelfReporter like every other namespace; the
    # platform panel silently dropped them until telemetry-drift
    # (repro.analysis cross rule) flagged the missing prefix.
    "server.",
    "alerting.",
    "lifecycle.",
)

#: Incident-history series the alerting tier writes back into the TSDB
#: (``alert.incident`` opens, ``alert.resolve`` closes).  These ride
#: the data timeline, not the simulator clock, and get their own panel.
_ALERT_METRIC_PREFIXES = ("alert.",)

#: Self-telemetry timestamps run on the simulator clock, not the data
#: timeline, so the platform panel scans the whole axis by default.
_SELF_METRIC_HORIZON = 2**31 - 1

_CSS = """
body { font-family: -apple-system, 'Segoe UI', Helvetica, Arial, sans-serif;
       margin: 0; background: #f6f8fa; color: #1f2328; }
header { background: #24292f; color: #fff; padding: 14px 24px; }
header h1 { margin: 0; font-size: 18px; font-weight: 600; }
header .sub { color: #8b949e; font-size: 12px; margin-top: 2px; }
main { max-width: 1040px; margin: 0 auto; padding: 18px 24px 48px; }
.panel { background: #fff; border: 1px solid #d0d7de; border-radius: 6px;
         padding: 16px; margin-bottom: 18px; }
.panel h2 { margin: 0 0 10px; font-size: 14px; font-weight: 600; color: #57606a;
            text-transform: uppercase; letter-spacing: .04em; }
.kpis { display: flex; gap: 28px; flex-wrap: wrap; }
.kpi .num { font-size: 26px; font-weight: 700; }
.kpi .lbl { font-size: 11px; color: #57606a; text-transform: uppercase; }
.kpi.crit .num { color: #cf222e; }
table { border-collapse: collapse; width: 100%; font-size: 13px; }
th, td { text-align: left; padding: 6px 10px; border-bottom: 1px solid #e6e9ec; }
th { color: #57606a; font-weight: 600; }
tr:hover { background: #f0f4f8; }
.grade { display: inline-block; padding: 1px 8px; border-radius: 10px;
         font-size: 11px; color: #fff; }
.grid { display: flex; flex-wrap: wrap; gap: 10px; }
.cell { border: 1px solid #e6e9ec; border-radius: 4px; padding: 6px 8px;
        background: #fff; }
.cell .name { font-size: 11px; color: #57606a; margin-bottom: 2px; }
.cell.flagged { border-color: #d62728; }
.cell.flagged .name { color: #d62728; font-weight: 600; }
a { color: #0969da; text-decoration: none; }
a:hover { text-decoration: underline; }
.detail { margin-bottom: 14px; }
.meta { font-size: 12px; color: #57606a; margin: 4px 0 10px; }
"""


class Dashboard:
    """Builds the static dashboard from a TSDB query engine.

    ``engine`` may equally be a
    :class:`~repro.serve.gateway.QueryGateway` — it exposes the same
    ``run``/``uids`` surface — so the control centre renders through
    the serving tier (cached, admission-controlled) instead of raw
    storage scans.
    """

    def __init__(self, engine: QueryEngine) -> None:
        self.engine = engine
        self.analytics = FleetAnalytics(engine)

    # ------------------------------------------------------------------
    # page assembly
    # ------------------------------------------------------------------
    def _page(self, title: str, subtitle: str, body: str) -> str:
        return (
            "<!DOCTYPE html><html><head><meta charset='utf-8'>"
            f"<meta name='viewport' content='width=device-width, initial-scale=1'>"
            f"<title>{html.escape(title)}</title><style>{_CSS}</style></head>"
            f"<body><header><h1>{html.escape(title)}</h1>"
            f"<div class='sub'>{html.escape(subtitle)}</div></header>"
            f"<main>{body}</main></body></html>"
        )

    def fleet_overview_html(
        self, unit_ids: Sequence[int], start: int, end: int
    ) -> str:
        """The index page: KPIs, status bar, unit table, incident and
        platform-health panels.

        Each unit's anomaly series is fetched **once** and shared by the
        status roll-up and the trend sparkline (previously two identical
        engine calls per unit).
        """
        overview = self.analytics.fleet_overview(unit_ids, start, end)
        statuses = [status for status, _ in overview]
        summary = self.analytics.summary(statuses)
        counts = grade_counts(statuses)
        kpis = (
            "<div class='kpis'>"
            f"<div class='kpi'><div class='num'>{summary.n_units}</div>"
            "<div class='lbl'>units</div></div>"
            f"<div class='kpi'><div class='num'>{summary.total_anomalies}</div>"
            "<div class='lbl'>anomalies</div></div>"
            f"<div class='kpi'><div class='num'>{summary.units_with_anomalies}</div>"
            "<div class='lbl'>units flagged</div></div>"
            f"<div class='kpi crit'><div class='num'>{summary.units_critical}</div>"
            "<div class='lbl'>critical</div></div>"
            "</div>"
        )
        rows = []
        for status, anomalies in overview:
            grade = status.grade
            trend = self._anomaly_trend_sparkline(status.unit_id, anomalies)
            rows.append(
                "<tr>"
                f"<td><a href='machine-{status.unit_id:03d}.html'>{status.label}</a></td>"
                f"<td><span class='grade' style='background:{grade.color}'>"
                f"{grade.value}</span></td>"
                f"<td>{status.anomaly_count}</td>"
                f"<td>{status.sensors_affected}</td>"
                f"<td>{status.unit_alarms}</td>"
                f"<td>{trend}</td>"
                "</tr>"
            )
        body = (
            f"<div class='panel'><h2>Global analytics</h2>{kpis}</div>"
            "<div class='panel'><h2>Fleet status</h2>"
            f"{render_status_bar(statuses)}"
            f"<div class='meta'>ok: {counts[HealthGrade.OK]} &middot; "
            f"warning: {counts[HealthGrade.WARNING]} &middot; "
            f"critical: {counts[HealthGrade.CRITICAL]}</div></div>"
            "<div class='panel'><h2>Units</h2><table>"
            "<tr><th>unit</th><th>status</th><th>anomalies</th>"
            "<th>sensors affected</th><th>unit alarms</th><th>trend</th></tr>"
            f"{''.join(rows)}</table></div>"
            f"{self.incidents_html()}{self.platform_health_html()}"
        )
        return self._page(TITLE, f"fleet overview · t ∈ [{start}, {end})", body)

    def incidents_html(self, start: int = 0, end: Optional[int] = None) -> str:
        """The incident panel: alert history read back from the TSDB.

        Discovers the ``alert.*`` series the alerting tier persisted
        (``alert.incident`` value = peak severity score at open,
        ``alert.resolve`` value = duration) and renders one row per
        incident event, newest first, tagged with scope / severity /
        unit.  Returns an empty string when no alert series exist, so
        deployments without the alerting tier render unchanged.
        """
        horizon = _SELF_METRIC_HORIZON if end is None else end
        names = sorted(
            name
            for name in self.engine.uids.names("metric")
            if name.startswith(_ALERT_METRIC_PREFIXES)
        )
        events: List[tuple] = []
        for name in names:
            # Incident history rides the data timeline but must show
            # every open incident regardless of panel window; the open
            # horizon is the point of the panel, not an oversight.
            query = TsdbQuery(  # repro-lint: ignore[unbounded-time-range]
                metric=name,
                start=start,
                end=horizon,
                group_by=("scope", "severity", "unit"),
            )
            for series in self.engine.run(query):
                tags = series.tag_dict
                for t, v in zip(series.timestamps, series.values):
                    events.append(
                        (
                            int(t),
                            name,
                            tags.get("scope", "?"),
                            tags.get("severity", "?"),
                            tags.get("unit", "?"),
                            float(v),
                        )
                    )
        if not events:
            return ""
        events.sort(key=lambda e: (-e[0], e[1]))
        shown = events[:MAX_INCIDENT_ROWS]
        rows = []
        for t, name, scope, severity, unit, value in shown:
            kind = "resolved" if name == "alert.resolve" else "opened"
            what = f"duration {value:.0f}s" if kind == "resolved" else f"peak |z| {value:.1f}"
            colour = {"critical": "#cf222e", "warning": "#bf8700"}.get(severity, "#57606a")
            rows.append(
                "<tr>"
                f"<td>{t}</td><td>{html.escape(unit)}</td>"
                f"<td>{html.escape(scope)}</td>"
                f"<td><span class='grade' style='background:{colour}'>"
                f"{html.escape(severity)}</span></td>"
                f"<td>{kind}</td><td>{html.escape(what)}</td></tr>"
            )
        more = (
            f"<div class='meta'>showing {len(shown)} of {len(events)} incident events</div>"
            if len(events) > len(shown)
            else ""
        )
        return (
            "<div class='panel'><h2>Incidents</h2><table>"
            "<tr><th>t</th><th>unit</th><th>scope</th><th>severity</th>"
            f"<th>event</th><th>detail</th></tr>{''.join(rows)}</table>{more}</div>"
        )

    def _anomaly_trend_sparkline(self, unit_id: int, anomalies) -> str:
        """Sensors-flagged-over-time sparkline from the shared anomaly result."""
        counts: Dict[int, int] = {}
        for series in anomalies:
            for t in series.timestamps:
                counts[int(t)] = counts.get(int(t), 0) + 1
        if not counts:
            return ""
        times = np.array(sorted(counts), dtype=np.int64)
        values = np.array([float(counts[int(t)]) for t in times])
        return render_sparkline(
            times,
            values,
            np.empty(0, dtype=np.int64),
            tooltip=f"unit {unit_id}: sensors flagged over time",
        )

    def platform_health_html(self, start: int = 0, end: Optional[int] = None) -> str:
        """The platform-health panel: self-telemetry read back from the TSDB.

        Discovers the ``proxy.*``/``tsd.*``/``engine.*``/… series the
        :class:`~repro.obs.selfreport.SelfReporter` wrote into the store
        and renders one row per (metric, host) with the latest value and
        a trend sparkline — the platform monitoring itself through its
        own query path.  Returns an empty string when no self-telemetry
        exists (self-reporting off), so the overview degrades to the
        pure fleet view.
        """
        horizon = _SELF_METRIC_HORIZON if end is None else end
        names = sorted(
            name
            for name in self.engine.uids.names("metric")
            if name.startswith(_SELF_METRIC_PREFIXES)
        )
        no_anomalies = np.empty(0, dtype=np.int64)
        rows: List[str] = []
        total = 0
        for name in names:
            # Self-telemetry timestamps run on the simulator clock, not
            # the data timeline (see _SELF_METRIC_HORIZON): the open end
            # is deliberate, so waive the unbounded-range lint here.
            query = TsdbQuery(  # repro-lint: ignore[unbounded-time-range]
                metric=name, start=start, end=horizon, group_by=("host",)
            )
            for series in self.engine.run(query):
                if not len(series):
                    continue
                total += 1
                if len(rows) >= MAX_HEALTH_ROWS:
                    continue
                host = series.tag_dict.get("host", "?")
                spark = render_sparkline(
                    series.timestamps,
                    series.values,
                    no_anomalies,
                    tooltip=f"{name} host={host}",
                )
                rows.append(
                    "<tr>"
                    f"<td>{html.escape(name)}</td><td>{html.escape(host)}</td>"
                    f"<td>{len(series)}</td><td>{series.values[-1]:.4g}</td>"
                    f"<td>{spark}</td></tr>"
                )
        if not rows:
            return ""
        shown = (
            f"<div class='meta'>showing {len(rows)} of {total} self-metric series</div>"
            if total > len(rows)
            else ""
        )
        return (
            "<div class='panel'><h2>Platform health</h2><table>"
            "<tr><th>self-metric</th><th>host</th><th>points</th>"
            f"<th>last</th><th>trend</th></tr>{''.join(rows)}</table>{shown}</div>"
        )

    def machine_page_html(self, unit_id: int, start: int, end: int) -> str:
        """Figure 3: status strip, sparkline grid, drill-down details."""
        # One anomaly query serves the status strip, the sparkline
        # flags, the top-sensor ranking and every drill-down block.
        status, anomalies = self.analytics.unit_overview(unit_id, start, end)
        data = self.analytics.sensor_series(unit_id, start, end)
        anomaly_times: Dict[str, np.ndarray] = {
            s.tag_dict.get("sensor", "?"): s.timestamps for s in anomalies
        }
        # Flagged sensors first, then the rest, capped.
        def sort_key(series) -> tuple:
            sensor = series.tag_dict.get("sensor", "?")
            n = len(anomaly_times.get(sensor, ()))
            return (-n, sensor)

        data_sorted = sorted(data, key=sort_key)[:MAX_SPARKLINES]
        cells = []
        for series in data_sorted:
            sensor = series.tag_dict.get("sensor", "?")
            a_times = anomaly_times.get(sensor, np.empty(0, dtype=np.int64))
            flagged = "cell flagged" if len(a_times) else "cell"
            spark = render_sparkline(
                series.timestamps,
                series.values,
                a_times,
                tooltip=f"{sensor}: {len(a_times)} anomalies",
            )
            cells.append(
                f"<div class='{flagged}'><div class='name'>{html.escape(sensor)}"
                f"{' · ' + str(len(a_times)) + ' ⚑' if len(a_times) else ''}</div>"
                f"{spark}</div>"
            )
        top = self.analytics.top_sensors_from(anomalies, MAX_DETAILS)
        details = [
            self._detail_block(activity, data, anomaly_times) for activity in top
        ]
        grade = status.grade
        body = (
            "<div class='panel'><h2>Unit status</h2>"
            f"<div class='meta'><span class='grade' style='background:{grade.color}'>"
            f"{grade.value}</span> &nbsp; {status.anomaly_count} anomalies on "
            f"{status.sensors_affected} sensors &middot; {status.unit_alarms} unit alarms"
            f"</div>{render_status_bar([status], width=960, height=14)}</div>"
            f"<div class='panel'><h2>Sensors ({len(data_sorted)} of {len(data)})</h2>"
            f"<div class='grid'>{''.join(cells)}</div></div>"
            + (
                f"<div class='panel'><h2>Drill-down</h2>{''.join(details)}</div>"
                if details
                else ""
            )
            + "<div class='meta'><a href='index.html'>← fleet overview</a></div>"
        )
        return self._page(
            f"{TITLE} — machine {unit_id}",
            f"machine page · t ∈ [{start}, {end})",
            body,
        )

    def _detail_block(
        self,
        activity: SensorActivity,
        data_series,
        anomaly_times: Dict[str, np.ndarray],
    ) -> str:
        series = next(
            (s for s in data_series if s.tag_dict.get("sensor") == activity.sensor), None
        )
        if series is None or not len(series):
            return ""
        a_times = anomaly_times.get(activity.sensor, np.empty(0, dtype=np.int64))
        # Control band from the displayed window's own robust statistics
        # (the dashboard has no access to the training data).
        values = series.values
        med = float(np.median(values))
        mad = float(np.median(np.abs(values - med))) * 1.4826
        chart = render_detail_chart(
            series.timestamps,
            values,
            a_times,
            mean=med,
            std=mad if mad > 0 else None,
            title=(
                f"{activity.sensor} — {activity.anomaly_count} anomalies, "
                f"peak |z| = {activity.peak_score:.1f}, "
                f"last at t={activity.last_anomaly_time}s"
            ),
        )
        return f"<div class='detail'>{chart}</div>"

    # ------------------------------------------------------------------
    # file output
    # ------------------------------------------------------------------
    def write(
        self,
        out_dir: str | Path,
        unit_ids: Sequence[int],
        start: int,
        end: int,
        machine_pages: Optional[Sequence[int]] = None,
    ) -> List[Path]:
        """Write index + machine pages; returns the created paths."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        written = []
        index = out / "index.html"
        index.write_text(self.fleet_overview_html(unit_ids, start, end))
        written.append(index)
        pages = machine_pages if machine_pages is not None else unit_ids
        for unit_id in pages:
            page = out / f"machine-{unit_id:03d}.html"
            page.write_text(self.machine_page_html(unit_id, start, end))
            written.append(page)
        return written
