"""Tests for the visualization layer: SVG, sparklines, status, dashboard."""

import numpy as np
import pytest

from repro.core.pipeline import AnomalyPipeline
from repro.simdata import FleetConfig, FleetGenerator
from repro.tsdb.ingest import build_cluster
from repro.viz import (
    Dashboard,
    FleetAnalytics,
    HealthGrade,
    SparklineStyle,
    Svg,
    UnitStatus,
    grade_counts,
    grade_unit,
    render_detail_chart,
    render_sparkline,
    render_status_bar,
)
from repro.viz import dashboard as dashboard_module
from repro.viz.svg import path_from_points


class TestSvg:
    def test_document_wraps_elements(self):
        svg = Svg(100, 50)
        svg.rect(0, 0, 10, 10, fill="#fff")
        out = svg.to_string()
        assert out.startswith("<svg")
        assert 'width="100"' in out
        assert "<rect" in out

    def test_text_escaped(self):
        out = Svg(10, 10).text(0, 0, "<script>&").to_string()
        assert "<script>" not in out
        assert "&lt;script&gt;&amp;" in out

    def test_attr_name_mapping(self):
        out = Svg(10, 10).line(0, 0, 1, 1, stroke_width=2, class_="x").to_string()
        assert 'stroke-width="2"' in out
        assert 'class="x"' in out

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            Svg(0, 10)

    def test_polyline_and_path_helpers(self):
        pts = [(0.0, 1.0), (2.5, 3.25)]
        assert path_from_points(pts).startswith("M 0 1 L 2.5")
        assert path_from_points([(0, 0)]) == ""

    def test_circle_and_title(self):
        out = Svg(10, 10).circle(5, 5, 2, fill="red").title("tip").to_string()
        assert "<circle" in out and "<title>tip</title>" in out


class TestSparkline:
    def test_renders_line(self):
        out = render_sparkline(range(10), np.sin(np.arange(10)))
        assert "<path" in out
        assert 'class="sparkline"' in out

    def test_anomaly_markers(self):
        out = render_sparkline(range(10), range(10), anomaly_times=[3, 7])
        assert out.count("<circle") == 2
        assert "#d62728" in out

    def test_no_data_placeholder(self):
        assert "no data" in render_sparkline([], [])

    def test_flat_series_does_not_crash(self):
        out = render_sparkline([0, 1, 2], [5.0, 5.0, 5.0])
        assert "<path" in out

    def test_tooltip(self):
        out = render_sparkline([0], [1.0], tooltip="sensor s1")
        assert "<title>sensor s1</title>" in out

    def test_custom_style(self):
        style = SparklineStyle(width=300, height=60)
        out = render_sparkline([0, 1], [0.0, 1.0], style=style)
        assert 'width="300"' in out


class TestDetailChart:
    def test_full_chart(self):
        t = np.arange(100)
        v = np.sin(t / 10) * 5 + 100
        out = render_detail_chart(t, v, anomaly_times=[50], mean=100.0, std=5.0,
                                  title="s0001 - detail")
        assert "s0001" in out
        assert "<path" in out
        assert out.count("<circle") == 1
        assert "t=0s" in out and "t=99s" in out

    def test_without_band(self):
        out = render_detail_chart([0, 1], [1.0, 2.0])
        assert "<path" in out

    def test_empty(self):
        assert "no data" in render_detail_chart([], [])


class TestStatusBar:
    def test_grades(self):
        assert grade_unit(0, 0, 0) is HealthGrade.OK
        assert grade_unit(3, 1, 0) is HealthGrade.WARNING
        assert grade_unit(100, 5, 0) is HealthGrade.CRITICAL
        assert grade_unit(0, 0, 1) is HealthGrade.CRITICAL

    def test_render_segments(self):
        statuses = [
            UnitStatus(0, HealthGrade.OK, 0, 0, 0),
            UnitStatus(1, HealthGrade.CRITICAL, 50, 3, 2),
        ]
        out = render_status_bar(statuses)
        assert out.count("<rect") == 2
        assert HealthGrade.OK.color in out
        assert HealthGrade.CRITICAL.color in out

    def test_empty_bar(self):
        assert "no units" in render_status_bar([])

    def test_grade_counts(self):
        statuses = [
            UnitStatus(0, HealthGrade.OK, 0, 0, 0),
            UnitStatus(1, HealthGrade.OK, 0, 0, 0),
            UnitStatus(2, HealthGrade.WARNING, 1, 1, 0),
        ]
        counts = grade_counts(statuses)
        assert counts[HealthGrade.OK] == 2
        assert counts[HealthGrade.WARNING] == 1
        assert counts[HealthGrade.CRITICAL] == 0


@pytest.fixture(scope="module")
def published_cluster():
    generator = FleetGenerator(
        FleetConfig(n_units=4, n_sensors=10, seed=17, fault_mix=(0.25, 0.25, 0.5))
    )
    cluster = build_cluster(n_nodes=2, retain_data=True)
    pipeline = AnomalyPipeline(generator, cluster)
    pipeline.run(n_train=200, n_eval=200)
    return generator, cluster


class TestAnalytics:
    def test_unit_statuses(self, published_cluster):
        generator, cluster = published_cluster
        analytics = FleetAnalytics(cluster.query_engine())
        statuses = [s for s, _ in analytics.fleet_overview(list(generator.units()), 200, 400)]
        assert len(statuses) == 4
        faulted = [u for u in generator.units() if generator.fault_for(u, 200)]
        for status in statuses:
            if status.unit_id in faulted:
                assert status.grade is not HealthGrade.OK

    def test_summary(self, published_cluster):
        generator, cluster = published_cluster
        analytics = FleetAnalytics(cluster.query_engine())
        statuses = [s for s, _ in analytics.fleet_overview(list(generator.units()), 200, 400)]
        summary = analytics.summary(statuses)
        assert summary.n_units == 4
        assert summary.total_anomalies == sum(s.anomaly_count for s in statuses)
        if summary.total_anomalies:
            assert summary.worst_unit is not None

    def test_top_sensors_sorted(self, published_cluster):
        generator, cluster = published_cluster
        analytics = FleetAnalytics(cluster.query_engine())
        faulted = [u for u in generator.units() if generator.fault_for(u, 200)]
        top = analytics.top_sensors_from(analytics.anomaly_series(faulted[0], 200, 400), k=5)
        counts = [a.anomaly_count for a in top]
        assert counts == sorted(counts, reverse=True)

    def test_sensor_series_complete(self, published_cluster):
        generator, cluster = published_cluster
        analytics = FleetAnalytics(cluster.query_engine())
        series = analytics.sensor_series(0, 200, 400)
        assert len(series) == 10
        assert all(len(s) == 200 for s in series)


class TestDashboard:
    def test_write_all_pages(self, published_cluster, tmp_path):
        generator, cluster = published_cluster
        dash = Dashboard(cluster.query_engine())
        paths = dash.write(tmp_path, list(generator.units()), 200, 400)
        assert (tmp_path / "index.html").exists()
        assert len(paths) == 5  # index + 4 machine pages
        index = (tmp_path / "index.html").read_text()
        assert "machine-000.html" in index
        assert "Global analytics" in index

    def test_machine_page_structure(self, published_cluster, tmp_path, monkeypatch):
        generator, cluster = published_cluster
        monkeypatch.setattr(dashboard_module, "MAX_SPARKLINES", 5)
        dash = Dashboard(cluster.query_engine())
        html = dash.machine_page_html(0, 200, 400)
        assert html.count('class="sparkline"') <= 5
        assert "Unit status" in html
        assert "fleet overview" in html

    def test_flagged_sensors_first(self, published_cluster):
        generator, cluster = published_cluster
        faulted = [u for u in generator.units() if generator.fault_for(u, 200)]
        dash = Dashboard(cluster.query_engine())
        html = dash.machine_page_html(faulted[0], 200, 400)
        # a flagged cell appears before the first unflagged cell
        first_flagged = html.find("cell flagged")
        assert first_flagged != -1

    def test_drilldown_present_for_faulted(self, published_cluster):
        generator, cluster = published_cluster
        faulted = [u for u in generator.units() if generator.fault_for(u, 200)]
        dash = Dashboard(cluster.query_engine())
        html = dash.machine_page_html(faulted[0], 200, 400)
        assert "Drill-down" in html
        assert "detail-chart" in html

    def test_pages_are_self_contained(self, published_cluster, tmp_path):
        generator, cluster = published_cluster
        dash = Dashboard(cluster.query_engine())
        html = dash.machine_page_html(0, 200, 400)
        assert "<script" not in html  # static: no JS dependencies
        assert "http://" not in html and "https://" not in html or "xmlns" in html
