"""Dashboard and analytics edge cases: empty stores, sparse data."""

import pytest

from repro.core.pipeline import AnomalyPipeline
from repro.simdata import FleetConfig, FleetGenerator
from repro.tsdb.ingest import build_cluster
from repro.tsdb.tsd import DataPoint
from repro.viz import Dashboard, FleetAnalytics, HealthGrade
from repro.viz import dashboard as dashboard_module


@pytest.fixture()
def empty_cluster():
    return build_cluster(n_nodes=2, retain_data=True)


class TestEmptyStore:
    def test_statuses_all_ok(self, empty_cluster):
        analytics = FleetAnalytics(empty_cluster.query_engine())
        statuses = [s for s, _ in analytics.fleet_overview([0, 1, 2], 0, 100)]
        assert all(s.grade is HealthGrade.OK for s in statuses)
        assert all(s.anomaly_count == 0 for s in statuses)

    def test_summary_of_empty_fleet(self, empty_cluster):
        analytics = FleetAnalytics(empty_cluster.query_engine())
        summary = analytics.summary([])
        assert summary.n_units == 0
        assert summary.worst_unit is None

    def test_overview_renders(self, empty_cluster, tmp_path):
        dash = Dashboard(empty_cluster.query_engine())
        paths = dash.write(tmp_path, [0, 1], 0, 100)
        html = paths[0].read_text()
        assert "Fleet status" in html

    def test_machine_page_without_data(self, empty_cluster):
        dash = Dashboard(empty_cluster.query_engine())
        html = dash.machine_page_html(0, 0, 100)
        assert "Sensors (0 of 0)" in html
        assert "Drill-down" not in html  # no anomalies, no drill-down panel

    def test_top_sensors_empty(self, empty_cluster):
        analytics = FleetAnalytics(empty_cluster.query_engine())
        assert analytics.top_sensors_from(analytics.anomaly_series(0, 0, 100)) == []


class TestSparseData:
    def test_data_without_anomalies(self, empty_cluster, tmp_path):
        empty_cluster.direct_put(
            [DataPoint.make("energy", t, float(t), {"unit": "unit000", "sensor": "s0000"})
             for t in range(20)]
        )
        dash = Dashboard(empty_cluster.query_engine())
        html = dash.machine_page_html(0, 0, 100)
        assert "Sensors (1 of 1)" in html
        assert "cell flagged" not in html

    def test_anomaly_without_matching_data(self, empty_cluster):
        # anomaly metric present but no raw data: status still computes
        empty_cluster.direct_put(
            [DataPoint.make("anomaly", 5, 4.2, {"unit": "unit000", "sensor": "s0000"})]
        )
        analytics = FleetAnalytics(empty_cluster.query_engine())
        status, _ = analytics.unit_overview(0, 0, 100)
        assert status.anomaly_count == 1
        assert status.grade is not HealthGrade.OK

    def test_max_details_cap(self, tmp_path, monkeypatch):
        generator = FleetGenerator(
            FleetConfig(n_units=2, n_sensors=12, seed=5, fault_mix=(0.0, 0.0, 1.0))
        )
        cluster = build_cluster(n_nodes=2, retain_data=True)
        AnomalyPipeline(generator, cluster).run(n_train=150, n_eval=150)
        monkeypatch.setattr(dashboard_module, "MAX_DETAILS", 1)
        dash = Dashboard(cluster.query_engine())
        html = dash.machine_page_html(0, 150, 300)
        assert html.count("detail-chart") <= 1

    def test_window_outside_data_range(self, empty_cluster):
        empty_cluster.direct_put(
            [DataPoint.make("energy", 50, 1.0, {"unit": "unit000", "sensor": "s0000"})]
        )
        dash = Dashboard(empty_cluster.query_engine())
        html = dash.machine_page_html(0, 1000, 2000)  # empty window
        assert "Sensors (0 of 0)" in html
