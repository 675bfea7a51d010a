"""The alerting tier: lifecycle state machine, store, stream, dashboard.

Covers the :mod:`repro.alerting` subsystem end to end — the
``AlertManager`` state machine (hysteresis, dedup, flap suppression,
fleet roll-up), the ``alert.*`` series round-trip through the TSDB,
the continuous ``StreamingDetector`` path, the dashboard incident
panel, self-metric attribution, and the streaming run under injected chaos
(PR 3's fault harness) with the delivery-conservation invariant.
"""

import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro import (
    AlertingConfig,
    AlertManager,
    AlertStore,
    AnomalyEvent,
    AnomalyPipeline,
    ClusterConfig,
    FDRDetector,
    FDRDetectorConfig,
    FleetConfig,
    FleetGenerator,
    Incident,
    IncidentState,
    StreamingDetector,
    TsdbQuery,
    build_cluster,
)
from repro.alerting import manager as alert_manager
from repro.alerting import severity_for
from repro.alerting.events import CRITICAL_Z, WARNING_Z
from repro.alerting.manager import FLEET_UNIT_ID
from repro.alerting.store import (
    ALERT_INCIDENT_METRIC,
    ALERT_RESOLVE_METRIC,
    alert_unit_tag,
)
from repro.alerting.stream import fleet_microbatches
from repro.chaos import FaultEvent, FaultPlan, Injector
from repro.cluster.metrics import MetricsRegistry
from repro.core.engine import ANOMALY_METRIC, UNIT_ALARM_METRIC
from repro.obs import samples
from repro.sparklet import SparkletContext, StreamingContext
from repro.viz.dashboard import Dashboard

from . import oracle


def ev(unit, t, score=5.0, sensor=0):
    return AnomalyEvent(unit_id=unit, sensor_id=sensor, timestamp=t, score=score)


class TestConfigAndSeverity:
    def test_defaults_valid(self):
        AlertingConfig()

    @pytest.mark.parametrize("kwargs", [{"open_after": 0}])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AlertingConfig(**kwargs)

    def test_severity_mapping(self):
        assert severity_for(WARNING_Z / 2) == "info"
        assert severity_for(WARNING_Z) == "warning"
        assert severity_for(CRITICAL_Z + 0.5) == "critical"


class TestIncident:
    def test_absorb_tracks_peak_and_sensors(self):
        incident = Incident(1, "unit", 3, opened_at=10, first_event_at=8)
        incident.absorb(ev(3, 8, score=-6.0, sensor=2))
        incident.absorb(ev(3, 9, score=4.0, sensor=5))
        assert incident.events == 2
        assert incident.sensors == {2, 5}
        assert incident.severity_score == 6.0  # peak |z|, sign-blind

    def test_duration_and_open(self):
        incident = Incident(1, "unit", 3, opened_at=10, first_event_at=8)
        assert incident.open and incident.duration == 0
        incident.resolved_at = 25
        assert not incident.open and incident.duration == 15


class TestManagerLifecycle:
    @pytest.fixture
    def manager(self, monkeypatch):
        """``manager(open_after=2, close_after=2, flap_window=100,
        max_flaps=2, fleet_threshold=3)``: a manager whose lifecycle
        constants are patched to the given values for the test."""

        def make(open_after=2, close_after=2, flap_window=100, max_flaps=2,
                 fleet_threshold=3):
            monkeypatch.setattr(alert_manager, "CLOSE_AFTER", close_after)
            monkeypatch.setattr(alert_manager, "FLAP_WINDOW", flap_window)
            monkeypatch.setattr(alert_manager, "MAX_FLAPS", max_flaps)
            monkeypatch.setattr(alert_manager, "FLEET_THRESHOLD", fleet_threshold)
            return AlertManager(AlertingConfig(open_after=open_after))

        return make

    def test_single_interval_transient_never_pages(self, manager):
        m = manager()
        assert m.observe(10, [ev(1, 9), ev(1, 9, sensor=3)]) == []
        assert m.state_of(1) is IncidentState.PENDING
        assert m.observe(20, []) == []
        assert m.state_of(1) is IncidentState.CLEAR
        assert m.incidents_opened == 0
        assert m.transients_discarded == 2

    def test_opens_after_hysteresis_with_first_evidence_time(self, manager):
        m = manager()
        m.observe(10, [ev(1, 7), ev(1, 8, sensor=2)])
        opened = m.observe(20, [ev(1, 15, score=9.0, sensor=4)])
        assert len(opened) == 1
        incident = opened[0]
        assert incident.scope == "unit" and incident.unit_id == 1
        assert incident.opened_at == 20
        assert incident.first_event_at == 7  # earliest evidence, not the page
        assert incident.sensors == {0, 2, 4}
        assert incident.severity_score == 9.0
        assert m.state_of(1) is IncidentState.OPEN
        # 3 events, 1 page: two were folded away
        assert m.events_deduped == 2

    def test_open_incident_absorbs_instead_of_reopening(self, manager):
        m = manager(open_after=1)
        (incident,) = m.observe(10, [ev(1, 10)])
        m.observe(20, [ev(1, 20, sensor=7), ev(1, 20, sensor=8)])
        assert m.incidents_opened == 1
        assert incident.events == 3
        assert incident.sensors == {0, 7, 8}

    def test_resolve_needs_consecutive_clean_intervals(self, manager):
        m = manager(open_after=1, close_after=2)
        (incident,) = m.observe(10, [ev(1, 10)])
        m.observe(20, [])
        m.observe(30, [ev(1, 30)])  # relapse resets the closing hysteresis
        m.observe(40, [])
        assert incident.open
        m.observe(50, [])
        assert not incident.open and incident.resolved_at == 50
        assert m.state_of(1) is IncidentState.RESOLVED
        assert m.open_incidents() == []

    def test_flapping_unit_lands_in_suppression(self, manager):
        m = manager(open_after=1, close_after=1, max_flaps=2, flap_window=100)
        m.observe(10, [ev(1, 10)])
        m.observe(20, [])  # resolve #1
        m.observe(30, [ev(1, 30)])  # flap 1 -> still pages
        m.observe(40, [])  # resolve #2
        assert m.incidents_opened == 2
        assert m.observe(50, [ev(1, 50)]) == []  # flap 2 -> penalty box
        assert m.state_of(1) is IncidentState.SUPPRESSED
        assert m.observe(60, [ev(1, 60)]) == []  # still counted, never paged
        assert m.incidents_opened == 2
        assert m.events_suppressed >= 2

    def test_suppression_forgiven_after_quiet_window(self, manager):
        m = manager(open_after=1, close_after=1, max_flaps=2, flap_window=100)
        for t, events in [(10, [ev(1, 10)]), (20, []), (30, [ev(1, 30)]),
                          (40, []), (50, [ev(1, 50)])]:
            m.observe(t, events)
        assert m.state_of(1) is IncidentState.SUPPRESSED
        m.observe(160, [])  # 110s quiet >= flap_window
        assert m.state_of(1) is IncidentState.CLEAR
        opened = m.observe(170, [ev(1, 170)])  # stable again: pages normally
        assert len(opened) == 1 and opened[0].flaps == 0

    def test_fleet_rollup_opens_and_resolves(self, manager):
        m = manager(open_after=1, close_after=2, fleet_threshold=2)
        opened = m.observe(10, [ev(1, 10, score=4.0), ev(2, 10, score=7.0)])
        scopes = sorted(i.scope for i in opened)
        assert scopes == ["fleet", "unit", "unit"]
        fleet = next(i for i in opened if i.scope == "fleet")
        assert fleet.unit_id == FLEET_UNIT_ID
        assert fleet.member_units == {1, 2}
        assert fleet.severity_score == 7.0  # max over members
        m.observe(20, [])
        m.observe(30, [])  # units resolve here
        assert all(not i.open for i in m.incidents if i.scope == "unit")
        assert fleet.open  # fleet closing hysteresis runs behind the units
        m.observe(40, [])
        m.observe(50, [])
        assert not fleet.open

    def test_volume_reduction_accounting(self, manager):
        m = manager(open_after=1)
        for t in (10, 20, 30):
            m.observe(t, [ev(1, t, sensor=s) for s in range(10)])
        assert m.events_total == 30
        assert m.incidents_opened == 1
        assert m.volume_reduction() == 30.0
        assert m.incidents_for_unit(1)[0].events == 30


class TestStoreRoundTrip:
    def test_alert_unit_tag(self):
        unit = Incident(1, "unit", 7, opened_at=1, first_event_at=1)
        fleet = Incident(2, "fleet", FLEET_UNIT_ID, opened_at=1, first_event_at=1)
        assert alert_unit_tag(unit) == "unit007"
        assert alert_unit_tag(fleet) == "fleet"

    def test_incidents_persist_as_queryable_series(self, monkeypatch):
        monkeypatch.setattr(alert_manager, "CLOSE_AFTER", 1)
        cluster = build_cluster(n_nodes=2, retain_data=True)
        store = AlertStore(cluster)
        manager = AlertManager(AlertingConfig(open_after=1), store=store)
        manager.observe(5, [ev(3, 5, score=9.0)])
        manager.observe(8, [])  # resolves; duration 3
        report = store.flush()
        assert report.points_submitted == 2
        assert report.points_written == 2
        assert report.points_submitted == report.points_accounted

        engine = cluster.query_engine()
        opened = engine.run(
            TsdbQuery(
                ALERT_INCIDENT_METRIC, 0, 100,
                tag_filters={"unit": "unit003", "severity": "critical"},
            )
        )
        assert sum(len(s.timestamps) for s in opened) == 1
        assert opened[0].values[0] == 9.0  # peak |z| at open
        resolved = engine.run(
            TsdbQuery(ALERT_RESOLVE_METRIC, 0, 100, tag_filters={"unit": "unit003"})
        )
        assert resolved[0].values[0] == 3.0  # value = duration


class TestFleetMicrobatches:
    def test_stream_reassembles_the_windows(self):
        generator = FleetGenerator(FleetConfig(n_units=2, n_sensors=3, seed=5))
        batches = list(
            fleet_microbatches(generator, n_train=40, n_eval=30, interval=25)
        )
        assert len(batches) == 3  # ceil(70 / 25)
        assert [len(b) for b in batches] == [2, 2, 2]
        # per-unit concatenation reproduces train ++ eval exactly
        unit0 = np.vstack([dict(
            (u, v) for u, s, v in batch
        )[0] for batch in batches])
        expected = np.vstack(
            [
                generator.training_window(0, 40).values,
                generator.evaluation_window(0, 30, start_time=40).values,
            ]
        )
        np.testing.assert_array_equal(unit0, expected)
        # start times advance by the interval and the tail is short
        assert [b[0][1] for b in batches] == [0, 25, 50]
        assert batches[-1][0][2].shape[0] == 20

    def test_invalid_interval(self):
        generator = FleetGenerator(FleetConfig(n_units=1, n_sensors=2, seed=5))
        with pytest.raises(ValueError):
            list(fleet_microbatches(generator, interval=0))


class TestStreamingDetector:
    def test_storage_less_run_detects_the_fault(self):
        generator = FleetGenerator(
            FleetConfig(
                n_units=2,
                n_sensors=8,
                seed=11,
                fault_mix=(0.0, 0.0, 1.0),  # (none, drift, shift): all shift
                magnitude_range=(5.0, 6.0),
            )
        )
        detector = StreamingDetector(
            8,
            config=FDRDetectorConfig(q=0.005),
            alerting=AlertingConfig(open_after=3),
            min_samples=200,
            refresh_every=2,
        )
        report = detector.run_fleet(generator, n_train=300, n_eval=300, interval=25)
        assert report.intervals == 24
        assert report.samples_streamed == 2 * 8 * 600
        assert report.model_swaps >= 2  # at least the two initial fits
        # every publish channel is absent in a storage-less run
        assert report.data_publish is None
        assert report.anomaly_publish is None
        assert report.alert_publish is None
        faults = {
            u: 300 + min(f.onset for f in generator.fault_for(u, 300))
            for u in generator.units()
            if generator.fault_for(u, 300)
        }
        assert faults  # the 100%-shift mix faulted every unit
        latencies = report.detection_latencies(faults)
        assert set(latencies) == set(faults)  # nothing missed
        assert all(lat >= 0 for lat in latencies.values())
        assert report.naive_alerts > report.incidents_opened
        assert report.volume_reduction > 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_records_are_dropped_and_counted(self, bad):
        """Regression: a NaN sample was scored silently (no flags for
        about a window), folded into the unit's moments (every later
        refresh quarantined) and written to storage.  The record is now
        dropped whole — not scored, trained on or published — and the
        stream carries on."""

        class Poisoned:
            """The fleet with one bad cell in unit 0's training window
            and one in its evaluation window."""

            def __init__(self, fleet):
                self.fleet = fleet
                self.units = fleet.units

            def training_window(self, unit_id, n):
                window = self.fleet.training_window(unit_id, n)
                if unit_id == 0:
                    window.values[30, 1] = bad
                return window

            def evaluation_window(self, unit_id, n, start_time=0):
                window = self.fleet.evaluation_window(unit_id, n, start_time=start_time)
                if unit_id == 0:
                    window.values[40, 2] = bad
                return window

        fleet = FleetGenerator(
            FleetConfig(n_units=2, n_sensors=6, seed=11, fault_mix=(0.0, 0.0, 1.0),
                        magnitude_range=(5.0, 6.0))
        )

        def run(generator):
            cluster = build_cluster(n_nodes=2, retain_data=True)
            detector = StreamingDetector(
                6, cluster, config=FDRDetectorConfig(q=0.005),
                alerting=AlertingConfig(open_after=3), min_samples=100, refresh_every=2,
            )
            report = detector.run_fleet(generator, n_train=200, n_eval=200, interval=20)
            rejected = detector.metrics.counter("alerting.records_rejected").get()
            return report, rejected

        clean, clean_rejected = run(fleet)
        report, rejected = run(Poisoned(fleet))
        assert clean.records_rejected == clean_rejected == 0
        assert report.records_rejected == rejected == 2
        dropped = 2 * 20 * 6  # two 20-row records of six sensors
        assert report.samples_streamed == clean.samples_streamed - dropped
        assert report.data_publish.points_written == report.samples_streamed
        assert report.intervals == clean.intervals  # the stream did not die
        assert report.quarantines == 0  # nor was the unit benched
        assert report.model_swaps >= clean.model_swaps - 1
        # The untouched unit decides exactly what it decided before.
        assert [
            (i.opened_at, i.resolved_at) for i in report.unit_incidents(1)
        ] == [(i.opened_at, i.resolved_at) for i in clean.unit_incidents(1)]
        assert report.unit_incidents(0)  # and the poisoned one still detects

    def test_malformed_records_are_rejected_not_raised(self):
        """Regression: a record of the wrong sensor count raised out of the
        interval, and a 1-D one was skipped uncounted.  Each is rejected like
        a non-finite one, at cold start and with a model; an empty one idles."""
        detector = StreamingDetector(5, min_samples=20, refresh_every=1)
        rng = np.random.default_rng(0)
        malformed = (np.ones((25, 6)), np.ones((25, 4)), np.ones(5))
        good = (rng.standard_normal((40, 5)), rng.standard_normal((40, 5)))
        for values in malformed + good + malformed + (np.zeros((0, 5)), np.zeros(0)):
            detector._on_interval(0, SimpleNamespace(collect=lambda: [(0, 0, values)]))
        assert 0 in detector.engine.models
        rejected = detector.metrics.counter("alerting.records_rejected").get()
        assert detector.report.records_rejected == rejected == 6
        assert detector.report.samples_streamed == 80 * 5

    def test_stored_data_is_the_streamed_columns_bit_for_bit(self):
        """Every sample the stream wrote back reads back as the very
        bits it was streamed with, at its own second, in its own series."""
        generator = FleetGenerator(FleetConfig(n_units=3, n_sensors=5, seed=3))
        cluster = build_cluster(n_nodes=2, salt_buckets=4, retain_data=True)
        detector = StreamingDetector(5, cluster, min_samples=50)
        n_train, n_eval = 80, 70
        report = detector.run_fleet(generator, n_train=n_train, n_eval=n_eval, interval=25)
        assert report.data_publish.points_written == report.samples_streamed == 3 * 5 * 150
        stored = cluster.query_engine().run(
            TsdbQuery("energy", 0, n_train + n_eval, group_by=("unit", "sensor"))
        )
        assert len(stored) == 3 * 5
        for unit in generator.units():
            streamed = np.vstack([
                generator.training_window(unit, n_train).values,
                generator.evaluation_window(unit, n_eval, start_time=n_train).values,
            ])
            for sensor in range(5):
                (series,) = [
                    s for s in stored
                    if s.tags == (("sensor", f"s{sensor:04d}"), ("unit", f"unit{unit:03d}"))
                ]
                assert series.timestamps.tolist() == list(range(n_train + n_eval))
                np.testing.assert_array_equal(
                    np.asarray(series.values).view(np.int64),
                    np.ascontiguousarray(streamed[:, sensor]).view(np.int64),
                )

    def test_detection_latency_omits_missed_units(self):
        report_cls = StreamingDetector(
            2, min_samples=10
        ).report.__class__
        report = report_cls(
            incidents=[Incident(1, "unit", 0, opened_at=50, first_event_at=48)]
        )
        # unit 0 detected at 50 for onset 40; unit 1 has no incident
        assert report.detection_latencies({0: 40, 1: 40}) == {0: 10}
        # an incident that predates the onset does not count as detection
        assert report.detection_latencies({0: 60}) == {}


class TestOneEvaluationPath:
    """The stream scores and writes back through the batch run's engine."""

    def test_window_survives_a_hot_swap(self):
        """Rows scored after a swap test full windows: the carried rows
        are re-standardised under the new model, so every window t
        value is the oracle's statistic on the raw rows under it."""
        generator = FleetGenerator(FleetConfig(n_units=1, n_sensors=6, seed=5))
        config = FDRDetectorConfig()
        fdr = FDRDetector(config)
        train = generator.training_window(0, 400).values
        old, new = fdr.fit(train[:200], unit_id=0), fdr.fit(train[150:], unit_id=0)
        rows = generator.evaluation_window(0, 120).values
        detector = StreamingDetector(6, config=config)
        detector.trainer.on_model(old)
        swap_at, chunk = 50, 10
        scored = {}
        for lo in range(0, len(rows), chunk):
            if lo == swap_at:
                detector.trainer.on_model(new)
            evaluation = detector.engine.evaluate_unit(0, lo, rows[lo : lo + chunk])
            scored[lo] = evaluation.report.zscores
        after = np.vstack([scored[lo] for lo in range(swap_at, len(rows), chunk)])
        want = oracle.window_statistic(rows, new.mean, new.std, config.window, new.n_train)
        np.testing.assert_allclose(after, want[swap_at:], rtol=1e-12)
        assert detector.report.model_swaps == 2

    def test_batch_and_stream_store_the_same_series(self):
        """One unit, one fixed model: the batch run over its evaluation
        window and that window as one stream record store identical
        data, ``anomaly`` and ``anomaly.unit`` series."""
        generator = FleetGenerator(
            FleetConfig(n_units=2, n_sensors=8, seed=11, fault_mix=(0.0, 0.0, 1.0),
                        magnitude_range=(5.0, 6.0))
        )
        unit, n_train, n_eval = 1, 300, 300
        batch_cluster = build_cluster(n_nodes=2, salt_buckets=4, retain_data=True)
        pipeline = AnomalyPipeline(generator, batch_cluster)
        pipeline.run([unit], n_train=n_train, n_eval=n_eval)

        stream_cluster = build_cluster(n_nodes=2, salt_buckets=4, retain_data=True)
        detector = StreamingDetector(8, stream_cluster, config=pipeline.config)
        detector.trainer.on_model(pipeline.model_for(unit))
        window = generator.evaluation_window(unit, n_eval)
        with SparkletContext(parallelism=1) as sc:
            ssc = StreamingContext(sc)
            record = (unit, window.start_time, window.values)
            detector.attach(ssc.generator_stream(iter([[record]])))
            ssc.run()
        detector.finalize()

        def stored(cluster, metric, group_by):
            return [
                (s.tags, list(s.timestamps), np.asarray(s.values).tobytes())
                for s in cluster.query_engine().run(
                    TsdbQuery(metric, 0, 2 * n_eval, group_by=group_by)
                )
            ]

        for metric, group_by in (("energy", ("unit", "sensor")),
                                 (ANOMALY_METRIC, ("unit", "sensor")),
                                 (UNIT_ALARM_METRIC, ("unit",))):
            batch = stored(batch_cluster, metric, group_by)
            stream = stored(stream_cluster, metric, group_by)
            assert batch, metric
            assert batch == stream, metric

    def test_run_fleet_stops_the_context_it_makes(self):
        generator = FleetGenerator(FleetConfig(n_units=2, n_sensors=4, seed=1))
        baseline = threading.active_count()
        for _ in range(2):
            StreamingDetector(4, min_samples=20).run_fleet(
                generator, n_train=40, n_eval=40, interval=20
            )
        assert threading.active_count() == baseline


class TestTelemetryRouting:
    def test_alerting_metrics_route_to_their_own_tree(self):
        registry = MetricsRegistry()
        registry.counter("alerting.opened").inc()
        assert [(s.name, s.host) for s in samples(registry)] == [
            ("alerting.opened", "alerting")
        ]

    def test_detector_counters_land_under_alerting(self):
        registry = MetricsRegistry()
        generator = FleetGenerator(FleetConfig(n_units=1, n_sensors=3, seed=2))
        detector = StreamingDetector(3, metrics=registry, min_samples=50)
        detector.run_fleet(generator, n_train=100, n_eval=50, interval=25)
        assert detector.metrics is registry
        assert registry.counter("alerting.intervals").get() == 6
        assert registry.counter("alerting.model_swaps").get() >= 1
        hosts = {s.name: s.host for s in samples(registry)}
        assert hosts["alerting.intervals"] == hosts["alerting.model_swaps"] == "alerting"


class TestDashboardIncidentPanel:
    def test_panel_renders_persisted_incidents(self, monkeypatch):
        monkeypatch.setattr(alert_manager, "CLOSE_AFTER", 1)
        cluster = build_cluster(n_nodes=2, retain_data=True)
        store = AlertStore(cluster)
        manager = AlertManager(AlertingConfig(open_after=1), store=store)
        manager.observe(5, [ev(3, 5, score=9.0)])
        manager.observe(8, [])
        store.flush()
        html = Dashboard(cluster.query_engine()).incidents_html()
        assert "Incidents" in html or "incident" in html.lower()
        assert "unit003" in html
        assert "critical" in html
        assert "resolved" in html.lower()

    def test_panel_absent_without_alert_series(self):
        cluster = build_cluster(n_nodes=2, retain_data=True)
        assert Dashboard(cluster.query_engine()).incidents_html() == ""


class TestStreamingUnderChaos:
    def test_conservation_holds_through_a_tsd_crash(self):
        """PR 3's fault harness against the continuous path.

        A TSD crash mid-stream must not lose accounting on any publish
        channel: every submitted point ends written, failed, or
        dead-lettered, and the stream itself runs to completion.
        """
        cluster = build_cluster(ClusterConfig(n_nodes=2, salt_buckets=4))
        plan = FaultPlan(
            name="stream-tsd-crash",
            events=(
                FaultEvent(at=0.01, action="tsd_crash", target="tsd00", duration=0.15),
            ),
        )
        injector = Injector(cluster, plan)
        injector.arm()
        generator = FleetGenerator(FleetConfig(n_units=3, n_sensors=6, seed=7))
        detector = StreamingDetector(6, cluster, min_samples=100, refresh_every=2)
        report = detector.run_fleet(generator, n_train=150, n_eval=150, interval=25)
        injector.finalize()
        assert report.intervals == 12
        data = report.data_publish
        assert data is not None
        assert data.points_submitted == report.samples_streamed
        assert data.points_written > 0
        for pub in (data, report.anomaly_publish, report.alert_publish):
            if pub is not None:
                assert pub.points_submitted == pub.points_accounted
