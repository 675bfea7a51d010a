"""Chaos harness: fault plans, the injector, and end-to-end survival.

The tier-1 contract of this suite is the last test class: a full
``AnomalyPipeline`` run under a fault plan that crashes a TSD
mid-publish and partitions a RegionServer host must finish with
*every* point accounted (written, failed, or dead-lettered — zero
unaccounted), while the hardening machinery (breaker ejections, ack
timeouts, bounded retries) demonstrably engaged.
"""

import pytest

from repro.chaos import ChaosReport, FaultEvent, FaultPlan, Injector
from repro.core import AnomalyPipeline
from repro.core import pipeline as pipeline_module
from repro.simdata import FleetConfig, FleetGenerator
from repro.sparklet import SparkletContext
from repro.tsdb import build_cluster
from repro.tsdb.tsd import DataPoint


def small_cluster(**overrides):
    defaults = dict(n_nodes=2, salt_buckets=4, retain_data=True)
    defaults.update(overrides)
    return build_cluster(**defaults)


@pytest.fixture()
def chaos_publish(monkeypatch):
    """The chaos runs publish in small batches through a narrow window."""
    monkeypatch.setattr(pipeline_module, "PUBLISH_BATCH_SIZE", 100)
    monkeypatch.setattr(pipeline_module, "MAX_IN_FLIGHT_BATCHES", 8)


def points(n, t0=0):
    return [
        DataPoint.make("energy", t0 + i, float(i), {"unit": "u1", "sensor": f"s{i % 5}"})
        for i in range(n)
    ]


class TestFaultPlan:
    def test_recovery_is_derived_from_duration(self):
        event = FaultEvent(at=1.0, action="tsd_crash", target="tsd00", duration=0.5)
        rec = event.recovery
        assert rec.action == "tsd_restart" and rec.target == "tsd00"
        assert rec.at == pytest.approx(1.5)

    def test_unbounded_outage_has_no_recovery(self):
        assert FaultEvent(at=1.0, action="rs_crash", target="rs00").recovery is None

    def test_expanded_is_time_sorted_with_recoveries(self):
        plan = FaultPlan(
            events=(
                FaultEvent(at=2.0, action="partition", target="node00", duration=1.0),
                FaultEvent(at=0.5, action="tsd_crash", target="tsd01", duration=0.2),
            )
        )
        expanded = plan.expanded()
        assert [e.action for e in expanded] == [
            "tsd_crash",
            "tsd_restart",
            "partition",
            "heal",
        ]
        assert plan.horizon() == pytest.approx(3.0)
        assert len(plan) == 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"at": -1.0, "action": "tsd_crash", "target": "tsd00"},
            {"at": 0.0, "action": "explode", "target": "tsd00"},
            {"at": 0.0, "action": "tsd_crash", "target": ""},
            {"at": 0.0, "action": "tsd_crash", "target": "tsd00", "duration": 0.0},
            {"at": 0.0, "action": "slow_link", "target": "node00", "factor": 0.5},
            {"at": 0.0, "action": "overload_burst", "target": "", "points": 0},
            {"at": 0.0, "action": "random_crashes", "target": "rs00"},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FaultEvent(**kwargs)


class TestChaosReport:
    def test_downtime_accumulates_closed_intervals(self):
        rep = ChaosReport()
        rep.mark_down("tsd00", 1.0)
        rep.mark_up("tsd00", 1.5)
        rep.mark_down("tsd00", 3.0)
        rep.mark_up("tsd00", 3.25)
        assert rep.downtime("tsd00") == pytest.approx(0.75)

    def test_open_interval_counted_to_now_and_closed_by_close(self):
        rep = ChaosReport()
        rep.mark_down("rs01", 2.0)
        assert rep.downtime("rs01", now=5.0) == pytest.approx(3.0)
        assert rep.still_down() == ("rs01",)
        rep.close(6.0)
        assert rep.downtime("rs01") == pytest.approx(4.0)
        assert rep.still_down() == ()

    def test_mark_up_without_down_is_ignored(self):
        rep = ChaosReport()
        rep.mark_up("tsd00", 1.0)
        assert rep.downtime("tsd00") == 0.0

    def test_events_fired_filters_by_action(self):
        rep = ChaosReport()
        rep.record(0.1, "tsd_crash", "tsd00")
        rep.record(0.2, "partition", "node01")
        rep.record(0.3, "tsd_restart", "tsd00")
        assert rep.events_fired() == 3
        assert rep.events_fired("tsd_crash") == 1

    def test_summary_mentions_events_and_downtime(self):
        rep = ChaosReport(plan_name="demo")
        rep.record(0.1, "tsd_crash", "tsd00")
        rep.mark_down("tsd00", 0.1)
        rep.close(0.6)
        text = rep.summary()
        assert "demo" in text and "tsd_crash" in text and "tsd00" in text


class TestInjector:
    def test_unknown_targets_rejected_at_arm_time(self):
        cluster = small_cluster()
        for action, target in [
            ("tsd_crash", "tsd99"),
            ("rs_crash", "rs99"),
            ("partition", "node99"),
            ("random_crashes", "rs99"),
        ]:
            kwargs = {"duration": 1.0} if action == "random_crashes" else {}
            plan = FaultPlan(events=(FaultEvent(at=0.0, action=action, target=target, **kwargs),))
            with pytest.raises(ValueError):
                Injector(cluster, plan).arm()

    def test_double_arm_rejected(self):
        cluster = small_cluster()
        injector = Injector(cluster, FaultPlan())
        injector.arm()
        with pytest.raises(RuntimeError):
            injector.arm()

    def test_tsd_crash_and_auto_restart_fire(self):
        cluster = small_cluster()
        plan = FaultPlan(
            events=(FaultEvent(at=0.1, action="tsd_crash", target="tsd00", duration=0.4),)
        )
        injector = Injector(cluster, plan)
        injector.arm()
        cluster.sim.run(until=0.2)
        assert cluster.tsds[0].crashed
        cluster.sim.run(until=1.0)
        assert not cluster.tsds[0].crashed
        rep = injector.finalize()
        assert rep.events_fired("tsd_crash") == 1
        assert rep.events_fired("tsd_restart") == 1
        assert rep.downtime("tsd00") == pytest.approx(0.4)

    def test_partition_and_slow_link_reach_the_network(self):
        cluster = small_cluster()
        plan = FaultPlan(
            events=(
                FaultEvent(at=0.1, action="partition", target="node00", duration=0.2),
                FaultEvent(at=0.1, action="slow_link", target="node01", factor=8.0, duration=0.2),
            )
        )
        injector = Injector(cluster, plan)
        injector.arm()
        cluster.sim.run(until=0.15)
        assert cluster.network.is_partitioned("node00")
        assert cluster.network.slowdown("node01") == pytest.approx(8.0)
        cluster.sim.run(until=0.5)
        assert not cluster.network.is_partitioned("node00")
        assert cluster.network.slowdown("node01") == pytest.approx(1.0)

    def test_overload_burst_offers_the_requested_points(self):
        cluster = small_cluster()
        plan = FaultPlan(
            events=(
                FaultEvent(
                    at=0.0, action="overload_burst", target="",
                    points=230, batch_size=100, duration=0.3,
                ),
            )
        )
        injector = Injector(cluster, plan)
        injector.arm()
        cluster.sim.run()
        assert injector.burst_points_offered == 230
        total_received = sum(tsd.points_received for tsd in cluster.tsds)
        assert total_received == 230

    def test_random_crashes_fire_and_disarm(self):
        cluster = small_cluster()
        plan = FaultPlan(
            events=(
                FaultEvent(
                    at=0.0, action="random_crashes", target="rs00",
                    duration=5.0, mtbf=0.5, mttr=0.1,
                ),
            ),
            seed=7,
        )
        injector = Injector(cluster, plan)
        injector.arm()
        cluster.sim.run(until=20.0)
        rep = injector.finalize()
        assert rep.events_fired("rs_crash") >= 1
        assert rep.events_fired("rs_crash") == rep.events_fired("rs_restart")
        assert rep.downtime("rs00") > 0.0
        # Every crash happened inside the armed window.
        crash_times = [e.at for e in rep.fired if e.action == "rs_crash"]
        assert max(crash_times) <= 5.0 + 0.1

    def test_replay_is_deterministic(self):
        def run_once():
            cluster = small_cluster()
            plan = FaultPlan(
                events=(
                    FaultEvent(at=0.0, action="random_crashes", target="rs01",
                               duration=3.0, mtbf=0.4, mttr=0.05),
                    FaultEvent(at=0.2, action="tsd_crash", target="tsd00", duration=0.5),
                ),
                seed=13,
            )
            injector = Injector(cluster, plan)
            injector.arm()
            cluster.sim.run(until=10.0)
            rep = injector.finalize()
            return [(e.at, e.action, e.target) for e in rep.fired]

        assert run_once() == run_once()


class TestPipelineUnderChaos:
    """The tier-1 end-to-end criterion: chaos with zero unaccounted points."""

    def test_pipeline_survives_tsd_crash_and_partition(self, chaos_publish):
        generator = FleetGenerator(FleetConfig(n_units=3, n_sensors=6, seed=11))
        cluster = small_cluster()
        # One TSD crashes at sim time 0 and restarts mid-publish; one
        # RegionServer host drops off the network and heals.  Sim time
        # only advances while the publisher waits on its in-flight
        # window, so the crash is the first event to fire: the first
        # window (8 batches, round-robin over two TSDs) has been
        # dispatched and none of it delivered.  tsd00 swallows its 4,
        # their acks time out, and 4 >= the breaker's threshold of 3
        # ejects it.  (A TSD already down at dispatch is routed round,
        # and never times out.)
        plan = FaultPlan(
            name="tsd-crash-plus-partition",
            events=(
                FaultEvent(at=0.0, action="tsd_crash", target="tsd00", duration=0.4),
                FaultEvent(at=0.10, action="partition", target="node01", duration=0.5),
            ),
        )
        injector = Injector(cluster, plan)
        injector.arm()

        with SparkletContext(1) as ctx:
            result = AnomalyPipeline(generator, cluster=cluster, ctx=ctx).run(
                n_train=80, n_eval=120
            )
        chaos = injector.finalize()

        # The injected faults genuinely fired...
        assert chaos.events_fired("tsd_crash") == 1
        assert chaos.events_fired("partition") == 1
        assert chaos.downtime("tsd00") == pytest.approx(0.4)
        assert chaos.downtime("node01") == pytest.approx(0.5)
        # ...and the hardening machinery demonstrably engaged.
        proxy = cluster.ingress
        assert proxy.ack_timeouts >= 1
        assert proxy.retried >= 1
        assert proxy.breaker_ejections() >= 1

        # Delivery accounting: zero unaccounted points on both channels.
        for rep in (result.data_publish, result.anomaly_publish):
            assert rep is not None
            assert rep.complete
            assert rep.conservation_ok
            rep.check_conservation()
            assert rep.points_submitted == (
                rep.points_written + rep.points_failed + rep.points_dead_lettered
            )
        # The data channel carried real volume through the faults.
        assert result.data_publish.points_submitted == 3 * 120 * 6
        assert result.data_publish.points_written > 0


class TestRecoveryDerivation:
    """Every bounded outage action must auto-derive its recovery —
    a fault that silently never heals is a plan bug, not a scenario."""

    def test_every_outage_action_has_a_derived_recovery(self):
        from repro.chaos.plan import RECOVERY_ACTIONS

        for action, recovery_action in RECOVERY_ACTIONS.items():
            event = FaultEvent(
                at=1.0, action=action, target="x", duration=0.5,
                factor=4.0, points=10,
            )
            recovery = event.recovery
            assert recovery is not None, action
            assert recovery.action == recovery_action
            assert recovery.target == "x"
            assert recovery.at == pytest.approx(1.5)

    def test_replication_faults_are_in_the_mapping(self):
        from repro.chaos.plan import RECOVERY_ACTIONS

        assert RECOVERY_ACTIONS["wal_lag"] == "wal_lag_clear"
        assert RECOVERY_ACTIONS["replica_stall"] == "replica_resume"

    def test_wal_lag_factor_below_one_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(at=0.0, action="wal_lag", target="rs00", factor=0.5)


class TestReplicationFaultInjection:
    def replicated(self):
        return small_cluster(
            n_nodes=3,
            replication_factor=2,
            failure_detection_delay=1.0,
        )

    def publish(self, cluster, n, t0=0):
        from repro.tsdb.publish import BatchPublisher

        publisher = BatchPublisher(cluster, batch_size=50)
        publisher.publish(points(n, t0))
        report = publisher.flush()
        cluster.sim.run(until=cluster.sim.now + 1.0)
        return report

    def test_replication_faults_need_a_replicated_cluster(self):
        cluster = small_cluster()  # replication_factor=1
        for action in ("wal_lag", "replica_stall"):
            plan = FaultPlan(events=(
                FaultEvent(at=0.1, action=action, target="rs00",
                           duration=0.2, factor=20.0),
            ))
            with pytest.raises(ValueError):
                Injector(cluster, plan).arm()

    def test_wal_lag_fires_degraded_not_down(self):
        cluster = self.replicated()
        injector = Injector(cluster, FaultPlan(events=(
            FaultEvent(at=0.01, action="wal_lag", target="rs00",
                       duration=0.3, factor=20.0),
        )))
        injector.arm()
        self.publish(cluster, 100)
        chaos = injector.finalize()
        assert chaos.events_fired("wal_lag") == 1
        assert chaos.events_fired("wal_lag_clear") == 1
        assert chaos.downtime("rs00") == 0.0  # degraded, never down
        wal_lag_events = cluster.metrics.counters["replication.wal_lag_events"]
        assert wal_lag_events.get() == 1.0
        assert cluster.replication.max_staleness() == 0.0  # drained

    def test_replica_stall_degrades_then_resumes(self):
        cluster = self.replicated()
        injector = Injector(cluster, FaultPlan(events=(
            FaultEvent(at=0.01, action="replica_stall", target="rs01",
                       duration=0.4),
        )))
        injector.arm()
        report = self.publish(cluster, 100)
        chaos = injector.finalize()
        assert report.points_written == 100
        assert chaos.events_fired("replica_stall") == 1
        assert chaos.events_fired("replica_resume") == 1
        assert chaos.downtime("rs01") == 0.0
        assert cluster.replication.max_staleness() == 0.0


class TestPipelineReadUnderCrash:
    """End-to-end: the pipeline publishes through a RegionServer crash
    on a replicated cluster — conservation holds and the data stays
    readable (strong) once the master has failed over."""

    def test_pipeline_conserves_and_reads_recover(self, chaos_publish):
        from repro.tsdb.query import TsdbQuery

        generator = FleetGenerator(FleetConfig(n_units=3, n_sensors=6, seed=11))
        cluster = small_cluster(
            n_nodes=3,
            replication_factor=2,
            failure_detection_delay=0.4,
        )
        injector = Injector(cluster, FaultPlan(
            name="rs-crash-replicated",
            events=(
                FaultEvent(at=0.05, action="rs_crash", target="rs00",
                           duration=0.6),
            ),
        ))
        injector.arm()

        with SparkletContext(1) as ctx:
            result = AnomalyPipeline(generator, cluster=cluster, ctx=ctx).run(
                n_train=80, n_eval=120
            )
        chaos = injector.finalize()
        cluster.sim.run(until=cluster.sim.now + 2.0)

        assert chaos.events_fired("rs_crash") == 1
        for rep in (result.data_publish, result.anomaly_publish):
            assert rep is not None
            assert rep.conservation_ok
            rep.check_conservation()
        assert result.data_publish.points_written > 0

        # after failover the engine serves strong reads again
        available = cluster.query_engine().run_available(
            TsdbQuery("energy", 0, 10_000, aggregator="sum")
        )
        assert available.mode == "strong"
        assert cluster.master.cells_lost_unsynced == 0
