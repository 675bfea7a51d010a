"""Region replicas: placement, WAL shipping, promotion, crash replay.

Covers the :class:`~repro.hbase.replication.ReplicationCoordinator`
(follower placement on distinct servers, the bounded-lag apply loop,
stall/lag fault hooks, most-caught-up promotion) and the master's
log-replay recovery (``master.recoveries``, ``master.failovers``, and
what a recovered region stores).  The storage state machine
(``tests/test_storage_machine.py``) drives crash recovery under random
fault schedules.
"""

import pytest

from repro.tsdb.ingest import ClusterConfig, build_cluster
from repro.tsdb.publish import BatchPublisher
from repro.tsdb.query import TsdbQuery
from repro.tsdb.tsd import DataPoint


def make_cluster(replication_factor=2, n_nodes=3, detection_delay=0.5):
    return build_cluster(ClusterConfig(
        n_nodes=n_nodes,
        salt_buckets=4,
        retain_data=True,
        crash_on_overflow=False,
        replication_factor=replication_factor,
        failure_detection_delay=detection_delay,
    ))


def publish(cluster, n_points, t0=1_000):
    points = [
        DataPoint.make("energy", t0 + i, float(i % 13), {"unit": f"u{i % 5}"})
        for i in range(n_points)
    ]
    publisher = BatchPublisher(
        cluster, batch_size=50, max_in_flight_batches=4, ack_deadline=30.0
    )
    publisher.publish(points)
    report = publisher.flush()
    assert report.points_written == n_points
    # let the asynchronous shipping loops drain
    cluster.sim.run(until=cluster.sim.now + 1.0)
    return points


def total_points(cluster, n_points, t0=1_000):
    series = cluster.query_engine().run(
        TsdbQuery("energy", 0, t0 + n_points + 1, aggregator="sum")
    )
    return sum(len(s) for s in series)


class TestPlacement:
    def test_every_region_gets_followers_on_distinct_servers(self):
        cluster = make_cluster()
        publish(cluster, 100)
        regions = cluster.master.table_regions("tsdb")
        assert regions
        for info, server in regions:
            followers = cluster.replication.follower_servers(info.name)
            assert len(followers) == 1
            assert server not in followers

    def test_replication_factor_three_uses_all_spare_servers(self):
        cluster = make_cluster(replication_factor=3)
        publish(cluster, 100)
        for info, server in cluster.master.table_regions("tsdb"):
            followers = cluster.replication.follower_servers(info.name)
            assert len(followers) == 2
            assert server not in followers
            assert len(set(followers)) == 2

    def test_unreplicated_cluster_has_no_coordinator(self):
        cluster = make_cluster(replication_factor=1)
        assert cluster.replication is None

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            make_cluster(replication_factor=0)
        with pytest.raises(ValueError):
            build_cluster(ClusterConfig(n_nodes=2, failure_detection_delay=-1.0))


class TestWalShipping:
    def test_followers_catch_up_and_staleness_drops_to_zero(self):
        cluster = make_cluster()
        publish(cluster, 200)
        stats = cluster.replication.stats()
        assert stats["pending_cells"] == 0
        assert cluster.replication.max_staleness() == 0.0

    def test_stalled_followers_accumulate_bounded_lag(self):
        cluster = make_cluster()
        publish(cluster, 100)
        victim = cluster.servers[1].name
        cluster.replication.stall_followers(victim)
        publish(cluster, 100, t0=5_000)
        assert cluster.replication.max_staleness() > 0.0
        cluster.replication.resume_followers(victim)
        cluster.sim.run(until=cluster.sim.now + 1.0)
        assert cluster.replication.max_staleness() == 0.0

    def test_ship_lag_counts_events_and_clears(self):
        cluster = make_cluster()
        publish(cluster, 50)
        victim = cluster.servers[0].name
        cluster.replication.set_ship_lag(victim, 25.0)
        counter = cluster.metrics.counters["replication.wal_lag_events"]
        assert counter.get() == 1.0
        publish(cluster, 50, t0=5_000)
        cluster.replication.clear_ship_lag(victim)
        cluster.sim.run(until=cluster.sim.now + 2.0)
        assert cluster.replication.max_staleness() == 0.0

    def test_ship_lag_factor_floored_at_one(self):
        cluster = make_cluster()
        cluster.replication.set_ship_lag(cluster.servers[0].name, 0.1)
        assert cluster.replication._ship_lag[cluster.servers[0].name] == 1.0


class TestPromotion:
    def test_promotion_prefers_most_caught_up_follower(self):
        # rf=3: each region has followers on both other servers.  Stall
        # one follower server mid-stream; promotion after the primary
        # crash must pick the caught-up one.
        cluster = make_cluster(replication_factor=3)
        publish(cluster, 100)
        stalled = cluster.servers[2].name
        cluster.replication.stall_followers(stalled)
        publish(cluster, 200, t0=5_000)
        victim = cluster.servers[0]
        victim_regions = [
            info.name
            for info, server in cluster.master.table_regions("tsdb")
            if server == victim.name
        ]
        assert victim_regions
        victim.crash()
        cluster.sim.run(until=cluster.sim.now + 2.0)
        owners = {
            info.name: server
            for info, server in cluster.master.table_regions("tsdb")
        }
        for name in victim_regions:
            assert owners[name] != stalled


class TestMasterRecoveryAccounting:
    """Crash replay lands via ``put_block`` and the recovery counters
    flow through the cluster's one registry."""

    def test_unreplicated_crash_replays_wal_via_telemetry_counters(self):
        cluster = make_cluster(replication_factor=1)
        publish(cluster, 250)
        cluster.servers[0].crash()
        cluster.sim.run(until=cluster.sim.now + 2.0)
        counters = cluster.metrics.counters
        assert counters["master.recoveries"].get() >= 1.0
        assert total_points(cluster, 250) == 250

    def test_replicated_crash_counts_recovery_and_failover(self):
        cluster = make_cluster()
        publish(cluster, 250)
        cluster.servers[0].crash()
        cluster.sim.run(until=cluster.sim.now + 2.0)
        counters = cluster.metrics.counters
        assert counters["master.recoveries"].get() >= 1.0
        assert counters["master.failovers"].get() >= 1.0
        assert total_points(cluster, 250) == 250

    @pytest.mark.parametrize("rf", [1, 2])
    def test_recovery_replays_only_what_no_flush_stored(self, rf):
        # One series, so one region: 40 points flushed, 20 more unflushed,
        # then the server holding the most unflushed cells crashes.  Its
        # regions come back storing each live cell once: the replay
        # rewrites only what no flush stored.
        cluster = make_cluster(replication_factor=rf)
        points = [
            DataPoint.make("energy", 1_000 + i, float(i), {"unit": "u0"}) for i in range(60)
        ]
        assert cluster.direct_put(points[:40]) == 40
        for server in cluster.servers:
            for region in server.hosted_regions():
                region.flush()
        assert cluster.direct_put(points[40:]) == 20
        victim = max(
            cluster.servers,
            key=lambda server: sum(r.memstore_size for r in server.hosted_regions()),
        )
        recovered = victim.hosted_regions()
        victim.crash()
        cluster.sim.run(until=cluster.sim.now + 2.0)
        assert cluster.metrics.counters["master.recoveries"].get() == 1.0
        stored = sum(len(sf.batch) for r in recovered for sf in r._store_files)
        assert (stored, sum(r.cell_count() for r in recovered)) == (60, 60)
        assert total_points(cluster, 60) == 60


class TestRowCompactionIsReplicated:
    """Row compaction writes through the RegionServers' one writer and is
    mirrored like any bulk load (it used to ``region.put`` the blob into
    the primary alone, so a promoted follower lost every compaction)."""

    QUERY = TsdbQuery("energy", 0, 3600, group_by=("unit",))

    def compacted(self):
        """A cluster of 30 bulk-loaded points compacted into 3 rows, the
        owner of its first row, and the query's answer before any crash."""
        cluster = make_cluster()
        points = [
            DataPoint.make("energy", 100 + t, float(t * 3 + s), {"unit": f"u{s}"})
            for t in range(10)
            for s in range(3)
        ]
        assert cluster.direct_put(points) == 30
        assert cluster.compactor().run() == 3
        held = 0
        for info, server in cluster.master.table_regions("tsdb"):
            primary = cluster.master.server(server).regions[info.name]
            follower, _ = cluster.replication.best_follower(info.name)
            assert follower.cell_count() == primary.cell_count()
            assert follower.scan() == primary.scan()
            held += primary.cell_count()
        assert held == 33  # 30 points and one blob per series
        engine = cluster.query_engine()
        before = engine.run(self.QUERY)
        assert engine.scan_cells == 33
        _, owner = cluster.master.locate("tsdb", cluster.master.direct_scan("tsdb").rows[0])
        return cluster, cluster.master.server(owner), before

    def assert_reads(self, cluster, before):
        engine = cluster.query_engine()
        after = engine.run(self.QUERY)
        assert engine.scan_cells == 33
        assert len(after) == len(before) == 3
        for got, want in zip(after, before):
            assert got.tags == want.tags
            assert got.timestamps.tobytes() == want.timestamps.tobytes()
            assert got.values.tobytes() == want.values.tobytes()

    def test_followers_hold_the_blobs_and_a_promoted_one_serves_them(self):
        # The points and blobs are bulk loads, logged like a put: the
        # failover rebuilds them from the crashed primary's WAL and
        # reopens the region on the promoted follower's server.
        cluster, owner, before = self.compacted()
        owner.crash()
        cluster.sim.run(until=cluster.sim.now + 2.0)
        assert cluster.metrics.counters["master.failovers"].get() >= 1
        self.assert_reads(cluster, before)

    def test_a_restart_in_the_window_replays_the_wal(self):
        # The restart recovers the crash at once, from its regions' logs:
        # no failover, and every bulk-loaded cell reads back.
        cluster, owner, before = self.compacted()
        owner.crash()
        cluster.sim.run(until=cluster.sim.now + 0.1)
        owner.restart()  # recovers the crash now, inside the detection window
        cluster.sim.run(until=cluster.sim.now + 2.0)
        counters = cluster.metrics.counters
        assert "master.failovers" not in counters and counters["master.recoveries"].get() == 1
        self.assert_reads(cluster, before)
