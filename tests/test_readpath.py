"""Tests for the timing-aware (RPC-path) query executor."""

import numpy as np
import pytest

from repro.tsdb.ingest import build_cluster
from repro.tsdb.query import TsdbQuery
from repro.tsdb.tsd import DataPoint


@pytest.fixture()
def loaded():
    cluster = build_cluster(n_nodes=3, salt_buckets=6, retain_data=True)
    points = []
    for t in range(60):
        for u in range(2):
            for s in range(3):
                points.append(
                    DataPoint.make(
                        "energy", t, float(u * 10 + s + t),
                        {"unit": f"u{u}", "sensor": f"s{s}"},
                    )
                )
    cluster.direct_put(points)
    return cluster


class TestAsyncQueryExecutor:
    def test_matches_offline_engine(self, loaded):
        query = TsdbQuery("energy", 0, 100, tag_filters={"unit": "u0"},
                          group_by=("sensor",))
        offline = loaded.query_engine().run(query)
        result = loaded.async_query_executor().execute_sync(query)
        assert len(result.series) == len(offline)
        for a, b in zip(result.series, offline):
            assert a.tags == b.tags
            assert np.array_equal(a.timestamps, b.timestamps)
            assert np.allclose(a.values, b.values)

    def test_matches_with_aggregation_and_downsample(self, loaded):
        query = TsdbQuery("energy", 0, 100, aggregator="sum",
                          downsample_window=10, downsample_aggregator="avg")
        offline = loaded.query_engine().run(query)
        online = loaded.async_query_executor().execute_sync(query).series
        assert np.allclose(online[0].values, offline[0].values)

    def test_latency_positive_and_fanout(self, loaded):
        query = TsdbQuery("energy", 0, 100)
        result = loaded.async_query_executor().execute_sync(query)
        assert result.latency > 0
        assert result.scans_issued == 6  # one per salt bucket

    def test_unknown_metric_resolves_immediately(self, loaded):
        result = loaded.async_query_executor().execute_sync(
            TsdbQuery("ghost", 0, 100)
        )
        assert result.series == []
        assert result.scans_issued == 0

    def test_salting_read_amplification(self):
        """The read-side cost of salting: scans fan out per bucket."""
        def scans_for(buckets):
            cluster = build_cluster(n_nodes=2, salt_buckets=buckets, retain_data=True)
            cluster.direct_put(
                [DataPoint.make("energy", t, 1.0, {"unit": "u0", "sensor": "s0"})
                 for t in range(10)]
            )
            return cluster.async_query_executor().execute_sync(
                TsdbQuery("energy", 0, 100)
            ).scans_issued

        assert scans_for(0) == 1
        assert scans_for(8) == 8

    def test_concurrent_queries_resolve(self, loaded):
        executor = loaded.async_query_executor()
        results = []
        for unit in ("u0", "u1"):
            executor.execute(
                TsdbQuery("energy", 0, 100, tag_filters={"unit": unit}),
                results.append,
            )
        loaded.sim.run()
        assert len(results) == 2
        assert all(r.series for r in results)


def replicated_cluster(replication_factor):
    cluster = build_cluster(
        n_nodes=3,
        salt_buckets=6,
        retain_data=True,
        replication_factor=replication_factor,
        failure_detection_delay=1.0,
    )
    cluster.direct_put(
        [
            DataPoint.make("energy", t, float(t % 7), {"unit": f"u{t % 5}"})
            for t in range(120)
        ]
    )
    return cluster


class TestReadDuringCrash:
    """Characterizes the read path inside an *undetected* crash window.

    The first test pins the legacy behaviour (strong reads against a
    crashed, unreplicated primary burn their whole retry budget and
    come back incomplete); the others assert the failover semantics
    that replaced it as the recommended path.
    """

    def test_unreplicated_strong_read_fails_inside_window(self):
        from repro.hbase.client import HTableClient
        from repro.tsdb.readpath import AsyncQueryExecutor

        cluster = replicated_cluster(replication_factor=1)
        cluster.servers[0].crash()
        client = HTableClient(
            cluster.sim, cluster.network, cluster.master, "probe",
            max_retries=3,
        )
        executor = AsyncQueryExecutor(
            cluster.sim, client, cluster.uids, cluster.codec
        )
        results = []
        executor.execute(
            TsdbQuery("energy", 0, 200, aggregator="sum"),
            results.append,
            deadline=0.05,
        )
        cluster.sim.run(until=cluster.sim.now + 0.9)  # detector at 1.0s
        (result,) = results
        assert not result.complete
        assert result.retries > 0
        assert sum(len(s) for s in result.series) < 120

    def test_timeline_read_fails_over_inside_window(self):
        cluster = replicated_cluster(replication_factor=2)
        cluster.servers[0].crash()
        executor = cluster.async_query_executor()
        results = []
        executor.execute(
            TsdbQuery("energy", 0, 200, aggregator="sum"),
            results.append,
            consistency="timeline",
            deadline=0.05,
            hedge_delay=0.02,
        )
        cluster.sim.run(until=cluster.sim.now + 0.9)
        (result,) = results
        assert result.complete
        assert result.follower_reads > 0
        assert result.staleness <= 1.0
        assert sum(len(s) for s in result.series) == 120

    def test_strong_reads_heal_after_detection(self):
        cluster = replicated_cluster(replication_factor=2)
        cluster.servers[0].crash()
        cluster.sim.run(until=cluster.sim.now + 2.0)  # past the detector
        result = cluster.async_query_executor().execute_sync(
            TsdbQuery("energy", 0, 200, aggregator="sum")
        )
        assert result.complete
        assert result.staleness == 0.0
        assert sum(len(s) for s in result.series) == 120

    def test_factory_client_counts_into_the_deployment_telemetry(self):
        # Regression: the factory's client counted into a private
        # registry, so the deployment never saw its retries, hedges or
        # follower reads.
        cluster = replicated_cluster(replication_factor=2)
        cluster.servers[0].crash()
        result = cluster.async_query_executor().execute_sync(
            TsdbQuery("energy", 0, 200, aggregator="sum"),
            consistency="timeline",
            deadline=0.05,
            hedge_delay=0.02,
        )
        assert result.complete and result.follower_reads > 0
        counters = {
            name: cluster.metrics.counter(f"client.{name}").get()
            for name in ("follower_reads", "hedges", "scan_retries")
        }
        assert counters == {
            "follower_reads": result.follower_reads,
            "hedges": result.hedges,
            "scan_retries": result.retries,
        }
