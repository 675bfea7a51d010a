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


class TestDeploymentTagTable:
    """A series' tags are decoded once per deployment
    (:meth:`UniqueIdRegistry.series_tags`), not once per query; whether a
    query's tag filter keeps the series is still decided per query."""

    @staticmethod
    def count_decodes(cluster, monkeypatch):
        calls = []
        decode = cluster.uids.decode_tags

        def counting(pairs):
            calls.append(pairs)
            return decode(pairs)

        monkeypatch.setattr(cluster.uids, "decode_tags", counting)
        return calls

    def test_a_series_filtered_out_by_one_query_is_returned_by_the_next(self, loaded):
        engine = loaded.query_engine()
        for unit in ("u0", "u1", "u0"):
            query = TsdbQuery("energy", 0, 100, tag_filters={"unit": unit},
                              group_by=("unit", "sensor"))
            assert [s.tags for s in engine.run(query)] == [
                (("sensor", f"s{k}"), ("unit", unit)) for k in range(3)
            ]

    def test_a_series_first_written_after_the_table_is_warm_is_resolved(self, loaded):
        engine = loaded.query_engine()
        query = TsdbQuery("energy", 0, 100, group_by=("unit", "sensor"))
        assert len(engine.run(query)) == 6
        loaded.direct_put([DataPoint.make("energy", 5, 1.5, {"unit": "u2", "sensor": "s0"})])
        got = engine.run(query)
        assert len(got) == 7
        assert got[-1].tags == (("sensor", "s0"), ("unit", "u2"))
        assert got[-1].values.tolist() == [1.5]

    def test_two_engines_and_the_rpc_executor_share_one_table(self, loaded, monkeypatch):
        query = TsdbQuery("energy", 0, 100, tag_filters={"sensor": "*"},
                          group_by=("unit", "sensor"))
        first = loaded.query_engine()
        warm = first.series_for(query)
        decodes = self.count_decodes(loaded, monkeypatch)
        second = loaded.query_engine()
        again = second.series_for(query)
        assert [a.tags for a in again] == [w.tags for w in warm]
        # the very tag tuples the first engine's query decoded
        assert all(a.tags is w.tags for a, w in zip(again, warm))
        offline = second.run(query)
        online = loaded.async_query_executor().execute_sync(query).series
        assert [s.tags for s in online] == [s.tags for s in offline]
        assert decodes == []

    def test_size_is_the_number_of_distinct_series_after_many_queries(self, loaded):
        engine, gateway = loaded.query_engine(), loaded.gateway()
        executor = loaded.async_query_executor()
        queries = [
            TsdbQuery("energy", start, start + span, tag_filters=filters, group_by=group)
            for start, span in ((0, 30), (10, 90), (59, 1))
            for filters in ({}, {"unit": "u1"}, {"sensor": "s2"}, {"unit": "u9"})
            for group in ((), ("unit",), ("unit", "sensor"))
        ]
        for query in queries:
            engine.run(query)
            engine.run_available(query)
            gateway.serve(query)
            executor.execute_sync(query)
        assert len(loaded.uids._tag_memo) == 6
