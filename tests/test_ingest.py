"""Tests for cluster assembly and the ingestion driver."""

from array import array

import pytest

from repro.hbase.region import CellBatch
from repro.simdata.workload import ingest_stream
from repro.tsdb.ingest import ClusterConfig, IngestionDriver, TsdbCluster, build_cluster
from repro.tsdb.proxy import DirectSubmitter, ReverseProxy


class TestClusterConfig:
    def test_default_salt_buckets_multiple_of_nodes(self):
        for n in (3, 10, 30, 128):
            cfg = ClusterConfig(n_nodes=n)
            buckets = cfg.resolved_salt_buckets()
            assert buckets % n == 0
            assert 128 <= buckets <= 256

    def test_explicit_salt_buckets_respected(self):
        assert ClusterConfig(n_nodes=5, salt_buckets=7).resolved_salt_buckets() == 7

    def test_zero_salt_means_unsalted(self):
        cluster = build_cluster(n_nodes=2, salt_buckets=0)
        assert not cluster.codec.salted
        assert len(cluster.master.table_regions("tsdb")) == 1

    def test_proxy_window_scales_with_nodes(self):
        assert (
            ClusterConfig(n_nodes=30).resolved_proxy_window()
            > ClusterConfig(n_nodes=5).resolved_proxy_window()
        )


class TestBuildCluster:
    def test_one_rs_and_tsd_per_node(self):
        cluster = build_cluster(n_nodes=4)
        assert len(cluster.servers) == 4
        assert len(cluster.tsds) == 4
        assert len(cluster.nodes) == 4

    def test_regions_pre_split_per_salt_bucket(self):
        cluster = build_cluster(n_nodes=4, salt_buckets=8)
        assert len(cluster.master.table_regions("tsdb")) == 8

    def test_region_assignment_balanced(self):
        cluster = build_cluster(n_nodes=4, salt_buckets=8)
        counts = {}
        for _, owner in cluster.master.table_regions("tsdb"):
            counts[owner] = counts.get(owner, 0) + 1
        assert set(counts.values()) == {2}

    def test_proxy_vs_direct(self):
        assert isinstance(build_cluster(n_nodes=2).ingress, ReverseProxy)
        assert isinstance(
            build_cluster(n_nodes=2, use_proxy=False).ingress, DirectSubmitter
        )

    def test_config_and_overrides_mutually_exclusive(self):
        with pytest.raises(ValueError):
            build_cluster(ClusterConfig(), n_nodes=3)

    def test_zero_nodes_rejected(self):
        with pytest.raises(ValueError):
            build_cluster(n_nodes=0)

    def test_compaction_enabled_increases_write_cost(self):
        on = build_cluster(n_nodes=1, compaction_enabled=True)
        off = build_cluster(n_nodes=1, compaction_enabled=False)
        assert (
            on.servers[0].service_model.per_cell_write
            > off.servers[0].service_model.per_cell_write
        )

    def test_compaction_surcharges_the_one_put_price(self):
        # Whatever runs a put carries — and replication's ship, priced
        # the same way — its write price rises by half.
        on = build_cluster(n_nodes=1, compaction_enabled=True).servers[0].service_model
        off = build_cluster(n_nodes=1, compaction_enabled=False).servers[0].service_model
        rows = ([b"r%d" % i for i in range(100)], [b"r%d" % (i // 25) for i in range(100)])
        for row_column in rows:
            cells = CellBatch(row_column, [b"q"] * 100, [b"v"] * 100, array("d", range(100)))
            surcharged = on.put_cost(cells) - on.rpc_overhead
            base = off.put_cost(cells) - off.rpc_overhead
            assert surcharged == pytest.approx(1.5 * base)

    def test_crash_policy_optional(self):
        with_policy = build_cluster(n_nodes=1, crash_on_overflow=True)
        without = build_cluster(n_nodes=1, crash_on_overflow=False)
        assert with_policy.servers[0].crash_policy is not None
        assert without.servers[0].crash_policy is None


class TestIngestionDriver:
    def run_driver(self, duration=0.5, rate=20_000, warmup=0.0, **cluster_overrides):
        cluster = build_cluster(n_nodes=2, **cluster_overrides)
        workload = ingest_stream(n_units=4, n_sensors=10, batch_size=50)
        driver = IngestionDriver(cluster, workload, offered_rate=rate, batch_size=50)
        return cluster, driver.run(duration, warmup=warmup)

    def test_report_accounting(self):
        cluster, report = self.run_driver()
        assert report.offered_samples > 0
        assert 0 < report.committed_samples <= report.offered_samples
        assert report.throughput > 0
        assert report.n_nodes == 2

    def test_committed_samples_match_server_writes(self):
        cluster, report = self.run_driver()
        assert sum(report.per_server_writes.values()) >= report.committed_samples

    def test_timeline_monotone(self):
        cluster, report = self.run_driver()
        values = report.timeline.values
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_below_capacity_commits_everything(self):
        # 2 nodes ≈ 27k samples/s capacity; offer 5k and drain generously
        cluster = build_cluster(n_nodes=2)
        workload = ingest_stream(n_units=4, n_sensors=10, batch_size=50)
        driver = IngestionDriver(cluster, workload, offered_rate=5_000, batch_size=50)
        report = driver.run(1.0, drain=3.0)
        assert report.committed_samples == report.offered_samples
        assert report.failed_samples == 0

    def test_warmup_excluded_from_throughput(self):
        cluster = build_cluster(n_nodes=2)
        workload = ingest_stream(n_units=4, n_sensors=10, batch_size=50)
        driver = IngestionDriver(cluster, workload, offered_rate=5_000, batch_size=50)
        report = driver.run(1.0, warmup=0.5)
        # committed during warmup is excluded: measured rate ~ offered rate
        assert report.throughput == pytest.approx(5_000, rel=0.35)

    def test_validation(self):
        cluster = build_cluster(n_nodes=1)
        workload = ingest_stream(batch_size=10)
        with pytest.raises(ValueError):
            IngestionDriver(cluster, workload, offered_rate=0)
        driver = IngestionDriver(cluster, workload, offered_rate=100)
        with pytest.raises(ValueError):
            driver.run(0.0)
        with pytest.raises(ValueError):
            driver.run(1.0, warmup=-1.0)

    def test_finite_workload_stops_cleanly(self):
        cluster = build_cluster(n_nodes=1)
        batches = iter([
            [p for p in next(ingest_stream(n_units=1, n_sensors=5, batch_size=10))]
        ])
        driver = IngestionDriver(cluster, batches, offered_rate=1_000, batch_size=10)
        report = driver.run(0.5, drain=2.0)
        assert report.offered_samples == 10
        assert report.committed_samples == 10


class TestDirectPut:
    def test_direct_put_counts(self):
        cluster = build_cluster(n_nodes=2, retain_data=True)
        pts = next(ingest_stream(n_units=2, n_sensors=5, batch_size=20))
        assert cluster.direct_put(pts) == 20
        assert len(cluster.master.direct_scan("tsdb")) == 20

    def test_skew_and_crash_helpers(self):
        cluster = build_cluster(n_nodes=2)
        assert cluster.total_crashes() == 0
        cluster.servers[0].cells_written = 10
        cluster.servers[1].cells_written = 10
        assert cluster.write_skew() == 1.0
