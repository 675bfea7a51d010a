"""Unit tests for the data-lifecycle tier.

Coverage map:

* region tombstones — the storage primitive retention rides on
  (mask + count, newest-write resurrection, physical purge at compact);
* rollup materialization — watermarks, column series, idempotency;
* tier routing — bit-identity vs raw for every identical-mode combo,
  raw service for every other combination, pooled fallback over
  expired ranges;
* downsample validation — type-checked, whole-second windows;
* retention — TTL floors, too-late drops, expiry-driven cache spans;
* out-of-order backfill — dirty windows block routing until
  re-materialized, then answers are bit-identical again;
* conservation — ingested == live + expired + too-late, including
  under a chaos ``lifecycle_expire`` fired mid-crash.
"""

import numpy as np
import pytest

from repro.chaos import FaultEvent, FaultPlan, Injector
from repro.hbase.region import Cell, Region, RegionInfo
from repro.lifecycle import LifecyclePolicy, TierSpec, rollup_metric
from repro.serve.cache import ResultCache, canonical_key
from repro.tsdb.ingest import build_cluster
from repro.tsdb.query import TsdbQuery
from repro.tsdb.tsd import DataPoint

METRIC = "energy"
CADENCE = 5


def lifecycle_cluster(raw_ttl=None, span=7200, **policy_kw):
    cluster = build_cluster(
        n_nodes=2,
        salt_buckets=4,
        retain_data=True,
        lifecycle=LifecyclePolicy(raw_ttl=raw_ttl, **policy_kw),
    )
    cluster.direct_put(
        [
            DataPoint.make(
                METRIC, t, float(10 * u + (t % 89)), {"unit": f"u{u}", "sensor": "s0"}
            )
            for t in range(0, span + 1, CADENCE)  # inclusive: closes the last window
            for u in range(3)
        ]
    )
    return cluster


def run_both(cluster, query):
    """(routed, raw) answers for the same query on the same storage."""
    routed_engine = cluster.query_engine()
    raw_engine = cluster.query_engine()
    raw_engine.lifecycle = None
    return routed_engine.run(query), raw_engine.run(query)


def assert_bit_identical(routed, raw):
    assert len(routed) == len(raw)
    for a, b in zip(routed, raw):
        assert a.tags == b.tags
        assert np.array_equal(a.timestamps, b.timestamps)
        assert np.array_equal(a.values, b.values, equal_nan=True)


def flush_all(cluster):
    for name in cluster.master.live_servers():
        for region in cluster.master.server(name).hosted_regions():
            region.flush()


class TestRegionTombstones:
    def region(self):
        return Region(RegionInfo("t", b"", b"", 1), 100_000, True)

    def test_delete_range_masks_and_counts(self):
        r = self.region()
        for i in range(5):
            r.put(Cell(bytes([i]), b"q", b"v", ts=1.0))
        masked = r.delete_range(b"\x01", b"\x04", ts=2.0)
        assert masked == 3
        assert r.get(b"\x00", b"q") is not None
        assert r.get(b"\x02", b"q") is None
        assert [c.row for c in r.scan()] == [b"\x00", b"\x04"]

    def test_newer_write_resurfaces(self):
        r = self.region()
        r.put(Cell(b"r", b"q", b"old", ts=1.0))
        r.delete_range(b"", b"", ts=2.0)
        assert r.get(b"r", b"q") is None
        r.put(Cell(b"r", b"q", b"new", ts=3.0))
        assert r.get(b"r", b"q").value == b"new"

    def test_compact_purges_masked_cells(self):
        r = self.region()
        r.put(Cell(b"a", b"q", b"v", ts=1.0))
        r.put(Cell(b"b", b"q", b"v", ts=1.0))
        r.delete_range(b"a", b"b", ts=2.0)
        r.compact()
        assert r.tombstone_count == 0
        assert [c.row for c in r.scan()] == [b"b"]
        # masked bytes are gone, and so is the mask: a stale-ts rewrite
        # after the purge is a fresh cell, not a resurrected one
        r.put(Cell(b"a", b"q", b"back", ts=0.5))
        assert r.get(b"a", b"q").value == b"back"


class TestRollupMaterialization:
    @pytest.fixture(scope="class")
    def cluster(self):
        return lifecycle_cluster()

    def test_watermarks_cover_complete_windows(self, cluster):
        lm = cluster.lifecycle
        lm.run_maintenance()
        # hwm = 7200 closes both tiers' windows exactly at 7200
        assert lm.rollup.watermark(METRIC, "1m") == 7200
        assert lm.rollup.watermark(METRIC, "1h") == 7200

    def test_column_series_materialized(self, cluster):
        cluster.lifecycle.run_maintenance()
        engine = cluster.query_engine()
        for column in ("count", "sum", "min", "max"):
            name = rollup_metric(column, "1h", METRIC)
            series = engine.run(TsdbQuery(name, 0, 7200, aggregator="sum"))
            assert len(series) == 1 and len(series[0]) == 2  # two 1h windows

    def test_rollups_are_not_re_rolled(self, cluster):
        cluster.lifecycle.run_maintenance()
        assert not cluster.lifecycle.policy.manages(rollup_metric("sum", "1m", METRIC))
        nested = rollup_metric("count", "1m", rollup_metric("count", "1m", METRIC))
        assert nested not in cluster.uids.names("metric")

    def test_maintenance_is_idempotent(self, cluster):
        lm = cluster.lifecycle
        lm.run_maintenance()
        before = lm.metrics.counter("lifecycle.rollup.points").get()
        stats = lm.run_maintenance()
        assert stats["windows"] == 0
        assert lm.metrics.counter("lifecycle.rollup.points").get() == before

    def test_watermark_never_decreases(self, cluster):
        lm = cluster.lifecycle
        lm.run_maintenance()
        wm = lm.rollup.watermark(METRIC, "1m")
        # a late write behind the watermark must not move it backwards
        cluster.direct_put([DataPoint.make(METRIC, 63, 5.0, {"unit": "u0", "sensor": "s0"})])
        assert lm.rollup.watermark(METRIC, "1m") == wm
        lm.run_maintenance()
        assert lm.rollup.watermark(METRIC, "1m") >= wm


class TestTierRouting:
    @pytest.fixture(scope="class")
    def cluster(self):
        c = lifecycle_cluster()
        c.lifecycle.run_maintenance()
        return c

    @pytest.mark.parametrize(
        "agg,ds",
        [("min", "min"), ("max", "max"), ("count", "sum")],
    )
    def test_pair_combos_bit_identical(self, cluster, agg, ds):
        query = TsdbQuery(
            METRIC, 0, 7200, aggregator=agg,
            downsample_window=3600, downsample_aggregator=ds,
        )
        plan = cluster.lifecycle.plan(query, record=False)
        assert plan.tier == "1h" and plan.mode == "identical"
        routed, raw = run_both(cluster, query)
        assert_bit_identical(routed, raw)

    def test_group_by_singleton_bit_identical(self, cluster):
        # every group holds one series, yet avg/avg is not a pair combo:
        # served raw, never from a tier
        query = TsdbQuery(
            METRIC, 0, 7200, aggregator="avg", group_by=("unit",),
            downsample_window=3600, downsample_aggregator="avg",
        )
        assert cluster.lifecycle.plan(query, record=False).mode == "raw"
        routed, raw = run_both(cluster, query)
        assert len(routed) == 3
        assert_bit_identical(routed, raw)

    def test_float_sum_across_windows_not_routed(self, cluster):
        # float sums cannot be reordered bit-identically: (sum, sum) is
        # not a pair combo
        query = TsdbQuery(
            METRIC, 0, 7200, aggregator="sum",
            downsample_window=7200, downsample_aggregator="sum",
        )
        assert cluster.lifecycle.plan(query, record=False).tier == "raw"

    def test_unaligned_range_goes_raw(self, cluster):
        query = TsdbQuery(
            METRIC, 7, 7200, aggregator="min",
            downsample_window=3600, downsample_aggregator="min",
        )
        assert cluster.lifecycle.plan(query, record=False).tier == "raw"

    def test_routed_query_scans_fewer_cells(self, cluster):
        engine = cluster.query_engine()
        raw_engine = cluster.query_engine()
        raw_engine.lifecycle = None
        query = TsdbQuery(
            METRIC, 0, 7200, aggregator="min",
            downsample_window=3600, downsample_aggregator="min",
        )
        engine.run(query)
        raw_engine.run(query)
        assert engine.scan_cells * 100 < raw_engine.scan_cells

    def test_async_path_serves_pair_plans(self, cluster):
        query = TsdbQuery(
            METRIC, 0, 7200, aggregator="min",
            downsample_window=3600, downsample_aggregator="min",
        )
        result = cluster.async_query_executor().execute_sync(query)
        _, raw = run_both(cluster, query)
        assert result.complete
        assert_bit_identical(result.series, raw)


class TestRpcPathTierRouting:
    """The RPC read path answers every pair and pooled plan as the engine does.

    Regression: only plans one rewritten query could express were routed,
    so a pooled ``avg`` (sum and count columns) went to raw data that had
    expired and came back empty.
    """

    @pytest.fixture(scope="class")
    def cluster(self):
        cluster = build_cluster(
            n_nodes=2,
            salt_buckets=4,
            retain_data=True,
            lifecycle=LifecyclePolicy(tiers=(TierSpec("1h", 3600),), raw_ttl=3600),
        )
        cluster.direct_put(
            [
                DataPoint.make(
                    METRIC, t, float(10 * u + (t % 89)), {"unit": f"u{u}", "sensor": "s0"}
                )
                for t in range(0, 4 * 3600 + 1, CADENCE)
                for u in range(3)
            ]
        )
        cluster.lifecycle.run_maintenance(purge=True)
        assert cluster.lifecycle.retention.raw_floor(METRIC) == 10800
        return cluster

    @pytest.mark.parametrize(
        "agg, ds, start, group_by, mode",
        [
            ("min", "min", 10800, (), "identical"),
            ("sum", "sum", 0, (), "pooled"),
            ("max", "max", 0, ("unit",), "pooled"),
            ("avg", "avg", 0, (), "pooled"),
            ("avg", "avg", 0, ("unit",), "pooled"),
        ],
    )
    def test_execute_sync_matches_engine(self, cluster, agg, ds, start, group_by, mode):
        query = TsdbQuery(
            METRIC, start, start + 3600, group_by=group_by, aggregator=agg,
            downsample_window=3600, downsample_aggregator=ds,
        )
        assert cluster.lifecycle.plan(query, record=False).mode == mode
        expected = cluster.query_engine().run(query)
        assert expected
        result = cluster.async_query_executor().execute_sync(query)
        assert result.complete
        assert_bit_identical(result.series, expected)


class TestDownsampleValidation:
    def test_non_integer_window_rejected(self):
        with pytest.raises(TypeError):
            TsdbQuery(METRIC, 0, 100, downsample_window=1.5)
        with pytest.raises(TypeError):
            TsdbQuery(METRIC, 0, 100, downsample_window=True)

    def test_sub_second_window_rejected(self):
        with pytest.raises(ValueError):
            TsdbQuery(METRIC, 0, 100, downsample_window=0)


class TestRetention:
    @pytest.fixture(scope="class")
    def cluster(self):
        c = lifecycle_cluster(raw_ttl=3600, span=10800)
        c.lifecycle.run_maintenance()
        return c

    def test_floor_is_span_aligned_and_tier_bounded(self, cluster):
        ret = cluster.lifecycle.retention
        assert ret.raw_floor(METRIC) == 7200
        assert ret.raw_floor(METRIC) <= cluster.lifecycle.rollup.min_watermark(METRIC)

    def test_expired_raw_invisible_live_raw_intact(self, cluster):
        engine = cluster.query_engine()
        engine.lifecycle = None
        below = engine.run(TsdbQuery(METRIC, 0, 7200, aggregator="count"))
        above = engine.run(TsdbQuery(METRIC, 7200, 10800, aggregator="count"))
        assert not below
        assert above and int(np.nansum(above[0].values)) == 3 * 3600 // CADENCE

    def test_expired_range_served_pooled(self, cluster):
        query = TsdbQuery(
            METRIC, 0, 7200, aggregator="avg",
            downsample_window=3600, downsample_aggregator="avg",
        )
        plan = cluster.lifecycle.plan(query, record=False)
        assert plan.tier == "pooled:1h" and plan.mode == "pooled"
        routed = cluster.query_engine().run(query)
        assert len(routed) == 1 and len(routed[0]) == 2
        # aligned cadence: pooled sum/count equals the raw mean-of-means
        expected = np.mean(
            [10 * u + (t % 89) for t in range(0, 3600, CADENCE) for u in range(3)]
        )
        assert routed[0].values[0] == pytest.approx(expected)

    def test_undownsampled_query_over_expired_range_is_a_miss(self, cluster):
        lm = cluster.lifecycle
        before = lm.metrics.counter("lifecycle.tier_miss").get()
        lm.plan(TsdbQuery(METRIC, 0, 7200, aggregator="avg"))
        assert lm.metrics.counter("lifecycle.tier_miss").get() == before + 1

    def test_too_late_write_is_dropped_and_counted(self, cluster):
        lm = cluster.lifecycle
        before = lm.retention.too_late_drops.get(METRIC, 0)
        cluster.direct_put([DataPoint.make(METRIC, 103, 9.9, {"unit": "u0", "sensor": "s0"})])
        engine = cluster.query_engine()
        engine.lifecycle = None
        assert not engine.run(TsdbQuery(METRIC, 100, 110, aggregator="avg"))
        assert lm.retention.too_late_drops[METRIC] == before + 1

    def test_conservation_with_expiry(self, cluster):
        report = cluster.lifecycle.verify_conservation(METRIC)
        assert report["ok"] is True
        assert report["expired_raw"] == 3 * 7200 // CADENCE
        assert report["too_late"] >= 1


class TestBackfill:
    def test_dirty_window_blocks_routing_until_rematerialized(self):
        cluster = lifecycle_cluster()
        lm = cluster.lifecycle
        lm.run_maintenance()
        query = TsdbQuery(
            METRIC, 0, 7200, aggregator="min",
            downsample_window=3600, downsample_aggregator="min",
        )
        assert lm.plan(query, record=False).tier == "1h"
        # a late write lands behind both watermarks, off the cadence
        cluster.direct_put([DataPoint.make(METRIC, 1234, -50.0, {"unit": "u0", "sensor": "s0"})])
        assert lm.rollup.pending_windows(METRIC, "1h", 0, 7200)
        assert lm.plan(query, record=False).tier == "raw"
        stats = lm.run_maintenance()
        assert stats["backfill_windows"] == 2  # one 1m + one 1h window
        assert lm.plan(query, record=False).tier == "1h"
        routed, raw = run_both(cluster, query)
        assert routed[0].values[0] == -50.0
        assert_bit_identical(routed, raw)
        assert lm.verify_conservation(METRIC)["ok"] is True

    def test_backfill_below_floor_is_skipped_permanently(self):
        cluster = lifecycle_cluster(raw_ttl=3600, span=10800)
        lm = cluster.lifecycle
        lm.run_maintenance()
        before = lm.metrics.counter("lifecycle.backfill.skipped_expired").get()
        # behind the raw floor: the write is re-dropped, and the dirty
        # window cannot be re-materialized from expired raw
        cluster.direct_put([DataPoint.make(METRIC, 61, 1.0, {"unit": "u0", "sensor": "s0"})])
        lm.run_maintenance()
        assert lm.metrics.counter("lifecycle.backfill.skipped_expired").get() > before
        assert lm.verify_conservation(METRIC)["ok"] is True


class TestServingIntegration:
    def test_cache_keys_are_tier_scoped(self):
        query = TsdbQuery(
            METRIC, 0, 7200, aggregator="min",
            downsample_window=3600, downsample_aggregator="min",
        )
        assert canonical_key(query) != canonical_key(query, tier="1h")

    def test_invalidate_range_ignores_tag_filters(self):
        cache = ResultCache(ttl=100.0)
        plain = TsdbQuery(METRIC, 0, 100, aggregator="avg")
        filtered = TsdbQuery(METRIC, 0, 100, aggregator="avg", tag_filters={"unit": "u0"})
        cache.put(canonical_key(plain), [], 0.0)
        cache.put(canonical_key(filtered), [], 0.0)
        assert cache.invalidate_range(METRIC, 0, 99) == 2

    def test_expiry_notification_evicts_tier_served_entries(self):
        from repro.serve import GatewayConfig

        cluster = lifecycle_cluster(raw_ttl=3600, span=10800)
        gateway = cluster.gateway(GatewayConfig(ttl=1e9))
        query = TsdbQuery(
            METRIC, 0, 7200, aggregator="min",
            downsample_window=3600, downsample_aggregator="min",
        )
        first = gateway.serve(query)
        assert gateway.serve(query).status == "hit"
        cluster.lifecycle.run_maintenance()  # expiry fires the listener
        after = gateway.serve(query)
        assert after.status == "miss"
        assert gateway.stats()["invalidations"] > 0
        assert first.etag  # the pre-expiry entry really was cached


class TestChaosExpiry:
    def test_lifecycle_expire_requires_lifecycle_cluster(self):
        cluster = build_cluster(n_nodes=2, salt_buckets=4, retain_data=True)
        plan = FaultPlan(events=(FaultEvent(at=0.5, action="lifecycle_expire", target=""),))
        with pytest.raises(ValueError):
            Injector(cluster, plan).arm()

    def test_expiry_during_crash_conserves(self):
        cluster = lifecycle_cluster(raw_ttl=3600, span=10800)
        flush_all(cluster)
        victim = cluster.servers[0].name
        plan = FaultPlan(
            events=(
                FaultEvent(at=1.0, action="rs_crash", target=victim, duration=4.0),
                FaultEvent(at=2.0, action="lifecycle_expire", target=""),
            ),
            name="expiry-during-crash",
        )
        injector = Injector(cluster, plan)
        report = injector.arm()
        cluster.sim.run(until=cluster.sim.now + 10.0)
        injector.finalize()
        assert report.events_fired("lifecycle_expire") == 1
        conservation = cluster.lifecycle.verify_conservation(METRIC)
        assert conservation["ok"] is True
        assert conservation["expired_raw"] == 3 * 7200 // CADENCE
