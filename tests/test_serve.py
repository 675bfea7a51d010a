"""The serving tier: result cache, admission control, gateway, workload.

The tier-1 contract here is the correctness gate
(``TestGatewayCorrectness``): gateway responses must be bit-identical
to a direct ``QueryEngine.run`` in *every* cache state — cold, warm,
post-invalidation, and across randomized write/read interleavings —
plus the E14 accounting invariants (conservation, age-stamped stale
serves) and the chaos scenario (TSD outage -> stale-while-revalidate
keeps the dashboard answering).
"""

import numpy as np
import pytest

from repro.chaos import FaultEvent, FaultPlan, Injector
from repro.core.pipeline import ANOMALY_METRIC
from repro.obs import samples
from repro.serve import (
    AdmissionController,
    CacheLookup,
    FleetWorkload,
    GatewayConfig,
    QueryGateway,
    QueryRejected,
    ResultCache,
    ServeServiceModel,
    WorkloadConfig,
    canonical_key,
    result_etag,
)
from repro.serve import admission
from repro.serve import cache as cache_module
from repro.serve import workload as workload_module
from repro.tsdb import TsdbQuery, build_cluster
from repro.tsdb.query import QueryEngine
from repro.tsdb.tsd import DataPoint
from repro.viz import Dashboard

METRIC = "energy"
UNITS = ("u0", "u1", "u2")
SENSORS = ("s0", "s1")


def small_cluster(**overrides):
    defaults = dict(n_nodes=2, salt_buckets=4, retain_data=True)
    defaults.update(overrides)
    return build_cluster(**defaults)


def seed_points(t0=0, n=60, units=UNITS, sensors=SENSORS):
    return [
        DataPoint.make(
            METRIC, t0 + t, float(t + 10 * u), {"unit": units[u], "sensor": s}
        )
        for t in range(n)
        for u in range(len(units))
        for s in sensors
    ]


def seeded_cluster(**overrides):
    cluster = small_cluster(**overrides)
    cluster.direct_put(seed_points())
    return cluster


def overview_query(start=0, end=60):
    return TsdbQuery(
        metric=METRIC,
        start=start,
        end=end,
        tag_filters={"unit": "*"},
        group_by=("unit",),
        aggregator="max",
    )


def assert_series_equal(a, b):
    assert len(a) == len(b)
    for sa, sb in zip(a, b):
        assert sa.tags == sb.tags
        assert np.array_equal(sa.timestamps, sb.timestamps)
        assert np.array_equal(sa.values, sb.values)


def advance(sim, dt):
    """Move the simulator clock forward by ``dt`` seconds."""
    sim.schedule(dt, lambda: None)
    sim.run(until=sim.now + dt)


class TestCanonicalKey:
    BASE = dict(metric=METRIC, start=0, end=60)

    def test_filter_order_is_not_semantic(self):
        a = TsdbQuery(tag_filters={"unit": "u0", "sensor": "*"}, **self.BASE)
        b = TsdbQuery(tag_filters={"sensor": "*", "unit": "u0"}, **self.BASE)
        assert canonical_key(a) == canonical_key(b)

    def test_exact_filtered_group_key_is_dropped(self):
        a = TsdbQuery(
            tag_filters={"unit": "u0"}, group_by=("unit", "sensor"), **self.BASE
        )
        b = TsdbQuery(tag_filters={"unit": "u0"}, group_by=("sensor",), **self.BASE)
        assert canonical_key(a) == canonical_key(b)

    def test_wildcard_filtered_group_key_is_kept(self):
        a = TsdbQuery(tag_filters={"unit": "*"}, group_by=("unit",), **self.BASE)
        b = TsdbQuery(tag_filters={"unit": "*"}, group_by=(), **self.BASE)
        assert canonical_key(a) != canonical_key(b)

    def test_duplicate_group_keys_dedupe(self):
        a = TsdbQuery(group_by=("unit", "unit"), **self.BASE)
        b = TsdbQuery(group_by=("unit",), **self.BASE)
        assert canonical_key(a) == canonical_key(b)

    def test_downsample_aggregator_ignored_without_window(self):
        a = TsdbQuery(downsample_aggregator="max", **self.BASE)
        b = TsdbQuery(downsample_aggregator="avg", **self.BASE)
        assert canonical_key(a) == canonical_key(b)

    def test_downsample_aggregator_significant_with_window(self):
        a = TsdbQuery(downsample_window=10, downsample_aggregator="max", **self.BASE)
        b = TsdbQuery(downsample_window=10, downsample_aggregator="avg", **self.BASE)
        assert canonical_key(a) != canonical_key(b)

    def test_misaligned_window_never_collides_with_aligned(self):
        a = TsdbQuery(metric=METRIC, start=0, end=60, downsample_window=10)
        b = TsdbQuery(metric=METRIC, start=1, end=61, downsample_window=10)
        assert canonical_key(a) != canonical_key(b)

    def test_different_windows_differ(self):
        a = TsdbQuery(metric=METRIC, start=0, end=60)
        b = TsdbQuery(metric=METRIC, start=0, end=61)
        assert canonical_key(a) != canonical_key(b)


class TestResultCache:
    def lookup(self, cache, query, now=0.0):
        return cache.get(canonical_key(query), now)

    def test_validation(self):
        with pytest.raises(ValueError):
            ResultCache(ttl=0.0)

    def test_miss_then_fresh_then_stale(self):
        cache = ResultCache(ttl=1.0)
        key = canonical_key(overview_query())
        assert cache.get(key, 0.0).state == "miss"
        etag = cache.put(key, [], 0.0)
        fresh = cache.get(key, 0.5)
        assert fresh.state == "fresh" and fresh.etag == etag
        assert fresh.age == pytest.approx(0.5)
        stale = cache.get(key, 1.5)
        assert stale.state == "stale" and stale.age == pytest.approx(1.5)
        assert cache.stats()["stale_probes"] == 1

    def test_every_lookup_carries_its_state_and_fields(self):
        cache = ResultCache(ttl=1.0)
        key = canonical_key(overview_query())
        lookups = [cache.get(key, 0.0)]
        etag = cache.put(key, [], 0.0)
        lookups += [cache.get(key, 0.5), cache.get(key, 1.5)]
        assert [lookup.state for lookup in lookups] == ["miss", "fresh", "stale"]
        assert all(isinstance(lookup, CacheLookup) for lookup in lookups)
        assert CacheLookup._fields == ("state", "value", "etag", "age")
        assert lookups[0] == ("miss", None, None, 0.0)
        assert [(lookup.value, lookup.etag) for lookup in lookups[1:]] == [([], etag)] * 2

    def test_lru_eviction_at_capacity(self, monkeypatch):
        monkeypatch.setattr(cache_module, "CAPACITY", 2)
        cache = ResultCache(ttl=10.0)
        keys = [canonical_key(TsdbQuery(metric=METRIC, start=0, end=e)) for e in (1, 2, 3)]
        for key in keys:
            cache.put(key, [], 0.0)
        assert len(cache) == 2 and cache.evictions == 1
        assert cache.get(keys[0], 0.0).state == "miss"  # the LRU entry went
        assert cache.get(keys[2], 0.0).state == "fresh"

    def test_probe_refreshes_lru_position(self, monkeypatch):
        monkeypatch.setattr(cache_module, "CAPACITY", 2)
        cache = ResultCache(ttl=10.0)
        k1 = canonical_key(TsdbQuery(metric=METRIC, start=0, end=1))
        k2 = canonical_key(TsdbQuery(metric=METRIC, start=0, end=2))
        k3 = canonical_key(TsdbQuery(metric=METRIC, start=0, end=3))
        cache.put(k1, [], 0.0)
        cache.put(k2, [], 0.0)
        cache.get(k1, 0.0)  # k2 becomes LRU
        cache.put(k3, [], 0.0)
        assert cache.get(k1, 0.0).state == "fresh"
        assert cache.get(k2, 0.0).state == "miss"

    def test_refresh_claim_is_single_flight(self):
        cache = ResultCache(ttl=2.0)
        key = canonical_key(overview_query())
        assert cache.begin_refresh(key)
        assert not cache.begin_refresh(key)
        cache.abort_refresh(key)
        assert cache.begin_refresh(key)
        cache.put(key, [], 0.0)  # a fill also releases the claim
        assert cache.begin_refresh(key)

    def test_invalidate_overlapping_entry(self):
        cache = ResultCache(ttl=2.0)
        key = canonical_key(overview_query(0, 60))
        cache.put(key, [], 0.0)
        assert cache.invalidate(METRIC, {"unit": "u0", "sensor": "s0"}, 10, 10) == 1
        assert cache.get(key, 0.0).state == "miss"

    def test_invalidate_other_metric_survives(self):
        cache = ResultCache(ttl=2.0)
        key = canonical_key(overview_query())
        cache.put(key, [], 0.0)
        assert cache.invalidate("other", {"unit": "u0"}, 10, 10) == 0
        assert cache.get(key, 0.0).state == "fresh"

    def test_invalidate_disjoint_window_survives(self):
        cache = ResultCache(ttl=2.0)
        key = canonical_key(overview_query(0, 60))
        cache.put(key, [], 0.0)
        # The window is half-open: a touch at t=60 cannot be observed.
        assert cache.invalidate(METRIC, {"unit": "u0"}, 60, 99) == 0
        assert cache.get(key, 0.0).state == "fresh"

    def test_invalidate_nonmatching_exact_filter_survives(self):
        cache = ResultCache(ttl=2.0)
        query = TsdbQuery(metric=METRIC, start=0, end=60, tag_filters={"unit": "u0"})
        key = canonical_key(query)
        cache.put(key, [], 0.0)
        assert cache.invalidate(METRIC, {"unit": "u1", "sensor": "s0"}, 5, 5) == 0
        assert cache.invalidate(METRIC, {"unit": "u0", "sensor": "s0"}, 5, 5) == 1

    def test_invalidate_filter_key_absent_from_tags_survives(self):
        cache = ResultCache(ttl=2.0)
        query = TsdbQuery(metric=METRIC, start=0, end=60, tag_filters={"sensor": "*"})
        key = canonical_key(query)
        cache.put(key, [], 0.0)
        # A touched series with no "sensor" tag can never match the filter.
        assert cache.invalidate(METRIC, {"host": "h0"}, 5, 5) == 0

    def test_etag_tracks_content(self):
        empty = result_etag([])
        assert empty == result_etag([]) and empty != ""


class TestAdmissionController:
    def test_inline_grant_until_slots_full(self):
        ctl = AdmissionController(max_concurrent=2, max_queue=4)
        t1 = ctl.admit("a", 0.0)
        t2 = ctl.admit("b", 0.0)
        assert t1.state == t2.state == "granted" and ctl.in_flight == 2
        t3 = ctl.admit("c", 0.0)
        assert t3.state == "queued" and ctl.queue_depth == 1

    def test_fifo_promotion_on_release(self):
        ctl = AdmissionController(max_concurrent=1, max_queue=4)
        order = []
        ctl.admit("a", 0.0)
        ctl.admit("b", 1.0, on_grant=lambda t: order.append("b"))
        ctl.admit("c", 2.0, on_grant=lambda t: order.append("c"))
        promoted = ctl.release(3.0, started_at=0.0)
        assert order == ["b"] and promoted[0].client_id == "b"
        assert promoted[0].wait == pytest.approx(2.0)
        ctl.release(4.0, started_at=3.0)
        assert order == ["b", "c"]

    def test_queue_full_sheds(self):
        ctl = AdmissionController(max_concurrent=1, max_queue=1)
        ctl.admit("a", 0.0)
        ctl.admit("b", 0.0)
        with pytest.raises(QueryRejected) as err:
            ctl.admit("c", 0.0)
        assert err.value.reason == "queue_full" and ctl.shed_queue_full == 1
        assert err.value.retry_after > 0.0

    def test_expired_waiters_skipped_on_release(self):
        ctl = AdmissionController(max_concurrent=1, max_queue=4)
        timeouts = []
        ctl.admit("a", 0.0)
        ctl.admit("b", 0.0, deadline=1.0, on_timeout=lambda t: timeouts.append("b"))
        granted = []
        ctl.admit("c", 0.0, deadline=9.0, on_grant=lambda t: granted.append("c"))
        ctl.release(2.0, started_at=0.0)  # b's deadline has passed
        assert timeouts == ["b"] and granted == ["c"]
        assert ctl.shed_deadline == 1

    def test_expire_due_sheds_without_a_release(self):
        ctl = AdmissionController(max_concurrent=1, max_queue=4)
        timeouts = []
        ctl.admit("a", 0.0)
        ctl.admit("b", 0.0, deadline=1.0, on_timeout=lambda t: timeouts.append("b"))
        assert ctl.expire_due(0.5) == []
        expired = ctl.expire_due(1.5)
        assert [t.client_id for t in expired] == ["b"] and timeouts == ["b"]
        assert ctl.queue_depth == 0

    def test_release_without_grant_raises(self):
        with pytest.raises(RuntimeError):
            AdmissionController(max_concurrent=1, max_queue=4).release(0.0)

    def test_service_estimate_tracks_observations(self):
        ctl = AdmissionController(max_concurrent=1, max_queue=4)
        assert ctl.service_estimate == admission.SERVICE_ESTIMATE
        ctl.admit("a", 0.0)
        ctl.release(1.0, started_at=0.0)
        assert ctl.service_estimate > admission.SERVICE_ESTIMATE


class TestGatewaySync:
    def test_miss_then_hit_bit_identical_to_engine(self):
        cluster = seeded_cluster()
        gateway = cluster.gateway()
        direct = cluster.query_engine().run(overview_query())
        miss = gateway.serve(overview_query())
        assert miss.status == "miss" and not miss.served_from_cache
        hit = gateway.serve(overview_query())
        assert hit.status == "hit" and hit.age == 0.0
        assert_series_equal(miss.series, direct)
        assert_series_equal(hit.series, direct)
        assert hit.etag == miss.etag == result_etag(direct)

    def test_hits_count_into_the_cluster_registry(self):
        cluster = seeded_cluster()
        gateway = cluster.gateway()
        gateway.serve(overview_query())
        n = 25
        for _ in range(n):
            assert gateway.serve(overview_query()).status == "hit"
        assert cluster.metrics.counter("serve.hits").get() == n
        assert cluster.metrics.counter("serve.misses").get() == 1
        assert cluster.metrics.histogram("serve.latency").count == n + 1

    def test_a_reader_cannot_grow_the_next_hit(self):
        cluster = seeded_cluster()
        gateway = cluster.gateway()
        miss = gateway.serve(overview_query())
        hit = gateway.serve(overview_query())
        hit.series.append(hit.series[0])
        miss.series.clear()
        again = gateway.serve(overview_query())
        assert again.status == "hit"
        assert_series_equal(again.series, cluster.query_engine().run(overview_query()))

    def test_a_reader_cannot_edit_the_cached_answer(self):
        cluster = seeded_cluster()
        gateway = cluster.gateway()
        miss = gateway.serve(overview_query())
        with pytest.raises(ValueError):
            miss.series[0].values[0] = 999.0
        with pytest.raises(ValueError):
            miss.series[0].timestamps[0] = 999
        hit = gateway.serve(overview_query())
        assert hit.status == "hit" and hit.etag == miss.etag
        fresh = cluster.query_engine().run(overview_query())
        assert [(s.tags, s.timestamps.tobytes(), s.values.tobytes()) for s in hit.series] == [
            (s.tags, s.timestamps.tobytes(), s.values.tobytes()) for s in fresh
        ]

    def test_canonically_equal_query_shares_the_entry(self):
        cluster = seeded_cluster()
        gateway = cluster.gateway()
        gateway.serve(
            TsdbQuery(
                metric=METRIC, start=0, end=60,
                tag_filters={"unit": "u0", "sensor": "*"}, group_by=("sensor",),
            )
        )
        variant = gateway.serve(
            TsdbQuery(
                metric=METRIC, start=0, end=60,
                tag_filters={"sensor": "*", "unit": "u0"},
                group_by=("sensor", "unit", "sensor"),
            )
        )
        assert variant.status == "hit"

    def test_etag_not_modified(self):
        cluster = seeded_cluster()
        gateway = cluster.gateway()
        first = gateway.serve(overview_query())
        second = gateway.serve(overview_query(), if_none_match=first.etag)
        assert second.not_modified and second.series is None
        assert second.etag == first.etag
        third = gateway.serve(overview_query(), if_none_match="bogus")
        assert not third.not_modified and third.series is not None

    def test_sync_miss_matching_the_etag_counts_as_not_modified(self):
        cluster = seeded_cluster()
        gateway = cluster.gateway(GatewayConfig(cache_enabled=False))
        first = gateway.serve(overview_query())
        again = gateway.serve(overview_query(), if_none_match=first.etag)
        assert again.status == "miss" and again.not_modified and again.series is None
        assert gateway.metrics.counter("serve.not_modified").get() == 1

    def test_write_invalidation_restores_correctness(self):
        cluster = seeded_cluster()
        gateway = cluster.gateway()
        before = gateway.serve(overview_query())
        assert gateway.serve(overview_query()).status == "hit"
        cluster.direct_put(
            [DataPoint.make(METRIC, 30, 999.0, {"unit": "u0", "sensor": "s0"})]
        )
        after = gateway.serve(overview_query())
        assert after.status == "miss" and after.etag != before.etag
        assert_series_equal(after.series, cluster.query_engine().run(overview_query()))

    def test_disjoint_write_keeps_the_entry(self):
        cluster = seeded_cluster()
        gateway = cluster.gateway()
        gateway.serve(overview_query(0, 60))
        cluster.direct_put(
            [DataPoint.make(METRIC, 200, 1.0, {"unit": "u0", "sensor": "s0"})]
        )
        assert gateway.serve(overview_query(0, 60)).status == "hit"

    def test_submit_path_fires_invalidation(self):
        cluster = seeded_cluster()
        gateway = cluster.gateway()
        gateway.serve(overview_query())
        cluster.submit(
            [DataPoint.make(METRIC, 30, 500.0, {"unit": "u1", "sensor": "s1"})]
        )
        cluster.sim.run()
        after = gateway.serve(overview_query())
        assert after.status == "miss"
        assert_series_equal(after.series, cluster.query_engine().run(overview_query()))

    def test_stale_served_when_backend_down(self):
        cluster = seeded_cluster()
        gateway = cluster.gateway(GatewayConfig(ttl=0.5))
        warm = gateway.serve(overview_query())
        for tsd in cluster.tsds:
            tsd.crash()
        advance(cluster.sim, 1.0)  # the entry's TTL lapses during the outage
        stale = gateway.serve(overview_query())
        assert stale.status == "stale" and stale.age > 0.0
        assert_series_equal(stale.series, warm.series)
        assert gateway.metrics.counter("serve.stale_serves").get() == 1

    @pytest.mark.parametrize("cache_enabled", [True, False])
    def test_cold_miss_with_backend_down_is_rejected(self, cache_enabled):
        cluster = seeded_cluster()
        gateway = cluster.gateway(GatewayConfig(cache_enabled=cache_enabled))
        for tsd in cluster.tsds:
            tsd.crash()
        with pytest.raises(QueryRejected) as err:
            gateway.serve(overview_query())
        assert err.value.reason == "unavailable"

    def test_one_live_tsd_keeps_the_backend_up(self):
        cluster = seeded_cluster()
        gateway = cluster.gateway()
        cluster.tsds[0].crash()
        assert gateway.backend_available()
        assert gateway.serve(overview_query()).status == "miss"

    def test_cache_disabled_always_executes(self):
        cluster = seeded_cluster()
        gateway = cluster.gateway(GatewayConfig(cache_enabled=False))
        assert gateway.serve(overview_query()).status == "miss"
        assert gateway.serve(overview_query()).status == "miss"
        assert len(gateway.cache) == 0

    def test_run_is_engine_compatible(self):
        cluster = seeded_cluster()
        gateway = cluster.gateway()
        assert_series_equal(
            gateway.run(overview_query()), cluster.query_engine().run(overview_query())
        )
        assert gateway.uids.get("metric", METRIC) is not None


class TestGatewayCorrectness:
    """The gate: gateway responses bit-identical to direct execution."""

    def variants(self, rng):
        start = rng.choice([0, 10, 13])
        end = start + rng.choice([20, 47, 60])
        unit = rng.choice(list(UNITS) + ["*"])
        group_by = rng.choice([(), ("unit",), ("unit", "sensor"), ("sensor", "unit")])
        downsample = rng.choice([None, 5, 10])
        return TsdbQuery(
            metric=METRIC,
            start=start,
            end=end,
            tag_filters={"unit": unit} if rng.random() < 0.8 else {},
            group_by=group_by,
            aggregator=rng.choice(["avg", "max", "sum"]),
            downsample_window=downsample,
            downsample_aggregator=rng.choice(["avg", "max"]),
        )

    def test_randomized_interleaving_matches_direct_engine(self):
        import random

        rng = random.Random(20260806)
        cluster = seeded_cluster()
        gateway = cluster.gateway(GatewayConfig(ttl=0.4))
        direct = cluster.query_engine()
        checked = 0
        last_query = overview_query()
        for step in range(120):
            op = rng.random()
            if op < 0.2:
                points = [
                    DataPoint.make(
                        METRIC,
                        rng.randrange(0, 70),
                        rng.uniform(-5.0, 5.0),
                        {"unit": rng.choice(UNITS), "sensor": rng.choice(SENSORS)},
                    )
                    for _ in range(rng.randrange(1, 4))
                ]
                if rng.random() < 0.5:
                    cluster.direct_put(points)
                else:
                    cluster.submit(points)
                    cluster.sim.run()
            elif op < 0.3:
                advance(cluster.sim, rng.uniform(0.1, 0.6))  # let entries go stale
            else:
                # Re-polls (a dashboard refreshing the same view) mixed
                # with fresh query shapes — hits, stale probes and cold
                # misses all occur.
                query = last_query if rng.random() < 0.4 else self.variants(rng)
                last_query = query
                assert_series_equal(gateway.run(query), direct.run(query))
                checked += 1
        assert checked > 50
        stats = gateway.stats()
        # The interleaving exercised every cache state.
        assert stats["hits"] > 0 and stats["misses"] > 0
        assert stats["invalidations"] > 0 and stats["stale_probes"] > 0


class TestGatewayAsync:
    def test_async_miss_charges_simulated_latency(self):
        cluster = seeded_cluster()
        gateway = cluster.gateway()
        done = []
        gateway.serve_async(overview_query(), "c0", on_done=done.append)
        cluster.sim.run()
        assert len(done) == 1 and done[0].status == "miss"
        assert done[0].latency > 0.0
        assert_series_equal(done[0].series, cluster.query_engine().run(overview_query()))

    def test_async_miss_plans_its_scan_once(self, monkeypatch):
        cluster = seeded_cluster()
        gateway = cluster.gateway()
        plans = []
        plan_scan = QueryEngine.plan_scan

        def counting_plan_scan(self, query):
            plans.append(query)
            return plan_scan(self, query)

        monkeypatch.setattr(QueryEngine, "plan_scan", counting_plan_scan)
        done = []
        gateway.serve_async(overview_query(), "c0", on_done=done.append)
        cluster.sim.run()
        assert [r.status for r in done] == ["miss"]
        assert len(plans) == 1

    def test_async_hit_is_cheaper_than_miss(self):
        cluster = seeded_cluster()
        gateway = cluster.gateway()
        done = []
        gateway.serve_async(overview_query(), "c0", on_done=done.append)
        cluster.sim.run()
        gateway.serve_async(overview_query(), "c0", on_done=done.append)
        cluster.sim.run()
        assert done[1].status == "hit" and done[1].latency < done[0].latency

    def test_cold_stampede_sheds_past_the_queue(self):
        cluster = seeded_cluster()
        gateway = cluster.gateway(GatewayConfig(max_concurrent=1, max_queue=2))
        done, rejected = [], []
        for i in range(6):
            gateway.serve_async(
                TsdbQuery(metric=METRIC, start=0, end=10 + i),  # distinct keys
                f"c{i}",
                on_done=done.append,
                on_reject=rejected.append,
            )
        cluster.sim.run()
        assert len(done) + len(rejected) == 6
        assert len(done) == 3  # 1 executing + 2 queued
        assert all(exc.reason == "queue_full" for exc in rejected)
        assert gateway.admission.queue_high_water == 2

    def test_queued_request_sheds_at_its_deadline(self):
        cluster = seeded_cluster()
        slow = ServeServiceModel(overhead=1.0)
        gateway = cluster.gateway(
            GatewayConfig(max_concurrent=1, max_queue=4, service_model=slow)
        )
        done, rejected = [], []
        gateway.serve_async(
            TsdbQuery(metric=METRIC, start=0, end=10), "a", on_done=done.append
        )
        gateway.serve_async(
            TsdbQuery(metric=METRIC, start=0, end=11),
            "b",
            on_done=done.append,
            on_reject=rejected.append,
            deadline=0.1,
        )
        cluster.sim.run()
        assert len(done) == 1 and len(rejected) == 1
        assert rejected[0].reason == "deadline"
        assert gateway.admission.shed_deadline == 1

    def test_saturated_stale_hit_serves_stale_and_revalidates(self):
        cluster = seeded_cluster()
        slow = ServeServiceModel(overhead=1.0)
        gateway = cluster.gateway(
            GatewayConfig(ttl=0.2, max_concurrent=1, max_queue=4, service_model=slow)
        )
        done = []
        gateway.serve_async(overview_query(), "warm", on_done=done.append)
        cluster.sim.run()
        advance(cluster.sim, 0.5)  # entry is now stale
        # Saturate the only slot with an unrelated query...
        gateway.serve_async(
            TsdbQuery(metric=METRIC, start=0, end=13), "other", on_done=done.append
        )
        # ...then hit the stale key: served immediately, refresh queued.
        gateway.serve_async(overview_query(), "reader", on_done=done.append)
        cluster.sim.run()
        assert len(done) == 3
        stale = [r for r in done if r.status == "stale"]
        assert len(stale) == 1 and stale[0].age > 0.0
        assert gateway.metrics.counter("serve.revalidations").get() >= 1
        # The background refresh refilled the entry: next probe is fresh.
        assert gateway.serve(overview_query()).status == "hit"


@pytest.fixture
def fleet_shape(monkeypatch):
    """``fleet_shape(pollers, browsers, drill_interval=...)``: the client
    populations of every workload the test runs."""

    def shape(pollers, browsers, drill_interval=workload_module.DRILL_INTERVAL):
        monkeypatch.setattr(workload_module, "N_OVERVIEW_POLLERS", pollers)
        monkeypatch.setattr(workload_module, "N_DRILLDOWN", browsers)
        monkeypatch.setattr(workload_module, "DRILL_INTERVAL", drill_interval)

    return shape


class TestWorkload:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            WorkloadConfig(duration=0.0)
        with pytest.raises(ValueError):
            FleetWorkload(object(), METRIC, [], (0, 60))

    def test_steady_state_conserves_and_caches(self, fleet_shape):
        fleet_shape(8, 2)
        cluster = seeded_cluster()
        gateway = cluster.gateway(GatewayConfig(ttl=2.0))
        workload = FleetWorkload(
            gateway,
            METRIC,
            UNITS,
            (0, 60),
            WorkloadConfig(duration=6.0, seed=3),
        )
        report = workload.run()
        report.check_conservation()
        assert report.issued > 0 and report.served == report.issued
        assert report.hit_ratio > 0.5
        assert report.not_modified > 0  # pollers rode the ETag path
        assert report.stale_unaccounted == 0
        assert report.latency_quantile(0.5) <= report.latency_quantile(0.99)
        assert "hit_ratio" in report.summary()

    def test_workload_is_reproducible_per_seed(self, fleet_shape):
        fleet_shape(4, 2)

        def run(seed):
            cluster = seeded_cluster()
            gateway = cluster.gateway()
            cfg = WorkloadConfig(duration=4.0, seed=seed)
            return FleetWorkload(gateway, METRIC, UNITS, (0, 60), cfg).run()

        a, b, c = run(5), run(5), run(6)
        assert (a.issued, a.hits, a.misses, a.latencies) == (
            b.issued, b.hits, b.misses, b.latencies,
        )
        assert a.latencies != c.latencies

    def test_stampede_is_shed_not_queued_forever(self, fleet_shape):
        fleet_shape(0, 40, drill_interval=0.2)
        cluster = seeded_cluster()
        gateway = cluster.gateway(
            GatewayConfig(
                ttl=0.1,
                max_concurrent=2,
                max_queue=4,
                service_model=ServeServiceModel(overhead=0.05),
            )
        )
        cfg = WorkloadConfig(
            n_stampede=30,
            duration=4.0,
            stampede_at=2.0,
            deadline=0.5,
            seed=11,
        )
        report = FleetWorkload(gateway, METRIC, UNITS, (0, 60), cfg).run()
        report.check_conservation()
        assert report.shed > 0 and report.shed_rate > 0.0
        assert set(report.shed_reasons) <= {"queue_full", "deadline", "unavailable"}

    def test_conservation_violation_raises(self):
        from repro.serve import WorkloadReport

        report = WorkloadReport(issued=3, served=1, shed=1)
        with pytest.raises(AssertionError):
            report.check_conservation()
        report.shed = 2
        report.check_conservation()

    def test_latency_quantile_validates(self):
        from repro.serve import WorkloadReport

        report = WorkloadReport()
        with pytest.raises(ValueError):
            report.latency_quantile(1.5)
        assert report.latency_quantile(0.5) == 0.0


class TestChaosIntegration:
    def test_tsd_outage_is_bridged_by_stale_serving(self, fleet_shape):
        fleet_shape(6, 0)
        cluster = seeded_cluster()
        gateway = cluster.gateway(GatewayConfig(ttl=0.5))
        reporter = cluster.self_reporter()
        gateway.serve(overview_query())  # warm the overview entry
        plan = FaultPlan(
            name="tsd-blackout",
            events=tuple(
                FaultEvent(at=2.0, action="tsd_crash", target=f"tsd{i:02d}", duration=3.0)
                for i in range(len(cluster.tsds))
            ),
        )
        injector = Injector(cluster, plan)
        injector.arm()
        cfg = WorkloadConfig(duration=8.0, seed=2)
        report = FleetWorkload(gateway, METRIC, UNITS, (0, 60), cfg).run()
        injector.finalize()
        # A periodic reporter would keep the simulator from quiescing
        # during the workload's drain, so flush one snapshot explicitly.
        reporter.flush()
        # Every poll during the blackout was answered — fresh, or stale
        # with an explicit age stamp.  Nothing was dropped or shed.
        report.check_conservation()
        assert report.served == report.issued
        assert report.stale_serves > 0 and report.stale_unaccounted == 0
        assert max(report.stale_ages) > 0.5  # polls deep into the outage
        # The gateway's own telemetry flowed through the self-report
        # loop and is visible in the platform-health panel.
        dashboard = Dashboard(gateway)
        html = dashboard.platform_health_html()
        assert "serve.hits" in html and "serve.stale_serves" in html

    def test_serve_metrics_reach_cluster_telemetry(self):
        cluster = seeded_cluster()
        gateway = cluster.gateway()
        gateway.serve(overview_query())
        gateway.serve(overview_query())
        hosts = {s.name: s.host for s in samples(cluster.metrics)}
        for name in ("serve.hits", "serve.misses", "serve.cache_size"):
            assert hosts[name] == "serve"


class TestQueryValidation:
    def test_end_must_exceed_start(self):
        with pytest.raises(ValueError):
            TsdbQuery(metric=METRIC, start=10, end=10)
        with pytest.raises(ValueError):
            TsdbQuery(metric=METRIC, start=10, end=5)

    def test_unknown_aggregator(self):
        with pytest.raises(ValueError, match="unknown aggregator"):
            TsdbQuery(metric=METRIC, start=0, end=10, aggregator="median")

    def test_downsample_window_must_be_positive(self):
        with pytest.raises(ValueError, match="downsample window"):
            TsdbQuery(metric=METRIC, start=0, end=10, downsample_window=0)
        with pytest.raises(ValueError, match="downsample window"):
            TsdbQuery(metric=METRIC, start=0, end=10, downsample_window=-5)

    def test_unknown_downsample_aggregator(self):
        with pytest.raises(ValueError):
            TsdbQuery(
                metric=METRIC, start=0, end=10,
                downsample_window=5, downsample_aggregator="p99",
            )

    def test_valid_query_constructs(self):
        query = TsdbQuery(
            metric=METRIC, start=0, end=10,
            aggregator="max", downsample_window=5, downsample_aggregator="sum",
        )
        assert query.downsample_window == 5


class _CountingEngine:
    """Engine wrapper recording every query it runs."""

    def __init__(self, engine):
        self._engine = engine
        self.queries = []

    @property
    def uids(self):
        return self._engine.uids

    def run(self, query):
        self.queries.append(query)
        return self._engine.run(query)


class TestDashboardIntegration:
    def test_fleet_overview_queries_each_unit_once(self):
        cluster = seeded_cluster()
        counting = _CountingEngine(cluster.query_engine())
        dashboard = Dashboard(counting)
        dashboard.fleet_overview_html([0, 1, 2], 0, 60)
        anomaly_queries = [q for q in counting.queries if q.metric == ANOMALY_METRIC]
        # One anomaly fetch per unit, shared by status and trend (the
        # pre-dedupe renderer issued two identical calls per unit).
        assert len(anomaly_queries) == 3

    def test_dashboard_renders_identically_through_the_gateway(self):
        cluster = seeded_cluster()
        gateway = cluster.gateway()
        via_engine = Dashboard(cluster.query_engine()).fleet_overview_html([0, 1], 0, 60)
        via_gateway = Dashboard(gateway).fleet_overview_html([0, 1], 0, 60)
        assert via_engine == via_gateway
        assert len(gateway.cache) > 0  # the render warmed the cache
        # A second render is answered from cache, still identically.
        assert Dashboard(gateway).fleet_overview_html([0, 1], 0, 60) == via_engine
        assert gateway.cache.hits > 0


class TestDegradedServing:
    """Gateway behaviour when the primary replica set is unreachable:
    timeline (follower) answers are served flagged ``degraded`` with an
    advertised staleness bound, never cached, and a strict gateway
    sheds instead."""

    def degraded_cluster(self, **overrides):
        defaults = dict(
            n_nodes=3,
            salt_buckets=4,
            retain_data=True,
            replication_factor=2,
            failure_detection_delay=5.0,  # crash stays undetected
        )
        defaults.update(overrides)
        cluster = small_cluster(**defaults)
        cluster.direct_put(seed_points())
        return cluster

    def test_healthy_serve_is_not_degraded(self):
        cluster = self.degraded_cluster()
        gateway = cluster.gateway()
        result = gateway.serve(overview_query())
        assert result.degraded is False
        assert result.max_staleness == 0.0

    def test_crashed_primary_serves_degraded_with_staleness_bound(self):
        cluster = self.degraded_cluster()
        gateway = cluster.gateway()
        cluster.servers[0].crash()
        result = gateway.serve(overview_query())
        assert result.degraded is True
        assert result.max_staleness >= 0.0
        # the follower answer matches the engine's timeline view
        consistent = cluster.query_engine().run_available(overview_query())
        assert consistent.mode == "timeline"
        assert_series_equal(result.series, consistent.series)
        counters = cluster.metrics.counters
        assert counters["serve.degraded"].get() == 1.0

    def test_degraded_answers_are_never_cached(self):
        cluster = self.degraded_cluster()
        gateway = cluster.gateway()
        cluster.servers[0].crash()
        first = gateway.serve(overview_query())
        second = gateway.serve(overview_query())
        assert first.degraded and second.degraded
        assert first.status == "miss" and second.status == "miss"
        counters = cluster.metrics.counters
        assert counters["serve.degraded"].get() == 2.0

    def test_strong_serving_resumes_after_failover(self):
        cluster = self.degraded_cluster(failure_detection_delay=0.3)
        gateway = cluster.gateway()
        cluster.servers[0].crash()
        cluster.sim.run(until=cluster.sim.now + 1.0)
        result = gateway.serve(overview_query())
        assert result.degraded is False
        reference = cluster.query_engine().run(overview_query())
        assert_series_equal(result.series, reference)
