"""Property tests for the lifecycle tier's core invariants.

Five invariant families, on randomized workloads:

* **re-aggregation closure** — materialized count/sum/min/max columns
  are bitwise equal to the downsample kernels applied to raw, so
  re-aggregating from a tier never drifts from the raw answer — for one
  series, and for several series with NaN values, late writes and
  compacted rows materialized in one pass;
* **watermark monotonicity** — no write pattern (in-order, late,
  duplicate) ever moves a watermark backwards, and watermarks only
  cover complete windows;
* **expiry safety** — retention never drops a cell at or above the raw
  floor, and the floor never overtakes a tier watermark;
* **tier-routing bit-identity** — whenever the planner picks an
  identical-mode plan, the routed answer equals the raw answer bit for
  bit (pooled mode is a documented deviation and is excluded);
* **one way to serve a tier plan** — every tier-served plan is a set of
  column rewrites, and the RPC read path answers it exactly as the
  engine does.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.lifecycle import LifecyclePolicy, rollup_metric
from repro.tsdb.aggregation import Series, downsample
from repro.tsdb.ingest import build_cluster
from repro.tsdb.query import TsdbQuery
from repro.tsdb.tsd import DataPoint

METRIC = "energy"

# one series' samples: unique timestamps inside two 1h windows
samples = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=7199),
        st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
    ),
    min_size=3,
    max_size=60,
    unique_by=lambda tv: tv[0],
)


def make_cluster(series_samples):
    cluster = build_cluster(
        n_nodes=2, salt_buckets=2, retain_data=True, lifecycle=LifecyclePolicy()
    )
    points = [
        DataPoint.make(METRIC, t, v, {"unit": f"u{u}", "sensor": "s0"})
        for u, tvs in enumerate(series_samples)
        for t, v in tvs
    ]
    # a closing sample at 7200 completes every window below it
    points.append(DataPoint.make(METRIC, 7200, 0.0, {"unit": "u0", "sensor": "s0"}))
    cluster.direct_put(points)
    cluster.lifecycle.run_maintenance()
    return cluster


class TestReaggregationClosure:
    @settings(max_examples=20, deadline=None)
    @given(samples)
    def test_columns_match_kernels_bitwise(self, tvs):
        cluster = make_cluster([tvs])
        engine = cluster.query_engine()
        engine.lifecycle = None
        ts = np.array(sorted(t for t, _ in tvs), dtype=np.int64)
        by_t = dict(tvs)
        vals = np.array([by_t[t] for t in ts], dtype=np.float64)
        raw = Series((("sensor", "s0"), ("unit", "u0")), ts, vals)
        for label, res in (("1m", 60), ("1h", 3600)):
            for column in ("count", "sum", "min", "max"):
                expected = downsample(raw, res, column)
                got = engine.run(
                    TsdbQuery(
                        rollup_metric(column, label, METRIC),
                        0,
                        7200,
                        tag_filters={"unit": "u0"},
                        aggregator="min",  # single series: passthrough
                    )
                )
                assert len(got) == 1
                assert np.array_equal(got[0].timestamps, expected.timestamps)
                assert np.array_equal(got[0].values, expected.values, equal_nan=True)


# several series' samples, NaN values included
nan_samples = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=7199),
        st.floats(min_value=-1e9, max_value=1e9) | st.just(float("nan")),
    ),
    min_size=1,
    max_size=40,
    unique_by=lambda tv: tv[0],
)
# late writes behind the watermark: (series index, timestamp, value)
late_writes = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=7199),
        st.floats(min_value=-1e9, max_value=1e9) | st.just(float("nan")),
    ),
    min_size=1,
    max_size=12,
)
TIERS = (("1m", 60), ("1h", 3600))


class TestMultiSeriesClosure:
    """The rollup reduces every series of a span in one kernel pass; each
    series' columns must still be exactly that series' own downsample."""

    @staticmethod
    def put(cluster, truth, writes):
        cluster.direct_put(
            [DataPoint.make(METRIC, t, v, {"unit": f"u{u}", "sensor": "s0"}) for u, t, v in writes]
        )
        for u, t, v in writes:
            truth.setdefault(u, {})[t] = v

    @staticmethod
    def covered(truth, windows):
        """Raw points inside the given (tier resolution, window start)s."""
        return sum(
            1
            for res, w in windows
            for by_t in truth.values()
            for t in by_t
            if w <= t < w + res
        )

    @staticmethod
    def dirty(writes):
        """Every tier window between a late put's ends is re-materialized."""
        lo, hi = min(t for _, t, _ in writes), max(t for _, t, _ in writes)
        return {(res, w) for _, res in TIERS for w in range(lo // res * res, hi + 1, res)}

    @settings(max_examples=12, deadline=None)
    @given(st.lists(nan_samples, min_size=2, max_size=6), late_writes, late_writes)
    def test_every_column_is_its_series_downsample(self, per_series, before, after):
        cluster = build_cluster(
            n_nodes=2, salt_buckets=2, retain_data=True, lifecycle=LifecyclePolicy()
        )
        points = cluster.metrics.counter("lifecycle.rollup.points")
        truth = {}
        # a closing sample at 7200 completes every window below it
        first = [(u, t, v) for u, tvs in enumerate(per_series) for t, v in tvs] + [(0, 7200, 0.0)]
        self.put(cluster, truth, first)
        n = len(per_series)
        cluster.lifecycle.run_maintenance()
        # first pass: each tier covers every raw point below the closing sample
        assert points.value == self.covered(
            truth, {(res, w) for _, res in TIERS for w in range(0, 7200, res)}
        )
        # late writes behind the watermark, then a compaction pass (which
        # runs maintenance first), then late writes onto compacted rows
        steps = ((before, cluster.compactor().run), (after, cluster.lifecycle.run_maintenance))
        for late, step in steps:
            late = [(u % n, t, v) for u, t, v in late]
            self.put(cluster, truth, late)
            mark = points.value
            step()
            assert points.value - mark == self.covered(truth, self.dirty(late))
        engine = cluster.query_engine()
        engine.lifecycle = None
        for u, by_t in truth.items():
            ts = np.array(sorted(t for t in by_t if t < 7200), dtype=np.int64)
            if not len(ts):
                continue
            raw = Series((("sensor", "s0"), ("unit", f"u{u}")), ts, [by_t[t] for t in ts])
            for label, res in TIERS:
                for column in ("count", "sum", "min", "max"):
                    expected = downsample(raw, res, column)
                    query = TsdbQuery(
                        rollup_metric(column, label, METRIC), 0, 7200, tag_filters={"unit": f"u{u}"}
                    )
                    (got,) = engine.series_for(query)
                    assert got.timestamps.tobytes() == expected.timestamps.tobytes()
                    assert got.values.tobytes() == expected.values.tobytes(), (label, column)


class TestWatermarkMonotonicity:
    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.integers(min_value=0, max_value=10_000),
                min_size=1,
                max_size=20,
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_never_decreases_and_stays_complete(self, batches):
        cluster = build_cluster(
            n_nodes=2, salt_buckets=2, retain_data=True, lifecycle=LifecyclePolicy()
        )
        lm = cluster.lifecycle
        seen = {"1m": 0, "1h": 0}
        for i, batch in enumerate(batches):
            cluster.direct_put(
                [
                    DataPoint.make(METRIC, t, 1.0, {"unit": "u0", "sensor": "s0"})
                    for t in batch
                ]
            )
            if i % 2 == 0:
                lm.run_maintenance()
            hwm = lm.rollup.high_water(METRIC)
            for label, res in (("1m", 60), ("1h", 3600)):
                wm = lm.rollup.watermark(METRIC, label)
                assert wm >= seen[label], "watermark went backwards"
                assert wm % res == 0, "watermark off window alignment"
                assert wm <= ((hwm + 1) // res) * res, "covers an incomplete window"
                seen[label] = wm


class TestExpirySafety:
    @settings(max_examples=15, deadline=None)
    @given(
        samples,
        st.sampled_from([3600, 7200, 14400]),
    )
    def test_never_drops_unexpired_cells(self, tvs, raw_ttl):
        cluster = build_cluster(
            n_nodes=2,
            salt_buckets=2,
            retain_data=True,
            lifecycle=LifecyclePolicy(raw_ttl=raw_ttl),
        )
        points = [
            DataPoint.make(METRIC, t, v, {"unit": "u0", "sensor": "s0"})
            for t, v in tvs
        ]
        cluster.direct_put(points)
        lm = cluster.lifecycle
        lm.run_maintenance()
        floor = lm.retention.raw_floor(METRIC)
        assert floor % 3600 == 0
        assert floor <= lm.rollup.min_watermark(METRIC)
        engine = cluster.query_engine()
        engine.lifecycle = None
        live = engine.run(TsdbQuery(METRIC, 0, 20_000, aggregator="min"))
        survivors = set(live[0].timestamps.tolist()) if live else set()
        for t, _ in tvs:
            if t >= floor:
                assert t in survivors, f"unexpired cell at {t} was dropped"
            else:
                assert t not in survivors, f"cell at {t} outlived the floor"
        report = lm.verify_conservation(METRIC)
        assert report["ok"] is True


# a routed query: (per-series samples, aggregator, downsample
# aggregator, window, filter to one unit?)
routing_cases = (
    st.lists(samples, min_size=1, max_size=3),
    st.sampled_from(["avg", "sum", "min", "max", "count"]),
    st.sampled_from(["avg", "sum", "min", "max", "count"]),
    st.sampled_from([60, 120, 3600, 7200]),
    st.booleans(),
)


def routed_query(agg, ds, window, filt):
    return TsdbQuery(
        METRIC,
        0,
        7200,
        aggregator=agg,
        tag_filters={"unit": "u0"} if filt else {},
        downsample_window=window,
        downsample_aggregator=ds,
    )


def assert_same_series(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.tags == b.tags
        assert np.array_equal(a.timestamps, b.timestamps)
        assert np.array_equal(a.values, b.values, equal_nan=True)


class TestRoutingBitIdentity:
    @settings(max_examples=25, deadline=None)
    @given(*routing_cases)
    def test_identical_plans_are_bit_identical(self, per_series, agg, ds, window, filt):
        cluster = make_cluster(per_series)
        query = routed_query(agg, ds, window, filt)
        plan = cluster.lifecycle.plan(query, record=False)
        routed_engine = cluster.query_engine()
        raw_engine = cluster.query_engine()
        raw_engine.lifecycle = None
        routed = routed_engine.run(query)
        raw = raw_engine.run(query)
        if plan.mode == "pooled":
            return  # documented deviation, not bit-identical by contract
        # identical-mode plans (and raw fallbacks) must agree exactly
        assert_same_series(routed, raw)


class TestOneWayToServeATierPlan:
    @settings(max_examples=25, deadline=None)
    @given(*routing_cases)
    def test_rpc_path_serves_every_plan_as_the_engine_does(
        self, per_series, agg, ds, window, filt
    ):
        cluster = make_cluster(per_series)
        query = routed_query(agg, ds, window, filt)
        plan = cluster.lifecycle.plan(query, record=False)
        if plan.tier_served:
            assert cluster.lifecycle.router.rewrites(query, plan) is not None
        expected = cluster.query_engine().run(query)
        result = cluster.async_query_executor().execute_sync(query)
        assert result.complete
        assert_same_series(result.series, expected)
