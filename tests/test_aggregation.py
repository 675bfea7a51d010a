"""Tests for series aggregation, downsampling and rate conversion."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.tsdb.aggregation import (
    AGGREGATORS,
    Series,
    aggregate,
    align_union,
    downsample,
    rate,
    reduce_windows,
)


def series(times, values, tags=()):
    return Series(tuple(tags), np.array(times), np.array(values, dtype=float))


class TestSeries:
    def test_validation_shapes(self):
        with pytest.raises(ValueError):
            series([1, 2], [1.0])

    def test_strictly_increasing_required(self):
        with pytest.raises(ValueError):
            series([2, 1], [0.0, 0.0])
        with pytest.raises(ValueError):
            series([1, 1], [0.0, 0.0])

    def test_tag_dict(self):
        s = series([1], [2.0], tags=(("unit", "u1"),))
        assert s.tag_dict == {"unit": "u1"}

    def test_len(self):
        assert len(series([1, 2, 3], [0, 0, 0])) == 3


class TestAlignUnion:
    def test_alignment_with_gaps(self):
        a = series([0, 1, 3], [1.0, 2.0, 3.0])
        b = series([1, 2], [10.0, 20.0])
        times, stack = align_union([a, b])
        assert list(times) == [0, 1, 2, 3]
        assert stack[0][0] == 1.0 and np.isnan(stack[1][0])
        assert stack[0][1] == 2.0 and stack[1][1] == 10.0

    def test_empty(self):
        times, stack = align_union([])
        assert times.size == 0

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                # offset 0 for all: overlapping; far apart: disjoint
                st.sampled_from([0, 0, 1_000, 2_000]),
                # empty, single-point and multi-point series
                st.lists(st.integers(0, 40), unique=True, max_size=12),
                st.lists(st.floats(allow_nan=True, width=64), min_size=12, max_size=12),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_one_scatter_matches_a_per_series_loop(self, specs):
        """The stack is filled exactly as a per-series loop fills it:
        same times, same values, NaN in the same places, bit for bit."""
        inputs = [
            series(sorted(offset + t for t in ts), values[: len(ts)])
            for offset, ts, values in specs
        ]
        expected_times = np.unique(np.concatenate([s.timestamps for s in inputs]))
        expected = np.full((len(inputs), len(expected_times)), np.nan)
        for i, s in enumerate(inputs):
            expected[i, np.searchsorted(expected_times, s.timestamps)] = s.values
        times, stack = align_union(inputs)
        assert times.dtype == expected_times.dtype
        assert times.tobytes() == expected_times.tobytes()
        assert stack.shape == expected.shape
        assert stack.tobytes() == expected.tobytes()


class TestAggregate:
    def test_sum_ignores_missing(self):
        a = series([0, 1], [1.0, 2.0])
        b = series([1, 2], [10.0, 20.0])
        out = aggregate([a, b], "sum")
        assert list(out.timestamps) == [0, 1, 2]
        assert list(out.values) == [1.0, 12.0, 20.0]

    def test_avg(self):
        a = series([0], [1.0])
        b = series([0], [3.0])
        assert aggregate([a, b], "avg").values[0] == 2.0

    def test_min_max_count_dev(self):
        a = series([0], [1.0])
        b = series([0], [5.0])
        assert aggregate([a, b], "min").values[0] == 1.0
        assert aggregate([a, b], "max").values[0] == 5.0
        assert aggregate([a, b], "count").values[0] == 2.0
        assert aggregate([a, b], "dev").values[0] == 2.0

    def test_single_series_same_schema_as_many(self):
        # Regression: the 1-series shortcut used to return series[0]
        # untouched, so the output schema depended on how many series
        # matched the group-by.
        a = series([0, 1], [1.0, 2.0], tags=(("unit", "u1"), ("host", "h1")))
        out = aggregate([a], "sum")
        assert list(out.timestamps) == [0, 1]
        assert list(out.values) == [1.0, 2.0]
        assert out.values.dtype == np.float64
        # Trivially common across one input, in the N-series sorted order.
        assert out.tags == tuple(sorted(a.tags))

    def test_single_series_count_and_dev_semantics(self):
        a = series([0, 1], [4.0, 9.0])
        assert list(aggregate([a], "count").values) == [1.0, 1.0]
        assert list(aggregate([a], "dev").values) == [0.0, 0.0]

    def test_common_tags_kept(self):
        a = series([0], [1.0], tags=(("unit", "u1"), ("sensor", "s1")))
        b = series([0], [2.0], tags=(("unit", "u1"), ("sensor", "s2")))
        out = aggregate([a, b], "avg")
        assert out.tags == (("unit", "u1"),)

    def test_unknown_aggregator(self):
        with pytest.raises(ValueError):
            aggregate([series([0], [1.0])], "median")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([], "sum")


class TestAllNanColumnsWarningClean:
    """Regression: nan-aggregators over all-NaN columns must not warn.

    Run with RuntimeWarning promoted to an error (the same
    ``-W error::RuntimeWarning`` discipline the tier-1 gate applies to
    ``repro.tsdb.aggregation``) so a reintroduced warning fails loudly.
    """

    @staticmethod
    def _all_nan_stack():
        stack = np.full((3, 4), np.nan)
        stack[:, 0] = [1.0, 2.0, 3.0]  # one live column, three all-NaN
        return stack

    @pytest.mark.parametrize("name", ["avg", "min", "max", "dev"])
    def test_stack_aggregators_silent_on_all_nan(self, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = AGGREGATORS[name](self._all_nan_stack())
        assert not np.isnan(out[0])
        assert np.all(np.isnan(out[1:]))

    def test_sum_keeps_zero_for_all_nan(self):
        # np.nansum never warns and documents all-NaN -> 0.0; the
        # masking fix must not change that.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = AGGREGATORS["sum"](self._all_nan_stack())
        assert out[0] == 6.0
        assert np.all(out[1:] == 0.0)

    def test_live_columns_bit_identical_to_unmasked(self):
        rng = np.random.default_rng(7)
        stack = rng.normal(size=(4, 6))
        stack[1, 2] = np.nan  # sparse, but no all-NaN column
        for name in ("avg", "min", "max", "dev"):
            masked = AGGREGATORS[name](stack)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                reference = getattr(np, f"nan{name.replace('avg', 'mean').replace('dev', 'std')}")(
                    stack, axis=0
                )
            assert np.array_equal(masked, reference)

    def test_downsample_all_nan_window_silent(self):
        s = series([0, 1, 12], [np.nan, np.nan, 5.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = downsample(s, 10, "avg")
        assert np.isnan(out.values[0])
        assert out.values[1] == 5.0


class TestDownsample:
    def test_avg_windows(self):
        s = series([0, 1, 2, 10, 11], [1.0, 2.0, 3.0, 10.0, 20.0])
        out = downsample(s, 10, "avg")
        assert list(out.timestamps) == [0, 10]
        assert list(out.values) == [2.0, 15.0]

    def test_window_start_convention(self):
        s = series([5, 15, 25], [1.0, 2.0, 3.0])
        out = downsample(s, 10, "sum")
        assert list(out.timestamps) == [0, 10, 20]

    def test_empty_windows_skipped(self):
        s = series([0, 100], [1.0, 2.0])
        out = downsample(s, 10)
        assert list(out.timestamps) == [0, 100]

    def test_single_window(self):
        s = series([0, 1], [2.0, 4.0])
        out = downsample(s, 100, "max")
        assert list(out.timestamps) == [0]
        assert list(out.values) == [4.0]

    def test_empty_series(self):
        s = series([], [])
        assert len(downsample(s, 10)) == 0

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            downsample(series([0], [1.0]), 0)

    def test_count_aggregator(self):
        s = series([0, 1, 2], [5.0, 5.0, 5.0])
        assert downsample(s, 10, "count").values[0] == 3.0


#: Per-window references, each applied to one window on its own.
NAN_REDUCERS = {
    "sum": np.nansum,
    "avg": np.nanmean,
    "min": np.nanmin,
    "max": np.nanmax,
    "count": lambda g: np.sum(~np.isnan(g)),
    "dev": np.nanstd,
}


def reference_downsample(ts, vs, window, aggregator):
    """One ``np.nan*`` call per window; an all-NaN window is ``np.nan``
    (``sum``: ``nansum``'s 0.0, ``count``: 0)."""
    buckets = ts // window * window
    starts = np.unique(buckets)
    out = []
    for b in starts:
        g = vs[buckets == b]
        if np.all(np.isnan(g)) and aggregator not in ("sum", "count"):
            out.append(np.nan)
        else:
            out.append(float(NAN_REDUCERS[aggregator](g)))
    return starts, np.array(out, dtype=np.float64)


@st.composite
def windowed_series(draw):
    """A series cut into windows whose lengths cross NumPy's pairwise
    summation blocks (8 and 128), with NaN, all-NaN windows and ±0.0."""
    lengths = draw(
        st.lists(
            st.sampled_from([1, 2, 7, 8, 9, 16, 127, 128, 129, 256, 300]) | st.integers(1, 300),
            min_size=1,
            max_size=5,
        )
    )
    window = max(lengths) + draw(st.integers(0, 40))
    pool = np.array(
        draw(
            st.lists(
                st.floats(-1e12, 1e12) | st.sampled_from([np.nan, 0.0, -0.0]),
                min_size=1,
                max_size=12,
            )
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bucket = draw(st.integers(-5, 5))
    ts, vs = [], []
    for length in lengths:
        bucket += draw(st.integers(1, 3))  # a skipped window is empty
        offsets = np.sort(rng.choice(window, size=length, replace=False))
        ts.append(bucket * window + offsets)
        kind = draw(st.sampled_from(["mixed", "pool", "all_nan"]))
        if kind == "all_nan":
            vs.append(np.full(length, np.nan))
        else:
            values = rng.choice(pool, size=length)
            if kind == "mixed":
                noise = rng.normal(0.0, 10.0 ** rng.integers(-3, 9), size=length)
                values = np.where(rng.random(length) < 0.5, noise, values)
            vs.append(values)
    return np.concatenate(ts).astype(np.int64), np.concatenate(vs), window


class TestWindowKernel:
    """``downsample`` (the segmented kernel with one key) against one
    ``np.nan*`` call per window, byte for byte."""

    @settings(max_examples=150, deadline=None)
    @given(windowed_series())
    def test_downsample_matches_per_window_reference_bytes(self, case):
        ts, vs, window = case
        s = Series((("unit", "u0"),), ts, vs)
        for aggregator in NAN_REDUCERS:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                out = downsample(s, window, aggregator)
            starts, expected = reference_downsample(ts, vs, window, aggregator)
            assert out.tags == s.tags
            assert out.timestamps.tobytes() == starts.tobytes()
            assert out.values.tobytes() == expected.tobytes(), aggregator

    @settings(max_examples=40, deadline=None)
    @given(st.lists(windowed_series(), min_size=2, max_size=4), st.integers(1, 400))
    def test_many_keys_in_one_pass_equal_downsample_per_key(self, cases, window):
        """One call over several keys cuts at every key change, even
        where the next key starts in the same bucket."""
        keys = np.repeat(np.arange(len(cases)), [len(ts) for ts, _, _ in cases])
        ts = np.concatenate([ts for ts, _, _ in cases])
        vs = np.concatenate([vs for _, vs, _ in cases])
        first, starts, columns = reduce_windows(keys, ts, vs, window, list(NAN_REDUCERS))
        for key, (kts, kvs, _) in enumerate(cases):
            mine = keys[first] == key
            for aggregator, column in zip(NAN_REDUCERS, columns):
                expected = downsample(Series((), kts, kvs), window, aggregator)
                assert starts[mine].tobytes() == expected.timestamps.tobytes()
                assert column[mine].tobytes() == expected.values.tobytes(), aggregator


class TestRate:
    def test_first_difference(self):
        s = series([0, 10, 20], [0.0, 50.0, 150.0])
        out = rate(s)
        assert list(out.timestamps) == [10, 20]
        assert list(out.values) == [5.0, 10.0]

    def test_counter_wrap(self):
        s = series([0, 1], [10.0, 5.0])
        plain = rate(s)
        assert plain.values[0] == -5.0
        wrapped = rate(s, counter=True, max_value=16.0)
        assert wrapped.values[0] == 11.0

    def test_too_short(self):
        assert len(rate(series([0], [1.0]))) == 0


class TestAggregationProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.tuples(st.integers(0, 50), st.floats(-100, 100)),
                min_size=1, max_size=20,
            ),
            min_size=1, max_size=5,
        )
    )
    def test_sum_equals_pointwise_reference(self, raw):
        built = []
        for points in raw:
            dedup = sorted({t: v for t, v in points}.items())
            built.append(series([t for t, _ in dedup], [v for _, v in dedup]))
        out = aggregate(built, "sum") if len(built) > 1 else built[0]
        # reference: dict accumulation
        ref = {}
        for s in built:
            for t, v in zip(s.timestamps, s.values):
                ref[int(t)] = ref.get(int(t), 0.0) + v
        assert list(out.timestamps) == sorted(ref)
        for t, v in zip(out.timestamps, out.values):
            assert v == pytest.approx(ref[int(t)])

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 200), st.floats(-50, 50)),
                 min_size=1, max_size=40),
        st.integers(min_value=1, max_value=60),
    )
    def test_downsample_conserves_sum(self, points, window):
        dedup = sorted({t: v for t, v in points}.items())
        s = series([t for t, _ in dedup], [v for _, v in dedup])
        out = downsample(s, window, "sum")
        assert float(np.sum(out.values)) == pytest.approx(float(np.sum(s.values)))
