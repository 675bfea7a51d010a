"""Property tests for the columnar SeriesBlock layer.

Three invariant families behind the block redesign:

* point <-> block round trips are lossless (the compatibility shims
  really are shims — no data reshaping hides in them);
* batch slicing selects exactly the points a point-list slice would;
* the columnar scan assembler and aggregation over block-backed Series
  are *bit-identical* to :func:`run_pointwise`, a per-cell read oracle,
  on random workloads and random queries — including the tag-filter
  push-down, which the oracle does not use: it scans unfiltered and
  matches tags after the fact.
"""

from array import array

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import data_blocks
from repro.simdata.workload import METRIC, sensor_tag, unit_tag
from repro.tsdb.aggregation import Series
from repro.tsdb.blocks import BlockBatch, SeriesBlock, WriteSpans, blocks_from_points, series_spans
from repro.hbase.bytescodec import decode_f64
from repro.hbase.region import CellBatch
from repro.lifecycle import LifecyclePolicy
from repro.tsdb.compaction import decompact_columns, is_compacted
from repro.tsdb.ingest import build_cluster
from repro.tsdb.query import TsdbQuery, group_and_aggregate
from repro.tsdb.tsd import DATA_TABLE, DataPoint
from repro.tsdb.uid import UnknownUidError

point_strategy = st.tuples(
    st.integers(min_value=0, max_value=2),      # unit
    st.integers(min_value=0, max_value=2),      # sensor
    st.integers(min_value=0, max_value=7500),   # timestamp (spans 3 hours)
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)

# two series crowded around an hour boundary: rows that hold many cells
dense_point_strategy = st.tuples(
    st.integers(min_value=0, max_value=1),
    st.just(0),
    st.integers(min_value=3585, max_value=3615),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)

# one series' worth of (timestamp, value) samples, unique timestamps
series_samples = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=10_000),
        st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
    ),
    min_size=1,
    max_size=50,
    unique_by=lambda tv: tv[0],
)


def make_points(raw):
    return [
        DataPoint.make("energy", t, v, {"unit": f"u{u}", "sensor": f"s{s}"})
        for u, s, t, v in raw
    ]


class TestRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(point_strategy, min_size=1, max_size=60))
    def test_point_block_point_preserves_every_sample(self, raw):
        points = make_points(raw)
        batch = BlockBatch.from_points(points)
        assert len(batch) == len(points)
        # per-series multisets survive exactly (block construction may
        # reorder timestamps within a series, never across series)
        by_series = {}
        for p in points:
            by_series.setdefault((p.metric, p.tags), []).append((p.timestamp, p.value))
        round_tripped = {}
        for p in batch:
            round_tripped.setdefault((p.metric, p.tags), []).append(
                (p.timestamp, p.value)
            )
        assert set(round_tripped) == set(by_series)
        for key, samples in by_series.items():
            assert sorted(round_tripped[key]) == sorted(samples)

    @settings(max_examples=50, deadline=None)
    @given(series_samples)
    def test_series_points_construction_equals_block_construction(self, samples):
        points = [
            DataPoint.make("energy", t, v, {"unit": "u0"}) for t, v in samples
        ]
        block = SeriesBlock.from_points(points)
        blocked = Series(block.tags, block.timestamps, block.values)
        ordered = sorted(samples)
        columnar = Series(
            blocked.tags, [t for t, _ in ordered], [v for _, v in ordered]
        )
        assert blocked.tags == (("unit", "u0"),)
        assert blocked.timestamps.tobytes() == columnar.timestamps.tobytes()
        assert blocked.values.tobytes() == columnar.values.tobytes()

    @settings(max_examples=50, deadline=None)
    @given(series_samples)
    def test_iter_points_round_trip_identity(self, samples):
        points = [
            DataPoint.make("energy", t, v, {"unit": "u0", "sensor": "s1"})
            for t, v in samples
        ]
        block = SeriesBlock.from_points(points)
        again = SeriesBlock.from_points(list(block.iter_points()))
        assert again.timestamps.tobytes() == block.timestamps.tobytes()
        assert again.values.tobytes() == block.values.tobytes()
        assert again.tags == block.tags and again.metric == block.metric


class TestBlockAlgebra:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(point_strategy, min_size=1, max_size=60))
    def test_batch_slicing_matches_point_list_slicing(self, raw):
        points = make_points(raw)
        batch = BlockBatch.from_points(points)
        flat = list(batch)
        for lo in (0, len(points) // 2, max(len(points) - 1, 0)):
            for hi in (lo, lo + 1, len(points)):
                sub = batch[lo:hi]
                assert [(p.timestamp, p.value) for p in sub] == [
                    (p.timestamp, p.value) for p in flat[lo:hi]
                ]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=120))
    def test_slicing_many_small_blocks_on_and_beside_block_edges(self, sizes):
        blocks = [
            SeriesBlock.from_columns(
                "energy", {"unit": f"u{k}"}, range(n), [float(k)] * n
            )
            for k, n in enumerate(sizes)
        ]
        batch = BlockBatch(blocks)
        flat = [(p.tags, p.timestamp, p.value) for p in batch]
        edges = [0]
        for n in sizes:
            edges.append(edges[-1] + n)
        bounds = sorted({b for e in edges for b in (e - 1, e, e + 1) if 0 <= b <= len(flat)})
        for lo in bounds:
            for hi in bounds:
                sub = batch[lo:hi]
                assert len(sub) == len(flat[lo:hi])
                assert [(p.tags, p.timestamp, p.value) for p in sub] == flat[lo:hi]
                # blocks wholly inside the slice are kept, not copied;
                # only the two edge blocks may be cut
                whole = [
                    blocks[k]
                    for k in range(len(blocks))
                    if lo <= edges[k] and edges[k + 1] <= hi
                ]
                kept = {id(b) for b in sub.blocks}
                assert all(id(b) in kept for b in whole)
                assert len(sub.blocks) <= len(whole) + 2

def tag_value(prefix):
    """Exact (stored), wildcard, or a value no series carries."""
    return st.sampled_from([f"{prefix}0", f"{prefix}1", f"{prefix}2", "*", f"{prefix}9"])


# any subset of the series' tags, optionally with a key no series has
tag_filter_strategy = st.fixed_dictionaries(
    {},
    optional={
        "unit": tag_value("u"),
        "sensor": tag_value("s"),
        "site": st.sampled_from(["*", "x"]),
    },
)

query_strategy = st.builds(
    lambda start, span, tag_filters, group, agg, window, use_rate: TsdbQuery(
        "energy",
        start,
        start + span,
        tag_filters=tag_filters,
        group_by=group,
        aggregator=agg,
        downsample_window=window,
        rate=use_rate,
    ),
    start=st.integers(min_value=0, max_value=7000),
    span=st.integers(min_value=100, max_value=8000),
    tag_filters=tag_filter_strategy,
    group=st.sampled_from([(), ("unit",), ("unit", "sensor")]),
    agg=st.sampled_from(["avg", "sum", "max", "min"]),
    window=st.one_of(st.none(), st.sampled_from([60, 300])),
    use_rate=st.booleans(),
)


def assert_bit_identical(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.tags == b.tags
        assert a.timestamps.tobytes() == b.timestamps.tobytes()
        assert a.values.tobytes() == b.values.tobytes()


def run_pointwise(engine, query):
    """The per-cell read oracle: what every read path must answer, bit for bit.

    Each salt bucket's range is scanned unfiltered and every cell is
    decided on its own, into a dict per series of ``timestamp ->
    (value, rank)`` where a newer-or-equal rank wins.  A blob never
    shadows a point cell: compaction leaves the cells it merged in
    place, so blob values rank below every point cell and, among blobs,
    by write ts.  Tags are matched after the scan.
    """
    try:
        metric_uid = engine.uids.get("metric", query.metric)
    except UnknownUidError:
        return []
    codec = engine.codec
    points = {}  # tag pairs -> {timestamp: (value, (is a point, write ts))}

    def keep(tag_pairs, timestamp, value, rank):
        if query.start <= timestamp < query.end:
            series = points.setdefault(tag_pairs, {})
            if timestamp not in series or rank >= series[timestamp][1]:
                series[timestamp] = (value, rank)

    for lo, hi in codec.scan_ranges(metric_uid, query.start, query.end):
        cells = list(engine.master.direct_scan(DATA_TABLE, lo, hi))
        for cell in [c for c in cells if is_compacted(c.qualifier)]:
            key = codec.decode(cell.row, b"\x00\x00")
            for offset, value in zip(*decompact_columns(cell.qualifier, cell.value)):
                keep(key.tag_pairs, key.base_time + offset, value, (False, cell.ts))
        for cell in [c for c in cells if not is_compacted(c.qualifier)]:
            key = codec.decode(cell.row, cell.qualifier)
            keep(key.tag_pairs, key.timestamp, decode_f64(cell.value), (True, cell.ts))
    raw = []
    for tag_pairs, series in points.items():
        tags = engine.uids.decode_tags(tag_pairs)
        if all(
            key in tags and expected in ("*", tags[key])
            for key, expected in query.tag_filters.items()
        ):
            times = sorted(series)
            raw.append(
                Series(
                    tuple(sorted(tags.items())),
                    np.array(times, dtype=np.int64),
                    np.array([series[t][0] for t in times]),
                )
            )
    raw.sort(key=lambda s: s.tags)
    return group_and_aggregate(query, raw)


def reshape_storage(cluster, shape):
    """Move what is stored into another physical form the scan must cope with."""
    if shape == "flush":  # memstore -> one more store file per region
        for server in cluster.servers:
            for region in server.hosted_regions():
                region.flush()
    elif shape == "row_compact":  # point cells -> one blob per row
        cluster.compactor().run()
    elif shape == "tombstone":  # mask the metric's second hour
        metric_uid = cluster.uids.get("metric", "energy")
        ts = cluster.next_write_ts()
        for lo, hi in cluster.codec.scan_ranges(metric_uid, 3600, 7200):
            cluster.master.direct_delete_range(DATA_TABLE, lo, hi, ts)


def load_in_two_shapes(cluster, raw, shapes):
    """Half the points, reshape, the rest (late duplicates included), reshape."""
    points = make_points(raw)
    half = len(points) // 2
    for chunk, shape in zip((points[:half], points[half:]), shapes):
        cluster.direct_put(chunk)
        reshape_storage(cluster, shape)


# window-aligned (min,min)/(max,max) queries: the ones a rollup tier can serve
tier_query_strategy = st.builds(
    lambda start, span, tag_filters, group, agg: TsdbQuery(
        "energy",
        60 * start,
        60 * (start + span),
        tag_filters=tag_filters,
        group_by=group,
        aggregator=agg,
        downsample_window=60,
        downsample_aggregator=agg,
    ),
    start=st.integers(min_value=0, max_value=100),
    span=st.integers(min_value=1, max_value=120),
    tag_filters=tag_filter_strategy,
    group=st.sampled_from([(), ("unit",), ("unit", "sensor")]),
    agg=st.sampled_from(["min", "max"]),
)

storage_shapes = st.tuples(
    *[st.sampled_from(["memstore", "flush", "row_compact", "tombstone"])] * 2
)


class TestAggregationBitIdentity:
    @settings(max_examples=15, deadline=None)
    @given(st.lists(point_strategy, min_size=1, max_size=80), query_strategy)
    def test_block_read_path_bit_identical_to_pointwise(self, raw, query):
        cluster = build_cluster(n_nodes=2, salt_buckets=4, retain_data=True)
        cluster.direct_put(make_points(raw))
        engine = cluster.query_engine()
        assert_bit_identical(engine.run(query), run_pointwise(engine, query))

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([0, 4, None]),  # unsalted, 4 buckets, the default 128
        st.lists(point_strategy, min_size=2, max_size=80),
        storage_shapes,
        st.lists(query_strategy, min_size=1, max_size=4),
    )
    def test_tag_pushdown_identical_over_every_storage_shape(
        self, salt_buckets, raw, shapes, queries
    ):
        """run (filter inside the scan) == the oracle (filter after it)."""
        cluster = build_cluster(n_nodes=2, salt_buckets=salt_buckets, retain_data=True)
        load_in_two_shapes(cluster, raw, shapes)
        engine, gateway = cluster.query_engine(), cluster.gateway()
        for query in queries:
            expected = run_pointwise(engine, query)
            assert_bit_identical(engine.run(query), expected)
            assert_bit_identical(engine.run_available(query).series, expected)
            assert_bit_identical(gateway.serve(query).series, expected)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(dense_point_strategy, min_size=2, max_size=60),
        st.lists(dense_point_strategy, min_size=1, max_size=20),
        st.booleans(),
        st.data(),
    )
    def test_window_cutting_a_compacted_row_that_has_newer_point_cells(
        self, raw, newer, compact_again, data
    ):
        """A blob and point cells written after it share a row (the
        point loop), and the window takes a slice out of both."""
        cluster = build_cluster(n_nodes=2, salt_buckets=4, retain_data=True)
        cluster.direct_put(make_points(raw))
        cluster.compactor().run()
        half = len(newer) // 2
        cluster.direct_put(make_points(newer[:half]))
        if compact_again:  # a second, newer blob beside the first
            cluster.compactor().run()
        cluster.direct_put(make_points(newer[half:]))
        engine, gateway = cluster.query_engine(), cluster.gateway()
        # Window edges on, or one second past, a stored sample: each end
        # cuts a row between two of its cells (the bisected slice).
        stored = st.sampled_from(sorted({t for _u, _s, t, _v in raw + newer}))
        edge = st.builds(int.__add__, stored, st.integers(0, 1))
        for _ in range(3):
            start, end = sorted(data.draw(st.tuples(edge, edge)))
            query = TsdbQuery(
                "energy",
                start,
                max(end, start + 1),
                tag_filters=data.draw(tag_filter_strategy),
                group_by=data.draw(st.sampled_from([(), ("unit", "sensor")])),
                aggregator="sum",
            )
            expected = run_pointwise(engine, query)
            assert_bit_identical(engine.run(query), expected)
            assert_bit_identical(engine.run_available(query).series, expected)
            assert_bit_identical(gateway.serve(query).series, expected)

    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(point_strategy, min_size=2, max_size=80),
        st.tuples(*[st.sampled_from(["memstore", "flush", "row_compact"])] * 2),
        st.lists(st.one_of(query_strategy, tier_query_strategy), min_size=1, max_size=4),
    )
    def test_tag_pushdown_identical_through_a_lifecycle_routed_engine(
        self, raw, shapes, queries
    ):
        cluster = build_cluster(
            n_nodes=2, salt_buckets=4, retain_data=True, lifecycle=LifecyclePolicy()
        )
        load_in_two_shapes(cluster, raw, shapes)
        cluster.lifecycle.run_maintenance()
        engine = cluster.query_engine()
        assert engine.lifecycle is not None
        for query in queries:
            assert_bit_identical(engine.run(query), run_pointwise(engine, query))

    @settings(max_examples=25, deadline=None)
    @given(st.lists(point_strategy, min_size=1, max_size=80), query_strategy)
    def test_group_and_aggregate_identical_over_block_backed_series(
        self, raw, query
    ):
        """A Series cut from a block's columns aggregates as one rebuilt from its points."""
        # Series (either construction) rejects duplicate timestamps —
        # deduplication is the store's job; keep last-write-wins here.
        deduped = {(u, s, t): (u, s, t, v) for u, s, t, v in raw}
        points = make_points(deduped.values())
        blocks = blocks_from_points(points)
        def from_columns(block):
            return Series(block.tags, block.timestamps, block.values)

        columnar = sorted(map(from_columns, blocks), key=lambda s: s.tags)
        legacy = sorted(
            (
                from_columns(SeriesBlock.from_points(list(b.iter_points())))
                for b in blocks
            ),
            key=lambda s: s.tags,
        )
        out_columnar = group_and_aggregate(query, columnar)
        out_legacy = group_and_aggregate(query, legacy)
        assert len(out_columnar) == len(out_legacy)
        for a, b in zip(out_columnar, out_legacy):
            assert a.tags == b.tags
            assert a.timestamps.tobytes() == b.timestamps.tobytes()
            assert a.values.tobytes() == b.values.tobytes()


class TestNewestWinsAcrossSeries:
    """Where two series meet in the assembler's (series, timestamp)-sorted
    columns on an equal ``(timestamp, write_ts)`` pair, each keeps its own
    last point: the newest-wins cut breaks on a series change as well as
    on a timestamp change."""

    A = {"unit": "u0", "sensor": "s0"}
    B = {"unit": "u0", "sensor": "s1"}

    @staticmethod
    def put_stamped(cluster, samples, stamp):
        """Bulk-load samples as cells that all carry write ts ``stamp``."""
        cells = cluster.tsds[0].encode_points(
            [DataPoint.make("energy", t, v, tags) for tags, t, v in samples]
        )
        stamps = array("d", [stamp] * len(cells))
        cluster.master.direct_put(
            DATA_TABLE, CellBatch(cells.rows, cells.qualifiers, cells.values, stamps)
        )

    @pytest.mark.parametrize("compact", [False, True])
    def test_each_series_keeps_its_own_point_where_their_columns_meet(self, compact):
        cluster = build_cluster(n_nodes=2, salt_buckets=4, retain_data=True)
        # A's last sample and B's first are both (t=200, write ts 10.0):
        # adjacent in the sorted columns, equal in both sort keys.
        self.put_stamped(
            cluster,
            [(self.A, 100, 1.0), (self.A, 200, 2.0), (self.B, 200, 3.0), (self.B, 300, 4.0)],
            10.0,
        )
        if compact:  # the same cells as one blob per row, still at 10.0
            cluster.compactor().run()
        engine, gateway = cluster.query_engine(), cluster.gateway()
        per_series = TsdbQuery("energy", 0, 3600, group_by=("unit", "sensor"))
        got = [(s.tag_dict["sensor"], s.timestamps.tolist(), s.values.tolist())
               for s in engine.run(per_series)]
        assert got == [("s0", [100, 200], [1.0, 2.0]), ("s1", [200, 300], [3.0, 4.0])]
        counted = TsdbQuery("energy", 0, 3600, tag_filters={"unit": "u0"}, aggregator="count")
        assert engine.run(counted)[0].values.tolist() == [1.0, 2.0, 1.0]
        for query in (per_series, counted):
            expected = run_pointwise(engine, query)
            assert_bit_identical(engine.run(query), expected)
            assert_bit_identical(engine.run_available(query).series, expected)
            assert_bit_identical(gateway.serve(query).series, expected)


def walked_spans(points, by_tags):
    """The general walk, one point at a time: what every fast path of
    ``series_spans`` must equal."""
    spans = {}
    for p in points:
        key = (p.metric, p.tags) if by_tags else p.metric
        t_min, t_max, n = spans.get(key, (p.timestamp, p.timestamp, 0))
        spans[key] = [min(t_min, p.timestamp), max(t_max, p.timestamp), n + 1]
    return spans


def metric_points(raw, metrics):
    """``make_points`` with the metric drawn from ``metrics`` by unit."""
    return [
        DataPoint.make(metrics[u % len(metrics)], ts, v, {"unit": f"u{u}", "sensor": f"s{s}"})
        for u, s, ts, v in raw
    ]


class TestSeriesSpans:
    """``series_spans`` — the one-metric fast path included — equals the
    general walk over every payload shape a write listener is handed."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(point_strategy, max_size=40),
        st.sampled_from([("energy",), ("energy", "power"), ("a", "b", "c")]),
        st.booleans(),
    )
    def test_every_shape_equals_the_general_walk(self, raw, metrics, by_tags):
        points = metric_points(raw, metrics)  # in draw order: out of time order
        expected = walked_spans(points, by_tags)
        assert series_spans(points, by_tags) == expected
        assert series_spans(iter(points), by_tags) == expected  # a generator
        assert series_spans(tuple(points), by_tags) == expected
        batch = BlockBatch.from_points(points)
        assert series_spans(batch, by_tags) == walked_spans(batch, by_tags)
        writes = WriteSpans(points)
        assert (writes.by_series(), writes.by_metric()) == (
            walked_spans(points, True), walked_spans(points, False)
        )

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 2), st.integers(1, 20), st.integers(1, 15), st.integers(0, 7200)
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_record_blocks_show_listeners_what_their_per_sensor_blocks_did(self, recs):
        """A record's one block announces, by series and by metric, the
        extents its per-sensor blocks announced: the serving cache and
        the lifecycle tier act on the same spans."""
        wide, narrow = [], []
        for unit, n_sensors, n_rows, start in recs:
            values = np.arange(n_rows * n_sensors, dtype=np.float64).reshape(n_rows, n_sensors)
            wide.append(data_blocks(unit, start, values))
            narrow += [
                SeriesBlock.from_columns(
                    METRIC, {"unit": unit_tag(unit), "sensor": sensor_tag(s)},
                    range(start, start + n_rows), values[:, s],
                )
                for s in range(n_sensors)
            ]
        got, want = WriteSpans(BlockBatch(wide)), WriteSpans(BlockBatch(narrow))
        assert got.by_series() == want.by_series() == walked_spans(BlockBatch(narrow), True)
        assert got.by_metric() == want.by_metric() == walked_spans(BlockBatch(narrow), False)

    def test_edge_payloads(self):
        late = [DataPoint("m", t, 1.0, ()) for t in (50, 10, 90, 10)]
        assert series_spans(late, by_tags=False) == {"m": [10, 90, 4]}
        assert series_spans([], by_tags=False) == {}
        assert series_spans(iter([]), by_tags=True) == {}
        assert series_spans(BlockBatch(()), by_tags=False) == {}
        mixed = late + [DataPoint("n", 70, 1.0, ())]
        assert series_spans((p for p in mixed), by_tags=False) == {"m": [10, 90, 4], "n": [70, 70, 1]}
