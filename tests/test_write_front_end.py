"""The two encoders against a reference composed from public pieces.

``TSDaemon.encode_point`` and ``TSDaemon.encode_block`` share one
per-series memo (DESIGN §18).  Whatever that memo remembers, a cell
must be bit for bit what a fresh :class:`UniqueIdRegistry` and
``RowKeyCodec.encode_rowkeys`` make of the same sample: same row,
qualifier and value bytes, write timestamps in draw order, and the
same UID for every name.  The sequences walk the memo through what it
has to survive: hour crossings, late writes that step back an hour and
forward again, duplicates, the last second a row key can hold, and
timestamps past it.
"""

from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.engine import data_blocks
from repro.hbase.bytescodec import encode_f64
from repro.hbase.region import Cell, CellBatch
from repro.tsdb import BlockBatch, DataPoint, SeriesBlock, TsdbQuery, build_cluster
from repro.tsdb.blocks import blocks_from_points
from repro.tsdb.rowkey import RowKeyCodec
from repro.simdata.workload import METRIC, sensor_tag, unit_tag
from repro.tsdb.uid import UniqueIdRegistry

LAST = 2**32 - 1  # the largest timestamp a row key holds
LAST_BASE = LAST - LAST % 3600  # its row hour is partial: 1,696 seconds

# Names recur across kinds and series on purpose ("u0" is a unit, a
# sensor and a metric), so a UID handed out in the wrong order shows.
SERIES = [
    ("energy", (("sensor", "s0"), ("unit", "u0"))),
    ("energy", (("sensor", "s1"), ("unit", "u0"))),
    ("energy", (("sensor", "u0"), ("site", "a"), ("unit", "u1"))),
    ("u0", (("unit", "energy"),)),
]

timestamps = st.one_of(
    st.integers(0, 3 * 3600),
    st.builds(  # either side of an hour boundary
        lambda hour, offset: hour * 3600 + offset,
        st.integers(0, 3), st.sampled_from([0, 1, 3598, 3599]),
    ),
    st.sampled_from([LAST, LAST - 1, LAST_BASE, LAST_BASE - 1]),
)
values = st.floats(allow_nan=False, allow_infinity=False)


def make_points(rows):
    return [DataPoint(SERIES[s][0], t, v, SERIES[s][1]) for s, t, v in rows]


point_lists = st.lists(
    st.tuples(st.integers(0, len(SERIES) - 1), timestamps, values), min_size=1, max_size=40
).map(make_points)


class Reference:
    """A registry and a codec nobody else has touched, used point by point."""

    def __init__(self, salt_buckets):
        self.uids = UniqueIdRegistry()
        self.codec = RowKeyCodec(salt_buckets)
        self.write_ts = 0.0

    def cell(self, metric, tags, timestamp, value):
        metric_uid = self.uids.get_or_create("metric", metric)
        tag_pairs = self.uids.encode_tags(dict(tags))
        (row,), (qualifier,) = self.codec.encode_rowkeys(metric_uid, [timestamp], tag_pairs)
        self.write_ts += 1.0
        return Cell(row, qualifier, encode_f64(value), self.write_ts)

    def cells(self, points):
        return [self.cell(p.metric, p.tags, p.timestamp, p.value) for p in points]


def same_uids(got, want):
    return all(
        list(got.names(kind)) == list(want.names(kind))
        and all(got.get(kind, name) == want.get(kind, name) for name in want.names(kind))
        for kind in ("metric", "tagk", "tagv")
    )


@settings(max_examples=150, deadline=None)
@given(point_lists, st.sampled_from([0, 4]), st.booleans())
def test_both_encoders_equal_the_reference_on_one_cluster(points, salt_buckets, blocks_first):
    """One cluster, one memo, both encoders, in either order."""
    cluster = build_cluster(n_nodes=2, salt_buckets=salt_buckets)
    tsd_a, tsd_b = cluster.tsds  # the memo is shared by every TSD of the cluster
    blocks = blocks_from_points(points)
    reference = Reference(salt_buckets)

    def by_point():
        assert [tsd_a.encode_point(p) for p in points] == reference.cells(points)

    def by_block():
        for block in blocks:
            assert list(tsd_b.encode_block(block)) == reference.cells(block.iter_points())

    def by_point_list():  # the bulk form of by_point: a batch, no Cell built
        assert list(tsd_b.encode_points(points)) == reference.cells(points)

    for encode in (by_block, by_point_list, by_point) if blocks_first else (
        by_point, by_point_list, by_block
    ):
        encode()
        assert same_uids(cluster.uids, reference.uids)
    # Every write timestamp was drawn from the one clock, one per cell.
    assert cluster.next_write_ts() == 3 * len(points) + 1


@settings(max_examples=100, deadline=None)
@given(
    point_lists,
    st.integers(0, len(SERIES) - 1),
    st.sampled_from([2**32, 2**32 + 1, LAST_BASE + 3599, 2**40, -1, -3600]),
    st.sampled_from([0, 4]),
)
def test_a_timestamp_the_row_key_cannot_hold_raises_and_poisons_nothing(
    warm_up, series, bad_ts, salt_buckets
):
    """``2**32`` shares a row hour with ``2**32 - 1``: a memo hit on that
    hour must not wave it through."""
    cluster = build_cluster(n_nodes=1, salt_buckets=salt_buckets)
    tsd = cluster.tsds[0]
    reference = Reference(salt_buckets)
    metric, tags = SERIES[series]
    # Leave the series' memo entry on the last, partial hour.
    warm_up = warm_up + [DataPoint(metric, LAST, 1.0, tags)]
    assert [tsd.encode_point(p) for p in warm_up] == reference.cells(warm_up)

    drawn = cluster.next_write_ts()
    with pytest.raises(ValueError):
        tsd.encode_point(DataPoint(metric, bad_ts, 2.0, tags))
    with pytest.raises(ValueError):
        tsd.encode_block(SeriesBlock.from_columns(metric, tags, [LAST, bad_ts], [3.0, 4.0]))
    with pytest.raises(ValueError):
        tsd.encode_points([DataPoint(metric, LAST, 3.0, tags), DataPoint(metric, bad_ts, 4.0, tags)])
    assert cluster.next_write_ts() == drawn + 1  # the failures drew nothing
    reference.write_ts += 2.0  # the two draws just above

    after = [DataPoint(metric, LAST, 5.0, tags), DataPoint(metric, 7, 6.0, tags)]
    assert [tsd.encode_point(p) for p in after] == reference.cells(after)
    assert same_uids(cluster.uids, reference.uids)


def make_block(spec):
    series, samples = spec
    metric, tags = SERIES[series]
    return SeriesBlock.from_columns(metric, tags, [t for t, _ in samples], [v for _, v in samples])


# Up to eight samples a block: across hours, with duplicates (the
# timestamp strategy repeats itself), and on the last, partial hour.
block_lists = st.lists(
    st.tuples(
        st.integers(0, len(SERIES) - 1),
        st.lists(st.tuples(timestamps, values), min_size=1, max_size=8),
    ),
    max_size=8,
).map(lambda specs: [make_block(spec) for spec in specs])

STEPS_BACK = [  # one series: across two hours, back an hour, duplicates, the last hour
    make_block((0, [(3599, 1.0), (3600, 2.0), (7200, 3.0)])),
    make_block((0, [(5, 4.0), (5, 5.0), (3600, 6.0)])),
    make_block((0, [(LAST_BASE, 7.0), (LAST, 8.0), (LAST, 9.0)])),
    make_block((0, [(3601, 10.0)])),
]


def block_cells(reference, blocks):
    return [cell for block in blocks for cell in reference.cells(block.iter_points())]


@settings(max_examples=150, deadline=None)
@given(block_lists, st.sampled_from([0, 4]), st.integers(0, 8))
@example(STEPS_BACK, 4, 2)
def test_a_block_batch_encodes_to_every_blocks_reference_cells_in_order(blocks, salt_buckets, cut):
    """One ``encode_block`` of a whole batch is the blocks' cells back to
    back; split into two batches, the second finds the series' rows where
    the first left them."""
    cluster = build_cluster(n_nodes=1, salt_buckets=salt_buckets)
    tsd = cluster.tsds[0]
    reference = Reference(salt_buckets)
    for batch in (blocks[:cut], blocks[cut:]):
        assert list(tsd.encode_block(BlockBatch(batch))) == block_cells(reference, batch)
    assert same_uids(cluster.uids, reference.uids)
    assert cluster.next_write_ts() == sum(map(len, blocks)) + 1


BAD_SERIES = SERIES + [("fresh", (("unit", "never-seen"),))]


def memo_state(cluster):
    memo = cluster.uids.series_memo(cluster.codec)
    rows = {series: (key.base, key.row) for series, key in memo.items()}
    names = {kind: list(cluster.uids.names(kind)) for kind in ("metric", "tagk", "tagv")}
    return rows, names


# Groups of blocks, each group's blocks on one timestamp column (sorted,
# duplicates allowed), the way a record's sensors share one.
column_groups = st.lists(
    st.tuples(
        st.lists(timestamps, min_size=1, max_size=8).map(sorted),
        st.lists(st.tuples(st.integers(0, len(SERIES) - 1), values), min_size=1, max_size=4),
    ),
    min_size=1,
    max_size=5,
)


def column_blocks(groups, shared):
    """Each group's blocks on its one column (``shared``) or on copies of it."""
    blocks = []
    for stamps, members in groups:
        column = array("q", stamps)
        for series, value in members:
            metric, tags = SERIES[series]
            ts = column if shared else array("q", column)
            blocks.append(SeriesBlock(metric, tags, ts, array("d", [value] * len(ts))))
    return blocks


@settings(max_examples=100, deadline=None)
@given(column_groups, st.sampled_from([0, 4]), st.integers(0, 20))
def test_blocks_sharing_a_timestamp_column_encode_as_blocks_holding_copies(
    groups, salt_buckets, cut
):
    """``encode_block`` finds a column's row-hour runs once for the
    blocks after it that share it; the cells, write timestamps included,
    and the series memo come out as when every block holds its own copy,
    and as when each block is encoded alone."""
    outcomes = []
    for shared, alone in ((True, False), (False, False), (False, True)):
        cluster = build_cluster(n_nodes=1, salt_buckets=salt_buckets)
        tsd = cluster.tsds[0]
        blocks = column_blocks(groups, shared)
        if alone:
            parts = [tsd.encode_block(block) for block in blocks]
        else:
            parts = [tsd.encode_block(BlockBatch(part)) for part in (blocks[:cut], blocks[cut:])]
        outcomes.append((CellBatch.concat(parts), memo_state(cluster), cluster.next_write_ts()))
    assert outcomes[0] == outcomes[1] == outcomes[2]


@settings(max_examples=100, deadline=None)
@given(
    block_lists,
    block_lists,
    st.integers(0, 8),
    st.integers(0, len(BAD_SERIES) - 1),
    st.sampled_from([2**32, 2**32 + 1, LAST_BASE + 3599, 2**40, -1, -3600]),
    st.sampled_from([0, 4]),
)
def test_a_batch_with_one_bad_block_anywhere_raises_and_touches_nothing(
    warm_up, blocks, where, bad_series, bad_ts, salt_buckets
):
    """The range check covers the whole batch before the first cell: no
    write timestamp is drawn and no series is interned or moved to
    another row, whichever block is bad."""
    cluster = build_cluster(n_nodes=1, salt_buckets=salt_buckets)
    tsd = cluster.tsds[0]
    reference = Reference(salt_buckets)
    assert list(tsd.encode_block(BlockBatch(warm_up))) == block_cells(reference, warm_up)
    before, drawn = memo_state(cluster), cluster.next_write_ts()

    metric, tags = BAD_SERIES[bad_series]
    bad = SeriesBlock.from_columns(metric, tags, [LAST, bad_ts], [1.0, 2.0])
    with pytest.raises(ValueError):
        tsd.encode_block(BlockBatch(blocks[:where] + [bad] + blocks[where:]))
    assert cluster.next_write_ts() == drawn + 1  # the failure drew nothing
    assert memo_state(cluster) == before
    reference.write_ts += 2.0  # the two draws just above

    assert list(tsd.encode_block(BlockBatch(blocks))) == block_cells(reference, blocks)
    assert same_uids(cluster.uids, reference.uids)


read_back_points = st.lists(
    st.tuples(st.integers(0, 1), st.integers(0, 3 * 3600 - 1), values), min_size=2, max_size=30
).map(make_points)


@settings(max_examples=40, deadline=None)
@given(read_back_points, st.data())
def test_point_list_and_block_batch_read_back_the_same_across_a_tsd_restart(points, data):
    """``direct_put(points)`` and ``direct_put(BlockBatch.from_points(points))``
    in two halves with the encoding TSD crashed and restarted between
    them: the memo outlives the daemon, and what it hands back after the
    restart still lands every point where a reader finds it."""
    cut = data.draw(st.integers(1, len(points) - 1))
    answers = []
    for shape in (list, BlockBatch.from_points):
        cluster = build_cluster(n_nodes=2, salt_buckets=4, retain_data=True)
        assert cluster.direct_put(shape(points[:cut])) == cut
        cluster.tsds[0].crash()
        cluster.tsds[0].restart()
        assert cluster.direct_put(shape(points[cut:])) == len(points) - cut
        series = cluster.query_engine().run(
            TsdbQuery("energy", 0, 3 * 3600, group_by=("sensor", "unit"))
        )
        answers.append(
            {s.tags: (s.timestamps.tolist(), s.values.tolist()) for s in series}
        )
    by_list, by_batch = answers
    assert by_list == by_batch
    # Newest write wins, and in both shapes the later arrival is the newer write.
    oracle = {}
    for p in points:
        oracle.setdefault(p.tags, {})[p.timestamp] = p.value
    assert by_list == {
        tags: (sorted(cells), [cells[t] for t in sorted(cells)])
        for tags, cells in oracle.items()
    }


# ----------------------------------------------------------------------
# a detector record's write-back: one block of all its sensors
# ----------------------------------------------------------------------
records = st.lists(
    st.tuples(
        st.integers(0, 1),  # unit
        st.integers(1, 64),  # sensors
        st.integers(1, 30),  # rows
        # up to 29 s before an hour boundary: most records cross it
        st.builds(lambda hour, back: hour * 3600 - back, st.integers(1, 3), st.integers(0, 29)),
        st.integers(0, 2**32 - 1),  # the values' seed
    ),
    min_size=1,
    max_size=3,
)


def record_values(n_sensors, n_rows, seed):
    return np.random.default_rng(seed).normal(size=(n_rows, n_sensors))


def record_batches(recs):
    """The records as one block each, and as one block per sensor (the
    write-back's shape before a record travelled as one block)."""
    wide, narrow = [], []
    for unit, n_sensors, n_rows, start, seed in recs:
        values = record_values(n_sensors, n_rows, seed)
        wide.append(data_blocks(unit, start, values))
        stamps = range(start, start + n_rows)
        narrow += [
            SeriesBlock.from_columns(
                METRIC, {"unit": unit_tag(unit), "sensor": sensor_tag(s)}, stamps, values[:, s]
            )
            for s in range(n_sensors)
        ]
    return BlockBatch(wide), BlockBatch(narrow)


def cell_columns(cells):
    return cells.rows, cells.qualifiers, cells.values, list(cells.ts), cells.run_starts()


@settings(max_examples=60, deadline=None)
@given(records, st.sampled_from([0, 4]))
def test_a_record_block_encodes_as_its_per_sensor_blocks(recs, salt_buckets):
    """Rows, qualifiers, values, write timestamps and runs come out as
    the per-sensor blocks' did, and the series memo and the clock are
    left where those left them."""
    outcomes = []
    for batch in record_batches(recs):
        cluster = build_cluster(n_nodes=1, salt_buckets=salt_buckets)
        cells = cluster.tsds[0].encode_block(batch)
        outcomes.append((cell_columns(cells), memo_state(cluster), cluster.next_write_ts()))
    assert outcomes[0] == outcomes[1]


@settings(max_examples=60, deadline=None)
@given(records, st.data())
def test_a_record_batch_slices_as_its_per_sensor_blocks(recs, data):
    """Chunked at the stream's 400 points, the pipeline's 500, at 37 or
    at any size, and cut anywhere at all, record blocks hold the same
    points in the same order as per-sensor blocks, and count the same
    series (what the TSD prices)."""
    wide, narrow = record_batches(recs)
    total = len(narrow)
    assert len(wide) == total
    assert wide.n_series == len(narrow.blocks)
    cuts = (400, 500, 37, data.draw(st.integers(1, total), label="cut"))
    bounds = [(lo, lo + cut) for cut in cuts for lo in range(0, total, cut)]
    bounds.append(tuple(sorted(data.draw(st.lists(st.integers(0, total), min_size=2, max_size=2)))))
    for lo, hi in bounds:
        got, want = wide[lo:hi], narrow[lo:hi]
        assert list(got) == list(want)
        assert got.n_series == want.n_series == len(want.blocks)


@settings(max_examples=150, deadline=None)
@given(block_lists, records, st.sampled_from([0, 4]))
@example(STEPS_BACK, [(0, 1, 1, 3600, 0)], 4)
def test_an_encoded_batch_keeps_the_run_starts_it_would_find(blocks, recs, salt_buckets):
    """``encode_block`` hands its batch over with the runs it emitted as
    its run starts: they equal a fresh look, including where one series'
    blocks follow each other within an hour and so share a run."""
    record_blocks, _ = record_batches(recs)
    tsd = build_cluster(n_nodes=1, salt_buckets=salt_buckets).tsds[0]
    for payload in (BlockBatch(blocks), BlockBatch(blocks + list(record_blocks.blocks))):
        cells = tsd.encode_block(payload)
        fresh = CellBatch(list(cells.rows), cells.qualifiers, cells.values, cells.ts)
        assert cells.run_starts() == fresh.run_starts()
