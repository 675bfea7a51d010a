"""Cost ratchet for the write path: per-series work is paid per series,
and the store keeps nothing per sample.

No clock is read here.  Each test wraps one piece of per-series work in
a counter and checks that the count follows the number of *series* (S),
not the number of *samples* (N): name validation in the parser, UID
interning in the TSD, row-key materialisation in the codec.  The second
half counts what the cyclic collector has to track: the objects the
store retains follow the number of *rows*, and a block ingest hardly
wakes the collector at all.  A failure means someone made the write
path pay per-point costs again — the wall-clock benchmark would say so
too, but only after ten pairs of runs; this says it in tier-1
(DESIGN §18, §20).
"""

import gc
from array import array

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import UnitEvaluation, data_blocks, flagged_cells, write_back
from repro.core.fdr import AnomalyReport, FDRDetectorConfig

from repro.hbase.master import HMaster
from repro.hbase.region import CellBatch, Region, RouteTable
from repro.hbase.regionserver import PutRequest
from repro.hbase.wal import WriteAheadLog
from repro.lifecycle import LifecyclePolicy, TierSpec
from repro.serve import gateway as serve_gateway
from repro.lifecycle import manager as lifecycle_manager
from repro.simdata.workload import sensor_tag, unit_tag
from repro.tsdb import BatchPublisher, BlockBatch, DataPoint, SeriesBlock, blocks, build_cluster, parse_block
from repro.tsdb import lineprotocol, rowkey
from repro.tsdb.tsd import DATA_TABLE, RPC_BATCH_SIZE, TSDaemon

S = 6  # series
NAMES_PER_SERIES = 5  # a metric, two tag keys, two tag values


class CountingPattern:
    """``_NAME_RE`` with its ``match`` calls counted."""

    def __init__(self, pattern):
        self.pattern = pattern
        self.calls = 0

    def match(self, text):
        self.calls += 1
        return self.pattern.match(text)


def counting(fn, counter):
    def wrapper(*args, **kwargs):
        counter.append(args)
        return fn(*args, **kwargs)

    return wrapper


def put_lines(n_ticks):
    return [
        f"put energy {t} {t + s / 10!r} unit=u{s % 2} sensor=s{s}"
        for t in range(n_ticks)
        for s in range(S)
    ]


@pytest.mark.parametrize("n_ticks", [10, 100])
def test_parser_validates_names_once_per_series(monkeypatch, n_ticks):
    pattern = CountingPattern(lineprotocol._NAME_RE)
    monkeypatch.setattr(lineprotocol, "_NAME_RE", pattern)
    batch = parse_block(put_lines(n_ticks))
    assert (len(batch.blocks), len(batch)) == (S, S * n_ticks)
    assert pattern.calls == S * NAMES_PER_SERIES  # the parent: 5 per *line*


def test_a_respelled_header_is_validated_again_but_joins_its_series(monkeypatch):
    """The parser's memo is keyed on wire text: another spelling of a
    known series costs one more validation, not one more block."""
    pattern = CountingPattern(lineprotocol._NAME_RE)
    monkeypatch.setattr(lineprotocol, "_NAME_RE", pattern)
    lines = ["put energy 1 1.0 unit=u0 sensor=s0"] * 50 + ["put energy 2 2.0 sensor=s0  unit=u0"] * 50
    batch = parse_block(lines)
    assert (len(batch.blocks), len(batch)) == (1, 100)
    assert pattern.calls == 2 * NAMES_PER_SERIES


def tick_major_points(n_ticks, cadence):
    return [
        DataPoint.make("energy", t * cadence, float(t), {"unit": f"u{s % 2}", "sensor": f"s{s}"})
        for t in range(n_ticks)
        for s in range(S)
    ]


@pytest.fixture
def counted_cluster(monkeypatch):
    """A cluster whose UID interning and salt hashing are counted.

    A row key is materialised by exactly one salt hash, so hashes count
    materialisations whichever codec entry point made them.
    """
    cluster = build_cluster(n_nodes=2, salt_buckets=4, retain_data=True)
    interned, hashed = [], []
    monkeypatch.setattr(
        cluster.uids, "get_or_create", counting(cluster.uids.get_or_create, interned)
    )
    monkeypatch.setattr(rowkey, "_key_hash", counting(rowkey._key_hash, hashed))
    return cluster, interned, hashed


@pytest.mark.parametrize("shape", [list, BlockBatch.from_points], ids=["points", "blocks"])
@pytest.mark.parametrize("n_ticks", [20, 120])
def test_direct_put_interns_a_series_once_and_materialises_a_row_once_per_hour(
    counted_cluster, shape, n_ticks
):
    cluster, interned, hashed = counted_cluster
    points = tick_major_points(n_ticks, cadence=60)
    # One batch per ten ticks, tick-major, as a soak delivers them.
    batches = [points[lo: lo + 10 * S] for lo in range(0, len(points), 10 * S)]
    for batch in batches:
        assert cluster.direct_put(shape(batch)) == len(batch)
    assert len(interned) == S * NAMES_PER_SERIES  # the parent: 5 per *point*

    def hours(batch):
        return len({p.timestamp // 3600 for p in batch})

    # A run is a series' consecutive samples within one row hour, and it
    # carries on across batches in either shape: the series memo keeps
    # the row a block's run ended on, as it keeps a point's.
    assert len(hashed) == S * hours(points)  # the parent, point path: one per *point*


def test_a_late_write_costs_two_rows_not_a_rebuilt_series(counted_cluster):
    """Stepping back an hour and forward again re-materialises the two
    rows (the memo remembers one hour per series) and interns nothing."""
    cluster, interned, hashed = counted_cluster
    tags = {"unit": "u0", "sensor": "s0"}
    stream = [DataPoint.make("energy", 3600 + t, 1.0, tags) for t in range(50)]
    late = [DataPoint.make("energy", 10, 2.0, tags)]
    cluster.direct_put(stream)
    assert (len(interned), len(hashed)) == (NAMES_PER_SERIES, 1)
    cluster.direct_put(late + stream)
    assert (len(interned), len(hashed)) == (NAMES_PER_SERIES, 3)


# ----------------------------------------------------------------------
# a put is priced by what it carries (DESIGN §17.2)
# ----------------------------------------------------------------------
def recorded_prices(servers):
    """``[(request, price)]`` of every request the servers' queues are
    handed, in arrival order."""
    seen = []
    for server in servers:
        queue = server.http_server if isinstance(server, TSDaemon) else server.rpc_server

        def submit(request, cost, *args, _submit=queue.submit, **kwargs):
            seen.append((request, cost))
            return _submit(request, cost, *args, **kwargs)

        queue.submit = submit
    return seen


def runs(request):
    """The row runs a put RPC carries, over all its region shares."""
    return sum(len(share.run_starts()) - 1 for share in request.shares.values())


def submitted(cluster, payload):
    acks = []
    cluster.submit(payload, acks.append)
    cluster.sim.run()
    assert [(ack.ok, ack.written) for ack in acks] == [(True, len(payload))]


def test_a_tick_major_point_put_costs_the_calibrated_point_price():
    """A tick-major point list whose buckets each mix several series
    (E1, E6 and E7's stream) is put as batches of one-cell runs: the
    RegionServer charges each 250 µs plus 50 µs a cell and the TSD
    200 µs plus 20 µs a point, bit for bit the prices those records
    were calibrated at."""
    cluster = build_cluster(n_nodes=2, salt_buckets=4)
    puts = recorded_prices(cluster.servers)
    batches = recorded_prices(cluster.tsds)
    points = [
        DataPoint.make("energy", t, float(s), {"unit": f"u{s % 4}", "sensor": f"s{s}"})
        for t in range(30)
        for s in range(40)
    ]
    submitted(cluster, points)
    assert puts and batches
    for request, price in puts:
        assert isinstance(request, PutRequest)
        assert runs(request) == request.n_cells
        assert price == 0.00025 + 0.00005 * request.n_cells
    for payload, price in batches:
        assert price == 0.0002 + 0.00002 * len(payload)


@st.composite
def series_points(draw):
    """Under one put's worth of points, series-major, each series'
    timestamps sorted and spread over a few row hours."""
    n_series = draw(st.integers(1, 4))
    points = []
    for s in range(n_series):
        stamps = draw(st.lists(st.integers(0, 4 * 3600), min_size=1, max_size=12, unique=True))
        tags = {"unit": "u0", "sensor": f"s{s}"}
        points += [DataPoint.make("energy", t, float(t), tags) for t in sorted(stamps)]
    assert len(points) < RPC_BATCH_SIZE
    return points


@settings(max_examples=40, deadline=None)
@given(points=series_points(), shuffle=st.randoms(use_true_random=False), shuffled=st.booleans())
def test_a_point_list_and_a_block_batch_cost_the_same_put_when_their_runs_match(
    points, shuffle, shuffled
):
    """The same points submitted as a point list and as a
    :class:`BlockBatch` reach the RegionServer as one put each (one
    region, fewer points than a linger buffer holds).  Series-major,
    their cells are in the same order and cost the same; shuffled, the
    point list's puts cost the same exactly when their runs match.  The
    parent charged the block put a fifth of the point put per cell."""
    listed = list(points)
    if shuffled:
        shuffle.shuffle(listed)
    prices = []
    for payload in (listed, BlockBatch.from_points(points)):
        cluster = build_cluster(n_nodes=1, salt_buckets=0)
        puts = recorded_prices(cluster.servers)
        submitted(cluster, payload)
        ((request, price),) = puts
        prices.append((runs(request), price))
    (list_runs, list_price), (block_runs, block_price) = prices
    assert (list_price == block_price) == (list_runs == block_runs)
    if not shuffled:
        assert list_runs == block_runs


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 64), st.integers(1, 30), st.integers(3570, 3600))
def test_a_record_block_costs_what_its_per_sensor_blocks_did(n_sensors, n_rows, start):
    """A k-sensor record submitted as one block is priced as its k
    one-series blocks were, exactly: by the TSD (one series lookup per
    sensor) and by every RegionServer put it becomes."""
    values = np.arange(n_rows * n_sensors, dtype=np.float64).reshape(n_rows, n_sensors)
    per_sensor = [
        SeriesBlock.from_columns(
            "energy", {"unit": unit_tag(3), "sensor": sensor_tag(s)},
            range(start, start + n_rows), values[:, s],
        )
        for s in range(n_sensors)
    ]
    prices = []
    for payload in (BlockBatch([data_blocks(3, start, values)]), BlockBatch(per_sensor)):
        cluster = build_cluster(n_nodes=2, salt_buckets=4)
        batches = recorded_prices(cluster.tsds)
        puts = recorded_prices(cluster.servers)
        submitted(cluster, payload)
        prices.append(
            (
                [price for _, price in batches],
                [(runs(request), request.n_cells, price) for request, price in puts],
            )
        )
    assert prices[0] == prices[1]


# ----------------------------------------------------------------------
# the store holds columns, not cells (DESIGN §20)
# ----------------------------------------------------------------------
N_SERIES, N_TICKS = 100, 300  # N = 30,000 points
N_POINTS = N_SERIES * N_TICKS
#: What a memstore row costs the collector: its tuple, two lists, one array.
TRACKED_PER_ROW = 4


def tick_major_fleet(step):
    """30,000 points, one per series per tick.  ``step=1`` keeps every
    series inside one row hour (R = 100 rows of 300 cells); ``step=3600``
    opens a new row with every sample (R = 30,000 single-cell rows)."""
    return [
        DataPoint.make("energy", t * step, float(t), {"unit": f"u{s % 10}", "sensor": f"s{s}"})
        for t in range(N_TICKS)
        for s in range(N_SERIES)
    ]


def publish_blocks_through_the_proxy(cluster, points):
    publisher = BatchPublisher(cluster, batch_size=1000, max_in_flight_batches=8)
    publisher.publish_blocks(BlockBatch.from_points(points))
    assert publisher.flush().points_written == len(points)


def direct_put_blocks(cluster, points):
    assert cluster.direct_put(BlockBatch.from_points(points)) == len(points)


def direct_put_point_list(cluster, points):
    assert cluster.direct_put(points) == len(points)


INGESTS = [publish_blocks_through_the_proxy, direct_put_blocks, direct_put_point_list]


def ingest_counting_the_collector(ingest, step):
    """``(tracked objects the ingest left behind, automatic collections it caused)``."""
    points = tick_major_fleet(step)
    cluster = build_cluster(n_nodes=2, salt_buckets=4, retain_data=True)
    gc.collect()
    tracked = len(gc.get_objects())
    collections = sum(generation["collections"] for generation in gc.get_stats())
    ingest(cluster, points)
    cluster.sim.run()  # quiesce: acks delivered, timers fired
    collections = sum(generation["collections"] for generation in gc.get_stats()) - collections
    gc.collect()
    return len(gc.get_objects()) - tracked, collections


@pytest.mark.parametrize("ingest", INGESTS, ids=lambda ingest: ingest.__name__)
def test_what_the_store_retains_grows_with_rows_not_with_points(ingest):
    """Nothing the collector tracks is kept per sample: 30,000 points in
    100 rows leave a few objects per row (the parent: one ``Cell`` per
    point, 30,000 and more), and in 30,000 rows a row's worth each."""
    dense, _ = ingest_counting_the_collector(ingest, step=1)
    assert dense < 10 * N_SERIES  # measured: 404-544; the series memo is in it too
    sparse, _ = ingest_counting_the_collector(ingest, step=3600)
    assert sparse < (TRACKED_PER_ROW + 1) * N_POINTS  # measured: 120,003-120,126


def test_a_block_ingest_rarely_wakes_the_collector():
    """The collector runs when enough tracked objects have been
    allocated: 30,000 points arriving as blocks allocate almost none
    (measured: 4 automatic collections; the parent: 46)."""
    _, collections = ingest_counting_the_collector(publish_blocks_through_the_proxy, step=1)
    assert collections <= 12


def tracked_by_a_write_back(n_sensors):
    """Tracked objects ``write_back`` of an unflagged 10-row record adds,
    the collector paused (its unit's tags are built beforehand)."""
    n_rows = 10
    report = AnomalyReport(
        0,
        np.zeros((n_rows, n_sensors), dtype=bool),
        np.zeros((n_rows, n_sensors)),
        np.zeros(n_rows, dtype=bool),
        np.zeros(n_rows),
        FDRDetectorConfig(),
        300,
    )
    evaluation = UnitEvaluation(0, 3595, np.ones((n_rows, n_sensors)), report)
    write_back(evaluation, flagged_cells(report))
    gc.disable()
    try:
        before = gc.get_count()[0]
        kept = write_back(evaluation, flagged_cells(report))
        added = gc.get_count()[0] - before
    finally:
        gc.enable()
    assert len(kept[0]) == n_rows * n_sensors and not kept[1]
    return added


def test_a_record_write_back_allocates_nothing_per_sensor():
    """A record's data leaves as one block, whatever its width: 48 and
    480 sensors add the same tracked objects (the parent: one block per
    sensor, 432 more at 480)."""
    assert tracked_by_a_write_back(480) == tracked_by_a_write_back(48)


def test_the_recorded_boundaries_still_count_cells(monkeypatch):
    """``benchmarks/perf`` measures four storage boundaries with
    ``len()``: each must report cells, whatever carries them."""
    counted = {"encode_block": 0, "append_batch": 0, "put_block": 0, "scan": 0}

    def count_result(cls, name):
        original = getattr(cls, name)

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            counted[name] += len(result)
            return result

        monkeypatch.setattr(cls, name, wrapper)

    def count_argument(cls, name):
        original = getattr(cls, name)

        def wrapper(self, batch):
            counted[name] += len(batch)
            return original(self, batch)

        monkeypatch.setattr(cls, name, wrapper)

    count_result(TSDaemon, "encode_block")
    count_argument(WriteAheadLog, "append_batch")
    count_argument(Region, "put_block")
    cluster = build_cluster(n_nodes=2, salt_buckets=4, retain_data=True)
    points = tick_major_points(n_ticks=50, cadence=60)
    publish_blocks_through_the_proxy(cluster, points)
    count_result(Region, "scan")
    assert len(cluster.master.direct_scan(DATA_TABLE)) == len(points)
    assert counted == dict.fromkeys(counted, len(points))


def test_a_point_list_reaches_the_store_without_a_cell(monkeypatch):
    """The TSD deals a point list's cells off its encoded batch into the
    linger buffers, and puts each buffer as the batch it already is: no
    step iterates a batch into ``Cell``s or rebuilds one from them
    (DESIGN §11.2, §20.5)."""
    cluster = build_cluster(n_nodes=2, salt_buckets=4, retain_data=True)
    tsd = cluster.tsds[0]
    points = tick_major_points(n_ticks=60, cadence=60)  # some buckets fill, some linger
    acks = []

    def boxed(*args):
        raise AssertionError("a Cell was built on the TSD write path")

    monkeypatch.setattr(CellBatch, "__iter__", boxed)
    monkeypatch.setattr(CellBatch, "from_cells", boxed)
    tsd.put_batch(points, acks.append, "client")
    cluster.sim.run(until=0.01)  # serviced, before any linger timer fires
    assert tsd._buffers
    tsd.flush_all()
    cluster.sim.run()
    assert not tsd._buffers
    assert [(ack.ok, ack.written, ack.failed) for ack in acks] == [(True, len(points), 0)]
    monkeypatch.undo()
    assert len(cluster.master.direct_scan(DATA_TABLE)) == len(points)


# ----------------------------------------------------------------------
# a write is routed and announced per batch (DESIGN §20.3)
# ----------------------------------------------------------------------
def listened_cluster(salt_buckets, gateways):
    """A cluster with a lifecycle tier (two by-metric listeners: its
    write listener and its ingest observer) and ``gateways`` serving
    gateways (one by-series listener each)."""
    cluster = build_cluster(
        n_nodes=2, salt_buckets=salt_buckets, retain_data=True,
        lifecycle=LifecyclePolicy(tiers=(TierSpec("1h", 3600),), raw_ttl=3600),
    )
    for _ in range(gateways):
        cluster.gateway()
    return cluster


@pytest.fixture
def routing_lookups(monkeypatch):
    """Every per-row region lookup of the write path, counted: the
    master's one-row ``locate`` and a route table's bisect fallback."""
    asked = []
    monkeypatch.setattr(HMaster, "locate", counting(HMaster.locate, asked))
    monkeypatch.setattr(RouteTable, "locate", counting(RouteTable.locate, asked))
    return asked


@pytest.fixture
def span_walks(monkeypatch):
    """Every ``series_spans`` walk, by granularity, wherever it is called from."""
    walks = {True: 0, False: 0}

    def counted(payload, by_tags):
        walks[by_tags] += 1
        return original(payload, by_tags)

    original = blocks.series_spans
    for module in (blocks, serve_gateway, lifecycle_manager):
        monkeypatch.setattr(module, "series_spans", counted, raising=False)
    return walks


@pytest.mark.parametrize("salt_buckets", [4, 128, 256])
@pytest.mark.parametrize("n_series", [10, 200])
def test_a_tick_major_bulk_load_asks_no_row_its_region(routing_lookups, salt_buckets, n_series):
    """``direct_put`` of N series, one point each, with every salt bucket
    (the 0xff one too, for 256) in play: no per-row lookup anywhere — the
    parent asked ``HMaster.locate`` once per cell and walked the server's
    regions once more per cell."""
    cluster = listened_cluster(salt_buckets, gateways=1)
    points = [
        DataPoint.make("energy", 60, float(s), {"unit": f"u{s % 7}", "sensor": f"s{s}"})
        for s in range(n_series)
    ]
    assert cluster.direct_put(points) == n_series
    assert routing_lookups == []
    # Every first byte, 0xff included, is one table index.
    every_byte = CellBatch([bytes([b, 0]) for b in range(256)], [b"q"] * 256, [b"v"] * 256,
                           array("d", range(256)))
    routed = cluster.master.route(DATA_TABLE, every_byte).values()
    assert sum(len(share) for shares in routed for share in shares.values()) == 256
    assert routing_lookups == []


@pytest.mark.parametrize("gateways", [0, 1, 3])
@pytest.mark.parametrize("shape", [list, BlockBatch.from_points], ids=["points", "blocks"])
def test_a_write_is_walked_once_per_granularity(span_walks, gateways, shape):
    """However many listeners: one by-metric walk (the lifecycle's
    listener and observer share it) and, with any gateway, one
    by-series walk.  The parent walked by metric twice per bulk load
    and by series once per gateway."""
    cluster = listened_cluster(4, gateways)
    points = tick_major_points(n_ticks=3, cadence=60)
    assert cluster.direct_put(shape(points)) == len(points)
    assert span_walks == {False: 1, True: 1 if gateways else 0}


@pytest.mark.parametrize("gateways", [1, 3])
def test_a_submitted_write_is_walked_once_for_both_notifications(span_walks, gateways):
    """A submitted batch notifies twice (at submit and at ack) and
    observes once: the ack reuses the spans walked at submit (the
    parent walked by series twice per gateway, by metric three times)."""
    cluster = listened_cluster(4, gateways)
    acks = []
    cluster.submit(tick_major_points(n_ticks=3, cadence=60), acks.append)
    cluster.sim.run()
    assert [ack.ok for ack in acks] == [True]
    assert span_walks == {False: 1, True: 1}
