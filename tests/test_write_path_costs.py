"""Cost ratchet for the write front end: per-series work is paid per series.

No clock is read here.  Each test wraps one piece of per-series work in
a counter and checks that the count follows the number of *series* (S),
not the number of *samples* (N): name validation in the parser, UID
interning in the TSD, row-key materialisation in the codec.  A failure
means someone made the write path pay per-point costs again — the
wall-clock benchmark would say so too, but only after ten pairs of
runs; this says it in tier-1 (DESIGN §18).
"""

import pytest

from repro.tsdb import BlockBatch, DataPoint, build_cluster, parse_block
from repro.tsdb import lineprotocol, rowkey

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
    assert (batch.n_blocks, len(batch)) == (S, S * n_ticks)
    assert pattern.calls == S * NAMES_PER_SERIES  # the parent: 5 per *line*


def test_a_respelled_header_is_validated_again_but_joins_its_series(monkeypatch):
    """The parser's memo is keyed on wire text: another spelling of a
    known series costs one more validation, not one more block."""
    pattern = CountingPattern(lineprotocol._NAME_RE)
    monkeypatch.setattr(lineprotocol, "_NAME_RE", pattern)
    lines = ["put energy 1 1.0 unit=u0 sensor=s0"] * 50 + ["put energy 2 2.0 sensor=s0  unit=u0"] * 50
    batch = parse_block(lines)
    assert (batch.n_blocks, len(batch)) == (1, 100)
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

    # A run is a series' consecutive samples within one row hour.  The
    # point path's runs carry on across batches; a block's end with it.
    runs = hours(points) if shape is list else sum(hours(batch) for batch in batches)
    assert len(hashed) == S * runs  # the parent, point path: one per *point*


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
