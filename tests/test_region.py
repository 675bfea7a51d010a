"""Tests for regions: memstore, store files, scans, splits."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hbase.region import Cell, CellBatch, Region, RegionInfo, StoreFile


def region(start=b"", end=b"", flush=100_000, retain=True):
    return Region(RegionInfo("t", start, end, 1), flush, retain)


def cell(row, qual=b"q", value=b"v", ts=1.0):
    return Cell(row, qual, value, ts)


class TestRegionInfo:
    def test_contains_half_open(self):
        info = RegionInfo("t", b"b", b"d", 1)
        assert not info.contains(b"a")
        assert info.contains(b"b")
        assert info.contains(b"c")
        assert not info.contains(b"d")

    def test_unbounded_ends(self):
        info = RegionInfo("t", b"", b"", 1)
        assert info.contains(b"")
        assert info.contains(b"\xff" * 8)

    def test_name_unique_per_id(self):
        a = RegionInfo("t", b"", b"", 1)
        b = RegionInfo("t", b"", b"", 2)
        assert a.name != b.name


class TestWriteRead:
    def test_put_get(self):
        r = region()
        r.put(cell(b"r1"))
        got = r.get(b"r1", b"q")
        assert got is not None and got.value == b"v"

    def test_get_missing(self):
        assert region().get(b"nope", b"q") is None

    def test_out_of_range_rejected(self):
        r = region(b"m", b"z")
        with pytest.raises(KeyError):
            r.put(cell(b"a"))

    def test_counting_mode_stores_nothing(self):
        r = region(retain=False)
        r.put(cell(b"r"))
        assert r.writes == 1
        assert r.get(b"r", b"q") is None
        assert list(r.scan()) == []


class TestFlushAndStoreFiles:
    def test_auto_flush_at_threshold(self):
        r = region(flush=3)
        for i in range(3):
            r.put(cell(b"r%d" % i))
        assert r.memstore_size == 0
        assert r.store_file_count == 1
        assert r.flushes == 1

    def test_flush_empty_is_noop(self):
        r = region()
        r.flush()
        assert r.store_file_count == 0

    def test_compact_merges_files(self):
        r = region()
        for i in range(3):
            r.put(cell(b"r%d" % i, ts=float(i)))
            r.flush()
        assert r.store_file_count == 3
        r.compact()
        assert r.store_file_count == 1
        assert len(r.scan()) == 3

    def test_discard_memstore_loses_unflushed(self):
        r = region()
        r.put(cell(b"a", ts=1.0))
        r.flush()
        r.put(cell(b"b", ts=2.0))
        lost = r.discard_memstore()
        assert lost == 1
        assert {c.row for c in r.scan()} == {b"a"}


class TestScan:
    def test_scan_sorted(self):
        r = region()
        for row in (b"c", b"a", b"b"):
            r.put(cell(row))
        assert [c.row for c in r.scan()] == [b"a", b"b", b"c"]

    def test_scan_range(self):
        r = region()
        for row in (b"a", b"b", b"c", b"d"):
            r.put(cell(row))
        assert [c.row for c in r.scan(b"b", b"d")] == [b"b", b"c"]

    def test_scan_clamped_to_region(self):
        r = region(b"b", b"d")
        r.put(cell(b"b"))
        r.put(cell(b"c"))
        assert [c.row for c in r.scan(b"", b"")] == [b"b", b"c"]

    def test_scan_qualifier_ordering(self):
        r = region()
        r.put(cell(b"r", qual=b"q2"))
        r.put(cell(b"r", qual=b"q1"))
        assert [c.qualifier for c in r.scan()] == [b"q1", b"q2"]


class TestSplit:
    def make_populated(self):
        r = region()
        for i in range(10):
            r.put(cell(b"row%02d" % i, ts=float(i)))
        return r

    def test_split_partitions_rows(self):
        r = self.make_populated()
        left, right = r.split(b"row05", (10, 11))
        assert {c.row for c in left.scan()} == {b"row%02d" % i for i in range(5)}
        assert {c.row for c in right.scan()} == {b"row%02d" % i for i in range(5, 10)}
        assert left.info.end_key == b"row05" == right.info.start_key

    def test_split_resets_write_counters(self):
        r = self.make_populated()
        left, right = r.split(b"row05", (10, 11))
        assert left.writes == 0 and right.writes == 0

    def test_split_key_must_be_interior(self):
        r = self.make_populated()
        with pytest.raises(ValueError):
            r.split(b"", (10, 11))

    def test_midpoint_key(self):
        r = self.make_populated()
        mid = r.midpoint_key()
        assert mid is not None
        assert b"row00" < mid <= b"row09"

    def test_midpoint_none_for_single_row(self):
        r = region()
        r.put(cell(b"only"))
        assert r.midpoint_key() is None


class TestStoreFile:
    def test_binary_search_get(self):
        sf = StoreFile(CellBatch.from_cells([cell(b"a"), cell(b"b"), cell(b"c")]))
        assert sf.get(b"b", b"q") == cell(b"b")
        assert sf.get(b"zz", b"q") is None

    def test_scan_bounds(self):
        sf = StoreFile(CellBatch.from_cells([cell(b"a"), cell(b"b"), cell(b"c")]))
        assert [c.row for c in sf.scan(b"b", b"")] == [b"b", b"c"]
        assert [c.row for c in sf.scan(b"", b"b")] == [b"a"]


PARTITION_ROWS = [b"r0", b"r1", b"r2", b"r3", b"r4"]

# Runs of one row: long ones (a series block's row hour), single cells
# (a tick-major point batch), or both in one batch.
run_lists = st.one_of(
    st.lists(st.tuples(st.sampled_from(PARTITION_ROWS), st.integers(2, 12)), min_size=1, max_size=10),
    st.lists(st.tuples(st.sampled_from(PARTITION_ROWS), st.just(1)), min_size=1, max_size=30),
    st.lists(st.tuples(st.sampled_from(PARTITION_ROWS), st.integers(1, 6)), min_size=1, max_size=20),
)
owner_maps = st.fixed_dictionaries(
    {row: st.sampled_from(["rs0", "rs1", "rs2", None]) for row in PARTITION_ROWS}
)


class TestCellBatchPartition:
    @settings(max_examples=200, deadline=None)
    @given(run_lists, owner_maps)
    def test_each_share_is_its_owners_cells_in_batch_order(self, runs, owner_of_row):
        rows = [row for row, n in runs for _ in range(n)]
        cells = [Cell(row, bytes([k]), b"%d" % k, float(k)) for k, row in enumerate(rows)]
        batch = CellBatch.from_cells(cells)
        asked = []

        def owners_of(run_rows):
            asked.append(list(run_rows))
            return [owner_of_row[row] for row in run_rows]

        shares = batch.partition(owners_of)
        # Asked once, with each run's row: once per run, not per cell.
        assert asked == [[rows[i] for i in batch.run_starts()[:-1]]]
        owners = {owner_of_row[row] for row in rows}
        assert set(shares) == owners
        for owner, share in shares.items():
            assert list(share) == [c for c in cells if owner_of_row[c.row] == owner]
            assert share.ts.typecode == "d"
        if len(owners) == 1:
            assert shares[owners.pop()] is batch  # returned as it stands

    @settings(max_examples=200, deadline=None)
    @given(run_lists, owner_maps)
    def test_a_shares_kept_run_starts_are_the_ones_it_would_find(self, runs, owner_of_row):
        """A share comes out of the partition knowing its runs (the
        put's price and the region write read them); two gathered runs
        of one row that meet are one run, as a fresh look finds."""
        rows = [row for row, n in runs for _ in range(n)]
        batch = CellBatch.from_cells(Cell(row, b"q", b"v", 0.0) for row in rows)
        for share in batch.partition(lambda run_rows: [owner_of_row[r] for r in run_rows]).values():
            fresh = CellBatch(list(share.rows), share.qualifiers, share.values, share.ts)
            assert share.run_starts() == fresh.run_starts()

    @settings(max_examples=100, deadline=None)
    @given(run_lists, run_lists)
    def test_runs_read_before_a_batch_grows_are_found_again(self, head, tail):
        """A batch keeps its run starts once read (the put price and the
        routing share them); growing it must not leave them stale."""
        def cells(runs):
            return [Cell(row, b"q", b"v", 0.0) for row, n in runs for _ in range(n)]

        batch = CellBatch.from_cells(cells(head))
        assert batch.run_starts() is batch.run_starts()
        batch.extend(CellBatch.from_cells(cells(tail)))
        grown = CellBatch.from_cells(cells(head) + cells(tail))
        assert batch.run_starts() == grown.run_starts()
        batch.append(b"zz", b"q", b"v", 0.0)
        grown = CellBatch.from_cells(cells(head) + cells(tail) + cells([(b"zz", 1)]))
        assert batch.run_starts() == grown.run_starts()


class TestRegionProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.binary(min_size=1, max_size=4),
                st.binary(min_size=1, max_size=2),
                st.integers(min_value=0, max_value=20),
            ),
            max_size=60,
        ),
        st.integers(min_value=1, max_value=7),
    )
    def test_region_matches_dict_semantics(self, ops, flush_threshold):
        """A region behaves like a (row, qual) -> newest-value dict."""
        r = region(flush=flush_threshold)
        reference = {}
        for row, qual, ts in ops:
            c = Cell(row, qual, b"v%d" % ts, float(ts))
            r.put(c)
            key = (row, qual)
            if key not in reference or ts >= reference[key][1]:
                reference[key] = (c.value, ts)
        scanned = {(c.row, c.qualifier): c.value for c in r.scan()}
        expected = {k: v for k, (v, _) in reference.items()}
        assert scanned == expected
        for (row, qual), value in expected.items():
            assert r.get(row, qual).value == value

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.binary(min_size=1, max_size=3), min_size=2, max_size=40, unique=True))
    def test_split_conserves_cells(self, rows):
        r = region()
        for row in rows:
            r.put(cell(row))
        mid = sorted(rows)[len(rows) // 2]
        if mid == min(rows):
            return  # split key must be interior
        left, right = r.split(mid, (2, 3))
        merged = {c.row for c in left.scan()} | {c.row for c in right.scan()}
        assert merged == set(rows)
        assert all(c.row < mid for c in left.scan())
        assert all(c.row >= mid for c in right.scan())


# ----------------------------------------------------------------------
# storage model check: one Region against a plain-dict oracle
# ----------------------------------------------------------------------
ROWS = [b"b", b"ba", b"c", b"ca", b"d", b"da", b"e", b"ea"]
BOUNDS = [b"", b"a", *ROWS, b"g"]  # b"a" / b"g" lie outside every row
QUALS = [bytes([q]) for q in range(8)]


class RegionOracle:
    """What a Region must behave like: two dicts and a tombstone list.

    ``disk`` is every store file merged (newer-or-equal ``ts`` wins, the
    later file on a tie), ``mem`` the memstore; the visible version of a
    key is the memstore's unless the disk one is strictly newer, and a
    tombstone hides it when it covers the row at or after its ``ts``.
    """

    def __init__(self, start, end, flush_threshold):
        self.start, self.end, self.flush_threshold = start, end, flush_threshold
        self.mem, self.disk, self.tombstones = {}, {}, []

    def contains(self, row):
        return row >= self.start and (not self.end or row < self.end)

    def put_block(self, cells):
        for c in cells:
            held = self.mem.get(c.key)
            if held is None or c.ts >= held.ts:
                self.mem[c.key] = c
        if len(self.mem) >= self.flush_threshold:
            self.flush()

    def flush(self):
        for key, c in self.mem.items():
            held = self.disk.get(key)
            if held is None or c.ts >= held.ts:
                self.disk[key] = c
        self.mem = {}

    def _masked(self, c):
        return any(
            c.row >= lo and (not hi or c.row < hi) and c.ts <= ts
            for lo, hi, ts in self.tombstones
        )

    def compact(self):
        self.disk = {k: c for k, c in self.disk.items() if not self._masked(c)}
        self.mem = {k: c for k, c in self.mem.items() if not self._masked(c)}
        self.tombstones = []

    def visible(self):
        newest = dict(self.disk)
        for key, c in self.mem.items():
            if key not in newest or c.ts >= newest[key].ts:
                newest[key] = c
        return [newest[k] for k in sorted(newest) if not self._masked(newest[k])]

    def scan(self, lo, hi, accepted):
        return [
            c
            for c in self.visible()
            if c.row >= lo and (not hi or c.row < hi) and (accepted is None or c.row in accepted)
        ]

    def delete_range(self, lo, hi, ts):
        doomed = sum(1 for c in self.scan(lo, hi, None) if c.ts <= ts)
        self.tombstones.append((lo, hi, ts))
        return doomed

    def midpoint_key(self):
        rows = sorted({c.row for c in self.visible()})
        return rows[len(rows) // 2] if len(rows) >= 2 else None

    def daughter(self, start, end):
        """The oracle of one split daughter: live cells re-put as one block."""
        child = RegionOracle(start, end, self.flush_threshold)
        child.put_block([c for c in self.visible() if child.contains(c.row)])
        return child


rows_, quals_, stamps_ = st.sampled_from(ROWS), st.sampled_from(QUALS), st.integers(0, 6)
cell_triples = st.lists(st.tuples(rows_, quals_, stamps_), min_size=1, max_size=8)
# One row's run in arrival order: qualifiers may repeat inside it.
row_run = st.tuples(rows_, st.lists(st.tuples(quals_, stamps_), min_size=1, max_size=8)).map(
    lambda run: [(run[0], qual, ts) for qual, ts in run[1]]
)
# Both halves of the key space, one cell per row per tick, as a soak delivers them.
tick_major = st.lists(
    st.tuples(st.sampled_from(ROWS[:4]), st.sampled_from(ROWS[4:]), quals_, stamps_),
    min_size=1,
    max_size=6,
).map(lambda ticks: [(row, qual, ts) for lo, hi, qual, ts in ticks for row in (lo, hi)])
put_blocks = st.one_of(
    cell_triples,
    cell_triples.map(sorted),  # in-order runs
    row_run,  # duplicate qualifiers inside one run
    row_run.map(lambda run: sorted(run, reverse=True)),  # a descending run
    rows_.map(lambda row: [(row, qual, 3) for qual in QUALS]),  # a long in-order row ...
    st.lists(st.tuples(rows_, quals_, stamps_), min_size=1, max_size=1),  # ... and a late cell
    st.tuples(rows_, quals_, stamps_).map(lambda cell: [cell, cell]),  # an equal-ts tie, in one run
    tick_major,  # single-cell runs interleaving both daughters of a split
    st.tuples(row_run, row_run).map(lambda runs: runs[0] + runs[1] + runs[0]),  # a row revisited
)
region_ops = st.one_of(
    st.tuples(st.just("put_block"), put_blocks),
    st.tuples(st.just("flush")),
    st.tuples(st.just("compact")),
    st.tuples(st.just("discard_memstore")),
    st.tuples(
        st.just("delete_range"),
        st.sampled_from(BOUNDS),
        st.sampled_from(BOUNDS),
        st.integers(0, 6),
    ),
    st.tuples(st.just("split"), st.sampled_from(ROWS), st.booleans()),
)
scan_probe = st.tuples(
    st.sampled_from(BOUNDS),
    st.sampled_from(BOUNDS),
    st.one_of(st.none(), st.frozensets(st.sampled_from(ROWS))),
)


def assert_memstore_columns_sound(r):
    """Each memstore row: parallel columns, strictly sorted, one per qualifier."""
    held = 0
    for row, (qualifiers, values, ts) in r._memstore.items():
        assert len(qualifiers) == len(values) == len(ts) > 0, row
        assert all(a < b for a, b in zip(qualifiers, qualifiers[1:])), row
        held += len(qualifiers)
    assert held == r.memstore_size


def assert_region_matches(r, oracle, probe):
    lo, hi, accepted = probe
    asked = []

    def row_filter(row):
        asked.append(row)
        return row in accepted

    got = r.scan(lo, hi, None if accepted is None else row_filter)
    expected = oracle.scan(lo, hi, accepted)
    assert list(got) == expected
    assert len(got) == len(expected)  # what the benchmark's recorder counts
    # the filter only ever sees rows of the clamped range
    assert all(row >= lo and (not hi or row < hi) and oracle.contains(row) for row in asked)
    visible = oracle.visible()
    assert list(r.scan()) == visible
    assert r.cell_count() == len(visible)
    assert r.memstore_size == len(oracle.mem)
    assert_memstore_columns_sound(r)
    assert r.midpoint_key() == oracle.midpoint_key()
    live = {c.key: c for c in visible}
    for row in ROWS:
        for qual in QUALS:
            assert r.get(row, qual) == live.get((row, qual))


class TestRegionModel:
    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from([(b"", b""), (b"b", b"ea"), (b"", b"e"), (b"c", b"")]),
        st.integers(min_value=2, max_value=9),
        st.lists(st.tuples(region_ops, scan_probe), max_size=30),
    )
    def test_region_equals_dict_oracle(self, bounds, flush_threshold, steps):
        """Memstore + several store files + tombstones vs the oracle, step by step."""
        r = region(*bounds, flush=flush_threshold)
        oracle = RegionOracle(*bounds, flush_threshold)
        stamp = 0
        for op, probe in steps:
            kind = op[0]
            if kind == "put_block":
                cells = []
                for row, qual, ts in op[1]:
                    stamp += 1  # distinct values expose a wrong tie-break
                    cells.append(Cell(row, qual, b"%d" % stamp, float(ts)))
                # Route as a RegionServer does: this region's share of the batch.
                batch = CellBatch.from_cells(cells)
                shares = batch.partition(lambda rows: list(map(oracle.contains, rows)))
                if False in shares:  # all or nothing: a stray row stops the whole batch
                    with pytest.raises(KeyError):
                        r.put_block(batch)
                if True in shares:
                    r.put_block(shares[True])
                oracle.put_block([c for c in cells if oracle.contains(c.row)])
            elif kind == "flush":
                r.flush()
                oracle.flush()
            elif kind == "compact":
                r.compact()
                oracle.compact()
                assert r.tombstone_count == 0
            elif kind == "discard_memstore":
                assert r.discard_memstore() == len(oracle.mem)
                oracle.mem = {}
            elif kind == "delete_range":
                _, lo, hi, ts = op
                assert r.delete_range(lo, hi, float(ts)) == oracle.delete_range(lo, hi, float(ts))
            else:
                _, key, keep_left = op
                if not oracle.contains(key) or key == oracle.start:
                    with pytest.raises(ValueError):
                        r.split(key, (2, 3))
                else:
                    left, right = r.split(key, (2, 3))
                    assert left.writes == 0 and right.writes == 0
                    assert (left.info.start_key, left.info.end_key) == (oracle.start, key)
                    assert (right.info.start_key, right.info.end_key) == (key, oracle.end)
                    halves = (oracle.daughter(oracle.start, key), oracle.daughter(key, oracle.end))
                    assert_region_matches(left, halves[0], probe)
                    assert_region_matches(right, halves[1], probe)
                    r, oracle = (left, halves[0]) if keep_left else (right, halves[1])
            assert_region_matches(r, oracle, probe)
