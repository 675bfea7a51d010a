"""Tests for a region's write-ahead log."""

from repro.hbase.region import Cell, CellBatch
from repro.hbase.wal import WriteAheadLog


def cell(row, ts=1.0):
    return Cell(row, b"q", b"v", ts)


class TestWAL:
    def test_append_and_sync(self):
        wal = WriteAheadLog("r1")
        wal.append(cell(b"a"))
        wal.append_batch(CellBatch.from_cells([cell(b"b"), cell(b"c")]))
        wal.sync()
        assert [c.row for c in wal.entries] == [b"a", b"b", b"c"]
        assert wal.syncs == 1

    def test_truncate(self):
        wal = WriteAheadLog("r1")
        wal.append(cell(b"a"))
        entries = wal.entries
        wal.truncate()
        assert len(wal) == 0
        assert list(wal.entries) == []
        assert [c.row for c in entries] == [b"a"]  # a replay's copy outlives the truncate

    def test_sync_counter(self):
        wal = WriteAheadLog("r1")
        wal.sync()
        wal.sync()
        assert wal.syncs == 2
