"""Tests for the RegionServer write-ahead log."""

from repro.hbase.region import Cell, CellBatch
from repro.hbase.wal import WriteAheadLog


def cell(row, ts=1.0):
    return Cell(row, b"q", b"v", ts)


class TestWAL:
    def test_append_and_sync(self):
        wal = WriteAheadLog("rs1")
        wal.append(cell(b"a"))
        wal.append(cell(b"b"))
        assert wal.durable_count == 0
        wal.sync()
        assert wal.durable_count == 2

    def test_replayable_only_synced_prefix(self):
        wal = WriteAheadLog("rs1")
        wal.append_batch(CellBatch.from_cells([cell(b"a"), cell(b"b")]))
        wal.sync()
        wal.append(cell(b"c"))  # torn tail, never synced
        assert [c.row for c in wal.replayable()] == [b"a", b"b"]

    def test_truncate(self):
        wal = WriteAheadLog("rs1")
        wal.append(cell(b"a"))
        wal.sync()
        wal.truncate()
        assert len(wal) == 0
        assert list(wal.replayable()) == []

    def test_sync_counter(self):
        wal = WriteAheadLog("rs1")
        wal.sync()
        wal.sync()
        assert wal.syncs == 2
