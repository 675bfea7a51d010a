"""Tests for the write-ahead log and the ZooKeeper-style coordinator."""

import pytest

from repro.hbase.region import Cell, CellBatch
from repro.hbase.wal import WriteAheadLog
from repro.hbase.zookeeper import NodeExistsError, NoNodeError, ZooKeeper


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


class TestZNodes:
    def test_create_and_get(self):
        zk = ZooKeeper()
        zk.create("/a", b"data")
        assert zk.get("/a") == b"data"
        assert zk.exists("/a")

    def test_duplicate_create_rejected(self):
        zk = ZooKeeper()
        zk.create("/a")
        with pytest.raises(NodeExistsError):
            zk.create("/a")

    def test_missing_parent_rejected(self):
        zk = ZooKeeper()
        with pytest.raises(NoNodeError):
            zk.create("/a/b")

    def test_get_missing_raises(self):
        with pytest.raises(NoNodeError):
            ZooKeeper().get("/nope")

    def test_set_updates(self):
        zk = ZooKeeper()
        zk.create("/a", b"1")
        zk.set("/a", b"2")
        assert zk.get("/a") == b"2"

    def test_children_sorted(self):
        zk = ZooKeeper()
        zk.create("/a")
        zk.create("/a/c2")
        zk.create("/a/c1")
        assert zk.get_children("/a") == ["/a/c1", "/a/c2"]

    def test_delete_with_children_rejected(self):
        zk = ZooKeeper()
        zk.create("/a")
        zk.create("/a/b")
        with pytest.raises(ValueError):
            zk.delete("/a")
        zk.delete("/a/b")
        zk.delete("/a")
        assert not zk.exists("/a")

    def test_invalid_paths(self):
        zk = ZooKeeper()
        for bad in ("a", "/a/", "//a"):
            with pytest.raises(ValueError):
                zk.create(bad)

    def test_sequential_suffixes_increase(self):
        zk = ZooKeeper()
        zk.create("/q")
        p1 = zk.create("/q/n_", sequential=True)
        p2 = zk.create("/q/n_", sequential=True)
        assert p1 < p2


class TestEphemeralAndWatches:
    def test_ephemeral_dies_with_session(self):
        zk = ZooKeeper()
        session = zk.connect()
        zk.create("/live", ephemeral=True, session=session)
        assert zk.exists("/live")
        session.expire()
        assert not zk.exists("/live")

    def test_ephemeral_requires_session(self):
        zk = ZooKeeper()
        with pytest.raises(ValueError):
            zk.create("/x", ephemeral=True)

    def test_expire_is_idempotent(self):
        zk = ZooKeeper()
        session = zk.connect()
        zk.create("/e", ephemeral=True, session=session)
        session.expire()
        session.expire()

    def test_watch_fires_on_delete(self):
        zk = ZooKeeper()
        zk.create("/w")
        events = []
        zk.watch("/w", lambda path, event: events.append((path, event)))
        zk.delete("/w")
        assert ("/w", "deleted") in events

    def test_watch_fires_on_change(self):
        zk = ZooKeeper()
        zk.create("/w", b"1")
        events = []
        zk.watch("/w", lambda p, e: events.append(e))
        zk.set("/w", b"2")
        assert events == ["changed"]

    def test_watch_is_one_shot(self):
        zk = ZooKeeper()
        zk.create("/w", b"1")
        events = []
        zk.watch("/w", lambda p, e: events.append(e))
        zk.set("/w", b"2")
        zk.set("/w", b"3")
        assert len(events) == 1

    def test_child_watch_on_parent(self):
        zk = ZooKeeper()
        zk.create("/parent")
        events = []
        zk.watch("/parent", lambda p, e: events.append(e))
        zk.create("/parent/kid")
        assert events == ["child"]


class TestElection:
    def test_first_candidate_leads(self):
        zk = ZooKeeper()
        s1, s2 = zk.connect(), zk.connect()
        assert zk.elect("/election", "a", s1) is True
        assert zk.elect("/election", "b", s2) is False

    def test_leadership_transfers_on_expiry(self):
        zk = ZooKeeper()
        s1, s2 = zk.connect(), zk.connect()
        zk.elect("/election", "a", s1)
        zk.elect("/election", "b", s2)
        s1.expire()
        assert zk.elect("/election", "b", s2) is True

    def test_reelect_same_candidate_is_stable(self):
        zk = ZooKeeper()
        s1 = zk.connect()
        assert zk.elect("/election", "a", s1)
        assert zk.elect("/election", "a", s1)
        # only one znode created for the candidate
        assert len(zk.get_children("/election")) == 1
