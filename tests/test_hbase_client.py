"""Tests for the HBase client: routing, retries, backoff, scans."""

import pytest

from repro.cluster.network import Network
from repro.cluster.node import Node
from repro.cluster.simulation import Simulator
from repro.hbase import regionserver
from repro.hbase.client import HTableClient
from repro.hbase.master import HMaster
from repro.hbase.region import Cell, CellBatch
from repro.hbase.regionserver import RegionServer


def build(n_servers=2, split_keys=None, max_retries=8):
    sim = Simulator()
    net = Network(sim)
    master = HMaster()
    servers = []
    for i in range(n_servers):
        node = Node(sim, f"host{i}")
        rs = RegionServer(sim, net, node, f"rs{i}")
        master.register_server(rs)
        servers.append(rs)
    master.create_table("t", split_keys)
    client = HTableClient(sim, net, master, "client-host", max_retries=max_retries)
    return sim, master, servers, client


def cells(rows, ts=1.0):
    return CellBatch.from_cells(Cell(row, b"q", b"v-" + row, ts) for row in rows)


class TestPut:
    def test_put_lands_in_correct_region(self):
        sim, master, _, client = build(split_keys=[b"m"])
        results = []
        client.put("t", cells([b"a", b"z"]), lambda ok, part: results.append((ok, len(part))))
        sim.run()
        assert sorted(results) == [(True, 1), (True, 1)]
        assert [c.row for c in master.direct_scan("t")] == [b"a", b"z"]

    def test_empty_put_resolves_immediately(self):
        sim, _, _, client = build()
        results = []
        client.put("t", cells([]), lambda ok, part: results.append((ok, len(part))))
        assert results == [(True, 0)]

    def test_put_groups_by_server(self):
        sim, master, servers, client = build(n_servers=2, split_keys=[b"m"])
        client.put("t", cells([b"a", b"b", b"x", b"y"]))
        sim.run()
        written = {rs.name: rs.cells_written for rs in servers}
        assert sorted(written.values()) == [2, 2]

    def test_retry_on_queue_overflow_succeeds(self, monkeypatch):
        monkeypatch.setattr(regionserver, "QUEUE_CAPACITY", 0)
        sim, master, servers, client = build(n_servers=1)
        # saturate: first RPC in service, second rejected then retried
        results = []
        client.put("t", cells([b"a"]), lambda ok, part: results.append(ok))
        client.put("t", cells([b"b"]), lambda ok, part: results.append(ok))
        sim.run()
        assert results == [True, True]
        assert client.metrics.counter("client.retries").get() >= 1

    def test_exhausted_retries_fail(self):
        sim, master, servers, client = build(n_servers=1, max_retries=2)
        servers[0].crash()
        # no surviving server: region unassigned, retries exhaust
        results = []
        client.put("t", cells([b"a"]), lambda ok, part: results.append((ok, len(part))))
        sim.run()
        assert results == [(False, 1)]
        assert client.metrics.counter("client.put_failed").get() == 1

    def test_put_rides_over_crash_recovery(self):
        sim, master, servers, client = build(n_servers=2)
        _, owner = master.locate("t", b"row")
        victim = master.server(owner)
        victim.crash()  # regions move to the survivor immediately
        results = []
        client.put("t", cells([b"row"]), lambda ok, part: results.append(ok))
        sim.run()
        assert results == [True]


class TestScan:
    def test_scan_merges_across_regions(self):
        sim, master, _, client = build(n_servers=2, split_keys=[b"m"])
        client.put("t", cells([b"a", b"n", b"b", b"z"]))
        sim.run()
        got = []
        client.scan("t", b"", b"", got.append)
        sim.run()
        assert [c.row for c in got[0]] == [b"a", b"b", b"n", b"z"]

    def test_scan_range_limits(self):
        sim, master, _, client = build(split_keys=[b"m"])
        client.put("t", cells([b"a", b"n", b"z"]))
        sim.run()
        got = []
        client.scan("t", b"a", b"o", got.append)
        sim.run()
        assert [c.row for c in got[0]] == [b"a", b"n"]

    def test_scan_empty_cluster(self):
        sim, master, servers, client = build(n_servers=1)
        servers[0].crash()
        got = []
        client.scan("t", b"", b"", got.append)
        assert [list(batch) for batch in got] == [[]]

    def test_scan_deduplicates_versions(self):
        sim, master, _, client = build()
        client.put("t", cells([b"k"], ts=1.0))
        sim.run()
        client.put("t", CellBatch.from_cells([Cell(b"k", b"q", b"newer", 2.0)]))
        sim.run()
        got = []
        client.scan("t", b"", b"", got.append)
        sim.run()
        assert [c.value for c in got[0]] == [b"newer"]


class TestValidation:
    def test_negative_retries_rejected(self):
        sim = Simulator()
        net = Network(sim)
        with pytest.raises(ValueError):
            HTableClient(sim, net, HMaster(), "h", max_retries=-1)
