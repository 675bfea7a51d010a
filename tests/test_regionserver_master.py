"""Tests for RegionServers, the master and crash recovery."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import failures as overflow_policy
from repro.cluster.failures import OverflowCrashPolicy
from repro.cluster.network import Network
from repro.cluster.node import Node
from repro.cluster.simulation import Simulator
from repro.hbase import regionserver
from repro.hbase.client import HTableClient
from repro.hbase.master import HMaster, RegionUnavailableError, TableNotFoundError
from repro.hbase.region import Cell, CellBatch, RouteTable
from repro.hbase.regionserver import (
    PutRequest,
    RegionServer,
    ScanRequest,
    ServiceModel,
)
from repro.hbase.replication import ReplicationCoordinator
from repro.tsdb.ingest import ClusterConfig, build_cluster
from repro.tsdb.query import TsdbQuery, group_and_aggregate
from repro.tsdb.rowkey import RowKeyCodec
from repro.tsdb.tsd import DATA_TABLE, DataPoint


def build(n_servers=3, crash_policy=False):
    sim = Simulator()
    net = Network(sim)
    master = HMaster()
    servers = []
    for i in range(n_servers):
        node = Node(sim, f"host{i}")
        factory = None
        if crash_policy:
            def factory(srv):
                return OverflowCrashPolicy(sim, on_crash=srv.crash, on_restart=srv.restart)
        rs = RegionServer(sim, net, node, f"rs{i}", crash_policy_factory=factory)
        master.register_server(rs)
        servers.append(rs)
    return sim, net, master, servers


def put_cells(rows, ts=1.0):
    return CellBatch.from_cells(Cell(row, b"q", b"v", ts) for row in rows)


def put_request(master, table, cells):
    """A put RPC carrying ``cells`` as the client routes them
    (:meth:`HMaster.route`), every server's region shares in one request."""
    shares = {}
    for by_region in master.route(table, cells).values():
        shares.update(by_region)
    return PutRequest(table, shares)


class TestTableLifecycle:
    def test_create_single_region(self):
        sim, net, master, servers = build()
        master.create_table("t")
        regions = master.table_regions("t")
        assert len(regions) == 1
        info, server = regions[0]
        assert info.start_key == b"" and info.end_key == b""
        assert server in {s.name for s in servers}

    def test_presplit_regions_cover_keyspace(self):
        sim, net, master, _ = build()
        master.create_table("t", [b"b", b"m"])
        regions = master.table_regions("t")
        assert [(r.start_key, r.end_key) for r, _ in regions] == [
            (b"", b"b"), (b"b", b"m"), (b"m", b""),
        ]

    def test_presplit_round_robin_assignment(self):
        sim, net, master, servers = build(n_servers=3)
        master.create_table("t", [b"1", b"2", b"3", b"4", b"5"])
        counts = {}
        for _, server in master.table_regions("t"):
            counts[server] = counts.get(server, 0) + 1
        assert set(counts.values()) == {2}

    def test_duplicate_table_rejected(self):
        _, _, master, _ = build()
        master.create_table("t")
        with pytest.raises(ValueError):
            master.create_table("t")

    def test_bad_split_keys(self):
        _, _, master, _ = build()
        with pytest.raises(ValueError):
            master.create_table("t", [b""])
        with pytest.raises(ValueError):
            master.create_table("t2", [b"a", b"a"])

    def test_unknown_table(self):
        _, _, master, _ = build()
        with pytest.raises(TableNotFoundError):
            master.locate("nope", b"x")


class TestLocate:
    def test_locate_picks_covering_region(self):
        _, _, master, _ = build()
        master.create_table("t", [b"m"])
        info, _ = master.locate("t", b"a")
        assert info.end_key == b"m"
        info, _ = master.locate("t", b"z")
        assert info.start_key == b"m"

    def test_locate_boundary_belongs_to_right(self):
        _, _, master, _ = build()
        master.create_table("t", [b"m"])
        info, _ = master.locate("t", b"m")
        assert info.start_key == b"m"

    def test_locate_range(self):
        _, _, master, _ = build()
        master.create_table("t", [b"b", b"d"])
        hit = master.locate_range("t", b"a", b"c")
        assert [r.start_key for r, _ in hit] == [b"", b"b"]
        everything = master.locate_range("t", b"", b"")
        assert len(everything) == 3


class TestRpcPath:
    def test_put_then_get(self):
        sim, net, master, servers = build()
        master.create_table("t")
        _, server_name = master.locate("t", b"row")
        rs = master.server(server_name)
        replies = []
        rs.rpc(put_request(master, "t", put_cells([b"row"])), replies.append, "client")
        sim.run()
        assert replies[0].ok and replies[0].result == 1
        info, _ = master.locate("t", b"row")
        rs.rpc(ScanRequest("t", b"row", b"row\x00", info.name), replies.append, "client")
        sim.run()
        assert replies[1].ok and [c.value for c in replies[1].result] == [b"v"]

    def test_put_wrong_server_not_serving(self):
        sim, net, master, servers = build(n_servers=2)
        master.create_table("t", [b"m"])
        # find a server and a row it does NOT host
        target = servers[0]
        hosted_ranges = [r.info for r in target.hosted_regions()]
        row = b"a" if not any(i.contains(b"a") for i in hosted_ranges) else b"z"
        replies = []
        target.rpc(put_request(master, "t", put_cells([row])), replies.append, "client")
        sim.run()
        assert not replies[0].ok
        assert "NotServing" in replies[0].error
        assert replies[0].retryable

    def test_scan_returns_sorted_cells(self):
        sim, net, master, _ = build(n_servers=1)
        master.create_table("t")
        info, name = master.locate("t", b"x")
        rs = master.server(name)
        replies = []
        rs.rpc(put_request(master, "t", put_cells([b"c", b"a", b"b"])), replies.append, "cl")
        sim.run()
        rs.rpc(ScanRequest("t", b"", b"", info.name), replies.append, "cl")
        sim.run()
        assert [c.row for c in replies[1].result] == [b"a", b"b", b"c"]

    def test_queue_overflow_rejects_rpc(self, monkeypatch):
        monkeypatch.setattr(regionserver, "QUEUE_CAPACITY", 1)
        sim, net, master, servers = build(n_servers=1)
        master.create_table("t")
        rs = servers[0]
        replies = []
        for _ in range(5):
            rs.rpc(put_request(master, "t", put_cells([b"r"])), replies.append, "cl")
        sim.run()
        failures = [r for r in replies if not r.ok]
        assert failures and all("CallQueueTooBig" in r.error for r in failures)

    def test_a_flushed_region_does_not_slow_a_scan_of_another(self):
        """A scan is charged for the copy it reads: flushing another
        region on the same server leaves its reply time unchanged."""
        sim, net, master, servers = build(n_servers=1)
        master.create_table("t", [b"m"])
        (left, _), (right, _) = master.table_regions("t")
        master.direct_put("t", put_cells([b"a", b"b", b"x"]))

        def scan_time():
            replies, start = [], sim.now
            servers[0].rpc(ScanRequest("t", b"m", b"", right.name), replies.append, "cl")
            sim.run()
            assert [c.row for c in replies[0].result] == [b"x"]
            return sim.now - start

        before = scan_time()
        servers[0].regions[left.name].flush()
        assert scan_time() == pytest.approx(before)

    def test_wal_roll_truncates(self):
        sim, net, master, servers = build(n_servers=1)
        master.create_table("t")
        rs = servers[0]
        rs.wal_roll_threshold = 10
        replies = []
        for i in range(4):
            rows = [b"r%d%d" % (i, j) for j in range(5)]
            rs.rpc(put_request(master, "t", put_cells(rows)), replies.append, "cl")
        sim.run()
        assert sum(len(region.wal) for region in rs.hosted_regions()) == 5

    def test_a_counting_only_region_logs_nothing_it_discards(self):
        """A bulk load into the default (counting-only) cluster logs no
        cell: 100k points once sat in the regions' logs, beside memstores
        holding none of them, until the server's roll."""
        cluster = build_cluster(n_nodes=2)
        points = [
            DataPoint.make("energy", t, 1.0, {"unit": "u0", "sensor": f"s{s}"})
            for t in range(1000)
            for s in range(100)
        ]
        assert cluster.direct_put(points) == 100_000
        regions = [region for rs in cluster.servers for region in rs.hosted_regions()]
        assert sum(region.writes for region in regions) == 100_000
        assert sum(len(region.wal) for region in regions) == 0
        assert sum(region.memstore_size for region in regions) == 0

    def test_counting_only_writes_still_roll_the_log(self):
        """The roll counts every cell written, logged or not, so the
        flush schedule does not depend on which regions keep data."""
        sim, net, master, servers = build(n_servers=1)
        master.create_table("kept")
        master.create_table("counted", retain_data=False)
        rs = servers[0]
        rs.wal_roll_threshold = 10
        master.direct_put("kept", put_cells([b"a", b"b"]))
        (kept,) = [r for r in rs.hosted_regions() if r.info.table == "kept"]
        assert (len(kept.wal), kept.store_file_count) == (2, 0)
        master.direct_put("counted", put_cells([b"r%d" % i for i in range(10)]))
        assert (len(kept.wal), kept.store_file_count) == (0, 1)


class TestCrashRecovery:
    def test_restart_rejoins_and_rebalances(self):
        sim, net, master, servers = build(n_servers=2)
        master.create_table("t", [b"1", b"2", b"3"])
        servers[0].crash()
        assert all(srv == servers[1].name for _, srv in master.table_regions("t"))
        servers[0].restart()
        owners = {srv for _, srv in master.table_regions("t")}
        assert owners == {servers[0].name, servers[1].name}

    def test_overflow_crash_policy_end_to_end(self, monkeypatch):
        monkeypatch.setattr(regionserver, "QUEUE_CAPACITY", 0)
        monkeypatch.setattr(overflow_policy, "REJECT_BUDGET", 3)
        sim, net, master, servers = build(n_servers=1, crash_policy=True)
        master.create_table("t")
        rs = servers[0]
        for _ in range(8):
            rs.rpc(put_request(master, "t", put_cells([b"r"])), lambda r: None, "cl")
        assert rs.crashed
        sim.run()  # RESTART_DELAY elapses
        assert not rs.crashed

class TestAdministrivia:
    def test_split_needs_data(self):
        _, _, master, _ = build()
        master.create_table("t")
        with pytest.raises(ValueError):
            master.split_region("t", master.table_regions("t")[0][0].name)

    def test_move_to_dead_server_rejected(self):
        sim, net, master, servers = build(n_servers=2)
        master.create_table("t")
        servers[1].crash()
        region_name = master.table_regions("t")[0][0].name
        with pytest.raises(ValueError):
            master.move_region("t", region_name, servers[1].name)

    def test_balance_evens_out(self):
        sim, net, master, servers = build(n_servers=2)
        master.create_table("t", [b"%d" % i for i in range(1, 8)])  # 8 regions
        # pile everything on server 0
        for info, owner in master.table_regions("t"):
            if owner != servers[0].name:
                master.move_region("t", info.name, servers[0].name)
        moves = master.balance()
        assert moves > 0
        counts = {}
        for _, owner in master.table_regions("t"):
            counts[owner] = counts.get(owner, 0) + 1
        assert max(counts.values()) - min(counts.values()) <= 1

    def test_service_model_costs(self):
        m = ServiceModel()

        def cells(rows):
            return CellBatch(rows, [b"q"] * len(rows), [b"v"] * len(rows), [0.0] * len(rows))

        assert m.put_cost(cells([b"a%d" % i for i in range(50)])) > m.put_cost(cells([b"a"])) > 0
        # Fewer runs over the same cells cost less.
        assert m.put_cost(cells([b"a"] * 50)) < m.put_cost(cells([b"a%d" % i for i in range(50)]))
        # A scan is charged at least one cell, and more cells cost more.
        assert m.scan_cost(0) == m.scan_cost(1) > 0
        assert m.scan_cost(100) > m.scan_cost(1)

    def test_duplicate_registration_rejected(self):
        sim, net, master, servers = build(n_servers=1)
        with pytest.raises(ValueError):
            master.register_server(servers[0])


# ----------------------------------------------------------------------
# range routing: the bisected overlap equals a walk over every region
# ----------------------------------------------------------------------
KEYS = [bytes([c]) + tail for c in b"bcdefg" for tail in (b"", b"m")]
RANGE_BOUNDS = [b"", b"a", *KEYS, b"z"]

topology_ops = st.lists(
    st.one_of(
        st.tuples(st.just("split"), st.integers(0, 20), st.one_of(st.none(), st.sampled_from(KEYS))),
        st.tuples(st.just("move"), st.integers(0, 20), st.integers(0, 2)),
    ),
    max_size=4,
)
range_probes = st.lists(
    st.tuples(
        st.sampled_from(RANGE_BOUNDS),
        st.sampled_from(RANGE_BOUNDS),
        st.one_of(st.none(), st.frozensets(st.sampled_from(KEYS))),
    ),
    min_size=1,
    max_size=6,
)


def overlaps(info, lo, hi):
    """The linear overlap test every caller used to carry a copy of."""
    if hi and info.start_key and info.start_key >= hi:
        return False
    return not (info.end_key and info.end_key <= lo)


class TestRangeRoutingIdentity:
    def build_table(self, split_keys, rows, ops):
        sim = Simulator()
        net = Network(sim)
        # A detection delay keeps a crashed primary un-recovered, so the
        # timeline fallback is what serves its regions.
        master = HMaster(sim=sim, failure_detection_delay=60.0)
        servers = []
        for i in range(3):
            servers.append(RegionServer(sim, net, Node(sim, f"host{i}"), f"rs{i}"))
            master.register_server(servers[-1])
        master.enable_replication(ReplicationCoordinator(sim, net, master, n_followers=1))
        master.create_table("t", sorted(split_keys))
        # Bulk-loaded through the one writer, which ships to the
        # followers; the drain lets every follower catch up.
        master.direct_put("t", CellBatch.from_cells(
            Cell(row, bytes([qual]), b"%d" % i, float(i % 5))
            for i, (row, qual) in enumerate(rows)
        ))
        sim.run()
        for op in ops:
            names = [a.region.info.name for a in master._tables["t"]]
            name = names[op[1] % len(names)]
            if op[0] == "move":
                master.move_region("t", name, servers[op[2]].name)
            else:
                try:
                    master.split_region("t", name, op[2])
                except ValueError:
                    pass  # key outside the region, or too little data to halve
        return master, servers

    def walk(self, master, lo, hi, accepted, timeline=False):
        """Scan every region of the table, pruning nothing."""
        row_filter = None if accepted is None else accepted.__contains__
        cells, staleness = [], 0.0
        for a in master._tables["t"]:
            region = a.region
            if timeline and master.server(a.server).crashed:
                region, stale = master.replication.best_follower(region.info.name)
                staleness = max(staleness, stale)
            cells.extend(region.scan(lo, hi, row_filter))
        return CellBatch.from_cells(sorted(cells, key=lambda c: c.key)), staleness

    @settings(max_examples=60, deadline=None)
    @given(
        st.sets(st.sampled_from(KEYS), max_size=5),
        st.lists(st.tuples(st.sampled_from(KEYS), st.integers(0, 2)), max_size=30),
        topology_ops,
        range_probes,
        st.integers(0, 2),
        st.integers(0, 4),
    )
    def test_scans_locates_and_deletes_equal_a_full_walk(
        self, split_keys, rows, ops, probes, victim, delete_ts
    ):
        master, servers = self.build_table(split_keys, rows, ops)
        for lo, hi, accepted in probes:
            row_filter = None if accepted is None else accepted.__contains__
            expected, _ = self.walk(master, lo, hi, accepted)
            assert master.direct_scan("t", lo, hi, row_filter) == expected
            for timeline in (False, True):
                assert master.direct_scan_consistent("t", lo, hi, timeline, row_filter) == (
                    expected, 0.0)
            assert master.locate_range("t", lo, hi) == [
                (a.region.info, a.server)
                for a in master._tables["t"]
                if overlaps(a.region.info, lo, hi)
            ]

        servers[victim].crash()
        for lo, hi, accepted in probes:
            row_filter = None if accepted is None else accepted.__contains__
            down = [
                a.region.info.name
                for a in master._tables["t"]
                if overlaps(a.region.info, lo, hi) and a.server == servers[victim].name
            ]
            if down:
                with pytest.raises(RegionUnavailableError):
                    master.direct_scan_consistent("t", lo, hi, False, row_filter)
            else:
                assert master.direct_scan_consistent("t", lo, hi, False, row_filter) == (
                    self.walk(master, lo, hi, accepted))
            assert master.direct_scan_consistent("t", lo, hi, True, row_filter) == (
                self.walk(master, lo, hi, accepted, timeline=True))

        lo, hi, _ = probes[0]
        before, _ = self.walk(master, b"", b"", None)
        doomed = [
            c for c in before
            if c.row >= lo and (not hi or c.row < hi) and c.ts <= delete_ts
        ]
        tombstones = {a.region.info.name: a.region.tombstone_count for a in master._tables["t"]}
        assert master.direct_delete_range("t", lo, hi, float(delete_ts)) == len(doomed)
        for a in master._tables["t"]:  # only the regions the range touches are tombstoned
            added = a.region.tombstone_count - tombstones[a.region.info.name]
            assert added == (1 if overlaps(a.region.info, lo, hi) else 0)
        survivors = CellBatch.from_cells(c for c in before if c not in doomed)
        assert master.direct_scan("t") == survivors
        assert master.direct_scan_consistent("t", timeline=True)[0] == survivors


# ----------------------------------------------------------------------
# one-pass reads: a query's whole plan in one master read equals a
# master read and an assembler feed per salt-bucket range
# ----------------------------------------------------------------------
def per_range_read(engine, query, timeline=None):
    """The reference read loop: one master scan and one ``ingest_scan``
    per planned range.  ``timeline=None`` reads administratively (as
    ``run`` does), else availability-aware in that mode.  Returns the
    raw series, the worst staleness and the cells handed over."""
    state, ranges = engine.plan_scan(query)
    row_filter = state.row_filter()
    staleness, cells = 0.0, 0
    for lo, hi in ranges:
        if timeline is None:
            batch, stale = engine.master.direct_scan(DATA_TABLE, lo, hi, row_filter), 0.0
        else:
            batch, stale = engine.master.direct_scan_consistent(
                DATA_TABLE, lo, hi, timeline, row_filter)
        staleness = max(staleness, stale)
        if batch.rows:
            cells += len(batch.rows)
            state.ingest_scan(batch)
    return state.to_series(), staleness, cells


def frozen(series):
    """Series as comparable bytes: bit-identity, not float equality."""
    return [(s.tags, s.timestamps.tobytes(), s.values.tobytes()) for s in series]


class TestOnePassRead:
    UNITS, SENSORS, HOURS, PER_HOUR = 4, 4, 3, 40

    def points(self, hour, value):
        return [
            DataPoint.make("energy", hour * 3600 + 7 * i, value + i,
                           {"unit": f"u{u}", "sensor": f"s{s}"})
            for u in range(self.UNITS)
            for s in range(self.SENSORS)
            for i in range(self.PER_HOUR)
        ]

    def build(self, salt_buckets):
        """rf = 2 with a slow failure detector, so a crashed primary's
        regions stay on it and only followers can serve them."""
        cluster = build_cluster(ClusterConfig(
            n_nodes=3, salt_buckets=salt_buckets, retain_data=True,
            crash_on_overflow=False, replication_factor=2, failure_detection_delay=600.0,
        ))
        for hour in range(self.HOURS):
            cluster.direct_put(self.points(hour, float(hour)))
        cluster.compactor().run()  # blobs: rows the assembler walks one by one
        # Late rewrites after the blobs, and a second metric in the same buckets.
        cluster.direct_put(self.points(1, 100.0)[::5])
        cluster.direct_put([DataPoint.make("other", 3600 + i, 1.0, {"unit": "u0"})
                            for i in range(30)])
        master = cluster.master
        regions = master.table_regions(DATA_TABLE)
        fullest = max(regions, key=lambda r: len(set(master.direct_scan(
            DATA_TABLE, r[0].start_key, r[0].end_key).rows)))[0].name
        left, right = master.split_region(DATA_TABLE, fullest)  # a split inside a bucket
        owner = {info.name: server for info, server in master.table_regions(DATA_TABLE)}
        dest = next(s.name for s in cluster.servers if s.name != owner[left])
        master.move_region(DATA_TABLE, left, dest)
        # Retention tombstones over the first hour, as expiry writes them.
        uid = cluster.uids.get("metric", "energy")
        expire_ts = cluster.next_write_ts()
        for lo, hi in cluster.codec.scan_ranges(uid, 0, 3600):
            master.direct_delete_range(DATA_TABLE, lo, hi, expire_ts)
        cluster.direct_put(self.points(2, 50.0)[::7])  # memstore rows beside store files
        cluster.sim.run(until=cluster.sim.now + 1.0)
        # The victim is primary for half the fullest bucket's rows.
        return cluster, master.server(owner[right])

    def queries(self):
        end = self.HOURS * 3600
        return [
            TsdbQuery("energy", 0, end, group_by=("unit",)),
            TsdbQuery("energy", 1800, end - 900, tag_filters={"unit": "u1"},
                      group_by=("sensor",), aggregator="max"),
            TsdbQuery("energy", 3600, 3600 + 200,
                      tag_filters={"unit": "u2", "sensor": "s0"}),
            TsdbQuery("energy", 0, 3600, tag_filters={"unit": "*"}),  # expired hour
            TsdbQuery("never_written", 0, end),
        ]

    @pytest.mark.parametrize("salt_buckets", [0, 4, 128])
    def test_one_pass_equals_a_read_per_range(self, salt_buckets):
        cluster, victim = self.build(salt_buckets)
        assert len(cluster.master.table_regions(DATA_TABLE)) == max(salt_buckets, 1) + 1
        engine = cluster.query_engine()
        assert engine.lifecycle is None  # run == group_and_aggregate over the raw read
        for query in self.queries():
            raw, _, cells = per_range_read(engine, query)
            answer = frozen(group_and_aggregate(query, raw))
            before = engine.scan_cells
            assert frozen(engine.series_for(query)) == frozen(raw)
            assert engine.scan_cells - before == cells
            assert frozen(engine.run(query)) == answer
            assert engine.scan_cells - before == 2 * cells
            result = engine.run_available(query)
            assert (result.mode, result.staleness) == ("strong", 0.0)
            assert frozen(result.series) == answer
            assert engine.scan_cells - before == 3 * cells

        # Followers stop applying the WAL stream, a write lands through
        # it, and the victim dies before the slow detector fails it over.
        for server in cluster.servers:
            cluster.replication.stall_followers(server.name)
        cluster.submit(self.points(2, 70.0)[::3])
        cluster.sim.run(until=cluster.sim.now + 2.0)
        victim.crash()
        cluster.sim.run(until=cluster.sim.now + 2.0)
        refused, stale = 0, 0.0
        for query in self.queries():
            try:
                per_range_read(engine, query, timeline=False)
            except RegionUnavailableError as exc:
                refused += 1
                with pytest.raises(RegionUnavailableError) as one_pass:
                    engine._execute(query, "strong")
                assert one_pass.value.args == exc.args
            else:
                result = engine.run_available(query)
                assert result.mode == "strong"
            raw, staleness, cells = per_range_read(engine, query, timeline=True)
            before = engine.scan_cells
            series, worst = engine._execute(query, "timeline")
            assert worst == staleness
            stale = max(stale, staleness)
            assert frozen(series) == frozen(group_and_aggregate(query, raw))
            assert engine.scan_cells - before == cells
            result = engine.run_available(query)
            assert frozen(result.series) == frozen(series)
            assert result.staleness == (staleness if result.mode == "timeline" else 0.0)
        assert refused and stale > 0.0


# ----------------------------------------------------------------------
# write routing: the first-byte route table equals a per-row oracle
# ----------------------------------------------------------------------
#: First bytes around the salt boundaries of 4 and 128 buckets, plus
#: the 0xff bucket, which has no next byte to end at.
FIRST_BYTES = [0x00, 0x01, 0x02, 0x03, 0x04, 0x7E, 0x7F, 0x80, 0xFE, 0xFF]
route_rows = st.one_of(
    st.just(b""),
    st.builds(
        lambda first, tail: bytes([first]) + tail,
        st.sampled_from(FIRST_BYTES),
        st.binary(max_size=3),
    ),
)
#: A one-byte key splits on a byte boundary; a longer one inside a byte.
route_splits = st.builds(
    lambda first, tail: bytes([first]) + tail,
    st.sampled_from(FIRST_BYTES),
    st.one_of(st.just(b""), st.binary(min_size=1, max_size=2)),
)
route_ops = st.lists(
    st.one_of(
        st.tuples(st.just("split"), route_splits),
        st.tuples(st.just("move"), st.integers(0, 300), st.integers(0, 2)),
        st.tuples(st.just("crash"), st.integers(0, 2), st.booleans()),
    ),
    max_size=5,
)


def numbered_cells(rows):
    """One cell per row, in row order; distinct qualifiers make a share's
    cell order observable."""
    return CellBatch.from_cells(
        Cell(row, b"%03d" % i, b"v%d" % i, float(i)) for i, row in enumerate(rows)
    )


def oracle_partition(batch, owner_of):
    """``{owner: [cells]}`` in first-appearance order, one row at a time."""
    shares = {}
    for cell in batch:
        shares.setdefault(owner_of(cell.row), []).append(cell)
    return shares


def as_cells(shares):
    return {owner: list(share) for owner, share in shares.items()}


class TestRouteTable:
    """Partitioning through a route table equals asking every row its
    region (``RegionInfo.contains`` over every region), whatever the
    layout: salted or not, split inside a byte, regions moved, servers
    failed over and restarted."""

    def build(self, salt_buckets, replicate=True):
        sim = Simulator()
        net = Network(sim)
        master = HMaster()
        servers = []
        for i in range(3):
            servers.append(RegionServer(sim, net, Node(sim, f"host{i}"), f"rs{i}"))
            master.register_server(servers[-1])
        if replicate:
            master.enable_replication(ReplicationCoordinator(sim, net, master, n_followers=1))
        master.create_table("t", RowKeyCodec(salt_buckets).split_keys())
        return master, servers

    def apply(self, master, servers, op):
        names = [a.region.info.name for a in master._tables["t"]]
        if op[0] == "split":  # the region holding the key, at the key
            info, _ = master.locate("t", op[1])
            if op[1] != info.start_key:
                master.split_region("t", info.name, op[1])
        elif op[0] == "move":
            if not servers[op[2]].crashed:
                master.move_region("t", names[op[1] % len(names)], servers[op[2]].name)
        else:
            servers[op[1]].crash()  # fails over to followers, or reassigns
            if op[2]:
                servers[op[1]].restart()  # rejoins empty; the balancer moves regions back

    def check(self, master, servers, batch):
        regions = [a.region for a in master._tables["t"]]

        def region_of(row):
            [region] = [r for r in regions if r.info.contains(row)]
            return region

        server_of = {a.region.info.name: a.server for a in master._tables["t"]}
        by_server = oracle_partition(batch, lambda row: server_of[region_of(row).info.name])
        got = master.route("t", batch)
        assert list(got) == list(by_server)  # first-appearance order
        for server, shares in got.items():
            # Each server's cells by region, in first-appearance order.
            by_region = oracle_partition(CellBatch.from_cells(by_server[server]), region_of)
            assert as_cells(shares) == by_region
            assert list(shares) == list(by_region)
            if server is not None:
                # Its server hosts every region routed to it.
                assert all(r.info.name in master.server(server).regions for r in shares)
        routes = master._routes["t"]
        assert [a.region for a in routes.owners(batch.rows)] == [region_of(r) for r in batch.rows]

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([0, 4, 128]), route_ops, st.lists(route_rows, min_size=1, max_size=40))
    def test_partitions_equal_a_per_row_oracle(self, salt_buckets, ops, rows):
        master, servers = self.build(salt_buckets)
        batch = numbered_cells(rows)
        self.check(master, servers, batch)
        for op in ops:
            self.apply(master, servers, op)
            self.check(master, servers, batch)

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([0, 4, 128]),
        st.lists(route_splits, max_size=3),
        st.lists(route_rows, min_size=1, max_size=40),
        st.integers(0, 2),
        st.booleans(),
    )
    def test_failover_replays_every_synced_cell_into_its_region(
        self, salt_buckets, splits, rows, victim, replicate
    ):
        """Each region replays its own log, through splits and route
        tables.  The cells below are logged and shipped, but no
        follower applies them before the crash (the simulator never
        runs), so only a replay into the right region brings them back
        (a row replayed into the wrong one raises)."""
        master, servers = self.build(salt_buckets, replicate)
        for key in splits:
            self.apply(master, servers, ("split", key))
        batch = numbered_cells(rows)
        for name, shares in master.route("t", batch).items():
            assert master.server(name).write(shares)
        servers[victim].crash()
        assert master.direct_scan("t") == CellBatch.from_cells(
            sorted(batch, key=lambda cell: cell.key)
        )


class TestOneRoutingPass:
    """Every write is split by region once (:meth:`HMaster.route`): one
    :meth:`CellBatch.partition` per client put, per retry, per bulk load
    and per compactor pass.  A put RPC was once split twice, by server
    at the client and by region at the server, and a compactor pass
    twice, by server and again inside each server's bulk load."""

    @pytest.fixture
    def partitions(self, monkeypatch):
        calls = []
        original = CellBatch.partition

        def counted(batch, owners_of):
            calls.append(len(batch))
            return original(batch, owners_of)

        monkeypatch.setattr(CellBatch, "partition", counted)
        return calls

    @staticmethod
    def loaded_cluster():
        cluster = build_cluster(n_nodes=3, salt_buckets=4, retain_data=True)
        points = [
            DataPoint.make("energy", 60 * t, float(t), {"unit": f"u{s % 3}", "sensor": f"s{s}"})
            for t in range(20)
            for s in range(12)
        ]
        return cluster, points

    def test_one_per_client_put_and_per_retry(self, partitions):
        sim, net, master, servers = build()
        master.create_table("t", [b"m"])
        client = HTableClient(sim, net, master, "cl")
        client.put("t", put_cells([b"a", b"b", b"x"]))
        sim.run()
        assert len(partitions) == 1
        # A region moved while the put is in flight: one retry.
        client.put("t", put_cells([b"a", b"b", b"x"], ts=2.0))
        info, owner = master.locate("t", b"a")
        master.move_region("t", info.name, next(s.name for s in servers if s.name != owner))
        sim.run()
        assert client.metrics.counter("client.retries").get() == 1
        assert len(partitions) == 3

    def test_one_per_tsd_put_and_per_retry(self, partitions, monkeypatch):
        cluster, points = self.loaded_cluster()
        puts = []
        for tsd in cluster.tsds:
            monkeypatch.setattr(tsd.client, "put", counting_put(tsd.client.put, puts))
        acks = []
        cluster.submit(points, acks.append)
        cluster.sim.run()
        assert all(ack.ok for ack in acks)
        retries = cluster.metrics.counter("client.retries").get()
        assert puts and len(partitions) == len(puts) + retries

    def test_one_per_bulk_load_and_per_compactor_pass(self, partitions):
        cluster, points = self.loaded_cluster()
        assert cluster.direct_put(points) == len(points)
        assert len(partitions) == 1
        compactor = cluster.compactor()
        assert compactor.run() > 0
        assert len(partitions) == 2
        cluster.direct_put(points[:12])  # newer cells: the next pass rewrites their rows
        compactor.run()
        assert len(partitions) == 4


def counting_put(put, calls):
    def counted(table, cells, *args, **kwargs):
        if cells.rows:
            calls.append(len(cells))
        return put(table, cells, *args, **kwargs)

    return counted
