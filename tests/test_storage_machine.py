"""What the proxy acks is stored: one state machine over a three-node
cluster and a dict oracle (DESIGN.md §26: rules, invariants, replay)."""

import random
from itertools import repeat

import pytest
from hypothesis import note, settings, strategies as st
from hypothesis.control import currently_in_test_context
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.chaos import FaultEvent, FaultPlan, Injector
from repro.tsdb.blocks import BlockBatch
from repro.tsdb.ingest import build_cluster
from repro.tsdb.query import TsdbQuery
from repro.tsdb.tsd import DATA_TABLE, DataPoint, PutAck

HOUR, T0 = 3600, 1_000 * 3600  # in-order keys start at T0; late keys may fall below
UNITS = ("u0", "u1", "u2")
QUERY = TsdbQuery("energy", T0 - 4 * HOUR, T0 + 1_000 * HOUR, group_by=("unit",))
DETECTION_DELAY = 0.5  # sim-seconds from a RegionServer crash to its recovery
SETTLE_BOUND = 150.0  # sim-seconds: past the proxy's whole retry budget
picks = st.integers(0, 99)
TARGETS = {  # fault action -> its target's name prefix
    "rs_crash": "rs", "rs_restart": "rs", "partition": "node", "heal": "node",
    "tsd_crash": "tsd", "tsd_restart": "tsd", "replica_stall": "rs", "replica_resume": "rs",
}


class StorageMachine(RuleBasedStateMachine):
    @initialize(rf=st.sampled_from([1, 2]))
    def setup(self, rf):
        self.cluster = build_cluster(
            n_nodes=3, salt_buckets=4, retain_data=True, crash_on_overflow=False,
            replication_factor=rf, failure_detection_delay=DETECTION_DELAY,
        )
        self.master, self.sim = self.cluster.master, self.cluster.sim
        self.proxy = self.cluster.ingress
        self.ack_timeout, self.faults = self.proxy.ack_timeout, []
        self.batches, self.exempt = [], set()  # (keys, acks); batches the ack timeout may miss
        self.writes, self.ordered = {}, {}  # key -> [(batch, value)]; each write after an ok ack
        self.cursor = dict.fromkeys(UNITS, T0)

    def ok(self, b):
        return bool(self.batches[b][1]) and self.batches[b][1][0].ok

    def live(self):
        return [rs for rs in self.cluster.servers if not rs.crashed]

    def regions(self):
        return [region for rs in self.live() for region in rs.hosted_regions()]

    @rule(size=st.integers(0, 60), shape=st.sampled_from(["points", "blocks", "bulk"]),
          kind=st.sampled_from(["in_order", "late", "duplicate"]), seed=st.integers(0, 2**16))
    def ingest(self, size, shape="points", kind="in_order", seed=0):
        if shape == "bulk" and None in dict(self.layout()).values():
            return  # direct_put raises on an unassigned region, before writing anything
        rng, b, keys = random.Random(seed), len(self.batches), {}
        for _ in range(size):
            unit = rng.choice(UNITS)
            if kind == "duplicate" and self.writes:
                key = rng.choice(sorted(self.writes))
            elif kind == "late":
                key = (unit, rng.randrange(T0 - 3 * HOUR, self.cursor[unit] // HOUR * HOUR))
            else:
                self.cursor[unit] += rng.randint(1, 900)
                key = (unit, self.cursor[unit])
            keys[key] = float(b * 1_000 + len(keys))  # unique per write
        for key, value in keys.items():
            old = self.writes.setdefault(key, [])
            self.ordered[key] = not old or (self.ordered[key] and self.ok(old[-1][0]))
            old.append((b, value))
        self.batches.append((list(keys), []))
        if self.proxy.ack_timeout is None:
            self.exempt.add(b)
        points = [DataPoint.make("energy", t, v, {"unit": u}) for (u, t), v in keys.items()]
        if shape == "bulk":  # acked ok when the bulk load returns
            self.batches[b][1].append(PutAck(True, self.cluster.direct_put(points), 0, "bulk"))
        elif shape == "points":
            self.cluster.submit(points, self.batches[b][1].append)
        else:
            self.cluster.submit_blocks(BlockBatch.from_points(points), self.batches[b][1].append)

    @rule(pick=picks)
    def flush(self, pick):
        for tsd in self.cluster.tsds:
            tsd.flush_all()
        if regions := self.regions():
            regions[pick % len(regions)].flush()

    @rule()
    def compact(self):
        self.cluster.compactor().run()

    @rule(pick=picks)
    def split(self, pick):
        if held := [r for r in self.regions() if r.midpoint_key() is not None]:
            daughters = self.master.split_region(DATA_TABLE, held[pick % len(held)].info.name)
            assert set(daughters) <= {i.name for i, _ in self.layout()}

    @rule(pick=picks, dest=picks)
    def move(self, pick, dest):
        if regions := self.regions():
            name, live = regions[pick % len(regions)].info.name, self.live()
            dest = live[dest % len(live)].name
            self.master.move_region(DATA_TABLE, name, dest)
            assert dict((i.name, s) for i, s in self.layout())[name] == dest
            assert name in self.master.server(dest).regions

    @rule(action=st.sampled_from(list(TARGETS)), host=st.integers(0, 2),
          delay=st.sampled_from([0.0, 0.002, 0.2]))
    def fault(self, action, host, delay):
        if action.startswith("replica") and self.cluster.replication is None:
            return  # no follower to stall at rf 1
        event = FaultEvent(self.sim.now + delay, action, f"{TARGETS[action]}{host:02d}")
        self.faults.append(event)
        Injector(self.cluster, FaultPlan((event,))).arm()
        if currently_in_test_context():  # a replay outside Hypothesis has its steps
            note(f"fault: {event.action} {event.target} at t={event.at!r}")

    @rule(on=st.booleans())
    def set_ack_timeout(self, on):
        if not on:
            self.exempt.update(b for b, (_, acks) in enumerate(self.batches) if not acks)
        self.proxy.ack_timeout = self.ack_timeout if on else None

    @rule(seconds=st.sampled_from([0.001, 0.01, 0.2]))
    def run(self, seconds):
        self.sim.run(until=self.sim.now + seconds)

    @rule()
    def settle(self):
        bound = self.sim.now + SETTLE_BOUND
        self.sim.run(until=self.sim.now + DETECTION_DELAY + 1.0)
        pending = lambda: [
            b for b, (_, acks) in enumerate(self.batches) if not acks and b not in self.exempt
        ]
        while pending() and self.sim.now < bound:
            self.sim.run(until=self.sim.now + 1.0)
        assert not pending(), "batches left unacked by a settle with the ack timeout on"
        assert self.faults or all(map(self.ok, range(len(self.batches)))), "failed with no fault"
        live = {rs.name for rs in self.live()}
        for info, server in self.layout():
            assert server in live if live else server is None, f"{info.name} on {server}"
        read = self.read(self.cluster.query_engine().run(QUERY))
        for key, writes in self.writes.items():
            if any(self.ok(b) for b, _ in writes):
                assert key in read, f"acked key {key} lost"
            if key in read:  # a failed ack is no proof that nothing landed
                assert read[key] in [v for _, v in writes], f"{key} reads {read[key]}"
            if self.ordered[key] and self.ok(writes[-1][0]):
                assert read[key] == writes[-1][1], f"{key} reads {read[key]}, not its last write"
        assert read.keys() <= self.writes.keys()
        if live:  # every region is on a live primary, so reads are strong
            available = self.cluster.query_engine().run_available(QUERY)
            assert available.mode == "strong" and self.read(available.series) == read

    def layout(self):
        return self.master.table_regions(DATA_TABLE)

    @staticmethod
    def read(series):
        return {
            (s.tag_dict["unit"], int(t)): float(v)
            for s in series for t, v in zip(s.timestamps, s.values)
        }

    @invariant()
    def acks_and_counters_balance(self):
        for keys, acks in self.batches:
            assert len(acks) <= 1
            assert all(a.written + a.failed == len(keys) and a.ok == (not a.failed) for a in acks)
        replication = self.cluster.replication
        failovers = self.cluster.metrics.counter("master.failovers").get()
        assert (replication.promotions if replication else 0) == failovers

    @invariant()
    def memstores_are_logged(self):
        for region in self.regions():
            log = region.wal.entries
            logged = set(zip(log.rows, log.qualifiers, log.ts))
            for row, (qualifiers, _, stamps) in region._memstore.items():
                for cell in zip(repeat(row), qualifiers, stamps):
                    assert cell in logged, f"{region.info.name} holds {cell}, not in its log"


StorageMachine.TestCase.settings = settings(
    max_examples=50, stateful_step_count=50, deadline=None, derandomize=True
)
TestStorageMachine = StorageMachine.TestCase

#: Shrunk failures the machine found, each fixed in ``src/``: name -> (rf, steps).  The first:
#: the TSD never acked an empty point list (13 ack timeouts, then ``proxy-exhausted``).
FOUND = {
    "an-empty-batch-is-acked-ok-at-once": (1, lambda s: (
        s.ingest(0), s.ingest(0, "blocks"), s.settle())),
    "compaction-hides-an-in-flight-write": (1, lambda s: (
        s.ingest(2), s.settle(), s.ingest(1), s.run(0.001), s.compact(), s.settle())),
    "compaction-reverts-an-in-flight-duplicate": (1, lambda s: (
        s.ingest(2), s.settle(), s.ingest(1, kind="duplicate"), s.run(0.001), s.compact(),
        s.settle())),
    "split-daughters-die-with-their-new-host": (1, lambda s: (
        s.ingest(12), s.settle(), s.split(0), s.fault("rs_crash", 1, 0.0), s.settle())),
    "a-put-resolved-in-parts-acks-the-wrong-batch": (1, lambda s: (
        s.fault("partition", 0, 0.0), s.fault("rs_crash", 0, 0.0), s.run(0.001),
        s.ingest(15, kind="late", seed=671), s.ingest(38, kind="duplicate", seed=11990),
        s.run(0.001), s.fault("partition", 1, 0.0), s.ingest(19, kind="late"), s.flush(0),
        s.run(0.001), s.split(0), s.settle())),
    "an-undeliverable-empty-batch-acks-failed": (1, lambda s: (
        *(s.fault("partition", h, 0.0) for h in range(3)), s.ingest(0), s.settle())),
    "a-restart-after-a-total-outage-assigns-nothing": (1, lambda s: (
        *(s.fault("rs_crash", h, 0.0) for h in (1, 0, 2)), s.settle(),
        s.fault("rs_restart", 0, 0.0), s.settle())),
    "compaction-between-a-restart-and-its-detection": (1, lambda s: (
        s.ingest(30), s.settle(), s.fault("rs_crash", 0, 0.0), s.ingest(30), s.run(0.2),
        s.fault("rs_restart", 0, 0.0), s.run(0.001), s.compact(), s.settle())),
    "a-failover-drops-the-primary-store-files": (2, lambda s: (
        s.ingest(5, kind="late", seed=342), s.fault("partition", 0, 0.2), s.settle(),
        s.split(88), s.ingest(2, "blocks", "duplicate", seed=2698), s.settle(), s.move(67, 59),
        s.fault("rs_crash", 2, 0.0), s.settle())),
    "a-restart-before-detection-loses-the-crash-wal": (1, lambda s: (
        s.fault("rs_crash", 0, 0.0), s.settle(), s.ingest(2, "blocks", "late", seed=247),
        s.fault("rs_crash", 2, 0.002), s.fault("rs_crash", 2, 0.2),
        s.fault("rs_restart", 2, 0.002), s.settle())),
    "a-crash-loses-unflushed-bulk-loads": (1, lambda s: (
        s.ingest(30, "bulk"), s.fault("rs_crash", 0, 0.0), s.settle())),
}


@pytest.mark.parametrize("rf, replay", FOUND.values(), ids=list(FOUND))
def test_found_failure_replays_clean(rf, replay):
    state = StorageMachine()
    state.setup(rf=rf)
    replay(state)
    state.acks_and_counters_balance()
    state.memstores_are_logged()
    assert state.proxy.ack_timeouts == 0 or state.faults


@pytest.mark.parametrize("rf", [1, 2])
def test_a_bulk_load_into_an_undetected_crash_reads_back(rf):
    """rs00 is down but not yet detected, so the master still names it:
    the load lands in its regions and in the WAL recovery replays."""
    state = StorageMachine()
    state.setup(rf=rf)
    state.fault("rs_crash", 0, 0.0)
    state.run(0.001)
    recoveries = state.cluster.metrics.counter("master.recoveries")
    assert recoveries.get() == 0
    assert any(server == "rs00" for _, server in state.layout())
    state.ingest(30, "bulk")
    state.settle()
    assert recoveries.get() == 1


def test_an_exhausted_batch_reports_what_its_attempts_landed():
    """Partition node00, ingest 7 points, settle: each attempt's TSD ack
    arrives after the ack timeout, having written one point.  That
    point reads back, and the failed final ack says so."""
    state = StorageMachine()
    state.setup(rf=1)
    state.fault("partition", 0, 0.0)
    state.ingest(7)
    state.settle()
    ((keys, (ack,)),) = state.batches
    read = state.read(state.cluster.query_engine().run(QUERY))
    assert not ack.ok and ack.written + ack.failed == len(keys) == 7
    assert ack.written == sum(key in read for key in keys) == 1
