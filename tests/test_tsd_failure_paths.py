"""TSD failure-path semantics: partial failures, retry exhaustion, accounting."""

import gc
import weakref
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.metrics import MetricsRegistry
from repro.cluster.simulation import Simulator
from repro.hbase import regionserver
from repro.tsdb.blocks import BlockBatch, SeriesBlock
from repro.tsdb.ingest import build_cluster
from repro.tsdb.publish import (
    BatchPublisher,
    DeliveryAccountingError,
    PublishReport,
    PublishStalledError,
)
from repro.tsdb.tsd import RPC_BATCH_SIZE, DataPoint, PutAck


def points(n, t0=0):
    return [
        DataPoint.make("energy", t0 + i, float(i), {"unit": "u1", "sensor": f"s{i % 7}"})
        for i in range(n)
    ]


class TestDurableAckSemantics:
    def test_ack_failed_when_cluster_dead(self):
        cluster = build_cluster(n_nodes=1, salt_buckets=2)
        # Permanently kill the only RegionServer (no restart).
        cluster.servers[0].crash_policy = None
        cluster.servers[0].crash()
        # shrink client retries so the test is fast
        for tsd in cluster.tsds:
            tsd.client.max_retries = 1
        acks = []
        cluster.tsds[0].put_batch(points(6), acks.append, "client")
        cluster.sim.run()
        assert len(acks) == 1
        assert not acks[0].ok
        assert acks[0].failed == 6
        assert acks[0].written == 0
        assert cluster.tsds[0].points_failed == 6

    def test_mixed_outcome_when_one_bucket_unservable(self):
        """Cells for a dead region fail; cells for live regions commit."""
        cluster = build_cluster(n_nodes=2, salt_buckets=2)
        for tsd in cluster.tsds:
            tsd.client.max_retries = 1
        # kill one server permanently: one of the two salt-bucket regions
        # moves to the survivor immediately... so instead kill AFTER
        # locating: crash the survivor too late.  Simpler deterministic
        # setup: kill both servers after regions are split across them,
        # then revive one and reassign only one region to it.
        victim = cluster.servers[0]
        victim.crash_policy = None
        survivor = cluster.servers[1]
        survivor.crash_policy = None
        # victim's region will be reassigned to survivor on crash; kill
        # survivor first so its region has nowhere to go, then victim.
        survivor.crash()
        acks = []
        cluster.tsds[0].put_batch(points(8), acks.append, "client")
        cluster.sim.run()
        assert len(acks) == 1
        ack = acks[0]
        # whatever the split across buckets, accounting must add up
        assert ack.written + ack.failed == 8
        # at least one side is non-trivial: the victim's region still lives
        if ack.written:
            assert ack.ok is False or ack.failed == 0

    def test_points_written_counter_matches_storage(self):
        cluster = build_cluster(n_nodes=2, retain_data=True)
        acks = []
        cluster.tsds[0].put_batch(points(20), acks.append, "client")
        cluster.tsds[1].put_batch(points(20, t0=100), acks.append, "client")
        cluster.sim.run()
        total_written = sum(t.points_written for t in cluster.tsds)
        assert total_written == 40
        assert len(cluster.master.direct_scan("tsdb")) == 40

    def test_ack_counts_are_exact_under_overflow_retries(self, monkeypatch):
        """Queue-overflow retries must not double-count written points.

        Two TSDs flush concurrently into a single server with a
        zero-depth queue, forcing rejections + client retries.
        """
        monkeypatch.setattr(regionserver, "QUEUE_CAPACITY", 0)
        cluster = build_cluster(n_nodes=1, salt_buckets=4,
                                crash_on_overflow=False, retain_data=True)
        acks = []
        # points spread over 4 buckets -> concurrent small flushes race
        # into the zero-depth RPC queue
        cluster.tsds[0].put_batch(points(20), acks.append, "client")
        cluster.sim.run()
        assert sum(a.written for a in acks) == 20
        assert len(cluster.master.direct_scan("tsdb")) == 20
        assert cluster.metrics.counter("client.retries").get() >= 1


# Batch sizes on and around a linger buffer's capacity, and anything up to three of them.
batch_sizes = st.one_of(
    st.sampled_from([1, RPC_BATCH_SIZE - 1, RPC_BATCH_SIZE, RPC_BATCH_SIZE + 1]),
    st.integers(min_value=1, max_value=3 * RPC_BATCH_SIZE),
)


class TestMixedPayloadsUnderFaults:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(st.booleans(), batch_sizes, st.floats(min_value=0.0, max_value=0.3)),
            min_size=1,
            max_size=8,
        ),
        st.sampled_from(["unservable", "crash"]),
        st.integers(min_value=1, max_value=4),
    )
    def test_each_batch_is_acked_once_and_every_written_point_is_stored(
        self, payloads, fault, crash_on_put
    ):
        """Point lists and block batches interleave on one TSD, sharing
        its linger buffers and puts, while a RegionServer is lost.
        Either its buckets are unservable (it is down from the start and
        the master has not yet detected it), or it crashes mid-run, on
        taking its ``crash_on_put``-th put, and the master recovers its
        regions at once, so the puts it had queued time out and are
        retried.  Every inbound batch gets exactly one ack that accounts
        for each of its points, and the points acked as written are
        exactly the points stored."""
        cluster = build_cluster(
            n_nodes=2,
            salt_buckets=4,
            retain_data=True,
            crash_on_overflow=False,
            failure_detection_delay=30.0 if fault == "unservable" else 0.0,
        )
        tsd = cluster.tsds[0]
        tsd.client.max_retries = 1
        victim = cluster.servers[0]
        if fault == "unservable":
            victim.crash()
        else:
            serve = victim.rpc
            puts = []

            def rpc(request, reply_to, src_host):
                serve(request, reply_to, src_host)
                puts.append(request)
                if len(puts) == crash_on_put:
                    victim.crash()

            victim.rpc = rpc
        batches, acks, start = [], [], 0
        for as_blocks, size, arrival in payloads:
            # Distinct (series, timestamp) keys throughout, over two row hours.
            batch = [
                DataPoint.make("energy", 11 * k, float(k), {"unit": "u1", "sensor": f"s{k % 7}"})
                for k in range(start, start + size)
            ]
            start += size
            batches.append(batch)
            acks.append([])
            payload = BlockBatch.from_points(batch) if as_blocks else batch
            cluster.sim.schedule(arrival, tsd.put_batch, payload, acks[-1].append, "client")
        cluster.sim.run()
        for batch, got in zip(batches, acks):
            assert len(got) == 1
            (ack,) = got
            assert ack.written + ack.failed == len(batch)
            assert ack.ok == (ack.failed == 0)
        written = sum(ack.written for (ack,) in acks)
        assert written == tsd.points_written
        assert len(cluster.master.direct_scan("tsdb")) == written


class TestTsdCrashLifecycle:
    def test_crashed_tsd_swallows_batches_silently(self):
        cluster = build_cluster(n_nodes=1, salt_buckets=2)
        tsd = cluster.tsds[0]
        tsd.crash()
        acks = []
        tsd.put_batch(points(5), acks.append, "client")
        cluster.sim.run()
        # No ack of any kind — unlike a queue-overflow rejection.
        assert acks == []
        assert tsd.batches_swallowed == 1
        assert cluster.metrics.counter("tsd.batches_swallowed").get() == 1

    def test_crash_drops_buffered_cells(self):
        cluster = build_cluster(n_nodes=1, salt_buckets=2, retain_data=True)
        tsd = cluster.tsds[0]
        tsd.put_batch(points(3), lambda a: None, "client")
        cluster.sim.run(until=0.01)  # past HTTP service, before linger flush
        assert tsd._buffers
        tsd.crash()
        assert not tsd._buffers and not tsd._linger_timers
        cluster.sim.run()
        assert len(cluster.master.direct_scan("tsdb")) == 0

    def test_restart_restores_service(self):
        cluster = build_cluster(n_nodes=1, salt_buckets=2, retain_data=True)
        tsd = cluster.tsds[0]
        tsd.crash()
        tsd.restart()
        assert not tsd.crashed
        acks = []
        tsd.put_batch(points(5), acks.append, "client")
        cluster.sim.run()
        assert len(acks) == 1 and acks[0].ok and acks[0].written == 5

    def test_crash_and_restart_are_idempotent(self):
        cluster = build_cluster(n_nodes=1, salt_buckets=2)
        tsd = cluster.tsds[0]
        tsd.restart()  # no-op while up
        tsd.crash()
        tsd.crash()  # no-op while down
        assert cluster.metrics.counter("tsd.crashes").get() == 1
        tsd.restart()
        assert not tsd.crashed


class _ScriptedCluster:
    """Minimal cluster stand-in whose ingress follows a behaviour list.

    Behaviours per submitted batch: ``"ok"`` acks fully, ``"swallow"``
    never acks, ``"double"`` acks twice (duplicate delivery).  The last
    behaviour repeats.  Exposes only what :class:`BatchPublisher`
    touches (``sim``, ``metrics``, ``submit``).
    """

    def __init__(self, behaviours):
        self.sim = Simulator()
        self.metrics = MetricsRegistry()
        self.behaviours = list(behaviours)
        self.submissions = []

    def submit(self, pts, on_ack=None):
        self.submissions.append(list(pts))
        step = self.behaviours[min(len(self.submissions), len(self.behaviours)) - 1]
        if step == "swallow" or on_ack is None:
            return
        ack = PutAck(True, len(pts), 0, "scripted")
        on_ack(ack)
        if step == "double":
            on_ack(ack)


class TestPublisherDeliveryAccounting:
    def test_stall_raises_instead_of_returning_incomplete(self):
        """No ack deadline + an ack that never arrives = a loud stall.

        The old behaviour quietly returned ``complete == False``; the
        contract now is an exception carrying the pending ledger.
        """
        cluster = _ScriptedCluster(["swallow"])
        pub = BatchPublisher(cluster, batch_size=10, ack_deadline=None)
        pub.publish(points(10))
        with pytest.raises(PublishStalledError) as excinfo:
            pub.flush()
        err = excinfo.value
        assert err.pending == [(10, 0)]
        assert err.report.pending_unresolved == 1
        assert not err.report.complete
        assert "10 point(s)" in str(err)

    def test_stall_with_real_cluster_and_wedged_proxy(self):
        """Ack timeouts off + TSD crash mid-flight wedges exactly as the
        pre-hardening stack did — flush must refuse to call that done."""
        cluster = build_cluster(n_nodes=1, salt_buckets=2)
        cluster.ingress.ack_timeout = None  # disable the proxy's recovery
        # Crash fires before the network delivers the batch: swallowed.
        cluster.sim.schedule(0.0, cluster.tsds[0].crash)
        pub = BatchPublisher(cluster, batch_size=10, ack_deadline=None)
        pub.publish(points(10))
        with pytest.raises(PublishStalledError):
            pub.flush()

    def test_deadline_retransmission_recovers_a_swallowed_batch(self):
        cluster = _ScriptedCluster(["swallow", "ok"])
        pub = BatchPublisher(cluster, batch_size=10, ack_deadline=0.05)
        pub.publish(points(10))
        rep = pub.flush()
        assert len(cluster.submissions) == 2
        assert rep.retransmits == 1
        assert rep.points_written == 10 and rep.complete and rep.conservation_ok
        assert not pub.dead_letter

    def test_dead_letter_after_retransmit_budget(self):
        cluster = _ScriptedCluster(["swallow"])
        pub = BatchPublisher(cluster, batch_size=10, ack_deadline=0.05)
        pub.publish(points(10))
        rep = pub.flush()
        # initial transmission + MAX_RETRANSMITS (2) retransmits, all swallowed
        assert len(cluster.submissions) == 3
        assert rep.retransmits == 2
        assert rep.batches_dead_lettered == 1
        assert rep.points_dead_lettered == 10
        assert rep.points_written == 0
        # Conservation still holds: the points have a definite fate.
        assert rep.complete and rep.conservation_ok
        rep.check_conservation()
        # The points themselves are preserved for replay/inspection.
        assert pub.dead_letter == [points(10)]
        assert pub.metrics.counter("publish.dead_lettered").get() == 10

    def test_duplicate_ack_counted_once(self):
        cluster = _ScriptedCluster(["double"])
        pub = BatchPublisher(cluster, batch_size=10)
        pub.publish(points(10))
        rep = pub.flush()
        assert rep.points_written == 10  # not 20
        assert rep.batches_acked == 1
        assert pub.metrics.counter("publish.late_acks").get() == 1
        assert rep.conservation_ok

    def test_an_acked_batch_is_released(self):
        """An ack removes the batch from the ledger, so the publisher
        keeps no delivered payload: a stream's publisher once held every
        batch it had published for its whole life."""
        cluster = build_cluster(n_nodes=1, salt_buckets=2)
        pub = BatchPublisher(cluster, batch_size=100)
        values = array("d", [1.0, 2.0, 3.0])
        column = weakref.ref(values)
        pub.publish_blocks(
            BlockBatch([SeriesBlock("energy", (("unit", "u1"),), array("q", [1, 2, 3]), values)])
        )
        del values
        cluster.sim.run()
        assert pub.pending_batches == 0 and pub.report.points_written == 3
        gc.collect()
        assert column() is None

    def test_conservation_violation_raises(self):
        rep = PublishReport(mode="proxy", points_submitted=10, points_written=7)
        assert not rep.conservation_ok
        with pytest.raises(DeliveryAccountingError):
            rep.check_conservation()
        rep.points_dead_lettered = 3
        assert rep.conservation_ok
        rep.check_conservation()

    def test_validation_of_delivery_knobs(self):
        cluster = _ScriptedCluster(["ok"])
        with pytest.raises(ValueError):
            BatchPublisher(cluster, ack_deadline=0.0)
