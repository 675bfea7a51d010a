"""Tests for TSD daemons and the buffering reverse proxy."""

from types import SimpleNamespace

import pytest

from repro.cluster.network import Network
from repro.cluster.simulation import Simulator
from repro.tsdb import proxy as proxy_module
from repro.tsdb import tsd as tsd_module
from repro.tsdb.ingest import ClusterConfig, TsdbCluster, build_cluster
from repro.tsdb.proxy import PROXY_EXHAUSTED, DirectSubmitter, ReverseProxy, TsdBreaker
from repro.tsdb.publish import BatchPublisher
from repro.tsdb.tsd import DataPoint, PutAck


def small_cluster(**overrides):
    defaults = dict(n_nodes=2, salt_buckets=4, retain_data=True)
    defaults.update(overrides)
    return build_cluster(**defaults)


def points(n, metric="energy", t0=0, unit="u1"):
    return [
        DataPoint.make(metric, t0 + i, float(i), {"unit": unit, "sensor": f"s{i % 5}"})
        for i in range(n)
    ]


class TestTSDaemon:
    def test_put_batch_acks_after_durable_write(self):
        cluster = small_cluster()
        tsd = cluster.tsds[0]
        acks = []
        tsd.put_batch(points(10), acks.append, "client")
        cluster.sim.run()
        assert len(acks) == 1
        assert acks[0].ok and acks[0].written == 10 and acks[0].failed == 0
        assert tsd.points_written == 10

    def test_points_land_in_hbase(self):
        cluster = small_cluster()
        tsd = cluster.tsds[0]
        tsd.put_batch(points(10), lambda a: None, "client")
        cluster.sim.run()
        cells = cluster.master.direct_scan("tsdb")
        assert len(cells) == 10

    def test_batch_coalescing_by_bucket(self):
        cluster = small_cluster()
        tsd = cluster.tsds[0]
        # fewer points than RPC_BATCH_SIZE: flush must come from linger timer
        tsd.put_batch(points(5), lambda a: None, "client")
        cluster.sim.run(until=0.01)  # past HTTP service, before the linger fires
        assert tsd._buffers  # buffered, not yet flushed
        cluster.sim.run()
        assert not tsd._buffers
        assert len(cluster.master.direct_scan("tsdb")) == 5

    def test_full_buffer_flushes_immediately(self, monkeypatch):
        monkeypatch.setattr(tsd_module, "RPC_BATCH_SIZE", 5)
        cluster = small_cluster(salt_buckets=1)
        tsd = cluster.tsds[0]
        tsd.put_batch(points(5), lambda a: None, "client")
        assert not tsd._buffers  # 5 points, one bucket, batch size 5: flushed

    def test_queue_overflow_rejects_batch(self, monkeypatch):
        monkeypatch.setattr(tsd_module, "QUEUE_CAPACITY", 0)
        cluster = small_cluster()
        tsd = cluster.tsds[0]
        acks = []
        tsd.put_batch(points(3), acks.append, "client")  # in service
        tsd.put_batch(points(3), acks.append, "client")  # queue full -> reject
        cluster.sim.run()
        rejected = [a for a in acks if not a.ok and a.written == 0]
        assert len(rejected) == 1

    def test_encode_point_roundtrip(self):
        cluster = small_cluster()
        tsd = cluster.tsds[0]
        point = DataPoint.make("energy", 42, 3.5, {"unit": "u9", "sensor": "s3"})
        cell = tsd.encode_point(point)
        decoded = cluster.codec.decode(cell.row, cell.qualifier)
        assert decoded.timestamp == 42
        assert cluster.uids.decode_tags(decoded.tag_pairs) == {"unit": "u9", "sensor": "s3"}

    def test_flush_all_drains(self):
        cluster = small_cluster()
        tsd = cluster.tsds[0]
        tsd.put_batch(points(3), lambda a: None, "client")
        tsd.flush_all()
        assert not tsd._buffers


class TestReverseProxy:
    def test_round_robin_across_tsds(self):
        cluster = small_cluster()
        for i in range(4):
            cluster.submit(points(2, t0=i * 10))
        cluster.sim.run()
        received = [tsd.points_received for tsd in cluster.tsds]
        assert received == [4, 4]

    def test_in_flight_window_buffers_excess(self):
        cluster = small_cluster()
        proxy = ReverseProxy(cluster.sim, cluster.network, cluster.tsds, max_in_flight=1)
        for i in range(5):
            proxy.submit(points(2, t0=i * 10))
        assert proxy.in_flight == 1
        assert proxy.buffered == 4
        assert proxy.buffer_high_water >= 4
        cluster.sim.run()
        assert proxy.in_flight == 0 and proxy.buffered == 0

    def test_tsd_rejection_retried_on_other_tsd(self, monkeypatch):
        monkeypatch.setattr(tsd_module, "QUEUE_CAPACITY", 0)
        cluster = small_cluster()
        proxy = ReverseProxy(cluster.sim, cluster.network, cluster.tsds, max_in_flight=4)
        acks = []
        for i in range(3):
            proxy.submit(points(2, t0=i * 100), acks.append)
        cluster.sim.run()
        # all batches eventually commit despite rejections
        assert sum(a.written for a in acks) == 6
        assert proxy.retried >= 1

    def test_validation(self):
        cluster = small_cluster()
        with pytest.raises(ValueError):
            ReverseProxy(cluster.sim, cluster.network, [])
        with pytest.raises(ValueError):
            ReverseProxy(cluster.sim, cluster.network, cluster.tsds, max_in_flight=0)


class _StubTsd:
    """Scriptable TSD stand-in: replies per a list of behaviours.

    Behaviours: an int ``k`` acks ``written=k`` (partial when
    ``k < len(batch)``), ``"ok"`` acks the whole batch, ``"bounce"``
    negative-acks everything, ``"swallow"`` never replies.  The final
    behaviour repeats for subsequent calls.
    """

    def __init__(self, name, behaviours, hostname="stub-host"):
        self.name = name
        self.node = SimpleNamespace(hostname=hostname)
        self.crashed = False
        self.behaviours = list(behaviours)
        self.calls = []

    def put_batch(self, pts, reply_to, src_host, batch_id=None):
        self.calls.append(list(pts))
        step = self.behaviours[min(len(self.calls), len(self.behaviours)) - 1]
        if step == "swallow":
            return
        if step == "ok":
            step = len(pts)
        if step == "bounce":
            step = 0
        written = min(int(step), len(pts))
        failed = len(pts) - written
        reply_to(PutAck(failed == 0, written, failed, self.name))


@pytest.fixture
def stub_proxy(monkeypatch):
    """``make(behaviours_per_tsd, ack_timeout=0.5, **constants)``: a proxy
    over scripted stub TSDs, with the named module constants of
    :mod:`repro.tsdb.proxy` (lower-case keywords) patched for the test."""

    def make(behaviours_per_tsd, ack_timeout=0.5, **constants):
        for name, value in {"retry_delay": 0.01, "max_backoff": 0.05, **constants}.items():
            monkeypatch.setattr(proxy_module, name.upper(), value)
        sim = Simulator()
        network = Network(sim)
        tsds = [
            _StubTsd(f"stub{i:02d}", behaviours, hostname=f"stub-host{i:02d}")
            for i, behaviours in enumerate(behaviours_per_tsd)
        ]
        proxy = ReverseProxy(sim, network, tsds, ack_timeout=ack_timeout)
        return sim, proxy, tsds

    return make


class TestProxyHardening:
    def test_mixed_ack_rewrites_the_whole_batch(self):
        """A TSD ack's ``written`` counts whichever server partitions
        succeeded, not a prefix: after a mixed ack every point must still
        land.  The ack timeout is off (E12's pre-hardening arm), so the
        TSD's own retry budget runs out first and the mixed ack reaches
        the proxy."""
        cluster = small_cluster(salt_buckets=2)
        cluster.ingress.ack_timeout = None
        host = cluster.servers[0].node.hostname
        cluster.network.partition(host)
        cluster.sim.schedule(8.0, cluster.network.heal, host)
        pts = points(60)
        pub = BatchPublisher(cluster, batch_size=60)
        pub.publish(pts)
        report = pub.flush()
        assert report.points_written == 60 and report.points_failed == 0
        assert len(cluster.master.direct_scan("tsdb")) == 60

    def test_retry_budget_exhaustion_is_a_permanent_failure_ack(self, stub_proxy):
        sim, proxy, (tsd,) = stub_proxy([["bounce"]], max_batch_retries=3)
        acks = []
        proxy.submit(points(6), acks.append)
        sim.run()
        assert len(acks) == 1
        ack = acks[0]
        assert not ack.ok and ack.written == 0 and ack.failed == 6
        assert ack.tsd == PROXY_EXHAUSTED
        assert proxy.failed_batches == 1 and proxy.failed_points == 6
        # initial attempt + 3 budgeted retries
        assert len(tsd.calls) == 4

    def test_ack_timeout_recovers_a_swallowed_batch(self, stub_proxy):
        # First dispatch is swallowed (crashed-TSD behaviour); the ack
        # timeout must fire and the retry must land on the second call.
        sim, proxy, (tsd,) = stub_proxy([["swallow", "ok"]], ack_timeout=0.1)
        acks = []
        proxy.submit(points(5), acks.append)
        sim.run()
        assert proxy.ack_timeouts == 1
        assert len(acks) == 1 and acks[0].ok and acks[0].written == 5

    def test_breaker_ejects_failing_tsd_and_reroutes(self, stub_proxy):
        # stub00 bounces everything; stub01 is healthy.  After the
        # breaker opens, traffic must flow to stub01 only.
        sim, proxy, (bad, good) = stub_proxy(
            [["bounce"], ["ok"]],
            failure_threshold=2,
            eject_duration=60.0,
            max_batch_retries=8,
        )
        acks = []
        for i in range(6):
            proxy.submit(points(2, t0=100 * i), acks.append)
        sim.run()
        assert all(a.ok for a in acks) and len(acks) == 6
        assert proxy.breaker_ejections() >= 1
        assert proxy.breakers[0].open
        # Submits at t=0 round-robin three batches onto the bad TSD
        # before its first ack lands; once the breaker opens, it sees
        # no further dispatches (all retries reroute to the good TSD).
        assert len(bad.calls) == 3
        assert all(a.written == 2 for a in acks)

    def test_all_open_fallback_keeps_dispatching(self, stub_proxy):
        # A single TSD whose breaker is open: the proxy must fall back
        # to it rather than deadlock, and the batch eventually lands.
        sim, proxy, (tsd,) = stub_proxy(
            [["bounce", "bounce", "ok"]],
            failure_threshold=1,
            eject_duration=1000.0,
            max_batch_retries=8,
        )
        acks = []
        proxy.submit(points(3), acks.append)
        sim.run()
        assert len(acks) == 1 and acks[0].ok
        assert proxy.metrics.counter("proxy.all_open_fallback").get() >= 1

    def test_crashed_tsd_skipped_in_rotation(self):
        cluster = small_cluster()
        cluster.tsds[0].crash()
        acks = []
        for i in range(4):
            cluster.submit(points(2, t0=100 * i), acks.append)
        cluster.sim.run()
        assert sum(a.written for a in acks) == 8
        assert cluster.tsds[0].points_received == 0
        assert cluster.tsds[1].points_received == 8

    def test_validation_of_hardening_knobs(self):
        cluster = small_cluster()
        with pytest.raises(ValueError):
            ReverseProxy(cluster.sim, cluster.network, cluster.tsds, ack_timeout=0.0)


class TestTsdBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        b = TsdBreaker(failure_threshold=3, eject_duration=1.0)
        b.record_failure(0.0)
        b.record_failure(0.1)
        assert not b.open and b.available(0.2)
        b.record_failure(0.2)
        assert b.open and b.ejections == 1
        assert not b.available(0.5)  # still ejected
        assert b.available(1.3)  # eject_duration elapsed

    def test_success_resets_failure_streak(self):
        b = TsdBreaker(failure_threshold=2, eject_duration=1.0)
        b.record_failure(0.0)
        b.record_success()
        b.record_failure(0.1)
        assert not b.open  # streak was broken; not consecutive

    def test_half_open_probe_closes_on_success(self):
        b = TsdBreaker(failure_threshold=1, eject_duration=1.0)
        b.record_failure(0.0)
        assert b.open
        b.on_dispatch(1.5)  # admitted after the ejection window
        assert b.state == "half-open"
        assert not b.available(1.5)  # one probe at a time
        b.record_success()
        assert b.state == "closed" and b.available(1.6)

    def test_half_open_probe_reopens_on_failure(self):
        b = TsdBreaker(failure_threshold=1, eject_duration=1.0)
        b.record_failure(0.0)
        b.on_dispatch(1.5)
        b.record_failure(1.6)
        assert b.open and b.ejections == 2
        assert not b.available(1.7)  # new full ejection period from 1.6


class TestDirectSubmitter:
    def test_spray_round_robin(self):
        cluster = small_cluster(use_proxy=False)
        assert isinstance(cluster.ingress, DirectSubmitter)
        for i in range(4):
            cluster.submit(points(2, t0=i * 10))
        cluster.sim.run()
        assert [tsd.points_received for tsd in cluster.tsds] == [4, 4]

    def test_single_tsd_mode(self):
        cluster = small_cluster(use_proxy=False, direct_spray=False)
        for i in range(4):
            cluster.submit(points(2, t0=i * 10))
        cluster.sim.run()
        assert cluster.tsds[0].points_received == 8
        assert cluster.tsds[1].points_received == 0

    def test_no_backpressure_no_buffering(self):
        cluster = small_cluster(use_proxy=False)
        submitter = cluster.ingress
        for i in range(10):
            submitter.submit(points(2, t0=i))
        assert submitter.dispatched == 10  # everything sent immediately
