"""Tests for simulated machines and service loops."""

import pytest

from repro.cluster.node import Node, Server
from repro.cluster.simulation import Simulator


def make_server(queue_capacity=None):
    sim = Simulator()
    node = Node(sim, "host0")
    server = Server(sim, "srv", queue_capacity)
    node.add_server(server)
    return sim, node, server


class TestServiceLoop:
    def test_single_job_completes_after_service_time(self):
        sim, _, server = make_server()
        done = []
        server.submit("job", 0.5, on_done=done.append)
        sim.run()
        assert done == ["job"]
        assert sim.now == 0.5

    def test_jobs_are_serial(self):
        sim, _, server = make_server()
        times = []
        for name in ("a", "b", "c"):
            server.submit(name, 1.0, on_done=lambda p: times.append((p, sim.now)))
        sim.run()
        assert times == [("a", 1.0), ("b", 2.0), ("c", 3.0)]

    def test_queue_depth_excludes_in_service(self):
        sim, _, server = make_server()
        server.submit("a", 1.0)
        server.submit("b", 1.0)
        server.submit("c", 1.0)
        assert server.busy
        assert server.queue_depth == 2
        sim.run()
        assert server.queue_depth == 0
        assert not server.busy

    def test_negative_service_time_rejected(self):
        _, _, server = make_server()
        with pytest.raises(ValueError):
            server.submit("x", -1.0)

    def test_throughput_is_one_over_service_time(self):
        sim, _, server = make_server(queue_capacity=1000)
        done = []
        for i in range(100):
            server.submit(i, 0.01, on_done=done.append)
        sim.run(until=0.505)  # epsilon past the 50th completion (float accumulation)
        assert len(done) == 50  # 0.5s / 0.01s per job


class TestRejection:
    def test_overflow_rejects(self):
        sim, _, server = make_server(queue_capacity=2)
        rejected = []
        accepted = [
            server.submit(i, 1.0, on_reject=rejected.append) for i in range(5)
        ]
        # one in service + two queued accepted; the rest rejected
        assert accepted == [True, True, True, False, False]
        assert rejected == [3, 4]

    def test_zero_capacity_queues_nothing(self):
        sim, _, server = make_server(queue_capacity=0)
        assert server.submit("a", 1.0) is True  # goes straight to service
        assert server.submit("b", 1.0) is False

    def test_rejected_jobs_counted(self):
        sim, _, server = make_server(queue_capacity=0)
        server.submit("a", 1.0)
        server.submit("b", 1.0)
        assert server.metrics.counter("server.rejected").get("srv") == 1

    def test_negative_capacity_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Server(sim, "s", queue_capacity=-1)


class TestStopStart:
    def test_stopped_server_rejects(self):
        sim, _, server = make_server()
        server.stop()
        assert server.submit("x", 1.0) is False

    def test_stop_drops_queued_jobs(self):
        sim, _, server = make_server()
        done = []
        for i in range(3):
            server.submit(i, 1.0, on_done=done.append)
        server.stop()
        sim.run()
        assert done == []  # in-flight job also lost (server died mid-service)
        assert server.metrics.counter("server.dropped").get("srv") == 3

    def test_restart_serves_again(self):
        sim, _, server = make_server()
        server.stop()
        server.start()
        done = []
        server.submit("x", 0.1, on_done=done.append)
        sim.run()
        assert done == ["x"]


class TestUtilization:
    def test_utilization_fraction(self):
        sim, _, server = make_server()
        server.submit("a", 1.0)
        sim.run()
        sim.schedule(1.0, lambda: None)  # idle second
        sim.run()
        assert server.utilization(2.0) == pytest.approx(0.5)

    def test_utilization_zero_horizon(self):
        _, _, server = make_server()
        assert server.utilization(0.0) == 0.0
