"""Tests for the network model and failure injection."""

import pytest

from repro.cluster import failures
from repro.cluster.failures import OverflowCrashPolicy, RandomCrashInjector
from repro.cluster.network import LOCAL_LATENCY, REMOTE_LATENCY, Network
from repro.cluster.simulation import Simulator


def delivery_times(sends):
    """Delivery time of each ``(src, dst)`` send on a fresh network."""
    sim = Simulator()
    net = Network(sim)
    seen = []
    for src, dst in sends:
        net.send(src, dst, lambda: seen.append(sim.now))
    sim.run()
    return seen


class TestLatencyModel:
    def test_local_faster_than_remote(self):
        assert delivery_times([("a", "a")]) < delivery_times([("a", "b")])
        assert delivery_times([("a", "a")]) == [LOCAL_LATENCY]

    def test_deterministic_without_jitter(self):
        assert delivery_times([("a", "b"), ("c", "b")]) == [REMOTE_LATENCY] * 2


class TestNetwork:
    def test_delivery_after_latency(self):
        assert delivery_times([("a", "b")]) == [REMOTE_LATENCY]

    def test_messages_counted(self):
        sim = Simulator()
        net = Network(sim)
        net.send("a", "b", lambda: None)
        net.send("a", "b", lambda: None)
        assert net.messages_sent == 2

    def test_partition_drops_messages(self):
        sim = Simulator()
        net = Network(sim)
        seen = []
        net.partition("b")
        assert net.send("a", "b", seen.append, 1) is None
        assert net.send("b", "a", seen.append, 2) is None
        sim.run()
        assert seen == []
        assert net.messages_dropped == 2

    def test_heal_restores(self):
        sim = Simulator()
        net = Network(sim)
        seen = []
        net.partition("b")
        net.heal("b")
        assert not net.is_partitioned("b")
        net.send("a", "b", seen.append, "x")
        sim.run()
        assert seen == ["x"]


class TestNetworkSlowdown:
    def test_slow_host_inflates_latency(self):
        sim = Simulator()
        net = Network(sim)
        net.slow_host("b", 4.0)
        seen = []
        net.send("a", "b", lambda: seen.append(sim.now))
        sim.run()
        assert seen == [pytest.approx(4 * REMOTE_LATENCY)]

    def test_restore_host_resets(self):
        sim = Simulator()
        net = Network(sim)
        net.slow_host("b", 4.0)
        net.restore_host("b")
        assert net.slowdown("b") == 1.0
        seen = []
        net.send("a", "b", lambda: seen.append(sim.now))
        sim.run()
        assert seen == [pytest.approx(REMOTE_LATENCY)]

    def test_worst_endpoint_slowdown_wins(self):
        sim = Simulator()
        net = Network(sim)
        net.slow_host("a", 2.0)
        net.slow_host("b", 8.0)
        seen = []
        net.send("a", "b", lambda: seen.append(sim.now))
        sim.run()
        assert seen == [pytest.approx(8 * REMOTE_LATENCY)]

    def test_factor_below_one_rejected(self):
        net = Network(Simulator())
        with pytest.raises(ValueError):
            net.slow_host("a", 0.5)


class TestOverflowCrashPolicy:
    @pytest.fixture
    def budget(self, monkeypatch):
        """Shrink the rejection budget so a few rejections cross it."""

        def set_budget(n):
            monkeypatch.setattr(failures, "REJECT_BUDGET", n)

        return set_budget

    def test_crashes_after_budget_exceeded(self, budget):
        budget(3)
        sim = Simulator()
        crashed = []
        policy = OverflowCrashPolicy(sim, on_crash=lambda: crashed.append(sim.now))
        for _ in range(3):
            assert policy.record_rejection() is False
        assert policy.record_rejection() is True
        assert policy.crashed
        assert len(crashed) == 1

    def test_old_rejections_expire(self, budget):
        budget(2)
        sim = Simulator()
        policy = OverflowCrashPolicy(sim, on_crash=lambda: None)
        policy.record_rejection()
        policy.record_rejection()
        sim.schedule(2 * failures.CRASH_WINDOW, lambda: None)
        sim.run()
        # window slid past the earlier rejections; budget refreshed
        assert policy.record_rejection() is False
        assert not policy.crashed

    def test_restart_after_delay(self, budget):
        budget(1)
        sim = Simulator()
        events = []
        policy = OverflowCrashPolicy(
            sim,
            on_crash=lambda: events.append(("crash", sim.now)),
            on_restart=lambda: events.append(("restart", sim.now)),
        )
        policy.record_rejection()
        policy.record_rejection()
        sim.run()
        assert events == [("crash", 0.0), ("restart", failures.RESTART_DELAY)]
        assert not policy.crashed
        assert policy.crash_count == 1

    def test_rejections_ignored_while_crashed(self, budget):
        budget(1)
        sim = Simulator()
        policy = OverflowCrashPolicy(sim, on_crash=lambda: None)
        policy.record_rejection()
        policy.record_rejection()
        assert policy.crashed
        assert policy.record_rejection() is False
        assert policy.crash_count == 1

    def test_crash_count_accumulates_across_cycles(self, budget, monkeypatch):
        """A component can crash, restart, and crash again; the window
        starts fresh after each crash (rejections cleared)."""
        budget(1)
        # A window longer than the restart delay, so the pre-crash
        # rejections would still be in it after the restart.
        monkeypatch.setattr(failures, "CRASH_WINDOW", 2 * failures.RESTART_DELAY)
        sim = Simulator()
        events = []
        policy = OverflowCrashPolicy(
            sim,
            on_crash=lambda: events.append(("crash", sim.now)),
            on_restart=lambda: events.append(("restart", sim.now)),
        )
        policy.record_rejection()
        policy.record_rejection()  # first crash at t=0
        sim.run()  # restart fires after RESTART_DELAY
        assert not policy.crashed
        # The pre-crash rejections were cleared: one rejection alone
        # must not re-crash even though the window still spans them.
        assert policy.record_rejection() is False
        assert policy.record_rejection() is True  # second crash
        sim.run()
        assert policy.crash_count == 2
        assert [kind for kind, _ in events] == ["crash", "restart", "crash", "restart"]


class TestRandomCrashInjector:
    def test_injects_and_recovers(self):
        sim = Simulator()
        events = []
        injector = RandomCrashInjector(
            sim,
            crash=lambda: events.append("crash"),
            restart=lambda: events.append("restart"),
            mtbf=1.0,
            mttr=0.5,
            seed=42,
        )
        injector.arm()
        sim.run(until=20.0)
        assert injector.injected > 0
        # a final crash may still be awaiting its recovery at the horizon
        assert events.count("crash") - events.count("restart") in (0, 1)
        # alternating crash/restart
        for i in range(0, len(events) - 1, 2):
            assert events[i] == "crash" and events[i + 1] == "restart"

    def test_deterministic_given_seed(self):
        def run():
            sim = Simulator()
            times = []
            inj = RandomCrashInjector(
                sim, crash=lambda: times.append(sim.now), restart=lambda: None,
                mtbf=1.0, mttr=0.1, seed=7,
            )
            inj.arm()
            sim.run(until=10.0)
            return times

        assert run() == run()

    def test_disarm_stops_injection(self):
        sim = Simulator()
        count = [0]
        inj = RandomCrashInjector(
            sim, crash=lambda: count.__setitem__(0, count[0] + 1),
            restart=lambda: None, mtbf=0.5, mttr=0.1, seed=3,
        )
        inj.arm()
        sim.run(until=2.0)
        inj.disarm()
        seen = count[0]
        sim.run(until=20.0)
        assert count[0] <= seen + 1  # at most one already-scheduled firing

    def test_full_schedule_deterministic_including_restarts(self):
        """Both crash *and* restart times must replay bit-identically."""

        def run():
            sim = Simulator()
            events = []
            inj = RandomCrashInjector(
                sim,
                crash=lambda: events.append(("crash", sim.now)),
                restart=lambda: events.append(("restart", sim.now)),
                mtbf=0.8, mttr=0.2, seed=21,
            )
            inj.arm()
            sim.run(until=15.0)
            return events

        first = run()
        assert first == run()
        assert any(kind == "restart" for kind, _ in first)

    def test_rearm_after_disarm_resumes_injection(self):
        sim = Simulator()
        count = [0]
        inj = RandomCrashInjector(
            sim, crash=lambda: count.__setitem__(0, count[0] + 1),
            restart=lambda: None, mtbf=0.5, mttr=0.1, seed=3,
        )
        inj.arm()
        sim.run(until=5.0)
        inj.disarm()
        sim.run(until=10.0)
        paused = count[0]
        inj.arm()
        sim.run(until=30.0)
        assert count[0] > paused

    def test_invalid_params(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            RandomCrashInjector(sim, lambda: None, lambda: None, mtbf=0.0, mttr=1.0)
