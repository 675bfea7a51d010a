"""Tests for the discrete-event simulation kernel."""

import weakref

import pytest

from repro.cluster.simulation import SimulationError, Simulator


class TestScheduling:
    def test_starts_at_time_zero(self):
        assert Simulator().now == 0.0

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.0, seen.append, "late")
        sim.schedule(1.0, seen.append, "early")
        sim.schedule(3.0, seen.append, "last")
        sim.run()
        assert seen == ["early", "late", "last"]

    def test_ties_fire_in_scheduling_order(self):
        sim = Simulator()
        seen = []
        for i in range(10):
            sim.schedule(1.0, seen.append, i)
        sim.run()
        assert seen == list(range(10))

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        times = []
        sim.schedule(1.5, lambda: times.append(sim.now))
        sim.schedule(4.25, lambda: times.append(sim.now))
        sim.run()
        assert times == [1.5, 4.25]
        assert sim.now == 4.25

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-0.1, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_zero_delay_runs_after_current_event(self):
        sim = Simulator()
        seen = []

        def outer():
            sim.schedule(0.0, seen.append, "inner")
            seen.append("outer")

        sim.schedule(1.0, outer)
        sim.run()
        assert seen == ["outer", "inner"]

    def test_events_scheduled_during_run_execute(self):
        sim = Simulator()
        seen = []

        def chain(n):
            seen.append(n)
            if n < 5:
                sim.schedule(1.0, chain, n + 1)

        sim.schedule(0.0, chain, 0)
        sim.run()
        assert seen == [0, 1, 2, 3, 4, 5]
        assert sim.now == 5.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        seen = []
        handle = sim.schedule(1.0, seen.append, "x")
        handle.cancel()
        sim.run()
        assert seen == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        sim.run()
        assert handle.cancelled

    def test_cancelled_event_lets_go_of_its_callback_and_arguments(self):
        """It stays in the heap until its time comes, but pins nothing:
        a cancelled RPC timeout must not hold the request's payload."""

        class Payload:
            pass

        sim = Simulator()
        payload = Payload()
        alive = weakref.ref(payload)
        handle = sim.schedule(5.0, lambda p: None, payload)
        handle.cancel()
        del payload
        assert alive() is None and sim.pending_events == 0
        sim.run()
        assert handle.cancelled and not handle.fired

    def test_pending_transitions(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        assert handle.pending
        sim.run()
        assert not handle.pending
        assert handle.fired

    def test_pending_events_counts_only_live(self):
        sim = Simulator()
        h1 = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        h1.cancel()
        assert sim.pending_events == 1


class TestRunControl:
    def test_run_until_stops_clock_exactly(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(10.0, lambda: None)
        sim.run(until=5.0)
        assert sim.now == 5.0
        assert sim.pending_events == 1

    def test_run_until_includes_boundary_events(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.0, seen.append, "edge")
        sim.run(until=5.0)
        assert seen == ["edge"]

    def test_remaining_events_fire_on_second_run(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, seen.append, 1)
        sim.schedule(10.0, seen.append, 2)
        sim.run(until=5.0)
        sim.run()
        assert seen == [1, 2]

    def test_max_events(self):
        sim = Simulator()
        seen = []
        for i in range(10):
            sim.schedule(float(i + 1), seen.append, i)
        sim.run(max_events=3)
        assert seen == [0, 1, 2]

    def test_step_returns_false_when_empty(self):
        assert Simulator().step() is False

    def test_not_reentrant(self):
        sim = Simulator()

        def reenter():
            sim.run()

        sim.schedule(1.0, reenter)
        with pytest.raises(SimulationError):
            sim.run()

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(4):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.events_processed == 4

    def test_run_until_advances_clock_past_last_event(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run(until=7.5)
        assert sim.now == 7.5

    def test_callback_exception_propagates(self):
        sim = Simulator()

        def boom():
            raise RuntimeError("kaboom")

        sim.schedule(1.0, boom)
        with pytest.raises(RuntimeError, match="kaboom"):
            sim.run()
        # the simulator must remain usable afterwards
        seen = []
        sim.schedule(1.0, seen.append, "ok")
        sim.run()
        assert seen == ["ok"]
