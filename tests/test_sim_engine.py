"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import (
    Engine,
    NS_PER_MS,
    NS_PER_SEC,
    NS_PER_US,
    SimulationError,
    ms,
    seconds,
    us,
)


class TestTimeConversions:
    def test_us(self):
        assert us(1) == 1_000
        assert us(2.5) == 2_500

    def test_ms(self):
        assert ms(1) == 1_000_000
        assert ms(0.5) == 500_000

    def test_seconds(self):
        assert seconds(1) == 1_000_000_000
        assert seconds(0.25) == 250_000_000

    def test_constants_consistent(self):
        assert NS_PER_MS == 1_000 * NS_PER_US
        assert NS_PER_SEC == 1_000 * NS_PER_MS

    def test_rounding(self):
        assert us(0.0006) == 1  # rounds, does not truncate


class TestScheduling:
    def test_starts_at_zero(self):
        assert Engine().now == 0

    def test_callback_fires_at_time(self):
        engine = Engine()
        seen = []
        engine.schedule(us(5), lambda: seen.append(engine.now))
        engine.run()
        assert seen == [5_000]

    def test_events_fire_in_time_order(self):
        engine = Engine()
        order = []
        engine.schedule(us(30), lambda: order.append("c"))
        engine.schedule(us(10), lambda: order.append("a"))
        engine.schedule(us(20), lambda: order.append("b"))
        engine.run()
        assert order == ["a", "b", "c"]

    def test_simultaneous_events_fire_in_schedule_order(self):
        engine = Engine()
        order = []
        for label in "abcde":
            engine.schedule(us(10), lambda l=label: order.append(l))
        engine.run()
        assert order == list("abcde")

    def test_zero_delay_runs_after_current_event(self):
        engine = Engine()
        order = []

        def outer():
            engine.schedule(0, lambda: order.append("inner"))
            order.append("outer")

        engine.schedule(us(1), outer)
        engine.run()
        assert order == ["outer", "inner"]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Engine().schedule(-1, lambda: None)

    def test_schedule_at_absolute(self):
        engine = Engine()
        seen = []
        engine.schedule_at(us(7), lambda: seen.append(engine.now))
        engine.run()
        assert seen == [7_000]

    def test_schedule_at_past_rejected(self):
        engine = Engine()
        engine.schedule(us(10), lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.schedule_at(us(5), lambda: None)


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        engine = Engine()
        seen = []
        handle = engine.schedule(us(5), lambda: seen.append(1))
        handle.cancel()
        engine.run()
        assert seen == []

    def test_cancel_is_idempotent(self):
        engine = Engine()
        handle = engine.schedule(us(5), lambda: None)
        handle.cancel()
        handle.cancel()
        engine.run()

    def test_cancel_after_fire_is_noop(self):
        engine = Engine()
        seen = []
        handle = engine.schedule(us(5), lambda: seen.append(1))
        engine.run()
        handle.cancel()
        assert seen == [1]

    def test_pending_events_excludes_cancelled(self):
        engine = Engine()
        engine.schedule(us(5), lambda: None)
        handle = engine.schedule(us(6), lambda: None)
        handle.cancel()
        assert engine.pending_events() == 1


class TestRun:
    def test_run_until_stops_clock_at_bound(self):
        engine = Engine()
        engine.schedule(us(100), lambda: None)
        engine.run(until=us(50))
        assert engine.now == us(50)
        assert engine.pending_events() == 1

    def test_run_until_fires_events_at_bound(self):
        engine = Engine()
        seen = []
        engine.schedule(us(50), lambda: seen.append(1))
        engine.run(until=us(50))
        assert seen == [1]

    def test_run_drains_queue(self):
        engine = Engine()
        for index in range(10):
            engine.schedule(us(index), lambda: None)
        engine.run()
        assert engine.pending_events() == 0

    def test_stop_halts_run(self):
        engine = Engine()
        seen = []
        engine.schedule(us(1), lambda: (seen.append(1), engine.stop()))
        engine.schedule(us(2), lambda: seen.append(2))
        engine.run()
        assert seen == [1]

    def test_step_returns_false_when_empty(self):
        assert Engine().step() is False

    def test_step_fires_single_event(self):
        engine = Engine()
        seen = []
        engine.schedule(us(1), lambda: seen.append(1))
        engine.schedule(us(2), lambda: seen.append(2))
        assert engine.step() is True
        assert seen == [1]

    def test_reentrant_run_rejected(self):
        engine = Engine()
        errors = []

        def reenter():
            try:
                engine.run()
            except SimulationError as exc:
                errors.append(exc)

        engine.schedule(us(1), reenter)
        engine.run()
        assert len(errors) == 1

    def test_now_reporting_properties(self):
        engine = Engine()
        engine.schedule(seconds(2), lambda: None)
        engine.run()
        assert engine.now_seconds == pytest.approx(2.0)
        assert engine.now_us == pytest.approx(2_000_000.0)

    def test_cascading_events_extend_run(self):
        engine = Engine()
        seen = []

        def chain(depth):
            seen.append(depth)
            if depth < 5:
                engine.schedule(us(1), lambda: chain(depth + 1))

        engine.schedule(us(1), lambda: chain(0))
        engine.run()
        assert seen == [0, 1, 2, 3, 4, 5]
