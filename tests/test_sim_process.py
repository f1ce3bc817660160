"""Unit tests for generator-coroutine processes."""

import pytest

from repro.sim.engine import Engine, SimulationError, us
from repro.sim.process import Process, Signal, Timeout, all_of


class TestTimeout:
    def test_process_sleeps_for_timeout(self):
        engine = Engine()
        wakes = []

        def body(proc):
            yield proc.timeout(us(10))
            wakes.append(engine.now)

        Process(engine, body)
        engine.run()
        assert wakes == [us(10)]

    def test_sequential_timeouts_accumulate(self):
        engine = Engine()
        wakes = []

        def body(proc):
            for _ in range(3):
                yield proc.timeout(us(10))
                wakes.append(engine.now)

        Process(engine, body)
        engine.run()
        assert wakes == [us(10), us(20), us(30)]

    def test_negative_timeout_rejected(self):
        with pytest.raises(SimulationError):
            Timeout(-1)


class TestSignal:
    def test_wait_then_fire(self):
        engine = Engine()
        got = []

        def waiter(proc):
            signal = proc.signal()
            engine.schedule(us(5), lambda: signal.fire("payload"))
            value = yield signal
            got.append((engine.now, value))

        Process(engine, waiter)
        engine.run()
        assert got == [(us(5), "payload")]

    def test_fire_before_wait_is_latched(self):
        engine = Engine()
        got = []

        def body(proc):
            signal = proc.signal()
            signal.fire(42)
            value = yield signal
            got.append(value)

        Process(engine, body)
        engine.run()
        assert got == [42]

    def test_double_fire_rejected(self):
        engine = Engine()
        signal = Signal(engine)
        signal.fire()
        with pytest.raises(SimulationError):
            signal.fire()

    def test_multiple_waiters_all_wake(self):
        engine = Engine()
        woken = []
        signal = Signal(engine)

        def make(name):
            def body(proc):
                yield signal
                woken.append(name)

            return body

        Process(engine, make("a"))
        Process(engine, make("b"))
        engine.schedule(us(5), signal.fire)
        engine.run()
        assert sorted(woken) == ["a", "b"]

    def test_fired_and_value_properties(self):
        engine = Engine()
        signal = Signal(engine)
        assert not signal.fired
        signal.fire("v")
        assert signal.fired
        assert signal.value == "v"


class TestAllOf:
    def test_waits_for_every_signal(self):
        engine = Engine()
        done_at = []
        signals = [Signal(engine) for _ in range(3)]

        def body(proc):
            yield all_of(signals)
            done_at.append(engine.now)

        Process(engine, body)
        for index, signal in enumerate(signals):
            engine.schedule(us(10 * (index + 1)), signal.fire)
        engine.run()
        assert done_at == [us(30)]

    def test_empty_all_of_completes_immediately(self):
        engine = Engine()
        done = []

        def body(proc):
            yield all_of([])
            done.append(True)

        Process(engine, body)
        engine.run()
        assert done == [True]

    def test_collects_values(self):
        engine = Engine()
        got = []
        signals = [Signal(engine) for _ in range(2)]

        def body(proc):
            values = yield all_of(signals)
            got.append(values)

        Process(engine, body)
        signals[0].fire("x")
        signals[1].fire("y")
        engine.run()
        assert got == [["x", "y"]]


class TestProcessLifecycle:
    def test_done_signal_fires_with_return_value(self):
        engine = Engine()

        def body(proc):
            yield proc.timeout(us(1))
            return "result"

        process = Process(engine, body)
        engine.run()
        assert not process.alive
        assert process.done.fired
        assert process.done.value == "result"

    def test_kill_stops_process(self):
        engine = Engine()
        steps = []

        def body(proc):
            while True:
                yield proc.timeout(us(10))
                steps.append(engine.now)

        process = Process(engine, body)
        engine.schedule(us(25), process.kill)
        engine.run()
        assert steps == [us(10), us(20)]
        assert not process.alive

    def test_kill_is_idempotent(self):
        engine = Engine()

        def body(proc):
            yield proc.timeout(us(1))

        process = Process(engine, body)
        process.kill()
        process.kill()

    def test_bad_yield_raises(self):
        engine = Engine()

        def body(proc):
            yield "not a waitable"

        Process(engine, body)
        with pytest.raises(SimulationError):
            engine.run()

    def test_subgenerator_delegation(self):
        engine = Engine()
        trace = []

        def helper(proc):
            yield proc.timeout(us(5))
            trace.append("helper")

        def body(proc):
            yield from helper(proc)
            trace.append("body")

        Process(engine, body)
        engine.run()
        assert trace == ["helper", "body"]
