"""Unit tests for the simulation engine."""

import pytest

from repro.sim.engine import Engine, SimulationError


def test_time_starts_at_zero(engine):
    assert engine.now == 0.0


def test_schedule_and_run_advances_clock(engine):
    seen = []
    engine.schedule(10, seen.append, "a")
    engine.schedule(5, seen.append, "b")
    end = engine.run()
    assert seen == ["b", "a"]
    assert end == 10


def test_schedule_at_absolute_time(engine):
    seen = []
    engine.schedule(7 - engine.now, seen.append, 7)
    engine.run()
    assert seen == [7]
    assert engine.now == 7


def test_negative_delay_rejected(engine):
    with pytest.raises(SimulationError):
        engine.schedule(-1, lambda: None)


def test_schedule_at_past_rejected(engine):
    engine.schedule(10, lambda: None)
    engine.run()
    with pytest.raises(SimulationError):
        engine.schedule(5 - engine.now, lambda: None)


def test_events_can_schedule_more_events(engine):
    seen = []

    def chain(n):
        seen.append(n)
        if n < 3:
            engine.schedule(1, chain, n + 1)

    engine.schedule(0, chain, 0)
    engine.run()
    assert seen == [0, 1, 2, 3]
    assert engine.now == 3


def test_run_until_stops_before_later_events(engine):
    seen = []
    engine.schedule(5, seen.append, "early")
    engine.schedule(50, seen.append, "late")
    engine.run(until=10)
    assert seen == ["early"]
    assert engine.now == 10
    assert engine.pending_events() == 1


def test_run_resumes_after_until(engine):
    seen = []
    engine.schedule(50, seen.append, "late")
    engine.run(until=10)
    engine.run()
    assert seen == ["late"]


def test_stop_halts_the_loop(engine):
    seen = []
    engine.schedule(1, seen.append, 1)
    engine.schedule(2, lambda: engine.stop())
    engine.schedule(3, seen.append, 3)
    engine.run()
    assert seen == [1]
    assert engine.pending_events() == 1


def test_max_events_bound(engine):
    for i in range(10):
        engine.schedule(i, lambda: None)
    engine.run(max_events=4)
    assert engine.events_executed == 4


def test_events_executed_counter(engine):
    for i in range(5):
        engine.schedule(i, lambda: None)
    engine.run()
    assert engine.events_executed == 5


def test_engine_not_reentrant(engine):
    def reenter():
        with pytest.raises(SimulationError):
            engine.run()

    engine.schedule(1, reenter)
    engine.run()


def test_same_time_events_run_in_schedule_order(engine):
    seen = []
    for i in range(5):
        engine.schedule(3, seen.append, i)
    engine.run()
    assert seen == [0, 1, 2, 3, 4]
