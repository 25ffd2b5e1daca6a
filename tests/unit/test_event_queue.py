"""Unit tests for the event queue, drained through ``Engine.run``."""

from repro.sim.engine import Engine
from repro.sim.event import _COMPACT_LIMIT, Event, EventQueue


def _noop():
    pass


def _queued(*specs):
    """An engine whose queue holds one recording Event per spec.

    Each spec is ``(time, label)`` or ``(time, label, priority)``; the
    event appends its label to the returned ``fired`` list when it runs.
    """
    engine = Engine()
    fired = []
    events = []
    for time, label, *priority in specs:
        event = Event(time, fired.append, (label,), *priority)
        engine._queue.push(event, False)
        events.append(event)
    return engine, fired, events


def test_push_pop_orders_by_time():
    engine, fired, _ = _queued((5.0, "c"), (1.0, "a"), (3.0, "b"))
    engine.run()
    assert fired == ["a", "b", "c"]


def test_priority_breaks_time_ties():
    engine, fired, _ = _queued((2.0, "a", 1), (2.0, "b", 0))
    engine.run()
    assert fired == ["b", "a"]


def test_fifo_among_equal_time_and_priority():
    engine, fired, events = _queued(*[(1.0, i) for i in range(5)])
    assert [e.seq for e in events] == list(range(5))
    engine.run()
    assert fired == list(range(5))


def test_cancelled_events_are_skipped():
    engine, fired, (keep, drop) = _queued((1.0, "keep"), (0.5, "drop"))
    drop.cancel()
    engine.run()
    assert fired == ["keep"]
    assert engine.events_executed == 1
    assert len(engine._queue) == 0


def test_peek_time_skips_cancelled():
    engine, _, (drop, _keep) = _queued((0.5, "drop"), (2.0, "keep"))
    drop.cancel()
    assert engine._queue.peek_time() == 2.0


def test_len_counts_live_events_only():
    engine, _, (e1, _e2) = _queued((1.0, "a"), (2.0, "b"))
    e1.cancel()
    assert len(engine._queue) == 1


def test_empty_queue_behaviour():
    q = EventQueue()
    assert q.peek_time() is None
    assert not q
    assert len(q) == 0
    engine = Engine()
    assert engine.run() == 0.0
    assert engine.events_executed == 0


def test_bool_true_when_live_events():
    q = EventQueue()
    q.push(Event(1.0, _noop), False)
    assert q


def test_event_repr_contains_time():
    e = Event(7.0, _noop)
    assert "7" in repr(e)


def test_heavy_cancellation_keeps_backing_store_bounded():
    """Regression: with a large live population, the relative compaction
    trigger (cancelled > live) never fires, so only the absolute ceiling
    (_COMPACT_LIMIT) stops cancelled entries from accumulating without
    bound under sustained cancel traffic."""
    q = EventQueue()
    live = 5000
    for i in range(live):
        q.push(Event(1e9 + i, _noop), False)
    worst = 0
    for i in range(3 * _COMPACT_LIMIT):
        event = Event(float(i), _noop)
        q.push(event, False)
        event.cancel()
        worst = max(worst, len(q._heap))
    # Backing store never exceeds live + ceiling (+1 for the entry that
    # trips the compaction).
    assert worst <= live + _COMPACT_LIMIT + 1
    assert len(q) == live
