"""Property-based tests for engine/event-queue ordering invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine
from repro.sim.event import Event
from repro.sim.resource import SlotResource, ThroughputResource

times = st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), max_size=100)


@given(times)
@settings(max_examples=60)
def test_events_pop_in_nondecreasing_time_order(ts):
    engine = Engine()
    popped = []
    for t in ts:
        engine._queue.push(Event(t, popped.append, (t,)), False)
    engine.run()
    assert len(popped) == len(ts)
    assert popped == sorted(popped)


@given(times)
@settings(max_examples=60)
def test_engine_clock_is_monotone(ts):
    engine = Engine()
    observed = []
    for t in ts:
        engine.schedule(t, lambda: observed.append(engine.now))
    engine.run()
    assert observed == sorted(observed)


@given(st.lists(st.tuples(
    st.floats(min_value=0, max_value=1e5, allow_nan=False),
    st.integers(min_value=1, max_value=10_000),
), max_size=80))
@settings(max_examples=60)
def test_throughput_resource_never_overlaps_jobs(jobs):
    pipe = ThroughputResource("p", 32.0)
    last_finish = 0.0
    for now, size in sorted(jobs):
        finish = pipe.acquire(now, size)
        start = finish - size / 32.0
        assert start >= last_finish - 1e-6
        assert start >= now - 1e-6
        last_finish = finish


@given(st.lists(st.tuples(
    st.floats(min_value=0, max_value=1e5, allow_nan=False),
    st.integers(min_value=1, max_value=1000),
), max_size=80), st.integers(min_value=1, max_value=8))
@settings(max_examples=60)
def test_slot_resource_bounded_concurrency(jobs, slots):
    res = SlotResource("s", slots)
    intervals = []
    for now, duration in sorted(jobs):
        finish = res.acquire(now, duration)
        intervals.append((finish - duration, finish))
    # At any job start, at most `slots` jobs overlap (1e-3 tolerance for
    # float round-trip of start = finish - duration; durations are >= 1).
    eps = 1e-3
    for start, _ in intervals:
        probe = start + eps
        overlapping = sum(1 for s, f in intervals if s <= probe < f)
        assert overlapping <= slots
