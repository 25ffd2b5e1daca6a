"""Unit tests for the hot-path machinery behind the perf work.

Covers the surfaces the fast paths added or changed:

* ``Engine.post`` / ``post_at`` — the no-handle scheduling fast path.
* Event-queue internals: O(1) ``len``/``bool``, ``snapshot`` and lazy
  compaction of cancelled events.
* Power-of-two set indexing (``set_mask``) validated at config time.
"""

import pytest

from repro.config.system import CacheConfig, TLBConfig
from repro.sim.engine import Engine, SimulationError
from repro.sim.event import Event, EventQueue


def _noop(*args):
    pass


# ---------------------------------------------------------------------------
# Engine.post / post_at
# ---------------------------------------------------------------------------

class TestPostFastPath:
    def test_post_runs_callback_after_delay(self):
        engine = Engine()
        fired = []
        engine.post(5.0, fired.append, "x")
        assert engine.run() == 5.0
        assert fired == ["x"]

    def test_post_zero_delay_runs_this_cycle(self):
        engine = Engine()
        order = []

        def outer():
            order.append("outer")
            engine.post(0, order.append, "inner")

        engine.post(1.0, outer)
        engine.run()
        assert order == ["outer", "inner"]
        assert engine.now == 1.0

    def test_post_interleaves_fifo_with_schedule(self):
        # post and schedule at the same (time, priority) fire in call order.
        engine = Engine()
        order = []
        engine.schedule(2.0, order.append, "a")
        engine.post(2.0, order.append, "b")
        engine.schedule(2.0, order.append, "c")
        engine.run()
        assert order == ["a", "b", "c"]

    def test_post_negative_delay_rejected(self):
        engine = Engine()
        with pytest.raises(SimulationError):
            engine.post(-1.0, _noop)

    def test_post_at_past_rejected(self):
        engine = Engine()
        engine.post(3.0, _noop)
        engine.run()
        with pytest.raises(SimulationError):
            engine.post_at(1.0, _noop)

    def test_post_at_now_runs_before_later_heap_events(self):
        engine = Engine()
        order = []

        def now_and_later():
            engine.schedule(1.0, order.append, "later")
            engine.post_at(engine.now, order.append, "now")

        engine.post(4.0, now_and_later)
        engine.run()
        assert order == ["now", "later"]

    def test_posted_events_count_toward_events_executed(self):
        engine = Engine()
        for i in range(7):
            engine.post(float(i), _noop)
        engine.run()
        assert engine.events_executed == 7


# ---------------------------------------------------------------------------
# EventQueue internals: O(1) len, snapshot, compaction
# ---------------------------------------------------------------------------

class TestQueueInternals:
    def test_len_is_tracked_not_recounted(self):
        engine = Engine()
        q = engine._queue
        for i in range(10):
            q._sched(0.0, float(i + 1), _noop, ())
        assert len(q) == 10 == q._live
        engine.run(max_events=1)
        assert len(q) == 9 == q._live

    def test_cancelled_backlog_is_compacted(self):
        engine = Engine()
        q = engine._queue
        fired = []
        events = [Event(float(i), fired.append, (i,)) for i in range(64)]
        for e in events:
            q.push(e, False)
        for e in events[1:]:  # cancel everything except the head
            e.cancel()
        # Lazy compaction keeps the heap from growing without bound.
        assert len(q) == 1
        assert len(q._heap) < 64
        engine.run()
        assert fired == [0]
        assert len(q) == 0

    def test_snapshot_orders_and_skips_cancelled(self):
        q = EventQueue()
        keep = Event(2.0, _noop)
        drop = Event(1.0, _noop)
        q.push(keep, False)
        q.push(drop, False)
        q._sched(0.0, 3.0, _noop, ())
        drop.cancel()
        times = [e.time for e in q.snapshot(10)]
        assert times == [2.0, 3.0]


# ---------------------------------------------------------------------------
# Config-time set-mask validation
# ---------------------------------------------------------------------------

class TestSetMask:
    def test_cache_power_of_two_sets_get_a_mask(self):
        cfg = CacheConfig(size_bytes=16 * 1024, ways=4, line_bytes=64)
        assert cfg.num_sets == 64
        assert cfg.set_mask == 63

    def test_cache_non_power_of_two_falls_back_to_modulo(self):
        cfg = CacheConfig(size_bytes=12 * 1024, ways=4, line_bytes=64)
        assert cfg.num_sets == 48
        assert cfg.set_mask == -1

    def test_tlb_masks(self):
        assert TLBConfig(num_sets=32, ways=16).set_mask == 31
        assert TLBConfig(num_sets=1, ways=32).set_mask == 0
        assert TLBConfig(num_sets=3, ways=4).set_mask == -1
