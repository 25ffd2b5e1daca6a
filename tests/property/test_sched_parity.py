"""Property-based parity: ``_sched`` against the explicit lane/heap split.

The access path schedules every leg through one bound call,
``queue._sched(now, time, callback, args)``: priority 0 at
``max(time, now)``, on the same-cycle lane when ``time <= now`` and on
the heap otherwise.  The reference is the same choice spelled out with
``push_lane(now, ...)`` and ``push_entry(time, 0, ...)``.  Hypothesis
drives both forms through identical schedules, with the clock advancing
the way the engine advances it (to the time of each popped event), and
compares every pop.  The compiled core's ``_sched`` is held to the same
trace when the extension is built.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.presets import tiny_system
from repro.harness.io import result_to_dict
from repro.harness.runner import harvest_result, prepare_run, run_workload
from repro.sim import compiled as compiled_mod
from repro.sim.backends import BACKEND_ENV
from repro.sim.compiled import CompiledQueue, is_available
from repro.sim.event import EventQueue

needs_ckernel = pytest.mark.skipif(
    not is_available(), reason="repro.sim._ckernel extension not built"
)


def _cb_a():
    pass


def _cb_b():
    pass


_CALLBACKS = (_cb_a, _cb_b)

# One operation: schedule at ``now + delta`` (a negative delta is a time
# already in the past, clamped to the present), schedule a heap entry at
# another priority, or pop the next event and move the clock to it.
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("sched"),
                  st.floats(min_value=-50, max_value=200, allow_nan=False),
                  st.integers(min_value=0, max_value=1)),
        st.tuples(st.just("entry"),
                  st.floats(min_value=0, max_value=200, allow_nan=False),
                  st.integers(min_value=-1, max_value=1)),
        st.just(("pop",)),
    ),
    max_size=150,
)


def _split(queue, now, time, callback, args):
    """The reference: the lane/heap choice made with the explicit pushes."""
    if time <= now:
        queue.push_lane(now, callback, args)
    else:
        queue.push_entry(time, 0, callback, args)


def _sched(queue, now, time, callback, args):
    queue._sched(now, time, callback, args)


def _trace(queue, schedule, ops):
    """Apply ``ops``; returns every popped event's full identity."""
    now = 0.0
    trace = []
    serial = 0

    def pop():
        nonlocal now
        event = queue.pop()
        if event is None:
            trace.append(None)
            return False
        now = event.time
        trace.append((event.time, event.priority, event.seq,
                      event.callback, event.args))
        return True

    for op in ops:
        serial += 1
        if op[0] == "sched":
            _, delta, cb_index = op
            schedule(queue, now, now + delta, _CALLBACKS[cb_index], (serial,))
        elif op[0] == "entry":
            _, delta, priority = op
            queue.push_entry(now + delta, priority, _cb_a, (serial,))
        else:
            pop()
    while pop():
        pass
    assert len(queue) == 0
    return trace


@given(_ops)
@settings(max_examples=150, deadline=None)
def test_sched_pops_like_lane_heap_split(ops):
    assert _trace(EventQueue(), _sched, ops) == _trace(EventQueue(), _split, ops)


@needs_ckernel
@given(_ops)
@settings(max_examples=150, deadline=None)
def test_compiled_sched_pops_like_heap_sched(ops):
    assert (_trace(CompiledQueue(), _sched, ops)
            == _trace(EventQueue(), _sched, ops))


@needs_ckernel
def test_compiled_machine_snapshot_restores_onto_heap(monkeypatch):
    """The access path's bound ``_sched`` travels in every snapshot: a
    machine paused under the compiled core and restored on a host without
    it rebinds to the heap queue and finishes byte-identical to a heap
    run."""
    monkeypatch.delenv(BACKEND_ENV, raising=False)
    args = dict(scale=0.005, seed=9)
    machine, built, kernels = prepare_run(
        "MT", "griffin", config=tiny_system(2).with_engine_backend("compiled"),
        **args,
    )
    machine.start(kernels)
    machine.run_until(machine.hyper.migration_period - 1)
    blob = pickle.dumps(machine.snapshot())

    monkeypatch.setattr(compiled_mod, "_ckernel", None)
    forked = pickle.loads(blob).fork()
    queue = forked.engine._queue
    assert type(queue) is EventQueue
    assert forked.access_path._sched.__self__ is queue
    if forked.finish_time is None:
        forked.finish()
    restored = result_to_dict(harvest_result(forked, built))

    heap = run_workload("MT", "griffin", config=tiny_system(2), **args)
    assert restored == result_to_dict(heap)
