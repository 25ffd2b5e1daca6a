"""Re-entrant differential test of the event cores.

Hypothesis generates small programs: each fired event runs a list of
actions that post, ``post_at``, ``schedule`` (with a priority), push a
fire-and-forget entry through ``queue._sched`` at or before the present,
cancel a handle (live, already fired, or the event's own), or raise.
Every program runs on the heap :class:`Engine`, on a sorted-list
reference defined below, and on :class:`CompiledEngine` when the
extension is built.  All must agree on the fired ``(now, event id)``
trace (the id names the callback and its arguments), ``events_executed``,
the final ``now``, ``len(queue)`` and every exception raised, including
rejected posts.  An exception aborts ``run``; the program resumes it
until the queue drains.
"""

import bisect
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.presets import tiny_system
from repro.harness.io import result_to_dict
from repro.harness.runner import harvest_result, prepare_run, run_workload
from repro.sim import compiled as compiled_mod
from repro.sim.backends import BACKEND_ENV
from repro.sim.compiled import CompiledEngine, is_available
from repro.sim.engine import Engine, SimulationError
from repro.sim.event import EventQueue

needs_ckernel = pytest.mark.skipif(
    not is_available(), reason="repro.sim._ckernel extension not built"
)

# Events a program may create; bounds zero-delay chains.
_CAP = 60


class _Handle:
    cancelled = False

    def cancel(self):
        self.cancelled = True


class _Reference:
    """Every pending event in one list sorted by (time, priority, seq)."""

    def __init__(self):
        self.now, self.events_executed, self._seq, self._pending = 0.0, 0, 0, []
        self._queue = self  # programs call engine._queue._sched and len()

    def _insert(self, time, priority, callback, args, handle=None):
        entry = (time, priority, self._seq, callback, args, handle)
        bisect.insort(self._pending, entry)
        self._seq += 1
        return handle

    def _sched(self, now, time, callback, args):
        self._insert(max(time, now), 0, callback, args)

    def post(self, delay, callback, *args):
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self._sched(self.now, self.now + delay, callback, args)

    def post_at(self, time, callback, *args):
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time}, current time is {self.now}")
        self._sched(self.now, time, callback, args)

    def schedule(self, delay, callback, *args, priority=0):
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self._insert(self.now + delay, priority, callback, args, _Handle())

    def __len__(self):
        return sum(1 for e in self._pending if not (e[5] and e[5].cancelled))

    def run(self):
        while self._pending:
            time, _, _, callback, args, handle = self._pending.pop(0)
            if handle is None or not handle.cancelled:
                self.now = time
                callback(*args)
                self.events_executed += 1
        return self.now


class _Boom(Exception):
    pass


_delays = st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.5, 7.0])
_action = st.one_of(
    st.tuples(st.just("post"), _delays),
    st.tuples(st.just("post_at"), _delays),
    st.tuples(st.just("schedule"), _delays, st.integers(-1, 1)),
    st.tuples(st.just("sched"), st.sampled_from([0.0, 1.0, 10.0])),
    st.tuples(st.just("cancel"), st.integers(0, 1000)),
    st.just(("cancel_self",)),
    st.just(("raise",)),
)
# Event ``i`` runs the action list ``program[i % len(program)]``; the
# list for id -1 (the last one) runs once before the engine starts.
_programs = st.lists(st.lists(_action, max_size=4), min_size=1, max_size=8)


class _Ctx:
    def __init__(self, engine, program):
        self.engine, self.program = engine, program
        self.trace, self.handles, self.own = [], [], {}
        self.next_id = 0


def _fire(ctx, event_id):
    ctx.trace.append((ctx.engine.now, event_id))
    _act(ctx, event_id)


def _act(ctx, event_id):
    engine = ctx.engine
    for action in ctx.program[event_id % len(ctx.program)]:
        kind = action[0]
        if kind == "cancel":
            if ctx.handles:
                ctx.handles[action[1] % len(ctx.handles)].cancel()
        elif kind == "cancel_self":
            if event_id in ctx.own:
                ctx.own[event_id].cancel()
        elif kind == "raise":
            raise _Boom(event_id)
        elif ctx.next_id < _CAP:
            new = ctx.next_id
            ctx.next_id += 1
            if kind == "post":
                engine.post(action[1], _fire, ctx, new)
            elif kind == "post_at":
                engine.post_at(engine.now + action[1], _fire, ctx, new)
            elif kind == "schedule":
                handle = engine.schedule(action[1], _fire, ctx, new,
                                         priority=action[2])
                ctx.handles.append(handle)
                ctx.own[new] = handle
            else:
                engine._queue._sched(engine.now, engine.now - action[1],
                                     _fire, (ctx, new))


def _outcome(engine, program):
    ctx = _Ctx(engine, program)
    raised = []

    def attempt(call):
        try:
            call()
        except (_Boom, SimulationError) as exc:
            raised.append(f"{type(exc).__name__}: {exc}")
            return False
        return True

    attempt(lambda: _act(ctx, -1))
    for _ in range(_CAP + 2):
        if attempt(engine.run):
            break
    return (ctx.trace, engine.events_executed, engine.now,
            len(engine._queue), raised)


@given(_programs)
@settings(max_examples=300, deadline=None)
def test_reentrant_programs_match_reference(program):
    want = _outcome(_Reference(), program)
    assert want[3] == 0
    assert _outcome(Engine(), program) == want
    if is_available():
        assert _outcome(CompiledEngine(), program) == want


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
