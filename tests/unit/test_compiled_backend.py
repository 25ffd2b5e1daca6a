"""Unit tests for the compiled (C extension) event core and backend seam.

The oracle-parity tests run only when ``repro.sim._ckernel`` is built
(``make ext``); the backend-registry validation tests run everywhere,
including on extension-less hosts — that fallback leg is itself part of
the contract.
"""

import gc
import logging
import pickle
import sys

import pytest

from repro.config.system import SimConfig, SystemConfig
from repro.sim import compiled as compiled_mod
from repro.sim.backends import (
    BACKEND_ENV,
    ConfigError,
    available_backends,
    build_engine,
    resolve_backend,
)
from repro.sim.compiled import CompiledEngine, CompiledQueue, is_available
from repro.sim.engine import Engine, SimulationError, SimulationStall
from repro.sim.event import Event, EventQueue

needs_ckernel = pytest.mark.skipif(
    not is_available(), reason="repro.sim._ckernel extension not built"
)


def _noop():
    pass


def _tick(engine, i):
    """Module-level (hence picklable) self-rescheduling callback."""
    engine.trace.append((engine.now, i))
    if i < 6:
        engine.post(1.5, _tick, engine, i + 1)


# ----------------------------------------------------------------------
# Queue parity with the heap oracle
# ----------------------------------------------------------------------

def _record(engine, label):
    """Module-level (hence picklable) recording callback."""
    engine.trace.append((engine.now, label))


def _traced(engine_cls):
    engine = engine_cls()
    engine.trace = []
    return engine


@needs_ckernel
def test_compiled_pops_in_time_priority_seq_order():
    engine = _traced(CompiledEngine)
    for label, time, priority in (("d", 5.0, 0), ("c", 1.0, 1),
                                  ("b", 1.0, 0), ("a", 1.0, -1)):
        engine._queue.push(
            Event(time, _record, (engine, label), priority), False)
    engine.run()
    assert engine.trace == [(1.0, "a"), (1.0, "b"), (1.0, "c"), (5.0, "d")]


@needs_ckernel
def test_compiled_ties_break_by_insertion_seq():
    traces = []
    for engine_cls in (CompiledEngine, Engine):
        engine = _traced(engine_cls)
        for i in range(20):
            engine._queue._sched(0.0, 1.0, _record, (engine, i))
        engine.run()
        traces.append(engine.trace)
    assert traces[0] == traces[1] == [(1.0, i) for i in range(20)]


@needs_ckernel
def test_compiled_cancel_skips_and_len_counts_live():
    engine = _traced(CompiledEngine)
    q = engine._queue
    keep = Event(1.0, _record, (engine, "keep"))
    drop = Event(0.5, _record, (engine, "drop"))
    q.push(keep, False)
    q.push(drop, False)
    drop.cancel()
    assert len(q) == 1
    assert q.peek_time() == 1.0
    engine.run()
    assert engine.trace == [(1.0, "keep")]
    assert engine.events_executed == 1
    assert len(q) == 0


@needs_ckernel
def test_compiled_time_objects_preserved():
    """Integer times stay ints: the engine clock must not drift to float."""
    engine = CompiledEngine()
    engine.post_at(3, _noop)
    engine.run()
    assert engine.now == 3 and type(engine.now) is int


@needs_ckernel
def test_compiled_heavy_cancellation_compacts():
    """Cancelled-entry bookkeeping matches the oracle's lazy compaction:
    the cancelled counter is driven back down instead of growing without
    bound under cancel-heavy traffic."""
    from repro.sim.event import _COMPACT_LIMIT

    q = CompiledQueue()
    live = 100
    for i in range(live):
        q.push(Event(1e9 + i, _noop), False)
    for i in range(3 * _COMPACT_LIMIT):
        event = Event(float(i), _noop)
        q.push(event, False)
        event.cancel()
        assert q._cancelled <= max(q._live, _COMPACT_LIMIT) + 1
    assert len(q) == live


@needs_ckernel
def test_compiled_snapshot_matches_oracle():
    def build(q):
        q.push(Event(2.0, _noop, (1,)), False)
        q._sched(0.5, 1.0, _noop, (2,))
        q.push(Event(1.0, _noop, (3,), -1), False)
        drop = Event(0.5, _noop, (4,))
        q.push(drop, False)
        drop.cancel()
        q._sched(1.0, 0.5, _noop, (5,))

    cq, oq = CompiledQueue(), EventQueue()
    build(cq)
    build(oq)
    got = [(e.time, e.priority, e.seq, e.args) for e in cq.snapshot()]
    want = [(e.time, e.priority, e.seq, e.args) for e in oq.snapshot()]
    assert got == want


# ----------------------------------------------------------------------
# Pickling / snapshot state
# ----------------------------------------------------------------------

@needs_ckernel
def test_compiled_queue_pickle_round_trip():
    engine = _traced(CompiledEngine)
    handle = engine.schedule(2.0, _record, engine, 1)
    engine.post(1.0, _record, engine, 2)
    engine._queue.push(Event(3.0, _record, (engine, 3), -1), False)
    handle.cancel()
    restored = pickle.loads(pickle.dumps(engine))
    assert type(restored._queue) is CompiledQueue
    assert len(restored._queue) == 2
    restored.run()
    assert restored.trace == [(1.0, 2), (3.0, 3)]
    assert len(restored._queue) == 0


@needs_ckernel
def test_compiled_getstate_is_oracle_layout():
    """One state format for every backend: the compiled queue captures
    in the exact layout of ``EventQueue.__dict__``, so a snapshot can
    rebuild either class."""
    q = CompiledQueue()
    q.push(Event(1.0, _noop), False)
    state = q.__getstate__()
    assert sorted(state) == sorted(vars(EventQueue()))

    engine = Engine()
    engine._queue.__dict__.update(state)
    assert len(engine._queue) == 1
    assert engine.run() == 1.0
    assert engine.events_executed == 1


@needs_ckernel
def test_compiled_engine_pickle_requires_pause():
    engine = CompiledEngine()

    def reentrant():
        with pytest.raises(SimulationError, match="running engine"):
            pickle.dumps(engine)

    engine.post(1.0, reentrant)
    engine.run()


@needs_ckernel
def test_compiled_engine_restores_onto_heap_when_unavailable(
    monkeypatch, caplog
):
    """A snapshot taken under the compiled backend restores on an
    extension-less host as the pure-Python heap engine — with a logged
    warning, and byte-identical behaviour from the pause point on."""
    compiled_engine = CompiledEngine()
    compiled_engine.trace = []
    compiled_engine.post(0.5, _tick, compiled_engine, 0)
    compiled_engine.run(until=3.0)
    blob = pickle.dumps(compiled_engine)

    monkeypatch.setattr(compiled_mod, "_ckernel", None)
    with caplog.at_level(logging.WARNING, logger="repro.sim.compiled"):
        restored = pickle.loads(blob)
    assert type(restored) is Engine
    assert type(restored._queue) is EventQueue
    assert any("pure-Python heap" in r.message for r in caplog.records)

    # The prefix trace travelled with the snapshot; continue to the end.
    assert restored.trace == compiled_engine.trace
    restored.run()

    # Oracle reference: the same program run uninterrupted on the heap.
    heap_engine = Engine()
    heap_engine.trace = []
    heap_engine.post(0.5, _tick, heap_engine, 0)
    heap_engine.run()
    assert restored.trace == heap_engine.trace
    assert restored.now == heap_engine.now
    assert restored.events_executed == heap_engine.events_executed


# ----------------------------------------------------------------------
# Engine error-message parity
# ----------------------------------------------------------------------

@needs_ckernel
@pytest.mark.parametrize("call", ["schedule", "post", "post_at"])
def test_compiled_rejects_past_with_oracle_message(call):
    heap, comp = Engine(), CompiledEngine()
    for engine in (heap, comp):
        engine.post(10.0, _noop)
        engine.run()
        assert engine.now == 10.0
    errors = {}
    for name, engine in (("heap", heap), ("compiled", comp)):
        with pytest.raises(SimulationError) as exc:
            if call == "post_at":
                engine.post_at(5.0, _noop)
            else:
                getattr(engine, call)(-1.0, _noop)
        errors[name] = str(exc.value)
    assert errors["heap"] == errors["compiled"]


@pytest.mark.parametrize("backend", [
    "heap", pytest.param("compiled", marks=needs_ckernel)])
def test_rejected_post_consumes_no_seq(backend):
    """A rejected post or post_at leaves the queue untouched, like a
    rejected schedule: the next accepted event takes sequence number 0."""
    engine = build_engine(backend)
    for reject in (lambda: engine.post(-1.0, _noop),
                   lambda: engine.post_at(-1.0, _noop),
                   lambda: engine.schedule(-1.0, _noop)):
        with pytest.raises(SimulationError):
            reject()
    assert engine._queue._seq == 0
    assert len(engine._queue) == 0
    engine.post(1.0, _noop)
    assert [e.seq for e in engine._queue.snapshot()] == [0]


@needs_ckernel
def test_compiled_stall_error_matches_oracle():
    def build(engine):
        def spin():
            engine.post(0.0, spin)
        engine.post(1.0, spin)

    messages = {}
    for name, engine in (("heap", Engine()), ("compiled", CompiledEngine())):
        build(engine)
        with pytest.raises(SimulationStall) as exc:
            engine.run(stall_threshold=50)
        messages[name] = (str(exc.value), exc.value.diagnostics)
    assert messages["heap"] == messages["compiled"]


@needs_ckernel
def test_compiled_budget_error_matches_oracle():
    def build(engine):
        def tick():
            engine.post(1.0, tick)
        engine.post(1.0, tick)

    messages = {}
    for name, engine in (("heap", Engine()), ("compiled", CompiledEngine())):
        build(engine)
        with pytest.raises(SimulationStall) as exc:
            engine.run(max_events=5, strict_budget=True)
        messages[name] = (str(exc.value), exc.value.diagnostics)
        assert engine.exhausted
        assert engine.events_executed == 5
    assert messages["heap"] == messages["compiled"]


@needs_ckernel
def test_compiled_run_parks_clock_at_bound():
    heap, comp = Engine(), CompiledEngine()
    for engine in (heap, comp):
        engine.post(1.0, _noop)
        engine.post(10.0, _noop)
        engine.run(until=4)
    assert comp.now == heap.now == 4
    assert len(comp._queue) == len(heap._queue) == 1


# ----------------------------------------------------------------------
# Reference counts through the C surfaces
# ----------------------------------------------------------------------

class _Sentinel:
    """Callback whose reference count the balance tests watch.

    With ``engine`` set it re-posts itself at the same cycle (a livelock,
    or endless work under an event budget); with ``boom`` set it raises.
    """

    engine = None
    boom = False

    def __call__(self, arg):
        if self.boom:
            raise RuntimeError("boom")
        if self.engine is not None:
            self.engine.post(0, self, arg)


def _sched_past_and_future(callback, arg):
    engine = CompiledEngine()
    engine.post(2.0, _noop)
    engine.run()
    engine._queue._sched(engine.now, 1.0, callback, (arg,))
    engine._queue._sched(engine.now, 9.0, callback, (arg,))
    engine.run()
    assert len(engine._queue) == 0


def _push_cancel_compaction(callback, arg):
    engine = CompiledEngine()
    events = [Event(float(i), callback, (arg,)) for i in range(40)]
    for event in events:
        engine._queue.push(event, False)
    for event in events[:-1]:
        event.cancel()
    assert engine._queue._cancelled < 39  # compaction ran
    del events, event
    engine.run()
    assert engine.events_executed == 1


def _export_load(callback, arg):
    source = CompiledEngine()
    source.post(1.0, callback, arg)
    source.post(0, callback, arg)
    source.schedule(3.0, callback, arg).cancel()
    source.schedule(2.0, callback, arg, priority=1)
    copy = CompiledEngine()
    copy._queue.__setstate__(source._queue.__getstate__())
    assert len(copy._queue) == 3
    for engine in (source, copy):
        engine.run()
        assert engine.events_executed == 3


def _rejected_inserts(callback, arg):
    engine = CompiledEngine()
    engine.post(1.0, _noop)
    engine.run()
    for reject in (lambda: engine.post(-1.0, callback, arg),
                   lambda: engine.post_at(0.5, callback, arg),
                   lambda: engine.schedule(-1.0, callback, arg)):
        with pytest.raises(SimulationError):
            reject()
    with pytest.raises(TypeError):
        engine._queue.push(Event("later", callback, (arg,)), False)
    with pytest.raises(TypeError):
        engine._queue._sched(engine.now, "later", callback, (arg,))
    assert len(engine._queue) == 0


def _stall_error(callback, arg):
    engine = CompiledEngine()
    callback.engine = engine
    engine.post(1.0, callback, arg)
    with pytest.raises(SimulationStall, match="livelock"):
        engine.run(stall_threshold=10)
    callback.engine = None
    engine.run()
    assert len(engine._queue) == 0


def _budget_error(callback, arg):
    engine = CompiledEngine()
    callback.engine = engine
    engine.post(1.0, callback, arg)
    with pytest.raises(SimulationStall, match="budget"):
        engine.run(max_events=5, strict_budget=True)
    callback.engine = None
    engine.run()
    assert len(engine._queue) == 0


def _callback_raises(callback, arg):
    engine = CompiledEngine()
    callback.boom = True
    engine.post(1.0, callback, arg)
    engine.post(2.0, callback, arg)
    with pytest.raises(RuntimeError, match="boom"):
        engine.run()
    callback.boom = False
    engine.run()
    assert engine.events_executed == 1


@needs_ckernel
@pytest.mark.parametrize("scenario", [
    _sched_past_and_future, _push_cancel_compaction, _export_load,
    _rejected_inserts, _stall_error, _budget_error, _callback_raises,
], ids=lambda f: f.__name__.lstrip("_"))
def test_compiled_refcounts_balance(scenario):
    """Every C path that stores, drops or unwinds an entry leaves the
    callback's and the argument's reference counts where they started."""
    callback, arg = _Sentinel(), object()
    baseline = (sys.getrefcount(callback), sys.getrefcount(arg))
    scenario(callback, arg)
    gc.collect()
    assert (sys.getrefcount(callback), sys.getrefcount(arg)) == baseline


# ----------------------------------------------------------------------
# Backend registry validation (runs on extension-less hosts too)
# ----------------------------------------------------------------------

def test_resolve_backend_unknown_name_is_config_error(monkeypatch):
    monkeypatch.delenv(BACKEND_ENV, raising=False)
    with pytest.raises(ConfigError, match="unknown engine backend"):
        resolve_backend("bogus")
    with pytest.raises(ConfigError, match="heap, compiled"):
        resolve_backend("bogus")
    # The dual inheritance existing callers rely on.
    assert issubclass(ConfigError, SimulationError)
    assert issubclass(ConfigError, ValueError)


def test_resolve_backend_env_override_validated(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV, "bogus")
    with pytest.raises(ConfigError, match="bogus"):
        resolve_backend("heap")


def test_resolve_compiled_without_extension_names_alternatives(monkeypatch):
    monkeypatch.delenv(BACKEND_ENV, raising=False)
    monkeypatch.setattr(compiled_mod, "_ckernel", None)
    assert available_backends() == ("heap",)
    with pytest.raises(ConfigError, match="not built") as exc:
        resolve_backend("compiled")
    assert "available backends: heap" in str(exc.value)
    # ...and via the env override, same eager refusal.
    monkeypatch.setenv(BACKEND_ENV, "compiled")
    with pytest.raises(ConfigError, match="make ext"):
        resolve_backend("heap")


def test_sim_config_accepts_compiled_name(monkeypatch):
    """Name validity is checked at config time; extension availability
    only at engine-build time — so a config naming ``compiled`` can be
    constructed (and shipped to a build host) anywhere."""
    monkeypatch.setattr(compiled_mod, "_ckernel", None)
    assert SimConfig(engine_backend="compiled").engine_backend == "compiled"
    with pytest.raises(ConfigError):
        SimConfig(engine_backend="bogus")


@needs_ckernel
def test_build_engine_compiled_type(monkeypatch):
    monkeypatch.delenv(BACKEND_ENV, raising=False)
    assert resolve_backend("compiled") == "compiled"
    assert type(build_engine("compiled")) is CompiledEngine


def test_with_engine_backend_compiled():
    config = SystemConfig(num_gpus=2)
    compiled = config.with_engine_backend("compiled")
    assert compiled.sim.engine_backend == "compiled"
    assert config.sim.engine_backend == "heap"
