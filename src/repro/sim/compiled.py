"""Optional compiled event core: the ``"compiled"`` engine backend.

This module wraps the hand-written C extension ``repro.sim._ckernel``
(built via ``make ext`` / ``python setup.py build_ext --inplace``) into
the engine backend seam defined by :mod:`repro.sim.backends`:

* :class:`CompiledQueue` subclasses the C ``EventCore`` — binary heap +
  same-cycle FIFO lane + cancellation bookkeeping live in C — and adds
  the rare-path surfaces (``snapshot`` diagnostics, pickling).
* :class:`CompiledEngine` inherits :class:`repro.sim.engine.Engine`'s
  scheduling methods unchanged — the C core provides the same two
  inserts, ``_sched(now, time, callback, args)`` and ``push(event,
  lane)`` — and delegates the whole run loop to C: ``run()`` is a thin
  guard around ``EventCore._drain``, which executes events without
  re-entering the interpreter between callback dispatches.

The build is strictly optional.  When the extension is absent this
module still imports — :func:`is_available` returns False, backend
resolution refuses ``"compiled"`` eagerly (:func:`repro.sim.backends.
resolve_backend`), and snapshots *taken* under the compiled backend
restore onto the pure-Python heap engine with a logged warning and
byte-identical behaviour: :meth:`CompiledQueue.__getstate__` emits the
exact layout of an ``EventQueue``'s ``__dict__`` (its pickled state), so
the ``__reduce__`` hooks below can rebuild either class from one state
format.
"""

from __future__ import annotations

import logging
from collections import deque
from typing import Optional

from repro.sim.engine import Engine, SimulationError, SimulationStall
from repro.sim.event import Event, EventQueue, _earliest_events

try:  # Strictly optional: no compiler at install time -> heap oracle.
    from repro.sim import _ckernel
except ImportError:  # pragma: no cover - exercised via monkeypatch
    _ckernel = None

logger = logging.getLogger(__name__)


def is_available() -> bool:
    """True when the compiled event core imported successfully."""
    return _ckernel is not None


def _restore_queue():
    """Unpickle target for queues captured under the compiled backend.

    Returns an empty queue; pickle then applies the captured state
    (``__setstate__``, or a ``__dict__`` update).  On hosts without the
    extension the state loads into the pure-Python :class:`EventQueue`
    instead — same entry layout, byte-identical scheduling from there on.
    """
    if is_available():
        return CompiledQueue()
    logger.warning(
        "repro.sim._ckernel is not built on this host; restoring a "
        "compiled-backend event queue onto the pure-Python heap oracle"
    )
    return EventQueue.__new__(EventQueue)


def _restore_engine():
    """Unpickle target for engines captured under the compiled backend."""
    if is_available():
        return CompiledEngine.__new__(CompiledEngine)
    logger.warning(
        "repro.sim._ckernel is not built on this host; restoring a "
        "compiled-backend engine snapshot onto the pure-Python heap engine"
    )
    return Engine.__new__(Engine)


if _ckernel is not None:

    class CompiledQueue(_ckernel.EventCore):
        """C event core plus the oracle's diagnostic/pickling surfaces."""

        __slots__ = ()

        def snapshot(self, limit: int = 20) -> list:
            """The earliest ``limit`` live events, in firing order."""
            heap_entries, lane_entries, _seq, _live, _cancelled = self._export()
            return _earliest_events(heap_entries, lane_entries, limit)

        def __getstate__(self) -> dict:
            """Capture in the exact layout of ``EventQueue.__dict__``.

            One state format for every backend is what lets a snapshot
            taken under ``compiled`` restore on an extension-less host:
            these keys drop straight into ``EventQueue.__dict__``.  The
            heap entries are emitted in C array order, which satisfies
            the ``heapq`` invariant under the identical comparison.
            """
            heap_entries, lane_entries, seq, live, cancelled = self._export()
            return {
                "_heap": heap_entries,
                "_lane": deque(lane_entries),
                "_seq": seq,
                "_live": live,
                "_cancelled": cancelled,
            }

        def __setstate__(self, state: dict) -> None:
            # Live events in the state already reference this queue via
            # the pickle memo; cancelled ones carry _queue=None.  _load
            # must not (and does not) touch event._queue.
            self._load(
                list(state["_heap"]),
                list(state["_lane"]),
                state["_seq"],
                state["_live"],
                state["_cancelled"],
            )

        def __reduce__(self):
            # Three-tuple form: pickle memoizes the empty queue before
            # unpickling the state, so Event._queue back-references in
            # the entries resolve to the new queue object.
            return (_restore_queue, (), self.__getstate__())

    class CompiledEngine(Engine):
        """Engine whose queue and run loop live in the C extension.

        Scheduling is :class:`Engine`'s own (checks, monitor hook, one C
        insert).  ``run()`` delegates the whole drain loop;
        ``_stall_error``/``_budget_error`` are called back from C so the
        watchdog and budget exceptions carry the oracle's byte-exact
        messages and diagnostics.
        """

        def __init__(self) -> None:
            super().__init__()
            self._queue = CompiledQueue()

        def __reduce__(self):
            # Engine.__getstate__ enforces the pause-only contract (and
            # drops the monitor); _restore_engine degrades to the heap
            # Engine when the extension is absent on the restore host.
            return (_restore_engine, (), self.__getstate__())

        def stop(self) -> None:
            """Request that :meth:`run` return after the current event."""
            self._stopped = True
            self._queue._request_stop()

        def run(
            self,
            until: Optional[float] = None,
            max_events: Optional[int] = None,
            stall_threshold: Optional[int] = None,
            strict_budget: bool = False,
        ) -> float:
            """Run events until the queue drains, ``until``, or stop()."""
            if self._running:
                raise SimulationError("engine is not reentrant")
            self._running = True
            self._stopped = False
            self.exhausted = False
            try:
                # C owns the loop: head selection, bound parking, stall
                # watchdog, monitor dispatch, budget accounting — and it
                # accumulates events_executed even when an exception
                # unwinds, mirroring the oracle's try/finally.
                return self._queue._drain(
                    self, until, max_events, stall_threshold, strict_budget
                )
            finally:
                self._running = False

        def _stall_error(
            self, stalled_events, time, priority, callback, args, event
        ):
            """Raise the oracle's livelock error (called back from C)."""
            if event is None:
                event = Event(time, callback, args, priority)
            raise SimulationStall(
                f"no-progress livelock: {stalled_events} consecutive "
                f"events at t={self._now} without the clock advancing",
                self._format_event(event, " <- executing")
                + ("\n" + self.dump_pending() if len(self._queue) else ""),
            )

        def _budget_error(self, max_events):
            """Raise the oracle's budget error (called back from C)."""
            raise SimulationStall(
                f"event budget exhausted ({max_events} events) "
                f"at t={self._now} with "
                f"{self.pending_events()} events pending",
                self.dump_pending(),
            )

else:  # pragma: no cover - extension-less hosts
    CompiledQueue = None  # type: ignore[assignment]
    CompiledEngine = None  # type: ignore[assignment]
