"""The simulation engine: clock plus event loop.

The run loop is the hottest code in the simulator, so it is written
against the queue's internal entry representation (plain lists, a heap
plus a same-cycle FIFO lane — see :mod:`repro.sim.event`) with bound
functions cached in locals.  Semantics are identical to the classic
peek-then-pop loop: events fire in exact ``(time, priority, seq)`` order,
the golden/parity suites pin this byte-for-byte.

Two scheduling surfaces, each one check, the monitor hook and one
queue insert:

* :meth:`Engine.schedule` returns an :class:`Event` cancel handle; it
  builds the Event and calls ``queue.push(event, lane)``.
* :meth:`Engine.post` / :meth:`Engine.post_at` are fire-and-forget for
  the overwhelmingly common case where the caller never cancels: they
  allocate no Event and call ``queue._sched(now, time, callback, args)``,
  which sends present-time entries to the FIFO lane instead of the heap.

Both backends' queues provide exactly those two inserts, so
:class:`repro.sim.compiled.CompiledEngine` inherits all three methods.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from repro.sim.event import Event, EventQueue


class SimulationError(RuntimeError):
    """Raised when the engine is driven into an invalid state."""


class SimulationStall(SimulationError):
    """The engine detected livelock or blew through its event budget.

    Carries a diagnostic dump of the earliest pending events so a stalled
    run can be debugged post-mortem instead of spinning forever.
    """

    def __init__(self, message: str, diagnostics: str = "") -> None:
        super().__init__(
            message + (f"\npending events:\n{diagnostics}" if diagnostics else "")
        )
        self.diagnostics = diagnostics


class Engine:
    """Owns the simulation clock and runs events in timestamp order.

    Time is measured in cycles of the system clock (1 GHz in the paper's
    configuration, Table II).  All hardware components hold a reference to
    the engine and schedule work through :meth:`schedule` (cancellable)
    or :meth:`post` (fire-and-forget fast path).
    """

    def __init__(self) -> None:
        self._queue = EventQueue()
        self._now: float = 0.0
        self._running = False
        self._stopped = False
        self.events_executed = 0
        # True when the last run() exited because max_events tripped —
        # distinguishable from a clean queue drain.
        self.exhausted = False
        # Sanitizer tap (repro.check.runtime.CheckRuntime) — None on
        # ordinary runs, leaving every path below a single is-None test.
        self._monitor = None

    @property
    def now(self) -> float:
        """Current simulation time in cycles."""
        return self._now

    def __getstate__(self) -> dict:
        """State capture: an engine is only picklable while paused.

        Mid-callback capture would lose the run loop's local aliases (the
        entry being executed, the executed-event count in flight), so a
        snapshot taken from inside an event is a bug, not a degraded copy.
        Pause first via ``run(until=...)`` — the clock parks at the bound
        with every later event still queued.
        """
        if self._running:
            raise SimulationError(
                "cannot snapshot a running engine; pause it with "
                "run(until=...) and snapshot between events"
            )
        state = self.__dict__.copy()
        state["_monitor"] = None
        return state

    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` cycles from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        monitor = self._monitor
        if monitor is not None:
            monitor.on_schedule(callback)
        event = Event(self._now + delay, callback, args, priority)
        self._queue.push(event, delay == 0 and priority == 0)
        return event

    def post(self, delay: float, callback: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: priority 0, no cancel handle."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        monitor = self._monitor
        if monitor is not None:
            monitor.on_schedule(callback)
        now = self._now
        self._queue._sched(now, now + delay, callback, args)

    def post_at(self, time: float, callback: Callable[..., Any], *args: Any) -> None:
        """:meth:`post` at absolute time ``time``."""
        now = self._now
        if time < now:
            raise SimulationError(
                f"cannot schedule at t={time}, current time is {now}"
            )
        monitor = self._monitor
        if monitor is not None:
            monitor.on_schedule(callback)
        self._queue._sched(now, time, callback, args)

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stopped = True

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        stall_threshold: Optional[int] = None,
        strict_budget: bool = False,
    ) -> float:
        """Run events until the queue drains, ``until`` is reached, or stop().

        Args:
            until: Absolute time bound; events at later times stay queued.
            max_events: Safety valve on the number of events to execute.
                Tripping it sets :attr:`exhausted` (and raises
                :class:`SimulationStall` under ``strict_budget``) so the
                caller can tell a blown budget from a clean drain.
            stall_threshold: Watchdog — if this many consecutive events
                execute without the clock advancing (a zero-delay livelock
                cycle), raise :class:`SimulationStall` with a dump of the
                pending events instead of spinning forever.
            strict_budget: Raise :class:`SimulationStall` when the event
                budget trips instead of returning with the flag set.

        Returns:
            The simulation time when the loop exited.
        """
        if self._running:
            raise SimulationError("engine is not reentrant")
        self._running = True
        self._stopped = False
        self.exhausted = False
        executed = 0
        stalled_events = 0
        queue = self._queue
        # The loop aliases the queue's backing stores; EventQueue mutates
        # them only in place (compaction included), so these stay valid
        # across arbitrary callback activity.
        heap = queue._heap
        lane = queue._lane
        heappop = heapq.heappop
        lane_popleft = lane.popleft
        monitor = self._monitor
        check_stall = stall_threshold is not None
        bound = float("inf") if until is None else until
        budget = float("inf") if max_events is None else max_events
        try:
            while not self._stopped:
                # Skip cancelled heads so the head comparison below only
                # sees live entries (only worth scanning when something is
                # actually cancelled).
                if queue._cancelled:
                    queue._skip_cancelled_heads()
                # The next event is the smaller of the two heads: the lane
                # is sorted by construction (engine clock never moves
                # backwards), the heap by heap order.
                if lane:
                    head = lane[0]
                    from_heap = bool(heap) and heap[0] < head
                    if from_heap:
                        head = heap[0]
                elif heap:
                    head = heap[0]
                    from_heap = True
                else:
                    break
                time = head[0]
                if time > bound:
                    self._now = bound
                    break
                entry = heappop(heap) if from_heap else lane_popleft()
                queue._live -= 1
                if check_stall:
                    if time > self._now:
                        stalled_events = 0
                    else:
                        stalled_events += 1
                        if stalled_events >= stall_threshold:
                            # The event being executed is already popped, so
                            # name it explicitly alongside the queue dump.
                            event = entry[5]
                            if event is None:
                                event = Event(
                                    time, entry[3], entry[4], entry[1]
                                )
                            raise SimulationStall(
                                f"no-progress livelock: {stalled_events} "
                                f"consecutive events at t={self._now} "
                                "without the clock advancing",
                                self._format_event(event, " <- executing")
                                + ("\n" + self.dump_pending()
                                   if queue._live else ""),
                            )
                self._now = time
                callback = entry[3]
                args = entry[4]
                event = entry[5]
                if monitor is not None:
                    monitor.on_execute(time, entry[1], entry[2], callback, args)
                if event is not None:
                    event._queue = None
                callback(*args)
                executed += 1
                if executed >= budget:
                    self.exhausted = True
                    if strict_budget:
                        raise SimulationStall(
                            f"event budget exhausted ({max_events} events) "
                            f"at t={self._now} with "
                            f"{self.pending_events()} events pending",
                            self.dump_pending(),
                        )
                    break
        finally:
            self.events_executed += executed
            self._running = False
        return self._now

    @staticmethod
    def _format_event(event: Event, suffix: str = "") -> str:
        name = getattr(event.callback, "__qualname__", repr(event.callback))
        args = ", ".join(repr(a) for a in event.args[:4])
        return f"  t={event.time:.1f} prio={event.priority} {name}({args}){suffix}"

    def dump_pending(self, limit: int = 20) -> str:
        """Human-readable dump of the earliest pending events (diagnostics)."""
        lines = [self._format_event(e) for e in self._queue.snapshot(limit)]
        remaining = self.pending_events() - len(lines)
        if remaining > 0:
            lines.append(f"  ... and {remaining} more")
        return "\n".join(lines)

    def pending_events(self) -> int:
        """Number of live events still queued."""
        return len(self._queue)

    def next_event_time(self) -> Optional[float]:
        """Timestamp of the earliest queued event, or None when drained."""
        return self._queue.peek_time()
