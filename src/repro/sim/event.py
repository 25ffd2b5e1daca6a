"""Event and event-queue primitives.

Events are ordered by ``(time, priority, seq)``.  ``priority`` breaks ties at
identical timestamps (lower runs first) and ``seq`` guarantees FIFO order —
and therefore determinism — among events with equal time and priority.

Internally the queue stores plain list entries
``[time, priority, seq, callback, args, event]`` so ordering uses C-level
list comparison (``seq`` is unique, so a comparison never reaches the
callback field).  The ``event`` slot is the optional cancel handle: it is
only set by :meth:`EventQueue.push` (``Engine.schedule``); entries from
:meth:`EventQueue._sched` (``Engine.post``/``post_at`` and the access
path) leave it ``None``.  Those are the queue's only two inserts, and
``Engine.run`` is its only drain.

Two structures hold pending entries:

* a heap, for arbitrary future times;
* a same-cycle FIFO lane (deque), fed only with priority-0 entries stamped
  at the *current* simulation time.  The clock never moves backwards, so
  lane entries are appended in non-decreasing key order and the lane stays
  sorted by construction; the true next event is whichever of the two
  heads compares smaller.  This gives zero-delay chains (the common case
  in the access fast path) O(1) scheduling instead of O(log n).

Cancellation keeps exact semantics: a cancelled event is skipped at pop
time.  A live-entry counter updated on push/pop/cancel makes ``len`` and
``bool`` O(1), and the backing stores are compacted in place once
cancelled entries outnumber live ones (in place, so the engine's run-loop
aliases stay valid).
"""

from __future__ import annotations

import heapq
from collections import deque
from heapq import heappush as _heappush
from typing import Any, Callable, Optional

_COMPACT_MIN = 16
# Absolute ceiling on retained cancelled entries.  The relative trigger
# (cancelled > live) alone lets a queue with a large live population
# carry an equally large cancelled population between compactions; the
# ceiling bounds the backing store at live + _COMPACT_LIMIT entries no
# matter how lopsided the cancel traffic gets.
_COMPACT_LIMIT = 4096


class Event:
    """A scheduled callback.

    Attributes:
        time: Simulation time (cycles) at which the event fires.
        priority: Tie-breaker at equal times; lower fires first.
        seq: Monotonic sequence number assigned by the queue.
        callback: Callable invoked when the event fires.
        args: Positional arguments passed to the callback.
        cancelled: When True the event is skipped at fire time.
    """

    __slots__ = (
        "time", "priority", "seq", "callback", "args", "cancelled", "_queue",
    )

    def __init__(
        self,
        time: float,
        callback: Callable[..., Any],
        args: tuple = (),
        priority: int = 0,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = -1
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._queue: Optional["EventQueue"] = None

    def cancel(self) -> None:
        """Mark the event so the engine skips it when popped."""
        if not self.cancelled:
            self.cancelled = True
            queue = self._queue
            if queue is not None:
                self._queue = None
                queue._note_cancel(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        return f"Event(t={self.time}, prio={self.priority}, cb={name})"


def _is_live(entry: list) -> bool:
    event = entry[5]
    return event is None or not event.cancelled


def _earliest_events(heap, lane, limit: int) -> list[Event]:
    """The first ``limit`` live entries of ``heap`` + ``lane`` as Events.

    Handle-less entries get a fresh Event carrying their ``seq``; the
    shared body of both backends' ``snapshot``.
    """
    entries = [e for e in heap if _is_live(e)]
    entries.extend(e for e in lane if _is_live(e))
    entries.sort()
    out = []
    for entry in entries[:limit]:
        event = entry[5]
        if event is None:
            event = Event(entry[0], entry[3], entry[4], entry[1])
            event.seq = entry[2]
        out.append(event)
    return out


class EventQueue:
    """A deterministic priority queue of scheduled callbacks."""

    def __init__(self) -> None:
        self._heap: list[list] = []
        self._lane: deque = deque()
        self._seq = 0
        self._live = 0
        self._cancelled = 0

    # ------------------------------------------------------------------
    # Cancellation bookkeeping
    # ------------------------------------------------------------------

    def _note_cancel(self, event: Optional[Event] = None) -> None:
        """A live event was cancelled (called from :meth:`Event.cancel`).

        ``event`` identifies the cancelled handle.  The heap queue does
        not need it (liveness is re-read from the handle at pop time);
        the signature is shared with the compiled core's.
        """
        self._live -= 1
        cancelled = self._cancelled + 1
        self._cancelled = cancelled
        if cancelled >= _COMPACT_MIN and (
            cancelled > self._live or cancelled >= _COMPACT_LIMIT
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries, *in place* so run-loop aliases survive."""
        heap = self._heap
        heap[:] = [entry for entry in heap if _is_live(entry)]
        heapq.heapify(heap)
        lane = self._lane
        if lane:
            keep = [entry for entry in lane if _is_live(entry)]
            lane.clear()
            lane.extend(keep)
        self._cancelled = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def push(self, event: Event, lane: bool) -> None:
        """Insert ``event`` as a cancellable entry and stamp its ``seq``.

        ``lane`` puts it on the same-cycle FIFO lane; only the engine may
        pass True, and only for a priority-0 event at its current time:
        that invariant is what keeps the lane sorted.
        """
        seq = self._seq
        self._seq = seq + 1
        event.seq = seq
        event._queue = self
        entry = [event.time, event.priority, seq, event.callback, event.args,
                 event]
        if lane:
            self._lane.append(entry)
        else:
            _heappush(self._heap, entry)
        self._live += 1

    def _sched(self, now, time, callback, args) -> None:
        """Priority-0 ``callback(*args)`` at ``max(time, now)`` (hot path).

        The fire-and-forget insert: a ``time`` at or before ``now`` is
        clamped to the present and goes to the same-cycle lane, a later
        one to the heap.  The compiled core's ``_sched`` has the same
        signature and routing.
        """
        seq = self._seq
        self._seq = seq + 1
        if time > now:
            _heappush(self._heap, [time, 0, seq, callback, args, None])
        else:
            self._lane.append([now, 0, seq, callback, args, None])
        self._live += 1

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def _skip_cancelled_heads(self) -> None:
        heap = self._heap
        while heap:
            event = heap[0][5]
            if event is not None and event.cancelled:
                heapq.heappop(heap)
                self._cancelled -= 1
            else:
                break
        lane = self._lane
        while lane:
            event = lane[0][5]
            if event is not None and event.cancelled:
                lane.popleft()
                self._cancelled -= 1
            else:
                break

    def peek_time(self) -> Optional[float]:
        """Return the timestamp of the earliest live event, or None."""
        self._skip_cancelled_heads()
        heap = self._heap
        lane = self._lane
        if heap and lane:
            return heap[0][0] if heap[0] < lane[0] else lane[0][0]
        if heap:
            return heap[0][0]
        if lane:
            return lane[0][0]
        return None

    def snapshot(self, limit: int = 20) -> list[Event]:
        """The earliest ``limit`` live events, in firing order (diagnostics)."""
        return _earliest_events(self._heap, self._lane, limit)

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0
