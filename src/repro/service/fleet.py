"""Worker-fleet supervision for ``repro serve``.

A :class:`FleetSupervisor` owns the local worker processes draining one
submission's :class:`~repro.harness.queue.SweepQueue`.  Its contract:

* a worker that exits while the grid is still live is a *fleet failure*:
  it is restarted after capped exponential backoff with decorrelated
  jitter (the same :func:`~repro.harness.queue.jittered_backoff_delay`
  the queue uses for lease reclamation), and the failure is recorded on
  the service's circuit breaker;
* a worker that exits once the grid is drained simply retired — no
  restart, no breaker event;
* when the breaker opens, or a slot exhausts ``max_restarts``, the slot
  is retired; a fleet with every slot retired while the grid is live is
  *dead*, and the submission degrades instead of hanging;
* ``drain()`` SIGTERMs every live worker (they finish or release their
  lease — never strand it), escalating to SIGKILL only past the grace
  period, then reaps the queue so any killed stragglers' leases recover.

The service's asyncio loop drives the supervisor through ``poll()``,
without threads; everything it calls is non-blocking.  The supervisor
also tells the loop when to call it: default workers write one byte to
the ``notify_fd`` pipe after each commit, each process's ``sentinel``
turns readable when it exits, and ``next_restart_in()`` bounds the wait
for a pending restart.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.harness.queue import SweepQueue, jittered_backoff_delay
from repro.harness.worker import run_worker

_CTX = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
)


def _worker_entry(queue_dir: str, notify_fd: Optional[int] = None) -> None:
    # Fork children inherit the parent's asyncio signal wakeup fd (the
    # event loop's self-pipe socketpair).  Left in place, a SIGTERM
    # delivered to the *worker* writes its signal byte into that shared
    # pipe and the parent's loop reads it as its own SIGTERM — draining
    # a fleet would shut the whole service down.  Detach before
    # installing the worker's handlers.
    signal.set_wakeup_fd(-1)
    notify = None
    if notify_fd is not None:
        def notify() -> None:
            try:
                os.write(notify_fd, b"\0")
            except OSError:
                pass  # pipe full (a wakeup is already pending) or closed
    run_worker(queue_dir, install_signal_handlers=True, notify=notify)


def default_worker_factory(queue_dir: str, notify_fd: Optional[int] = None):
    """Start one queue worker process (the production fleet member).

    ``notify_fd`` is the write end of a pipe the worker writes one byte
    to after each commit.  Only a forked child inherits it.
    """
    if _CTX.get_start_method() != "fork":
        notify_fd = None
    proc = _CTX.Process(target=_worker_entry, args=(queue_dir, notify_fd))
    proc.start()
    return proc


@dataclass
class _Slot:
    """One fleet position: a live process, a pending restart, or retired."""

    proc: Optional[object] = None
    restarts: int = 0
    not_before: float = 0.0  # monotonic time the next restart may run
    retired: bool = False
    exits: list = field(default_factory=list)  # observed exit codes


class FleetSupervisor:
    """Supervise ``size`` workers on one queue until it drains or dies."""

    def __init__(
        self,
        queue: SweepQueue,
        size: int = 2,
        *,
        restart_base: float = 0.25,
        restart_cap: float = 5.0,
        max_restarts: int = 5,
        breaker=None,
        worker_factory: Optional[Callable] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if size < 1:
            raise ValueError("fleet size must be >= 1")
        self.queue = queue
        self.size = size
        self.restart_base = restart_base
        self.restart_cap = restart_cap
        self.max_restarts = max_restarts
        self.breaker = breaker
        self.worker_factory = worker_factory
        self._clock = clock
        self._slots = [_Slot() for _ in range(size)]
        self._started = False
        # Commit-notify pipe (default workers only): read end, write end.
        self.notify_fd: Optional[int] = None
        self._notify_w: Optional[int] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _spawn(self):
        if self.worker_factory is not None:
            return self.worker_factory(str(self.queue.root))
        return default_worker_factory(str(self.queue.root), self._notify_w)

    def start(self) -> None:
        if self.worker_factory is None and self.notify_fd is None:
            self.notify_fd, self._notify_w = os.pipe()
            os.set_blocking(self.notify_fd, False)
            os.set_blocking(self._notify_w, False)
        for slot in self._slots:
            slot.proc = self._spawn()
        self._started = True

    def poll(self) -> None:
        """Reap dead workers; restart (with backoff) or retire them."""
        if not self._started:
            return
        now = self._clock()
        drained = self.queue.drained()
        for index, slot in enumerate(self._slots):
            if slot.retired:
                continue
            if slot.proc is not None:
                if slot.proc.is_alive():
                    continue
                exitcode = slot.proc.exitcode
                slot.proc.join()
                slot.proc = None
                slot.exits.append(exitcode)
                if drained:
                    slot.retired = True  # finished its job; not a failure
                    continue
                # Died with live cells: a fleet failure.
                if self.breaker is not None:
                    self.breaker.record_failure()
                slot.restarts += 1
                if slot.restarts > self.max_restarts:
                    slot.retired = True
                    continue
                delay = jittered_backoff_delay(
                    slot.restarts, self.restart_base, self.restart_cap,
                    token=f"fleet:{self.queue.root}:{index}:{slot.restarts}",
                )
                slot.not_before = now + delay
                continue
            # Pending restart.
            if drained:
                slot.retired = True
                continue
            if self.breaker is not None and not self.breaker.allow():
                slot.retired = True  # circuit open: stop feeding it workers
                continue
            if now >= slot.not_before:
                slot.proc = self._spawn()

    def drain(self, grace: float = 10.0) -> None:
        """Stop the fleet gracefully; never leave a stranded lease.

        SIGTERM first (workers finish or release their current lease),
        SIGKILL only past ``grace`` seconds, then a queue reap so a
        killed straggler's lease re-opens immediately instead of waiting
        out its deadline.
        """
        # Exited but not yet reaped workers are joined too, so their
        # process sentinels are closed rather than kept open.
        held = [s for s in self._slots if s.proc is not None]
        for slot in held:
            if not slot.proc.is_alive():
                continue
            try:
                os.kill(slot.proc.pid, signal.SIGTERM)
            except (ProcessLookupError, TypeError):
                pass
        deadline = time.monotonic() + grace
        for slot in held:
            slot.proc.join(max(0.0, deadline - time.monotonic()))
            if slot.proc.is_alive():
                slot.proc.kill()
                slot.proc.join()
            slot.exits.append(slot.proc.exitcode)
            slot.proc = None
            slot.retired = True
        for slot in self._slots:
            slot.retired = True
        self._started = False
        for fd in (self.notify_fd, self._notify_w):
            if fd is not None:
                os.close(fd)
        self.notify_fd = self._notify_w = None
        self.queue.reap()

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------

    @property
    def alive(self) -> int:
        return sum(1 for s in self._slots
                   if s.proc is not None and s.proc.is_alive())

    @property
    def pending_restarts(self) -> int:
        return sum(1 for s in self._slots
                   if s.proc is None and not s.retired)

    @property
    def dead(self) -> bool:
        """Every slot retired (nothing running, nothing coming back)."""
        return self._started and all(s.retired for s in self._slots)

    @property
    def sentinels(self) -> dict:
        """``{sentinel fd: process}`` for every process a slot holds."""
        return {s.proc.sentinel: s.proc for s in self._slots
                if s.proc is not None}

    def next_restart_in(self) -> Optional[float]:
        """Seconds until the earliest pending restart is due, or None."""
        due = [s.not_before for s in self._slots
               if s.proc is None and not s.retired]
        return max(0.0, min(due) - self._clock()) if due else None

    @property
    def pids(self) -> list:
        return [s.proc.pid for s in self._slots
                if s.proc is not None and s.proc.is_alive()]

    @property
    def total_restarts(self) -> int:
        return sum(s.restarts for s in self._slots)

    def health(self) -> dict:
        return {
            "size": self.size,
            "alive": self.alive,
            "pids": self.pids,
            "pending_restarts": self.pending_restarts,
            "restarts": self.total_restarts,
            "dead": self.dead,
        }
