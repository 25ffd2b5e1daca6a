"""Sweep-queue workers: lease, execute, heartbeat, commit, survive.

``run_worker(queue_dir)`` is the whole fleet API: point any number of
processes — on any machine sharing the queue directory — at a
:class:`repro.harness.queue.SweepQueue` and they cooperatively drain it.
Each worker:

* claims open cells under a lease and heartbeats to keep it alive;
* executes cells through the shared snapshot-fork runner when the cell
  belongs to a fork group, cold otherwise.  The latest prefix snapshot
  stays in memory, and every snapshot is kept in the queue's
  fingerprint store, so group members executed by different workers
  still amortize the warm-up.  Forked cells are byte-identical to cold
  ones, so results never depend on which worker ran what;
* when the queue configures ``cell_timeout``, runs each cell in a
  supervised child process and SIGKILLs it past the deadline — the
  wall-clock backstop for hangs in native/OS code that the in-sim
  event budgets and stall watchdog cannot see;
* commits results idempotently into the fingerprint store, recording
  how each cell ran (forked or cold), and reports failures with their
  retryability (deterministic simulation failures are terminal;
  infrastructure failures retry with backoff until quarantine);
* drains gracefully on SIGTERM/SIGINT: an in-process cell is finished
  and committed, a supervised cell process is killed and its lease
  released — a stopping worker never strands a lease.
"""

from __future__ import annotations

import multiprocessing
import signal
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional, Union

from repro.harness.io import SweepResultCache
from repro.harness.queue import Lease, SweepQueue, default_owner
from repro.harness.results import RunResult

# Cell processes are forked when the platform allows it: the grid is
# already in memory, so the child starts instantly and inherits object
# workloads that a spawn re-import could not reconstruct.
_CTX = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
)

#: Sentinel outcome: the supervisor killed the cell because the worker
#: is draining; the lease must be released, not failed.
RELEASED = object()


class CellTimeout(RuntimeError):
    """A cell exceeded its wall-clock budget and its process was killed."""


class WorkerCrash(RuntimeError):
    """A cell process died without reporting an outcome."""


@dataclass(frozen=True)
class CellFailure:
    """A cell execution failure, reduced to what the queue records.

    ``retryable`` distinguishes infrastructure failures (timeout, killed
    process — retry with backoff, quarantine after ``max_attempts``)
    from deterministic simulation failures (terminal, byte-identical to
    what a plain run of the cell raises).
    """

    error_type: str
    message: str
    bundle_path: Optional[str] = None
    retryable: bool = False


def _failure_from_exception(exc: BaseException,
                            retryable: bool = False) -> CellFailure:
    """Collapse an exception exactly like ``FailedRun.from_exception``."""
    return CellFailure(
        error_type=type(exc).__name__,
        message=str(exc).splitlines()[0] if str(exc) else "",
        bundle_path=getattr(exc, "bundle_path", None),
        retryable=retryable,
    )


# ----------------------------------------------------------------------
# Cell execution
# ----------------------------------------------------------------------


class PrefixCache:
    """Shared-prefix snapshots for :func:`execute_cell`.

    The latest group's ``(snapshot, meta)`` stays in memory, so the
    members of a group that one worker runs back to back fork without
    unpickling it again; every snapshot also goes to ``store`` (a
    :class:`SweepResultCache`), where other workers find it.  After each
    :func:`execute_cell`, ``prefix_events`` tells how the cell ran: the
    prefix's event count when it forked, None when it ran cold.
    """

    def __init__(self, store: Optional[SweepResultCache] = None) -> None:
        self.store = store
        self.prefix_events: Optional[int] = None
        self._last: Optional[tuple] = None  # (group_fp, snap, meta)

    def snapshot(self, args, group_fp: str) -> tuple:
        if self._last is None or self._last[0] != group_fp:
            from repro.harness.sweep import _prepare_group

            snap, meta = _prepare_group(args, self.store, group_fp)
            self._last = (group_fp, snap, meta)
        return self._last[1:]


def execute_cell(args, group_fp: Optional[str] = None,
                 prefixes: Optional[PrefixCache] = None):
    """Run one grid cell; returns a :class:`RunResult` or raises.

    A cell with a fork-group fingerprint continues from the group's
    prefix snapshot (from ``prefixes``, or run once and stored there).
    If the prefix itself fails, the cell re-runs cold, so its outcome
    is exactly a plain run's.
    """
    from repro.harness.sweep import _finish_fork, _fork_cell, _run_point

    prefixes = prefixes if prefixes is not None else PrefixCache()
    prefixes.prefix_events = None
    if group_fp is not None:
        try:
            snap, meta = prefixes.snapshot(args, group_fp)
        except Exception:
            return _run_point(args)
        prefixes.prefix_events = snap.events_executed
        return _finish_fork(snap, meta, _fork_cell(args))
    return _run_point(args)


def _cell_child(conn, args, group_fp, prefixes) -> None:
    """Child-process body: execute one cell, send the outcome back."""
    try:
        result = execute_cell(args, group_fp, prefixes)
        conn.send(("ok", result, prefixes.prefix_events))
    except BaseException as exc:  # noqa: BLE001 - the pipe is the report
        try:
            conn.send(("failure", _failure_from_exception(exc),
                       prefixes.prefix_events))
        except Exception:
            conn.send(("failure", CellFailure(
                error_type=type(exc).__name__,
                message="<failure did not serialize>",
            ), None))
    finally:
        conn.close()


def run_cell_supervised(
    args,
    group_fp: Optional[str] = None,
    prefixes: Optional[PrefixCache] = None,
    timeout: Optional[float] = None,
    stop: Optional[threading.Event] = None,
    poll: float = 0.05,
) -> Union[RunResult, CellFailure, object]:
    """Execute one cell in a child process under wall-clock supervision.

    The supervisor joins the child in short slices; past ``timeout`` it
    SIGKILLs the process and reports a retryable :class:`CellFailure`
    (``CellTimeout``) — the only defense against a cell hung in
    native/OS code, where no in-process watchdog can run.  If ``stop``
    is set mid-cell (worker drain), the child is killed and the
    :data:`RELEASED` sentinel returned so the caller releases the lease.
    A child that dies without reporting (SIGKILL, OOM) yields a
    retryable ``WorkerCrash`` failure.  ``prefixes.prefix_events`` is
    set as :func:`execute_cell` would set it.
    """
    prefixes = prefixes if prefixes is not None else PrefixCache()
    prefixes.prefix_events = None
    recv, send = _CTX.Pipe(duplex=False)
    proc = _CTX.Process(
        target=_cell_child, args=(send, args, group_fp, prefixes)
    )
    proc.start()
    send.close()
    deadline = None if timeout is None else time.monotonic() + timeout

    def _kill() -> None:
        if proc.is_alive():
            proc.kill()
        proc.join()

    while proc.is_alive():
        proc.join(poll)
        if stop is not None and stop.is_set():
            _kill()
            recv.close()
            return RELEASED
        if deadline is not None and time.monotonic() > deadline:
            _kill()
            recv.close()
            return CellFailure(
                error_type="CellTimeout",
                message=(f"cell exceeded wall-clock timeout of {timeout}s "
                         "and was killed"),
                retryable=True,
            )
    outcome: Union[RunResult, CellFailure, object]
    if recv.poll():
        try:
            _tag, outcome, prefixes.prefix_events = recv.recv()
        except Exception:
            outcome = CellFailure(
                error_type="WorkerCrash",
                message="cell process truncated its outcome",
                retryable=True,
            )
    else:
        outcome = CellFailure(
            error_type="WorkerCrash",
            message=(f"cell process died with exit code {proc.exitcode} "
                     "before reporting"),
            retryable=True,
        )
    recv.close()
    return outcome


# ----------------------------------------------------------------------
# The worker loop
# ----------------------------------------------------------------------


class _Heartbeat(threading.Thread):
    """Extends the worker's current lease on a timer.

    One thread serves the whole worker; ``lease`` is the cell in flight
    (None between cells).
    """

    def __init__(self, queue: SweepQueue, owner: str,
                 interval: float) -> None:
        super().__init__(daemon=True, name=f"heartbeat-{owner}")
        self.queue = queue
        self.owner = owner
        self.interval = max(interval, 0.05)
        self.lease: Optional[Lease] = None
        # Note: not named _stop; Thread itself defines a private _stop.
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(self.interval):
            lease = self.lease
            if lease is None:
                continue
            try:
                # A lost lease (reclaimed while the worker was paused
                # longer than the lease) is not acted on: the worker
                # keeps executing and its commit is an idempotent no-op.
                self.queue.heartbeat(lease.idx, self.owner)
            except Exception:
                pass  # transient DB contention; the next beat retries

    def stop(self) -> None:
        self._halt.set()
        self.join()


@dataclass
class WorkerReport:
    """What one ``run_worker`` invocation did before returning.

    A report is *always* produced, even when the worker is interrupted
    (SIGTERM/SIGINT/``KeyboardInterrupt``) before it ever claims a
    lease — the fleet supervisor and the service health endpoint treat
    a missing report as a crash, so a graceful drain must never look
    like one.  ``interrupted`` records that the worker drained early.
    """

    owner: str
    claimed: int = 0
    completed: int = 0
    failed: int = 0
    released: int = 0
    interrupted: bool = False

    def summary(self) -> str:
        return (f"worker {self.owner}: {self.claimed} claimed, "
                f"{self.completed} completed, {self.failed} failed, "
                f"{self.released} released"
                + (" (interrupted)" if self.interrupted else ""))

    def to_dict(self) -> dict:
        return {
            "owner": self.owner,
            "claimed": self.claimed,
            "completed": self.completed,
            "failed": self.failed,
            "released": self.released,
            "interrupted": self.interrupted,
        }


def run_worker(
    queue,
    owner: Optional[str] = None,
    poll_interval: float = 0.5,
    max_cells: Optional[int] = None,
    exit_when_drained: bool = True,
    install_signal_handlers: bool = False,
    stop: Optional[threading.Event] = None,
    progress=None,
    notify: Optional[Callable[[], None]] = None,
) -> WorkerReport:
    """Drain cells from a sweep queue until it is empty (or stopped).

    Args:
        queue: A :class:`SweepQueue`, or the directory of one created by
            ``Sweep.run(queue_dir=...)`` or :meth:`SweepQueue.create`.
        owner: Worker identity recorded on every lease (default:
            ``host:pid:nonce``).
        poll_interval: Sleep between claim attempts when no cell is
            ready (cells may be backing off, or other workers hold the
            remaining leases).
        max_cells: Stop after claiming this many cells (None = no cap).
        exit_when_drained: Return once every cell is terminal.  The
            worker keeps polling through backoff windows and other
            workers' leases — it only exits when the *grid* is finished,
            not merely when nothing is claimable right now.
        install_signal_handlers: Register SIGTERM/SIGINT to drain
            gracefully (finish or release the current lease, then
            return).  Only valid from the main thread.
        stop: Optional external drain event (shares semantics with the
            signal handlers).
        progress: Optional callable ``(report, stats)`` invoked after
            every claimed cell.
        notify: Optional no-argument callable invoked after every commit
            (``complete`` or ``fail``).  Unlike ``progress`` it runs no
            queue query, so a supervisor can use it as a cheap wakeup.
    """
    owner = owner or default_owner()
    stop = stop or threading.Event()
    report = WorkerReport(owner=owner)

    # Handlers go in before the queue is even opened: a SIGTERM landing
    # during startup must drain gracefully (and emit the report), not
    # kill the process with nothing claimed and nothing said.
    if install_signal_handlers:
        previous = {
            sig: signal.signal(sig, lambda _s, _f: stop.set())
            for sig in (signal.SIGTERM, signal.SIGINT)
        }
    try:
        try:
            if not isinstance(queue, SweepQueue):
                queue = SweepQueue.open(queue)
            with queue.connected():
                heartbeat = _Heartbeat(queue, owner,
                                       queue.settings.lease_duration / 3.0)
                heartbeat.start()
                try:
                    _drain(queue, owner, stop, report, heartbeat,
                           poll_interval, max_cells, exit_when_drained,
                           progress, notify)
                finally:
                    heartbeat.stop()
        except KeyboardInterrupt:
            # Graceful drain for interrupts that bypass the handler path
            # (library callers without install_signal_handlers): whether
            # it landed pre-claim or mid-cell, the lease is already
            # safe, so swallow the interrupt and return the report.
            stop.set()
            report.interrupted = True
    finally:
        if install_signal_handlers:
            for sig, handler in previous.items():
                signal.signal(sig, handler)
    return report


def _drain(queue: SweepQueue, owner: str, stop: threading.Event,
           report: WorkerReport, heartbeat: _Heartbeat, poll_interval,
           max_cells, exit_when_drained, progress, notify) -> None:
    """The claim -> execute -> commit loop of :func:`run_worker`."""
    settings = queue.settings
    prefixes = PrefixCache(queue.store)
    while not stop.is_set():
        if max_cells is not None and report.claimed >= max_cells:
            break
        lease = queue.claim(owner)
        if lease is None:
            if exit_when_drained and queue.drained():
                break
            stop.wait(poll_interval)
            continue
        report.claimed += 1
        heartbeat.lease = lease
        try:
            if settings.cell_timeout is not None:
                outcome = run_cell_supervised(
                    lease.args, lease.group_fp, prefixes,
                    timeout=settings.cell_timeout, stop=stop,
                )
            else:
                # In-process execution: a drain request arriving
                # mid-cell waits for the cell to finish (it is
                # committed, never stranded).
                try:
                    outcome = execute_cell(lease.args, lease.group_fp,
                                           prefixes)
                except KeyboardInterrupt:
                    raise
                except Exception as exc:
                    outcome = _failure_from_exception(exc)
        except KeyboardInterrupt:
            # Interrupted mid-cell without installed handlers: hand the
            # lease back before draining so the cell is never stranded
            # behind a dead worker's lease.
            queue.release(lease.idx, owner)
            report.released += 1
            raise
        finally:
            heartbeat.lease = None
        if outcome is RELEASED:
            queue.release(lease.idx, owner)
            report.released += 1
            break
        if isinstance(outcome, CellFailure):
            queue.fail(
                lease.idx, owner, outcome.error_type, outcome.message,
                retryable=outcome.retryable, bundle_path=outcome.bundle_path,
                prefix_events=prefixes.prefix_events,
            )
            report.failed += 1
        else:
            queue.complete(lease.idx, owner, outcome,
                           prefixes.prefix_events)
            report.completed += 1
        if notify is not None:
            notify()
        if progress is not None:
            progress(report, queue.stats())
