"""``repro serve``: a fault-tolerant async experiment service.

The service is a thin, heavily-guarded front end over the machinery
``Sweep.run()`` itself executes on, so its results are byte-identical
to a ``Sweep.run()`` of the same grid:

* submissions arrive as JSON sweep specs (:func:`sweep_from_spec`) and
  are canonicalized to the queue's spec digest, so identical submissions
  — sequential or concurrent — share one execution;
* the fingerprint store answers already-computed cells immediately;
  only missing cells are enqueued (:func:`partition_cached_cells`);
* missing cells run through a :class:`SweepQueue` drained by a
  supervised local worker fleet (:class:`FleetSupervisor`), whose
  workers commit straight into that store;
* per-cell progress streams back as NDJSON while the fleet works.

Robustness is the point, not a bolt-on: a bounded admission budget sheds
load with 429 + ``Retry-After``; per-request deadlines cancel the fleet
gracefully (leases committed or released, never stranded) and the queue
directory survives for an idempotent resubmission to resume; repeated
fleet failures open a circuit breaker that flips the service to
cache-only read mode; SIGTERM drains every running submission before
exit.  A submission is owned by a background task, not its HTTP
connection — a dropped client never kills compute, it just detaches
from the stream.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from repro.harness.io import (
    SweepResultCache,
    sweep_key_to_dict,
    sweep_result_to_dict,
)
from repro.harness.queue import QueueSettings, SweepQueue
from repro.harness.sweep import (
    SpecError,
    SweepResult,
    assemble_result,
    partition_cached_cells,
    plan_queue_cells,
    sweep_from_spec,
)
from repro.service.admission import (
    AdmissionController,
    AdmissionLimitExceeded,
    CircuitBreaker,
    Deadline,
)
from repro.service.fleet import FleetSupervisor
from repro.service.http import (
    BadRequest,
    NDJSONStream,
    Request,
    read_request,
    send_json,
)


@dataclass
class Submission:
    """One canonical sweep execution, shared by every identical request."""

    digest: str
    total: int
    cells: list                    # full planned grid (key, args, fp, gfp)
    cached: list                   # (grid_index, key, fingerprint, RunResult)
    missing: list                  # planned cells still to compute
    qgrid: list                    # grid index of each queue cell
    queue: Optional[SweepQueue]
    fleet: Optional[FleetSupervisor]
    admitted: int = 0
    state: str = "running"         # running|done|degraded|cancelled|error
    cancel_reason: Optional[str] = None
    error: Optional[str] = None
    events: list = field(default_factory=list)
    settled: set = field(default_factory=set)  # queue cells published
    seq: int = 0                   # last queue event read
    done_event: asyncio.Event = field(default_factory=asyncio.Event)
    task: Optional[asyncio.Task] = None
    # Set when the supervisor has something to look at: a worker
    # committed or exited, or a cancel was requested.
    wake: asyncio.Event = field(default_factory=asyncio.Event)
    # Set (then replaced) by every publish(), for the attached streams.
    changed: asyncio.Event = field(default_factory=asyncio.Event)

    def publish(self, event: dict) -> None:
        """Append a stream event and wake every attached stream."""
        self.events.append(event)
        self.changed.set()
        self.changed = asyncio.Event()

    def cancel(self, reason: str) -> None:
        """Request graceful cancellation (first reason wins)."""
        if self.cancel_reason is None and not self.done_event.is_set():
            self.cancel_reason = reason
            self.wake.set()

    def summary(self) -> dict:
        return {
            "digest": self.digest,
            "state": self.state,
            "total": self.total,
            "cached": len(self.cached),
            "enqueued": len(self.missing),
            "cancel_reason": self.cancel_reason,
        }


class ExperimentService:
    """The ``repro serve`` application: routing, guards, supervision."""

    def __init__(
        self,
        root,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        workers: int = 2,
        max_in_flight_cells: int = 64,
        retry_after: float = 1.0,
        breaker_threshold: int = 3,
        breaker_reset: float = 30.0,
        lease_duration: float = 30.0,
        max_attempts: int = 3,
        cell_timeout: Optional[float] = None,
        poll_interval: float = 0.1,
        drain_grace: float = 10.0,
        worker_factory: Optional[Callable] = None,
    ) -> None:
        self.root = Path(root)
        self.host = host
        self.port = port
        self.workers = workers
        self.lease_duration = lease_duration
        self.max_attempts = max_attempts
        self.cell_timeout = cell_timeout
        self.poll_interval = poll_interval
        self.drain_grace = drain_grace
        self.worker_factory = worker_factory
        self.cache = SweepResultCache(self.root / "cache")
        self.queues_root = self.root / "queues"
        self.queues_root.mkdir(parents=True, exist_ok=True)
        self.admission = AdmissionController(
            max_in_flight_cells=max_in_flight_cells, retry_after=retry_after
        )
        self.breaker = CircuitBreaker(
            failure_threshold=breaker_threshold, reset_after=breaker_reset
        )
        self.started_at = time.time()
        self._submissions: dict[str, Submission] = {}
        self._digest_locks: dict[str, asyncio.Lock] = {}
        self._active_streams = 0
        self._streams_idle: Optional[asyncio.Event] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._stop_requested: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Spec canonicalization
    # ------------------------------------------------------------------

    def _prepare(self, spec: dict) -> dict:
        """Canonicalize a spec: grid, fingerprints, digest (blocking)."""
        from repro.perf.fingerprint import code_fingerprint

        deadline_s = None
        if isinstance(spec, dict) and spec.get("deadline_s") is not None:
            deadline_s = spec["deadline_s"]
            if (not isinstance(deadline_s, (int, float))
                    or isinstance(deadline_s, bool) or deadline_s <= 0):
                raise SpecError("'deadline_s' must be a positive number")
        sweep, run_params = sweep_from_spec(spec)
        grid = list(sweep._grid(
            run_params["scale"], run_params["seed"],
            run_params["max_events_per_run"], run_params["stall_threshold"],
            None, None,
        ))
        code_fp = code_fingerprint()
        cells = plan_queue_cells(grid, code_fp, fork=True)
        digest = SweepQueue._spec_digest(cells, code_fp)
        return {"cells": cells, "digest": digest, "code_fp": code_fp,
                "deadline_s": deadline_s}

    def _new_queue_dir(self, digest: str) -> Path:
        """A fresh queue directory for one execution of ``digest``.

        Each execution gets its own sequence-numbered directory: a
        resumed submission enqueues only the still-missing cells, whose
        spec digest differs from the original's, so reusing the old
        directory would (correctly) be rejected as a different grid.
        Old directories are kept — their quarantine bundles stay
        retrievable through ``GET /bundles``.
        """
        base = self.queues_root / digest[:16]
        base.mkdir(parents=True, exist_ok=True)
        seq = len([p for p in base.iterdir() if p.is_dir()])
        return base / f"q{seq:03d}"

    def _create_submission(self, prep: dict) -> Submission:
        """Build a Submission from prepared cells (blocking; may raise)."""
        cells = prep["cells"]
        cached, missing = partition_cached_cells(cells, self.cache)
        cached_indices = {index for index, _k, _fp, _r in cached}
        qgrid = [i for i in range(len(cells)) if i not in cached_indices]
        events = [
            {"event": "cell", "index": index, "status": "cached",
             "key": sweep_key_to_dict(key)}
            for index, key, _fp, _result in cached
        ]
        if not missing:
            sub = Submission(
                digest=prep["digest"], total=len(cells), cells=cells,
                cached=cached, missing=[], qgrid=[], queue=None, fleet=None,
                state="done", events=events,
            )
            sub.events.append({"event": "done", "state": "done",
                               "cached": len(cached), "enqueued": 0})
            sub.done_event.set()
            return sub
        _warm_worker_imports()
        # Guards: budget first (nothing held on refusal), then breaker.
        self.admission.admit(len(missing))
        if not self.breaker.allow():
            self.admission.release(len(missing))
            raise ServiceUnavailable(
                "circuit breaker open: serving cached results only",
                retry_after=self.breaker.retry_after,
            )
        try:
            settings = QueueSettings(
                lease_duration=self.lease_duration,
                max_attempts=self.max_attempts,
                cell_timeout=self.cell_timeout,
            )
            queue = SweepQueue.create(
                self._new_queue_dir(prep["digest"]), missing,
                settings=settings, code_fp=prep["code_fp"],
                store=self.cache.root,
            )
            fleet = FleetSupervisor(
                queue, size=self.workers, breaker=self.breaker,
                worker_factory=self.worker_factory,
            )
        except BaseException:
            self.admission.release(len(missing))
            self.breaker.abort_trial()
            raise
        return Submission(
            digest=prep["digest"], total=len(cells), cells=cells,
            cached=cached, missing=missing, qgrid=qgrid, queue=queue,
            fleet=fleet, admitted=len(missing), events=events,
        )

    # ------------------------------------------------------------------
    # Supervision
    # ------------------------------------------------------------------

    def _emit_cell_events(self, sub: Submission) -> None:
        """Append a progress event for every newly settled queue cell."""
        for seq, qi, status, attempts in sub.queue.settled(sub.seq):
            sub.seq = seq
            if qi in sub.settled:
                continue
            sub.settled.add(qi)
            grid_index = sub.qgrid[qi]
            key = sub.cells[grid_index][0]
            sub.publish({
                "event": "cell", "index": grid_index, "status": status,
                "attempts": attempts, "key": sweep_key_to_dict(key),
            })

    async def _supervise(self, sub: Submission) -> None:
        """Own one submission: drive the fleet until done/dead/cancelled.

        Each pass waits on ``sub.wake`` (a worker committed or exited, or
        a cancel arrived).  ``poll_interval`` only bounds that wait, for
        the timed work: lease reaping and restart backoff.
        """
        loop = asyncio.get_running_loop()
        watch = None
        try:
            await loop.run_in_executor(None, sub.fleet.start)
            watch = _FleetWatch(loop, sub.fleet, sub.wake)
            while True:
                sub.wake.clear()
                await loop.run_in_executor(None, sub.queue.reap)
                await loop.run_in_executor(None, sub.fleet.poll)
                watch.sync()
                self._emit_cell_events(sub)
                if sub.cancel_reason is not None:
                    sub.state = "cancelled"
                    break
                if sub.queue.drained():
                    sub.state = "done"
                    break
                if sub.fleet.dead:
                    sub.state = "degraded"
                    break
                timeout = self.poll_interval
                restart_in = sub.fleet.next_restart_in()
                if restart_in is not None:
                    timeout = min(timeout, restart_in)
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(sub.wake.wait(), timeout)
        except Exception as exc:  # supervision must never vanish silently
            sub.state = "error"
            sub.error = f"{type(exc).__name__}: {exc}"
        finally:
            if watch is not None:
                watch.close()
            with contextlib.suppress(asyncio.CancelledError):
                await asyncio.shield(loop.run_in_executor(
                    None, sub.fleet.drain, self.drain_grace
                ))
            self._emit_cell_events(sub)
            # Workers finishing their last cell during the graceful drain
            # can complete the grid; honor that, but a requested cancel
            # keeps its state so the client sees why the fleet stopped.
            if (sub.state == "degraded" and sub.queue is not None
                    and sub.queue.drained()):
                sub.state = "done"
            if sub.admitted:
                if sub.state == "done":
                    self.breaker.record_success()
                elif sub.state == "cancelled":
                    # Not a fleet verdict: don't hold a half-open trial.
                    self.breaker.abort_trial()
                self.admission.release(sub.admitted)
                sub.admitted = 0
            final = {"event": "done", "state": sub.state,
                     "cached": len(sub.cached), "enqueued": len(sub.missing)}
            if sub.cancel_reason is not None:
                final["reason"] = sub.cancel_reason
            if sub.error is not None:
                final["error"] = sub.error
            sub.publish(final)
            sub.done_event.set()

    def _assemble(self, sub: Submission) -> SweepResult:
        """Merge cache hits and queue outcomes back into grid order."""
        return assemble_result(
            [key for key, _args, _fp, _gfp in sub.cells],
            {key: run for _index, key, _fp, run in sub.cached}, sub.queue,
        )

    # ------------------------------------------------------------------
    # HTTP handlers
    # ------------------------------------------------------------------

    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                request = await read_request(reader)
                if request is None:
                    break
                await self._dispatch(request, writer)
        except BadRequest as exc:
            with contextlib.suppress(Exception):
                await send_json(writer, 400, {"error": str(exc)})
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Loop shutdown while the connection idles between requests;
            # close it quietly instead of logging a cancelled task.
            pass
        finally:
            with contextlib.suppress(Exception, asyncio.CancelledError):
                writer.close()
                await writer.wait_closed()

    async def _dispatch(self, request: Request,
                        writer: asyncio.StreamWriter) -> None:
        path = request.path.rstrip("/") or "/"
        parts = [p for p in path.split("/") if p]
        try:
            if path == "/healthz" and request.method == "GET":
                await send_json(writer, 200, self.health())
            elif path == "/sweeps" and request.method == "POST":
                await self._handle_submit(request, writer)
            elif path == "/sweeps" and request.method == "GET":
                await send_json(writer, 200, {
                    "submissions": [s.summary()
                                    for s in self._submissions.values()]
                })
            elif parts[:1] == ["sweeps"] and len(parts) >= 2 \
                    and request.method == "GET":
                await self._handle_sweep_get(request, writer, parts)
            elif parts[:1] == ["bundles"] and request.method == "GET":
                await self._handle_bundles(writer, parts[1:])
            elif path in ("/healthz", "/sweeps") \
                    or parts[:1] in (["sweeps"], ["bundles"]):
                await send_json(writer, 405, {"error": "method not allowed"})
            else:
                await send_json(writer, 404, {"error": f"no route {path}"})
        except ServiceUnavailable as exc:
            await send_json(writer, 503, {"error": str(exc)},
                            headers={"Retry-After": _retry_after(exc.retry_after)})
        except AdmissionLimitExceeded as exc:
            await send_json(writer, 429, {"error": str(exc)},
                            headers={"Retry-After": _retry_after(exc.retry_after)})
        except SpecError as exc:
            await send_json(writer, 400, {"error": str(exc)})

    async def _handle_submit(self, request: Request,
                             writer: asyncio.StreamWriter) -> None:
        spec = request.json()
        loop = asyncio.get_running_loop()
        prep = await loop.run_in_executor(None, self._prepare, spec)
        deadline = Deadline(prep["deadline_s"])
        # Per-digest lock: creation suspends into an executor, so two
        # concurrent identical submissions would otherwise both miss the
        # registry and each build a queue.  The loser of the lock finds
        # the winner's submission and just attaches to its stream.
        lock = self._digest_locks.setdefault(prep["digest"], asyncio.Lock())
        async with lock:
            sub = self._submissions.get(prep["digest"])
            if sub is None or sub.done_event.is_set():
                # Not already in flight: build a fresh execution.  A
                # repeat of a finished digest re-partitions against the
                # cache, so harvested work never enqueues again.
                sub = await loop.run_in_executor(
                    None, self._create_submission, prep
                )
                self._submissions[sub.digest] = sub
                if sub.queue is not None:
                    sub.task = asyncio.create_task(self._supervise(sub))
        await self._stream_submission(writer, sub, deadline)

    async def _stream_submission(self, writer: asyncio.StreamWriter,
                                 sub: Submission,
                                 deadline: Deadline) -> None:
        stream = NDJSONStream(writer)
        self._active_streams += 1
        self._streams_idle.clear()
        try:
            await stream.start(200)
            await stream.emit({
                "event": "accepted", "digest": sub.digest,
                "state": sub.state, "total": sub.total,
                "cached": len(sub.cached), "enqueued": len(sub.missing),
            })
            cursor = 0
            notified_deadline = False
            while True:
                # Taken before reading, so an event published while an
                # emit below awaits still wakes this stream.
                changed = sub.changed
                while cursor < len(sub.events):
                    await stream.emit(sub.events[cursor])
                    cursor += 1
                if sub.done_event.is_set() and cursor >= len(sub.events):
                    break
                if deadline.expired and not notified_deadline:
                    notified_deadline = True
                    sub.cancel("deadline")
                    await stream.emit({
                        "event": "deadline", "digest": sub.digest,
                        "resubmit": "identical spec resumes from cache "
                                    "and completed cells",
                    })
                wait = self.poll_interval
                if not deadline.expired:
                    wait = min(wait, max(deadline.remaining, 0.001))
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(changed.wait(), wait)
            await stream.close()
        finally:
            self._active_streams -= 1
            if self._active_streams == 0:
                self._streams_idle.set()

    async def _handle_sweep_get(self, request: Request,
                                writer: asyncio.StreamWriter,
                                parts: list) -> None:
        digest = parts[1]
        sub = self._submissions.get(digest)
        if sub is None:  # allow unique prefixes (the accepted digest is long)
            matches = [s for d, s in self._submissions.items()
                       if d.startswith(digest)]
            sub = matches[0] if len(matches) == 1 else None
        if sub is None:
            await send_json(writer, 404,
                            {"error": f"no submission {digest!r}"})
            return
        action = parts[2] if len(parts) > 2 else "status"
        if action == "status":
            payload = sub.summary()
            if sub.queue is not None:
                payload["queue"] = sub.queue.health().to_dict()
            await send_json(writer, 200, payload)
        elif action == "stream":
            await self._stream_submission(writer, sub, Deadline(None))
        elif action == "result":
            if not sub.done_event.is_set():
                await send_json(writer, 409, {
                    "error": "submission still executing; stream it or "
                             "retry later", "state": sub.state,
                })
                return
            loop = asyncio.get_running_loop()
            result = await loop.run_in_executor(None, self._assemble, sub)
            await send_json(writer, 200, sweep_result_to_dict(result))
        else:
            await send_json(writer, 404, {"error": f"no action {action!r}"})

    async def _handle_bundles(self, writer: asyncio.StreamWriter,
                              parts: list) -> None:
        """Serve quarantine crash bundles straight off the queue dirs."""
        if not parts:
            bundles = []
            for manifest in sorted(
                    self.queues_root.glob("*/*/bundles/*/manifest.json")):
                cell = manifest.parent
                bundles.append("/".join(
                    [cell.parent.parent.parent.name,  # digest prefix
                     cell.parent.parent.name,         # queue sequence
                     cell.name]                       # cell-NNNNN
                ))
            await send_json(writer, 200, {"bundles": bundles})
            return
        if len(parts) < 3:
            await send_json(writer, 404, {"error": "bundle id is "
                                          "<digest>/<queue>/<cell>"})
            return
        digest_dir, queue_dir, cell = parts[0], parts[1], parts[2]
        bundle = (self.queues_root / digest_dir / queue_dir / "bundles"
                  / cell)
        try:
            bundle = bundle.resolve()
            bundle.relative_to(self.queues_root.resolve())
        except ValueError:
            await send_json(writer, 404, {"error": "bundle id escapes the "
                                          "bundle root"})
            return
        if not (bundle / "manifest.json").is_file():
            await send_json(writer, 404,
                            {"error": f"no bundle {'/'.join(parts[:3])!r}"})
            return
        if len(parts) == 3:
            manifest = json.loads((bundle / "manifest.json").read_text())
            files = sorted(p.name for p in bundle.iterdir() if p.is_file())
            await send_json(writer, 200,
                            {"manifest": manifest, "files": files})
            return
        member = (bundle / parts[3]).resolve()
        try:
            member.relative_to(bundle)
        except ValueError:
            await send_json(writer, 404, {"error": "file escapes the bundle"})
            return
        if not member.is_file():
            await send_json(writer, 404,
                            {"error": f"no file {parts[3]!r} in bundle"})
            return
        body = member.read_bytes()
        head = (f"HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream"
                f"\r\nContent-Length: {len(body)}\r\n\r\n")
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    def health(self) -> dict:
        payload = {
            "status": "ok",
            "uptime_s": round(time.time() - self.started_at, 3),
            "breaker": self.breaker.to_dict(),
            "admission": self.admission.to_dict(),
            "submissions": {},
            "worker_pids": [],
        }
        for digest, sub in self._submissions.items():
            entry = sub.summary()
            if sub.fleet is not None:
                entry["fleet"] = sub.fleet.health()
                payload["worker_pids"].extend(entry["fleet"]["pids"])
            if sub.queue is not None:
                entry["queue"] = sub.queue.health().to_dict()
            payload["submissions"][digest] = entry
        return payload

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket (the actual port lands in ``port``)."""
        self._loop = asyncio.get_running_loop()
        self._stop_requested = asyncio.Event()
        self._streams_idle = asyncio.Event()
        self._streams_idle.set()
        self._server = await asyncio.start_server(
            self._handle_conn, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def shutdown(self, drain: bool = True) -> None:
        """Stop accepting, drain every running submission, release all."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        running = [s for s in self._submissions.values()
                   if not s.done_event.is_set()]
        for sub in running:
            sub.cancel("shutdown")
        if drain and running:
            await asyncio.gather(
                *(s.done_event.wait() for s in running)
            )
        if drain:
            # Let attached NDJSON streams flush their final events and
            # close cleanly before the loop (and its tasks) go away.
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(self._streams_idle.wait(), 10.0)
        else:
            for sub in running:
                if sub.fleet is not None:
                    loop = asyncio.get_running_loop()
                    await loop.run_in_executor(None, sub.fleet.drain, 0.0)

    def request_stop(self) -> None:
        if self._stop_requested is not None:
            self._stop_requested.set()

    async def _main(self, install_signals: bool = False,
                    ready: Optional[threading.Event] = None) -> None:
        await self.start()
        if install_signals:
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGTERM, signal.SIGINT):
                loop.add_signal_handler(sig, self.request_stop)
            print(f"repro serve listening on http://{self.host}:{self.port} "
                  f"(root {self.root})", flush=True)
        if ready is not None:
            ready.set()
        await self._stop_requested.wait()
        await self.shutdown(drain=True)

    def run(self) -> int:
        """Serve until SIGTERM/SIGINT; drain gracefully; exit 0."""
        asyncio.run(self._main(install_signals=True))
        return 0

    # -- test harness helpers ------------------------------------------

    def start_background(self) -> "ExperimentService":
        """Run the service on a daemon thread; returns when bound."""
        ready = threading.Event()
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main(ready=ready)), daemon=True
        )
        self._thread.start()
        if not ready.wait(timeout=30.0):
            raise RuntimeError("service failed to start within 30s")
        return self

    def stop_background(self, timeout: float = 60.0) -> None:
        """Graceful drain + stop of a background service thread."""
        if self._thread is None:
            return
        self._loop.call_soon_threadsafe(self.request_stop)
        self._thread.join(timeout=timeout)
        if self._thread.is_alive():
            raise RuntimeError("service did not stop within the timeout")
        self._thread = None


def _warm_worker_imports() -> None:
    """Import what a worker's first cell would, once, in this process.

    Forked workers inherit every module already imported here; without
    this, each worker of each submission imports these on its first
    cell.  Called on the executor path, never during start-up.
    """
    import numpy.random  # noqa: F401
    import repro.sim.snapshot  # noqa: F401


class _FleetWatch:
    """Event-loop readers that set a supervisor's wake event.

    Two kinds of fd turn readable when the supervisor has work: the
    fleet's notify pipe (a worker committed a cell) and each worker's
    process sentinel (the worker exited).  A sentinel stays readable
    once its process exits, so its reader is removed as it fires.  The
    process of each watched sentinel is held here, so its fd cannot be
    closed (and its number reused) while the loop still watches it.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop,
                 fleet: FleetSupervisor, wake: asyncio.Event) -> None:
        self._loop = loop
        self._fleet = fleet
        self._wake = wake
        self._sentinels: dict = {}  # fd -> process
        self._notify_fd = fleet.notify_fd
        if self._notify_fd is not None:
            loop.add_reader(self._notify_fd, self._on_notify)

    def _on_notify(self) -> None:
        with contextlib.suppress(BlockingIOError):
            while os.read(self._notify_fd, 512):
                pass
        self._wake.set()

    def _on_exit(self, fd: int) -> None:
        self._loop.remove_reader(fd)
        del self._sentinels[fd]
        self._wake.set()

    def sync(self) -> None:
        """Watch exactly the sentinels of the fleet's current processes."""
        current = self._fleet.sentinels
        for fd in [fd for fd in self._sentinels if fd not in current]:
            self._loop.remove_reader(fd)
            del self._sentinels[fd]
        for fd, proc in current.items():
            if fd not in self._sentinels:
                self._loop.add_reader(fd, self._on_exit, fd)
                self._sentinels[fd] = proc

    def close(self) -> None:
        if self._notify_fd is not None:
            self._loop.remove_reader(self._notify_fd)
        for fd in self._sentinels:
            self._loop.remove_reader(fd)
        self._sentinels.clear()


class ServiceUnavailable(RuntimeError):
    """Compute refused while the circuit breaker is open (HTTP 503)."""

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(message)
        self.retry_after = retry_after


def _retry_after(seconds: float) -> str:
    """Retry-After header value: whole seconds, at least 1."""
    return str(max(1, int(seconds + 0.999)))
