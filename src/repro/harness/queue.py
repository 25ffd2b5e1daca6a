"""SQLite-backed fault-tolerant sweep queue.

``SweepQueue`` materializes a sweep grid as rows in a WAL-mode sqlite
database so that any number of worker processes — started on any machine
sharing the queue directory, at any time — can pull open cells, execute
them, and commit results without coordinating with each other or with
the process that created the queue.  The design follows the
PyExperimenter pattern: the grid *is* the table, and the execution fleet
is stateless.

Robustness model
----------------

Every cell row carries a status machine::

    open ──claim──▶ leased ──complete──▶ done
      ▲                │
      │                ├─fail (deterministic)──▶ failed
      │                │
      └──backoff───────┴─fail (infrastructure) / lease expiry
                             │
                             └─after max_attempts──▶ quarantined

* **Leases.**  A claim grants a lease with a wall-clock deadline; the
  worker heartbeats to extend it while executing.  A worker that is
  SIGKILLed (or whose machine dies) simply stops heartbeating: the next
  ``claim``/``reap`` reclaims the expired lease and re-opens the cell
  with capped exponential backoff.  Because every cell is a
  deterministic simulation, a re-execution after a lost lease produces
  byte-identical results — a late commit from a zombie worker is a
  no-op.
* **Deterministic vs. infrastructure failures.**  A cell that *raises*
  (stall, event-budget exhaustion, invariant violation, bad input) fails
  the same way on every host, exactly as a plain run of the cell would
  — it is recorded terminally as ``failed``, so a grid's result never
  depends on which worker ran it.  Only
  infrastructure failures (lease expiry, a killed or crashed cell
  process, a wall-clock timeout) are retried; after ``max_attempts``
  the cell is quarantined with an evidence bundle instead of wedging
  the grid.
* **Idempotent commits.**  Results land in the sweep's fingerprint
  store (:class:`repro.harness.io.SweepResultCache`), the same store
  ``Sweep.run(cache_dir=...)`` and ``repro serve`` read hits from, keyed
  by cell fingerprint.  A duplicate execution rewrites byte-identical
  content, and the database transition to ``done`` is an UPDATE guarded
  on the status, so exactly one commit counts.

Concurrency relies on sqlite WAL mode plus ``BEGIN IMMEDIATE``
transactions; the queue directory must live on a filesystem with
working POSIX locks (local disk, most cluster filesystems — *not* NFS
with broken locking).  Connections are opened per operation, except
inside :meth:`SweepQueue.connected`, which a worker holds while it
drains: there each thread of the process keeps one connection.  No
connection is open outside that block, so processes that fork workers
never carry one into a child.
"""

from __future__ import annotations

import contextlib
import json
import os
import pickle
import sqlite3
import threading
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from repro.harness.io import SweepResultCache, failed_to_dict, load_result
from repro.harness.results import FailedRun

_DB_NAME = "queue.sqlite3"
_GRID_NAME = "grid.pkl"

# Statuses a cell row can be in.  "open" and "leased" are live; the
# other three are terminal ("failed" deterministically, "quarantined"
# after exhausting infrastructure retries, "done" successfully).
LIVE_STATUSES = ("open", "leased")
TERMINAL_STATUSES = ("done", "failed", "quarantined")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS cells (
    idx            INTEGER PRIMARY KEY,
    fingerprint    TEXT,
    group_fp       TEXT,
    status         TEXT NOT NULL DEFAULT 'open',
    owner          TEXT,
    last_owner     TEXT,
    lease_deadline REAL,
    not_before     REAL NOT NULL DEFAULT 0,
    attempts       INTEGER NOT NULL DEFAULT 0,
    error_type     TEXT,
    message        TEXT,
    result_path    TEXT,
    bundle_path    TEXT,
    prefix_events  INTEGER
);
CREATE INDEX IF NOT EXISTS cells_status ON cells (status);
CREATE TABLE IF NOT EXISTS events (
    seq    INTEGER PRIMARY KEY AUTOINCREMENT,
    cell   INTEGER NOT NULL,
    at     REAL NOT NULL,
    owner  TEXT,
    event  TEXT NOT NULL,
    detail TEXT
);
"""


def backoff_delay(attempts: int, base: float, cap: float) -> float:
    """Capped exponential backoff before re-opening a failed cell.

    ``attempts`` is the number of executions already granted; the first
    retry waits ``base`` seconds, each further retry doubles, and the
    delay never exceeds ``cap``.
    """
    if attempts < 1:
        return 0.0
    # Cap the exponent too, so huge attempt counts cannot overflow.
    return min(base * (2.0 ** min(attempts - 1, 63)), cap)


def jittered_backoff_delay(attempts: int, base: float, cap: float,
                           token: str = "") -> float:
    """Decorrelated-jitter backoff for lease reclamation.

    A SIGKILLed fleet leaves all its leases expiring at the same
    instant; plain exponential backoff then re-opens every cell at the
    same ``not_before``, and the restarted fleet thundering-herds the
    sqlite lease transaction.  Decorrelated jitter spreads the delays
    across ``[base, min(cap, base * 3**(attempts-1))]`` instead.

    The jitter is *deterministic*: ``token`` (cell index, attempt count,
    last owner) is hashed to the uniform draw, so the schedule is
    reproducible across reruns and across the workers racing to reclaim
    — whichever worker wins the transaction computes the same delay.
    Timing never reaches the simulation, so results stay byte-identical.
    """
    if attempts < 1 or base <= 0.0:
        return 0.0
    import hashlib

    ceiling = min(base * (3.0 ** min(attempts - 1, 40)), cap)
    if ceiling <= base:
        return min(base, cap)
    digest = hashlib.sha256(token.encode("utf-8")).digest()
    unit = int.from_bytes(digest[:8], "big") / 2.0 ** 64
    return base + unit * (ceiling - base)


@dataclass(frozen=True)
class QueueSettings:
    """Per-queue execution policy, fixed at creation time.

    Stored in the database so every worker — local or remote — enforces
    the same leases, retry budget, and timeouts.
    """

    lease_duration: float = 30.0
    max_attempts: int = 3
    backoff_base: float = 1.0
    backoff_cap: float = 60.0
    cell_timeout: Optional[float] = None

    def to_json(self) -> str:
        return json.dumps({
            "lease_duration": self.lease_duration,
            "max_attempts": self.max_attempts,
            "backoff_base": self.backoff_base,
            "backoff_cap": self.backoff_cap,
            "cell_timeout": self.cell_timeout,
        }, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "QueueSettings":
        data = json.loads(text)
        return cls(
            lease_duration=data["lease_duration"],
            max_attempts=data["max_attempts"],
            backoff_base=data["backoff_base"],
            backoff_cap=data["backoff_cap"],
            cell_timeout=data["cell_timeout"],
        )


@dataclass(frozen=True)
class Lease:
    """One granted cell execution: who runs what, until when."""

    idx: int
    key: object  # SweepKey
    args: tuple
    group_fp: Optional[str]
    attempts: int
    deadline: float


@dataclass(frozen=True)
class QueueStats:
    """Row counts by status (one ``stats()`` snapshot)."""

    open: int = 0
    leased: int = 0
    done: int = 0
    failed: int = 0
    quarantined: int = 0

    @property
    def total(self) -> int:
        return (self.open + self.leased + self.done + self.failed
                + self.quarantined)

    @property
    def live(self) -> int:
        return self.open + self.leased

    @property
    def unhealthy(self) -> int:
        return self.failed + self.quarantined


@dataclass(frozen=True)
class LeaseHealth:
    """One live lease as the health snapshot sees it."""

    idx: int
    owner: Optional[str]
    attempts: int
    age: float  # seconds since the lease was granted (or last extended)
    remaining: float  # seconds until expiry; negative = stale

    @property
    def stale(self) -> bool:
        return self.remaining < 0.0

    def to_dict(self) -> dict:
        return {
            "idx": self.idx,
            "owner": self.owner,
            "attempts": self.attempts,
            "age_s": round(self.age, 3),
            "remaining_s": round(self.remaining, 3),
            "stale": self.stale,
        }


@dataclass(frozen=True)
class QueueHealth:
    """One observation of a queue: counts plus every live lease.

    This is the snapshot the service's ``/healthz`` endpoint and the
    ``queue status`` CLI both render.  A *stale* lease (its deadline has
    passed but no claim/reap has reclaimed it yet) is the signature of a
    dead worker awaiting recovery.
    """

    stats: QueueStats
    leases: tuple  # of LeaseHealth
    at: float

    @property
    def stale_leases(self) -> tuple:
        return tuple(lease for lease in self.leases if lease.stale)

    @property
    def drained(self) -> bool:
        return self.stats.live == 0

    def to_dict(self) -> dict:
        s = self.stats
        return {
            "cells": {
                "open": s.open, "leased": s.leased, "done": s.done,
                "failed": s.failed, "quarantined": s.quarantined,
                "total": s.total,
            },
            "drained": self.drained,
            "leases": [lease.to_dict() for lease in self.leases],
            "stale_leases": len(self.stale_leases),
        }


def default_owner() -> str:
    """A globally unique worker identity (host:pid:nonce)."""
    import socket

    return f"{socket.gethostname()}:{os.getpid()}:{uuid.uuid4().hex[:6]}"


class SweepQueue:
    """A sweep grid materialized as lease-managed sqlite rows.

    Use :meth:`create` (or :meth:`create_or_attach`) from the process
    that owns the grid, and :meth:`open` from workers.  All methods are
    safe to call concurrently from any number of processes.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.db_path = self.root / _DB_NAME
        self.grid_path = self.root / _GRID_NAME
        self.bundles_dir = self.root / "bundles"
        self._grid: Optional[list] = None
        self._settings: Optional[QueueSettings] = None
        self._store: Optional[SweepResultCache] = None
        self._meta_cache: dict = {}
        self._fingerprints: Optional[list] = None
        # Results committed inside connected(), so a caller assembling
        # in the same block reads none back from the store.
        self._committed: dict = {}
        # (pid, thread id) -> connection, filled only inside connected().
        self._conns: dict = {}
        self._held = 0

    # ------------------------------------------------------------------
    # Construction / attachment
    # ------------------------------------------------------------------

    @classmethod
    def create(cls, root, cells, settings: Optional[QueueSettings] = None,
               code_fp: str = "", store=None, digest: Optional[str] = None,
               grid_file: bool = True) -> "SweepQueue":
        """Materialize a grid as a fresh queue.

        Args:
            root: Queue directory (created if missing).
            cells: ``(key, args, fingerprint, group_fp)`` per queued cell,
                in grid order.
            settings: Lease/retry/timeout policy for every worker.
            code_fp: Source-tree fingerprint recorded for validation.
            store: Directory of the fingerprint store results are
                committed into (default: ``<root>/cache``).
            digest: Grid identity recorded for :meth:`create_or_attach`
                (default: the digest of ``cells``).  A caller that queues
                only part of a grid passes the whole grid's digest.
            grid_file: Write ``grid.pkl`` so ``repro worker`` processes
                can attach; ``args`` must then be picklable.  Without it
                only this process and workers forked from it can run
                cells.
        """
        queue = cls(root)
        if queue.db_path.exists():
            raise FileExistsError(
                f"queue already exists at {queue.root}; use "
                "create_or_attach() to resume it"
            )
        settings = settings or QueueSettings()
        queue.root.mkdir(parents=True, exist_ok=True)
        queue.bundles_dir.mkdir(exist_ok=True)
        grid = [(key, args) for key, args, _fp, _gfp in cells]
        if grid_file:
            payload = {"version": 1, "code_fp": code_fp, "cells": grid}
            try:
                blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
            except Exception as exc:
                raise ValueError(
                    "queue cells must be picklable (object workloads with "
                    f"unpicklable state cannot be queued): {exc}"
                ) from exc
            tmp = queue.grid_path.with_suffix(f".tmp-{os.getpid()}")
            tmp.write_bytes(blob)
            os.replace(tmp, queue.grid_path)
        queue._grid = grid
        queue._fingerprints = [fp for _k, _a, fp, _gfp in cells]
        store = Path(store) if store is not None else queue.root / "cache"
        meta = {
            "settings": settings.to_json(),
            "spec_digest": digest or cls._spec_digest(cells, code_fp),
            "store": str(store.resolve()),
            "id": uuid.uuid4().hex,
        }
        with queue._txn() as conn:
            conn.executescript(_SCHEMA)
            conn.executemany("INSERT INTO meta (key, value) VALUES (?, ?)",
                             list(meta.items()))
            conn.executemany(
                "INSERT INTO cells (idx, fingerprint, group_fp) "
                "VALUES (?, ?, ?)",
                [(i, fp, gfp) for i, (_k, _a, fp, gfp) in enumerate(cells)],
            )
        queue._settings = settings
        queue._meta_cache.update(meta)
        return queue

    @classmethod
    def create_or_attach(cls, root, cells,
                         settings: Optional[QueueSettings] = None,
                         code_fp: str = "", store=None,
                         digest: Optional[str] = None,
                         grid_file: bool = True) -> "SweepQueue":
        """Create the queue, or attach to an existing one for the same grid.

        Attaching validates the spec digest (grid identity plus source
        fingerprint) so a half-finished queue is only ever resumed with
        the exact grid that created it.
        """
        queue = cls(root)
        if not queue.db_path.exists():
            return cls.create(root, cells, settings=settings, code_fp=code_fp,
                              store=store, digest=digest, grid_file=grid_file)
        recorded = queue._meta("spec_digest")
        expected = digest or cls._spec_digest(cells, code_fp)
        if recorded != expected:
            raise ValueError(
                f"queue at {queue.root} was created for a different grid "
                "or source tree; use a fresh --queue-dir"
            )
        return queue

    @classmethod
    def open(cls, root) -> "SweepQueue":
        """Attach to an existing queue (the worker entry point)."""
        queue = cls(root)
        if not queue.db_path.exists():
            raise FileNotFoundError(f"no sweep queue at {queue.root}")
        return queue

    @staticmethod
    def _spec_digest(cells, code_fp: str) -> str:
        import hashlib

        parts = [code_fp]
        for key, _args, fp, gfp in cells:
            parts.append(f"{key}|{fp}|{gfp}")
        return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------
    # Low-level plumbing
    # ------------------------------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(self.db_path, timeout=30.0,
                               check_same_thread=False)
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute("PRAGMA busy_timeout=30000")
        return conn

    @contextlib.contextmanager
    def _db(self):
        """This thread's held connection, or a fresh one closed after use."""
        if not self._held:
            conn = self._connect()
            try:
                yield conn
            finally:
                conn.close()
            return
        key = (os.getpid(), threading.get_ident())
        conn = self._conns.get(key)
        if conn is None:
            conn = self._conns[key] = self._connect()
        yield conn

    @contextlib.contextmanager
    def connected(self):
        """Keep one connection per thread open for the block's duration.

        A worker's loop runs a few transactions per cell; reconnecting
        for each one (and checkpointing the WAL as the last connection
        closes) would cost more than the transactions.  Every connection
        the block opened is closed when it exits.  Results committed in
        the block stay in memory until then, for :meth:`outcomes`.
        """
        self._held += 1
        try:
            yield self
        finally:
            self._held -= 1
            if not self._held:
                self.close()
                self._committed.clear()

    def close(self) -> None:
        """Close the connections this process holds (idempotent)."""
        pid = os.getpid()
        for key in [k for k in self._conns if k[0] == pid]:
            self._conns.pop(key).close()

    @contextlib.contextmanager
    def _txn(self):
        with self._db() as conn:
            conn.execute("BEGIN IMMEDIATE")
            try:
                yield conn
            except BaseException:
                conn.rollback()
                raise
            conn.commit()

    def _meta(self, key: str) -> Optional[str]:
        if key not in self._meta_cache:
            with self._db() as conn:
                row = conn.execute(
                    "SELECT value FROM meta WHERE key=?", (key,)
                ).fetchone()
            if row is None:
                return None
            self._meta_cache[key] = row[0]
        return self._meta_cache[key]

    @property
    def settings(self) -> QueueSettings:
        if self._settings is None:
            text = self._meta("settings")
            if text is None:
                raise RuntimeError(f"queue at {self.root} has no settings")
            self._settings = QueueSettings.from_json(text)
        return self._settings

    @property
    def store(self) -> SweepResultCache:
        """The fingerprint store this queue commits results into."""
        if self._store is None:
            self._store = SweepResultCache(self._meta("store"))
        return self._store

    def load_grid(self) -> list:
        """The (key, args) grid this queue was created from, in order."""
        if self._grid is None:
            payload = pickle.loads(self.grid_path.read_bytes())
            self._grid = payload["cells"]
        return self._grid

    def _store_key(self, idx: int) -> str:
        """Where cell ``idx``'s result lives in the store.

        A fingerprinted cell's result is shared by every grid that
        contains it.  A cell without one (an object workload) gets a key
        private to this queue.
        """
        if self._fingerprints is None:
            with self._db() as conn:
                self._fingerprints = [fp for (fp,) in conn.execute(
                    "SELECT fingerprint FROM cells ORDER BY idx"
                )]
        return self._fingerprints[idx] or f"{self._meta('id')}-{idx:05d}"

    @staticmethod
    def _log(conn, cell: int, owner: Optional[str], event: str,
             detail: str = "", now: Optional[float] = None) -> None:
        conn.execute(
            "INSERT INTO events (cell, at, owner, event, detail) "
            "VALUES (?, ?, ?, ?, ?)",
            (cell, time.time() if now is None else now, owner, event, detail),
        )

    # ------------------------------------------------------------------
    # The lease protocol
    # ------------------------------------------------------------------

    def claim(self, owner: str,
              now: Optional[float] = None) -> Optional[Lease]:
        """Lease the lowest open (and ready) cell, or None.

        Expired leases are reclaimed first, inside the same transaction,
        so a fleet of claiming workers is all the recovery machinery the
        queue needs: nobody has to notice a worker died.
        """
        now = time.time() if now is None else now
        s = self.settings
        quarantined: list[int] = []
        with self._txn() as conn:
            _reclaimed, quarantined = self._reclaim_locked(conn, now, s)
            row = conn.execute(
                "SELECT idx, attempts, group_fp FROM cells WHERE "
                "status='open' AND not_before<=? ORDER BY idx LIMIT 1",
                (now,),
            ).fetchone()
            if row is not None:
                idx, attempts, gfp = row
                deadline = now + s.lease_duration
                conn.execute(
                    "UPDATE cells SET status='leased', owner=?, "
                    "last_owner=?, lease_deadline=?, attempts=attempts+1 "
                    "WHERE idx=?",
                    (owner, owner, deadline, idx),
                )
                self._log(conn, idx, owner, "claim",
                          f"attempt {attempts + 1}", now)
        self._write_quarantine_bundles(quarantined)
        if row is None:
            return None
        key, args = self.load_grid()[idx]
        return Lease(idx=idx, key=key, args=args, group_fp=gfp,
                     attempts=attempts + 1, deadline=deadline)

    def heartbeat(self, idx: int, owner: str,
                  now: Optional[float] = None) -> bool:
        """Extend a held lease; False means the lease was lost.

        A worker whose heartbeat fails should abandon the cell: some
        other worker already reclaimed it (the eventual duplicate commit
        is harmless either way).
        """
        now = time.time() if now is None else now
        with self._txn() as conn:
            cur = conn.execute(
                "UPDATE cells SET lease_deadline=? "
                "WHERE idx=? AND status='leased' AND owner=?",
                (now + self.settings.lease_duration, idx, owner),
            )
            return cur.rowcount == 1

    def reap(self, now: Optional[float] = None) -> int:
        """Reclaim every expired lease; returns how many were reclaimed.

        ``claim`` already does this; ``reap`` exists so a supervisor can
        drive recovery even when no worker is currently claiming.
        """
        now = time.time() if now is None else now
        with self._txn() as conn:
            reclaimed, quarantined = self._reclaim_locked(
                conn, now, self.settings
            )
        self._write_quarantine_bundles(quarantined)
        return reclaimed

    def _reclaim_locked(self, conn, now: float,
                        s: QueueSettings) -> tuple[int, list[int]]:
        """Re-open or quarantine expired leases (inside a transaction).

        Returns ``(reclaimed_count, quarantined_indices)``; the caller
        writes the quarantine evidence bundles after the transaction
        commits (bundle IO must never extend the lock hold).
        """
        rows = conn.execute(
            "SELECT idx, owner, attempts FROM cells "
            "WHERE status='leased' AND lease_deadline<?", (now,),
        ).fetchall()
        quarantined = []
        for idx, owner, attempts in rows:
            message = (f"lease expired after attempt {attempts} "
                       f"(worker {owner} presumed dead)")
            if attempts >= s.max_attempts:
                conn.execute(
                    "UPDATE cells SET status='quarantined', owner=NULL, "
                    "error_type='LeaseExpired', message=? WHERE idx=?",
                    (message, idx),
                )
                self._log(conn, idx, owner, "quarantine", message, now)
                quarantined.append(idx)
            else:
                delay = jittered_backoff_delay(
                    attempts, s.backoff_base, s.backoff_cap,
                    token=f"{idx}:{attempts}:{owner}",
                )
                conn.execute(
                    "UPDATE cells SET status='open', owner=NULL, "
                    "not_before=?, error_type='LeaseExpired', message=? "
                    "WHERE idx=?",
                    (now + delay, message, idx),
                )
                self._log(conn, idx, owner, "reclaim",
                          f"backoff {delay:.3f}s", now)
        return len(rows), quarantined

    def release(self, idx: int, owner: str) -> bool:
        """Hand a leased cell back untouched (graceful worker drain).

        The attempt is refunded — a drained worker is not a failure.
        """
        with self._txn() as conn:
            cur = conn.execute(
                "UPDATE cells SET status='open', owner=NULL, "
                "lease_deadline=NULL, attempts=attempts-1 "
                "WHERE idx=? AND status='leased' AND owner=?",
                (idx, owner),
            )
            if cur.rowcount == 1:
                self._log(conn, idx, owner, "release")
            return cur.rowcount == 1

    # ------------------------------------------------------------------
    # Commit paths
    # ------------------------------------------------------------------

    def complete(self, idx: int, owner: str, result,
                 prefix_events: Optional[int] = None) -> bool:
        """Commit a finished cell idempotently; returns True if counted.

        The result is written to the store first, so a ``done`` row
        always has its result on disk.  A duplicate execution (zombie
        worker, reclaimed lease) rewrites byte-identical content — every
        cell is deterministic — and its status transition is a no-op.
        Works regardless of whether the committer still holds the lease.
        ``prefix_events`` records how the cell ran: the shared prefix's
        event count when it forked, None when it ran cold.
        """
        path = self.store.store(self._store_key(idx), result)
        if self._held:
            self._committed[idx] = result
        with self._txn() as conn:
            cur = conn.execute(
                "UPDATE cells SET status='done', owner=NULL, last_owner=?, "
                "result_path=?, error_type=NULL, message=NULL, "
                "prefix_events=? WHERE idx=? AND status!='done'",
                (owner, str(path), prefix_events, idx),
            )
            self._log(conn, idx, owner,
                      "complete" if cur.rowcount else "duplicate-commit")
            return cur.rowcount == 1

    def fail(self, idx: int, owner: str, error_type: str, message: str,
             retryable: bool, bundle_path: Optional[str] = None,
             now: Optional[float] = None,
             prefix_events: Optional[int] = None) -> str:
        """Record a failed execution; returns the cell's new status.

        Deterministic simulation failures (``retryable=False``) are
        terminal: the cell would fail identically on any worker, so
        retrying would only burn cycles.
        Infrastructure failures (``retryable=True``: timeouts, crashed
        cell processes) re-open the cell with capped exponential
        backoff until ``max_attempts``, then quarantine it.
        ``prefix_events`` is as for :meth:`complete`.
        """
        now = time.time() if now is None else now
        s = self.settings
        to_bundle = False
        with self._txn() as conn:
            row = conn.execute(
                "SELECT attempts FROM cells WHERE idx=?", (idx,)
            ).fetchone()
            attempts = row[0] if row else 0
            if not retryable:
                status = "failed"
                conn.execute(
                    "UPDATE cells SET status='failed', owner=NULL, "
                    "last_owner=?, error_type=?, message=?, bundle_path=?, "
                    "prefix_events=? "
                    "WHERE idx=? AND status IN ('leased', 'open')",
                    (owner, error_type, message, bundle_path, prefix_events,
                     idx),
                )
            elif attempts >= s.max_attempts:
                status = "quarantined"
                conn.execute(
                    "UPDATE cells SET status='quarantined', owner=NULL, "
                    "last_owner=?, error_type=?, message=?, bundle_path=? "
                    "WHERE idx=? AND status IN ('leased', 'open')",
                    (owner, error_type, message, bundle_path, idx),
                )
                to_bundle = bundle_path is None
            else:
                status = "open"
                delay = backoff_delay(attempts, s.backoff_base, s.backoff_cap)
                conn.execute(
                    "UPDATE cells SET status='open', owner=NULL, "
                    "last_owner=?, not_before=?, error_type=?, message=? "
                    "WHERE idx=? AND status IN ('leased', 'open')",
                    (owner, now + delay, error_type, message, idx),
                )
            self._log(conn, idx, owner, status if status != "open" else "retry",
                      f"{error_type}: {message}", now)
        if to_bundle:
            self._write_quarantine_bundles([idx])
        return status

    # ------------------------------------------------------------------
    # Quarantine evidence
    # ------------------------------------------------------------------

    def _write_quarantine_bundles(self, indices: list[int]) -> None:
        """Write an evidence bundle per quarantined cell (best effort).

        When the failing run produced no sanitizer crash bundle, the
        queue still leaves something to debug with: the cell's identity,
        its full attempt/lease history, and the last recorded error.
        """
        for idx in indices:
            try:
                path = self._write_quarantine_bundle(idx)
                with self._txn() as conn:
                    conn.execute(
                        "UPDATE cells SET bundle_path=? "
                        "WHERE idx=? AND bundle_path IS NULL",
                        (str(path), idx),
                    )
            except Exception:
                pass  # evidence is best-effort; the grid must drain

    def _write_quarantine_bundle(self, idx: int) -> Path:
        with self._db() as conn:
            row = conn.execute(
                "SELECT fingerprint, status, attempts, last_owner, "
                "error_type, message FROM cells WHERE idx=?", (idx,),
            ).fetchone()
            history = conn.execute(
                "SELECT at, owner, event, detail FROM events "
                "WHERE cell=? ORDER BY seq", (idx,),
            ).fetchall()
        fingerprint, status, attempts, last_owner, error_type, message = row
        key, _args = self.load_grid()[idx]
        failed = FailedRun(
            workload=key.workload, policy=key.policy,
            error_type=error_type or "Quarantined", message=message or "",
            attempts=attempts, last_owner=last_owner,
        )
        bundle = self.bundles_dir / f"cell-{idx:05d}"
        bundle.mkdir(parents=True, exist_ok=True)
        manifest = {
            "kind": "quarantine",
            "cell": idx,
            "key": str(key),
            "fingerprint": fingerprint,
            "status": status,
            "failure": failed_to_dict(failed),
            "history": [
                {"at": at, "owner": ow, "event": ev, "detail": detail}
                for at, ow, ev, detail in history
            ],
        }
        (bundle / "manifest.json").write_text(json.dumps(manifest, indent=2))
        return bundle

    # ------------------------------------------------------------------
    # Observation / harvest
    # ------------------------------------------------------------------

    def _counts(self, conn) -> QueueStats:
        counts = dict(conn.execute(
            "SELECT status, COUNT(*) FROM cells GROUP BY status"
        ).fetchall())
        return QueueStats(
            open=counts.get("open", 0),
            leased=counts.get("leased", 0),
            done=counts.get("done", 0),
            failed=counts.get("failed", 0),
            quarantined=counts.get("quarantined", 0),
        )

    def stats(self) -> QueueStats:
        with self._db() as conn:
            return self._counts(conn)

    def drained(self) -> bool:
        """True once every cell is terminal (done/failed/quarantined)."""
        return self.stats().live == 0

    def health(self, now: Optional[float] = None) -> QueueHealth:
        """Counts plus per-lease ages, in one consistent read.

        Purely observational — nothing is reclaimed or mutated, so a
        monitor may poll this as often as it likes without perturbing
        the lease protocol.
        """
        now = time.time() if now is None else now
        lease_duration = self.settings.lease_duration
        with self._db() as conn:
            stats = self._counts(conn)
            rows = conn.execute(
                "SELECT idx, owner, attempts, lease_deadline FROM cells "
                "WHERE status='leased' ORDER BY idx"
            ).fetchall()
        leases = tuple(
            LeaseHealth(
                idx=idx, owner=owner, attempts=attempts,
                age=now - (deadline - lease_duration),
                remaining=deadline - now,
            )
            for idx, owner, attempts, deadline in rows
        )
        return QueueHealth(stats=stats, leases=leases, at=now)

    def rows(self) -> list[tuple]:
        """Every cell row, in grid order (for tests and tooling)."""
        with self._db() as conn:
            return conn.execute(
                "SELECT idx, status, owner, last_owner, attempts, "
                "error_type, message, result_path, bundle_path "
                "FROM cells ORDER BY idx"
            ).fetchall()

    def settled(self, after: int = 0) -> list[tuple]:
        """Cells that reached a terminal status after event ``after``.

        Returns ``(seq, idx, status, attempts)`` in commit order; pass
        the last ``seq`` seen to read only newer settlements.  A cell
        can appear twice (a late duplicate commit can turn a quarantined
        cell ``done``), so callers that count cells dedupe on ``idx``.
        """
        with self._db() as conn:
            return conn.execute(
                "SELECT e.seq, c.idx, c.status, c.attempts FROM events e "
                "JOIN cells c ON c.idx = e.cell WHERE e.seq > ? AND "
                "e.event IN ('complete', 'failed', 'quarantined', "
                "'quarantine') ORDER BY e.seq", (after,),
            ).fetchall()

    def outcomes(self) -> list[tuple]:
        """``(key, status, outcome, group_fp, prefix_events)`` per cell.

        Rows come in grid order.  ``outcome`` is the cell's
        :class:`RunResult` when it is done, and a :class:`FailedRun`
        otherwise — carrying the queue's provenance (attempts, last owner,
        bundle), or ``Incomplete`` for a cell that is still live.
        ``prefix_events`` is None for a cell that ran cold or has not run.
        """
        grid = self.load_grid()
        with self._db() as conn:
            rows = conn.execute(
                "SELECT idx, status, last_owner, attempts, error_type, "
                "message, result_path, bundle_path, group_fp, prefix_events "
                "FROM cells ORDER BY idx"
            ).fetchall()
        out = []
        for (idx, status, last_owner, attempts, error_type, message,
             result_path, bundle_path, group_fp, prefix_events) in rows:
            key, _args = grid[idx]
            if status == "done":
                outcome = self._committed.get(idx)
                if outcome is None:
                    outcome = load_result(result_path)
            elif status in ("failed", "quarantined"):
                outcome = FailedRun(
                    workload=key.workload, policy=key.policy,
                    error_type=error_type or status, message=message or "",
                    bundle_path=bundle_path, attempts=max(attempts, 1),
                    last_owner=last_owner,
                )
            else:
                outcome = FailedRun(
                    workload=key.workload, policy=key.policy,
                    error_type="Incomplete",
                    message=f"cell still {status} when collected",
                    attempts=max(attempts, 1), last_owner=last_owner,
                )
            out.append((key, status, outcome, group_fp, prefix_events))
        return out

    def collect(self):
        """Assemble this queue's cells into a :class:`SweepResult`.

        See :func:`repro.harness.sweep.assemble_result`: rows come back
        in grid order, so ``points`` and ``failures`` iterate exactly
        like a ``Sweep.run()`` of the same grid.
        """
        from repro.harness.sweep import assemble_result

        return assemble_result([key for key, _args in self.load_grid()],
                               {}, self)
