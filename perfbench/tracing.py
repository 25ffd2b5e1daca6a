"""The traced run: layer self times, public-call spans, simulated counts.

Nothing here edits ``src/``.  Self time comes from ``cProfile`` (one
profiler per thread, so the in-process service thread and its executor
threads are covered) and is summed by module into layers.  Time spent in
code outside ``repro`` -- builtins such as ``heapq``, ``pickle``, ``json``
or ``sqlite3`` -- is charged to the layer that called it.  Spans come from
wrappers put around public ``repro`` functions for the traced pass only.
"""

from __future__ import annotations

import cProfile
import functools
import os
import pstats
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import repro
from repro.harness import runner, sweep
from repro.harness.io import SweepResultCache
from repro.sim.snapshot import MachineSnapshot
from repro.system.machine import Machine

REPRO_DIR = str(Path(repro.__file__).resolve().parent) + os.sep
BENCH_DIR = str(Path(__file__).resolve().parent) + os.sep

# Self-time layers reported as per-layer metrics (``<layer>.self_s``).
SELF_LAYERS = ("sim", "system", "gpu", "mem", "vm", "interconnect", "core",
               "driver", "workloads", "harness.queue", "service",
               "harness.io")
SPAN_SECONDS = ("runner.prepare_s", "runner.run_s", "runner.harvest_s",
                "snapshot.capture_s", "snapshot.fork_s",
                "sweep.fingerprint_s", "io.store_s")
SPAN_BYTES = ("snapshot.bytes", "io.store_bytes")


def layer_of(filename: str):
    """Layer owning a source file, or None for code outside the program."""
    if filename.startswith(BENCH_DIR):
        return "bench"
    if not filename.startswith(REPRO_DIR):
        return None
    parts = filename[len(REPRO_DIR):].split(os.sep)
    if len(parts) == 1:
        return "repro"
    if parts[0] == "harness":
        return "harness." + parts[1].removesuffix(".py")
    return parts[0]


def layer_self_times(stats: dict) -> dict:
    """Self seconds per layer, with foreign code charged to its callers.

    ``stats`` is ``pstats.Stats.stats``.  A foreign function's self time
    is split over its callers in proportion to the self time each call
    site accounts for; a foreign caller passes its share further up in
    proportion to cumulative time, until a program layer owns it.
    """
    memo: dict = {}

    def owners(func, visiting: frozenset) -> dict:
        layer = layer_of(func[0])
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        callers = stats[func][4] if func in stats else {}
        total = sum(v[3] for v in callers.values())
        if func in visiting or len(visiting) > 16 or total <= 0:
            return {"other": 1.0}
        share: dict = defaultdict(float)
        for caller, v in callers.items():
            for layer, part in owners(caller, visiting | {func}).items():
                share[layer] += part * v[3] / total
        memo[func] = share
        return share

    totals: dict = defaultdict(float)
    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        layer = layer_of(func[0])
        total = sum(v[2] for v in callers.values())
        if layer is not None or total <= 0:
            totals[layer or "other"] += tt
            continue
        for caller, v in callers.items():
            for owner, part in owners(caller, frozenset({func})).items():
                totals[owner] += tt * part * v[2] / total
    return dict(totals)


class Spans:
    """Wall time (and bytes) of public calls, outermost call only."""

    def __init__(self) -> None:
        self.seconds: dict = defaultdict(float)
        self.bytes: dict = defaultdict(int)
        self._depth = threading.local()
        self._lock = threading.Lock()
        self._undo: list = []

    def _wrapped(self, func, name, bytes_name=None, size_of=None):
        spans = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            depth = getattr(spans._depth, name, 0)
            setattr(spans._depth, name, depth + 1)
            start = perf_counter()
            try:
                out = func(*args, **kwargs)
            finally:
                setattr(spans._depth, name, depth)
            if depth == 0:
                elapsed = perf_counter() - start
                with spans._lock:
                    spans.seconds[name] += elapsed
                    if bytes_name is not None:
                        spans.bytes[bytes_name] += size_of(out)
            return out

        return wrapper

    def _patch(self, owner, attr, name, bytes_name=None, size_of=None):
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            new = classmethod(self._wrapped(original.__func__, name,
                                            bytes_name, size_of))
        else:
            new = self._wrapped(original, name, bytes_name, size_of)
        setattr(owner, attr, new)
        self._undo.append((owner, attr, original))

    def install(self) -> None:
        for module in (runner, sweep):
            self._patch(module, "prepare_run", "runner.prepare_s")
            self._patch(module, "harvest_result", "runner.harvest_s")
        for attr in ("run", "run_until", "finish"):
            self._patch(Machine, attr, "runner.run_s")
        self._patch(MachineSnapshot, "capture", "snapshot.capture_s",
                    "snapshot.bytes", lambda snap: len(snap.payload))
        self._patch(MachineSnapshot, "fork", "snapshot.fork_s")
        self._patch(sweep, "cell_fingerprint", "sweep.fingerprint_s")
        self._patch(sweep, "group_fingerprint", "sweep.fingerprint_s")
        self._patch(SweepResultCache, "store", "io.store_s",
                    "io.store_bytes", lambda path: path.stat().st_size)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _untrace_child() -> None:
    # Forked fleet workers inherit the forking thread's profiler; their
    # time is not the service process's, so they run unprofiled.
    sys.setprofile(None)
    threading.setprofile(None)


def _profile() -> cProfile.Profile:
    # Per-thread CPU time: a thread blocked in select() or on a lock is
    # waiting, not working, and must not count as its layer's self time.
    return cProfile.Profile(time.thread_time)


class Tracer:
    """cProfile on the measuring thread and on every thread started later.

    Install it once per process: the fork hook cannot be removed.
    """

    def __init__(self) -> None:
        self.main = _profile()
        self.threads: list = []
        self.spans = Spans()

    def _thread_hook(self, frame, event, arg) -> None:
        profile = _profile()
        self.threads.append(profile)
        profile.enable()

    def install(self) -> None:
        os.register_at_fork(after_in_child=_untrace_child)
        threading.setprofile(self._thread_hook)
        self.spans.install()

    def uninstall(self) -> None:
        threading.setprofile(None)
        self.spans.restore()

    def self_times(self) -> dict:
        """Layer self seconds over every profile (call after threads end)."""
        stats = pstats.Stats(self.main)
        for profile in self.threads:
            stats.add(profile)
        return layer_self_times(stats.stats)


def sim_counts(cells: list) -> dict:
    """Deterministic simulated counts over ``cells`` (run_workload kwargs)."""
    agg: dict = defaultdict(float)
    for kwargs in cells:
        r = runner.run_workload(collect_detail=True, **kwargs)
        agg["events"] += r.events_executed
        agg["transactions"] += r.transactions
        agg["local"] += r.local_fraction * r.transactions
        agg["shootdowns"] += r.total_shootdowns
        agg["cpu_shootdowns"] += r.cpu_shootdowns
        agg["cpu_pages"] += r.cpu_pages_covered
        agg["dftm_denials"] += r.dftm_denials
        agg["g2g"] += r.gpu_to_gpu_migrations
        agg["c2g"] += r.cpu_to_gpu_migrations
        for gpu in r.detail["gpus"].values():
            agg["l2_hits"] += gpu["l2"]["hits"]
            agg["l2_accesses"] += gpu["l2"]["accesses"]
            tlb = gpu["l2_tlb"]
            agg["tlb_hits"] += tlb["hit_rate"] * tlb["accesses"]
            agg["tlb_accesses"] += tlb["accesses"]
            agg["drains"] += gpu["compute_units"]["drain_requests"]

    def ratio(a, b):
        return agg[a] / agg[b] if agg[b] else 0.0

    return {
        "sim.events": ("count", agg["events"]),
        "system.transactions": ("count", agg["transactions"]),
        "system.local_fraction": ("ratio", ratio("local", "transactions")),
        "mem.l2_hit_ratio": ("ratio", ratio("l2_hits", "l2_accesses")),
        "vm.l2_tlb_hit_ratio": ("ratio", ratio("tlb_hits", "tlb_accesses")),
        "vm.shootdowns": ("count", agg["shootdowns"]),
        "vm.pages_per_cpu_shootdown": ("ratio",
                                       ratio("cpu_pages", "cpu_shootdowns")),
        "core.dftm_denials": ("count", agg["dftm_denials"]),
        "core.gpu_to_gpu_migrations": ("count", agg["g2g"]),
        "driver.cpu_to_gpu_migrations": ("count", agg["c2g"]),
        "gpu.drain_requests": ("count", agg["drains"]),
    }
