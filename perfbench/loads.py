"""The benchmark's three workloads, driven only through public ``repro`` calls.

Each workload runs *steps*.  A step issues operations of two kinds and
records each one's wall time:

* a **cold** operation computes through the simulator;
* a **cached** operation is answered from the fingerprint result cache
  (:class:`repro.harness.io.SweepResultCache`), with no simulation.

Every operation is also checked for correctness; a failed or mismatched
operation counts against ``error_rate``.  Why each workload exists and
which layer it isolates is written up in ``perfbench/README.md``.

A full ``gc.collect()`` runs, untimed, before every step and before each
batch of cached operations.  Otherwise a full collection triggered by the
cold operation's garbage (about 30 ms on a 2-core host) lands in a 0.3 ms
cache read in some runs and not in others, and the cached tail flips
between modes.
"""

from __future__ import annotations

import gc
import hashlib
import http.client
import itertools
import json
import os
import random
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from repro.config.hyperparams import GriffinHyperParams
from repro.config.presets import small_system, tiny_system
from repro.harness import runner
from repro.harness.io import (
    SweepResultCache,
    result_to_dict,
    sweep_result_to_dict,
)
from repro.harness.sweep import Sweep, sweep_from_spec
from repro.service.app import ExperimentService
from repro.workloads.registry import list_workloads

BENCH_DIR = Path(__file__).resolve().parent
PAPER = json.loads((BENCH_DIR / "fig12_paper.json").read_text())
CALIBRATION_SEED = PAPER["calibration"]["seed"]
FIG12_SCALE = PAPER["calibration"]["scale"]
FIG12_POLICIES = ("baseline", "griffin")

# The knob grid, 4 x 2 x 4 = 32 combinations: every one shares
# migration_period=45000 (not a late-binding field, so one fork group)
# and min_pages_per_source=1, so the one migration phase in each
# continuation actually migrates.  The grid is fixed and the seed drives
# the MT traces: a seed-drawn grid changed the work per cell by up to 40%
# from seed to seed, which no bound could absorb.
KNOB_SCALE = 0.015
KNOB_TRACE_SEEDS = 8
KNOB_LAMBDA_D = (1.5, 2.0, 3.0, 4.0)
KNOB_LAMBDA_S = (1.1, 1.3)
KNOB_MAX_PAGES = (16, 32, 64, 192)

# Small cells: the fleet finishes them well inside one 0.1 s supervision
# tick, so cold latency shows the service's poll loop, not the simulator
# (see README.md, "serve_mix").
SERVE_SCALE = 0.003
# The client thinks this long between steps.  Cold latency is quantized
# by the poll ticks: ~90% of cold submissions land on one 0.1 s multiple
# and the rest one tick either side.  Back to back, the main mode is
# 0.21 s and the minority sits above it at 8-16%, so the tail percentile
# (~p86 at 80 samples) flipped between modes from run to run.  After
# 0.5 s idle the main mode is 0.31 s with ~4% on each side, and the ~24
# samples of a 20 s run put both p50 and the tail inside it.
SERVE_THINK_S = 0.5

# Every cold operation is followed by this many cached ones.
RESUBMITS = 3


def digest(payload) -> str:
    """SHA-256 of canonical JSON: byte-for-byte identity of an output."""
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# The host yardstick: a fixed pure-Python loop timed next to every step.
# On a shared host the same code runs up to 25% slower from one second
# to the next (CPU time moves with wall time, so it is contention for the
# core, not descheduling).  Each CPU-bound time is reported as measured x
# (YARDSTICK_NOMINAL_S / the yardstick's time around its step): seconds
# on a host where the loop takes 20 ms, the 2-core host it was tuned on.
YARDSTICK_LOOPS = 300_000
YARDSTICK_NOMINAL_S = 0.02
SERIES = ("cold", "cached", "event_rates", "cell_rates")


def yardstick() -> float:
    """Seconds the fixed loop takes now."""
    start = perf_counter()
    total = 0
    for i in range(YARDSTICK_LOOPS):
        total += i * i
    return perf_counter() - start


@dataclass
class Ops:
    """What a run of steps recorded, host-normalized, plus the raw values."""

    cold: list = field(default_factory=list)          # s per cold op
    cached: list = field(default_factory=list)        # s per cached op
    event_rates: list = field(default_factory=list)   # events/s per step
    cell_rates: list = field(default_factory=list)    # cells/s per step
    raw: dict = field(default_factory=lambda: {name: [] for name in SERIES})
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def op(self, ok: bool, what: str) -> None:
        """Count one attempted operation; record it if it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def mark(self) -> dict:
        return {name: len(getattr(self, name)) for name in SERIES}

    def normalize_since(self, mark: dict, factor: float, wallclock=()) -> None:
        """Keep raw copies of a step's values and scale them by ``factor``.

        Series in ``wallclock`` wait on timers, not the CPU, and stay raw.
        """
        for name in SERIES:
            values = getattr(self, name)
            fresh = values[mark[name]:]
            self.raw[name].extend(fresh)
            if name in wallclock:
                continue
            scale = 1.0 / factor if name.endswith("_rates") else factor
            values[mark[name]:] = [v * scale for v in fresh]

    def series(self, raw: bool) -> dict:
        return self.raw if raw else {name: getattr(self, name)
                                     for name in SERIES}


def fig12_error(cycles: dict) -> float:
    """Mean |simulated Griffin speedup - paper Fig. 12 value|."""
    paper = PAPER["speedup"]
    return statistics.fmean(
        abs(cycles[wl, "baseline"] / cycles[wl, "griffin"] - paper[wl])
        for wl in paper
    )


def fig12_cycles(seed: int) -> dict:
    """Cycles of every Fig. 12 cell at ``seed`` (untimed check)."""
    config = small_system(4)
    return {
        (wl, policy): runner.run_workload(
            wl, policy, config=config, scale=FIG12_SCALE, seed=seed
        ).cycles
        for wl in list_workloads() for policy in FIG12_POLICIES
    }


def check_goldens(root: Path, ops: Ops) -> None:
    """Every cell of ``tests/golden_runs.json`` must reproduce exactly."""
    golden = json.loads((root / "tests" / "golden_runs.json").read_text())
    for key, expected in sorted(golden.items()):
        wl, policy = key.split("/")
        r = runner.run_workload(wl, policy, config=tiny_system(),
                                scale=0.005, seed=9)
        actual = {
            "cycles": r.cycles,
            "transactions": r.transactions,
            "total_shootdowns": r.total_shootdowns,
            "cpu_to_gpu": r.cpu_to_gpu_migrations,
            "gpu_to_gpu": r.gpu_to_gpu_migrations,
            "pages_per_gpu": list(r.occupancy.pages_per_gpu),
        }
        ops.op(actual == expected, f"golden {key} drifted")


def gaps(start: float, stamps: list) -> list:
    """Per-cell latencies from a sweep's progress time stamps."""
    return [b - a for a, b in zip([start] + stamps[:-1], stamps)]


class Workload:
    """Defaults shared by the workloads.

    Each workload also has ``step(ops)``, ``rates(series)`` returning
    (events/s, cells/s, samples) and ``sim_cells()``.
    """

    trace_steps = 1   # steps of the traced run's fixed work
    wallclock = ()    # series that wait on timers and stay raw
    think_s = 0.0     # client idle time before each step

    def warm(self) -> None:
        """One untimed step, so lazy set-up (the code fingerprint, executor
        threads) is done before timing."""
        self.step(Ops())

    def complete(self) -> bool:
        """True when the timed loop may stop after this step."""
        return True

    def close(self) -> None:
        """Release what the workload holds open."""


class Fig12(Workload):
    """The Fig. 12 grid, cell by cell: prepare_run -> Machine.run -> harvest.

    A step is one cell.  Cold op: the cell.  Cached op: the same cell read
    back from the fingerprint cache, as a resubmitted grid would be
    served, ``RESUBMITS`` times.  Grid wall time is the sum over cells of
    each cell's median time across passes, so a burst of host noise in
    one pass moves it less.
    """

    name = "fig12"

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.config = small_system(4)
        self.cells = [(wl, policy) for wl in list_workloads()
                      for policy in FIG12_POLICIES]
        self.trace_steps = len(self.cells)
        self.cache = SweepResultCache(work / "fig12-cache")
        self.steps = 0
        self.first: dict = {}
        self.cycles: dict = {}
        self.events: dict = {}

    def warm(self) -> None:
        """No lazy set-up of its own: a fig12 run starts cold."""

    def complete(self) -> bool:
        return self.steps % len(self.cells) == 0

    def step(self, ops: Ops) -> None:
        wl, policy = self.cells[self.steps % len(self.cells)]
        self.steps += 1
        start = perf_counter()
        machine, workload, kernels = runner.prepare_run(
            wl, policy, config=self.config, scale=FIG12_SCALE, seed=self.seed,
        )
        machine.run(kernels)
        result = runner.harvest_result(machine, workload)
        ops.cold.append(perf_counter() - start)

        key = f"{wl}-{policy}"
        out = digest(result_to_dict(result))
        if key not in self.first:
            self.first[key] = out
            self.cycles[wl, policy] = result.cycles
            self.events[key] = result.events_executed
            self.cache.store(key, result)
        ops.op(out == self.first[key], f"fig12 {key} differs from pass 1")

        gc.collect()
        for _ in range(RESUBMITS):
            start = perf_counter()
            loaded = self.cache.load(key)
            ops.cached.append(perf_counter() - start)
            ops.op(loaded is not None
                   and digest(result_to_dict(loaded)) == self.first[key],
                   f"fig12 {key} cache read differs")

    def rates(self, series: dict) -> tuple:
        count = len(self.cells)
        cold = series["cold"]
        wall = sum(statistics.median(cold[i::count]) for i in range(count))
        return (sum(self.events.values()) / wall, count / wall,
                len(cold) // count)

    def sim_cells(self) -> list:
        return [dict(workload=wl, policy=policy, config=self.config,
                     scale=FIG12_SCALE, seed=self.seed)
                for wl, policy in self.cells]


class KnobSweep(Workload):
    """MT x {griffin, griffin_flush} x 32 late-binding knob sets.

    Steps alternate: a ``Sweep.run`` with a fresh ``cache_dir`` at one of
    ``KNOB_TRACE_SEEDS`` MT trace seeds drawn from the run's seed, then a
    step that resumes that sweep from its cache ``RESUBMITS`` times.
    Short steps let the yardstick follow the host.  Steps cycle through
    the trace seeds: how much the continuations migrate depends on the
    trace, and one trace seed alone moved throughput by 15% from seed to
    seed.  Cold op: one cell of the cold sweep (the gap between progress
    callbacks; the first gap carries the shared prefix).  Cached op: one
    cell of a resumed sweep.  Throughput is the grid's cells over the sum
    of each trace seed's median sweep time.
    """

    name = "knob_sweep"
    trace_steps = 2

    def __init__(self, seed: int, work: Path) -> None:
        self.work = work
        self.seeds = random.Random(seed).sample(range(1, 10**6),
                                                KNOB_TRACE_SEEDS)
        combos = itertools.product(KNOB_LAMBDA_D, KNOB_LAMBDA_S,
                                   KNOB_MAX_PAGES)
        base = GriffinHyperParams.calibrated().with_overrides(
            migration_period=45000
        )
        self.config = small_system(4)
        self.hypers = {
            f"k{i:02d}": base.with_overrides(
                min_pages_per_source=1, lambda_d=d, lambda_s=s,
                max_pages_per_round=m,
            )
            for i, (d, s, m) in enumerate(combos)
        }
        self.policies = ["griffin", "griffin_flush"]
        self.sweep = Sweep(workloads=["MT"], policies=self.policies,
                           configs={"small": self.config},
                           hypers=self.hypers)
        self.size = self.sweep.size()
        self.steps = 0
        self.pending = None   # (seed, cache_dir, digest) awaiting resumes
        self.first: dict = {}
        self.events: dict = {}
        self.last = None

    def warm(self) -> None:
        super().warm()
        super().warm()
        self.steps = 0  # timed steps start the seed cycle afresh

    def complete(self) -> bool:
        return self.steps % (2 * len(self.seeds)) == 0

    def _run(self, seed: int, cache_dir: Path, resume: bool):
        stamps: list = []
        start = perf_counter()
        result = self.sweep.run(
            scale=KNOB_SCALE, seed=seed, cache_dir=cache_dir, resume=resume,
            progress=lambda *_: stamps.append(perf_counter()),
        )
        return result, perf_counter() - start, gaps(start, stamps)

    def step(self, ops: Ops) -> None:
        self.steps += 1
        if self.pending is None:
            self._cold(ops)
        else:
            self._resume(ops)

    def _cold(self, ops: Ops) -> None:
        seed = self.seeds[(self.steps // 2) % len(self.seeds)]
        cache_dir = self.work / f"sweep-{self.steps}"
        result, wall, cells = self._run(seed, cache_dir, resume=False)
        ops.cold.extend(cells)
        ops.cell_rates.append(self.size / wall)
        out = digest(sweep_result_to_dict(result))
        if seed not in self.first:
            self.first[seed] = out
            self.events[seed] = sum(r.events_executed
                                    for r in result.points.values())
        ops.op(not result.failures and out == self.first[seed],
               f"knob_sweep seed {seed} differs from its first sweep")
        self.pending = (seed, cache_dir, out)
        self.last = result

    def _resume(self, ops: Ops) -> None:
        seed, cache_dir, out = self.pending
        self.pending = None
        for _ in range(RESUBMITS):
            again, _wall, cells = self._run(seed, cache_dir, resume=True)
            ops.cached.extend(cells)
            ops.op(again.cache_hits == self.size
                   and digest(sweep_result_to_dict(again)) == out,
                   f"knob_sweep seed {seed} resume differs")
        shutil.rmtree(cache_dir, ignore_errors=True)

    def rates(self, series: dict) -> tuple:
        count = len(self.seeds)
        rates = series["cell_rates"]
        wall = sum(statistics.median(self.size / r for r in rates[j::count])
                   for j in range(count))
        return (sum(self.events.values()) / wall, self.size * count / wall,
                len(rates))

    def sim_cells(self) -> list:
        """The cells of the first trace seed's grid."""
        return [dict(workload="MT", policy=policy, config=self.config,
                     hyper=hyper, scale=KNOB_SCALE, seed=self.seeds[0])
                for hyper in self.hypers.values()
                for policy in self.policies]


@dataclass
class Reply:
    """One POST /sweeps as the client saw it."""

    status: int
    latency: float
    accepted: dict
    done: dict
    accept_s: float = 0.0
    first_cell_s: float = 0.0
    attempts: list = field(default_factory=list)


class ServeMix(Workload):
    """``repro serve`` in-process; one closed-loop client, one connection.

    A step is one cold submission (4 MT cells on ``small`` at a fresh
    seed), ``GET /sweeps/<digest>/result``, then three identical
    resubmissions answered from cache.  The client thinks for
    ``SERVE_THINK_S`` before each step.  Cold submissions wait on the
    service's poll timers, so their series stay raw.
    """

    name = "serve_mix"
    trace_steps = 4
    wallclock = ("cold", "event_rates", "cell_rates")
    think_s = SERVE_THINK_S

    def __init__(self, seed: int, work: Path) -> None:
        self.rng = random.Random(seed)
        self.used: set = set()
        self.service = ExperimentService(
            work / "service", workers=min(2, os.cpu_count() or 1)
        )
        self.service.start_background()
        self.conn = http.client.HTTPConnection(
            "127.0.0.1", self.service.port, timeout=120
        )
        self.replies: list = []       # every cold Reply
        self.result_gets: list = []   # s per GET result
        self.served_cells = 0
        self.cached_cells = 0
        self.parity = None            # (spec, result payload) of step 1

    def healthz(self) -> int:
        self.conn.request("GET", "/healthz")
        resp = self.conn.getresponse()
        resp.read()
        return resp.status

    def spec(self) -> dict:
        seed = self.rng.randrange(1, 2**31)
        while seed in self.used:
            seed = self.rng.randrange(1, 2**31)
        self.used.add(seed)
        return {
            "workloads": ["MT"],
            "policies": ["griffin", "griffin_flush"],
            "hypers": {"default": {}, "eager": {"min_pages_per_source": 1}},
            "scale": SERVE_SCALE,
            "seed": seed,
        }

    def post(self, spec: dict) -> Reply:
        start = perf_counter()
        self.conn.request("POST", "/sweeps", body=json.dumps(spec),
                          headers={"Content-Type": "application/json"})
        resp = self.conn.getresponse()
        reply = Reply(resp.status, 0.0, {}, {})
        if resp.status != 200:
            resp.read()
            reply.latency = perf_counter() - start
            return reply
        while True:
            line = resp.readline()
            if not line:
                break
            if not line.strip():
                continue
            event = json.loads(line)
            kind = event.get("event")
            if kind == "accepted":
                reply.accept_s = perf_counter() - start
                reply.accepted = event
            elif kind == "cell":
                if not reply.first_cell_s:
                    reply.first_cell_s = perf_counter() - start
                reply.attempts.append(event.get("attempts", 0))
            elif kind == "done":
                reply.done = event
                break
        reply.latency = perf_counter() - start
        resp.read()
        total = reply.accepted.get("total", 0)
        self.served_cells += total
        self.cached_cells += reply.accepted.get("cached", 0)
        return reply

    def get_result(self, digest_: str):
        start = perf_counter()
        self.conn.request("GET", f"/sweeps/{digest_}/result")
        resp = self.conn.getresponse()
        body = resp.read()
        self.result_gets.append(perf_counter() - start)
        return resp.status, (json.loads(body) if resp.status == 200 else None)

    def step(self, ops: Ops) -> None:
        spec = self.spec()
        cold = self.post(spec)
        self.replies.append(cold)
        ops.cold.append(cold.latency)
        ops.op(cold.status == 200 and cold.done.get("state") == "done"
               and cold.accepted.get("enqueued") == 4,
               f"serve_mix cold POST seed {spec['seed']}: {cold.status} "
               f"{cold.done}")

        status, result = self.get_result(cold.accepted.get("digest", "-"))
        points = result["points"] if result else []
        ops.op(status == 200 and len(points) == 4 and not result["failures"],
               f"serve_mix GET result seed {spec['seed']}: {status}")
        if self.parity is None and result is not None:
            self.parity = (spec, result)
        events = sum(p["result"]["events_executed"] for p in points)
        ops.cell_rates.append(len(points) / cold.latency)
        ops.event_rates.append(events / cold.latency)

        gc.collect()
        for _ in range(RESUBMITS):
            again = self.post(spec)
            ops.cached.append(again.latency)
            ops.op(again.status == 200
                   and again.done.get("state") == "done"
                   and again.accepted.get("cached") == 4
                   and again.accepted.get("enqueued") == 0,
                   f"serve_mix resubmission seed {spec['seed']}: "
                   f"{again.status} {again.accepted}")

    def rates(self, series: dict) -> tuple:
        """(events/s, cells/s, samples): medians over the cold POSTs."""
        return (statistics.median(series["event_rates"]),
                statistics.median(series["cell_rates"]),
                len(series["cell_rates"]))

    def check_parity(self, ops: Ops) -> None:
        """The first served result must equal serial ``Sweep.run``."""
        if self.parity is None:
            ops.op(False, "serve_mix: no result to compare")
            return
        spec, served = self.parity
        sweep, params = sweep_from_spec(spec)
        serial = sweep.run(
            scale=params["scale"], seed=params["seed"],
            max_events_per_run=params["max_events_per_run"],
            stall_threshold=params["stall_threshold"],
        )
        ops.op(digest(served) == digest(sweep_result_to_dict(serial)),
               "serve_mix: served result differs from serial Sweep.run")

    def sim_cells(self) -> list:
        spec = self.parity[0] if self.parity else self.spec()
        sweep, params = sweep_from_spec(spec)
        return [dict(workload=wl, policy=policy, config=small_system(),
                     hyper=hyper, scale=params["scale"], seed=params["seed"])
                for hyper in sweep.hypers.values()
                for wl in sweep.workloads for policy in sweep.policies]

    def close(self) -> None:
        self.conn.close()
        self.service.stop_background()


WORKLOADS = {cls.name: cls for cls in (Fig12, KnobSweep, ServeMix)}
