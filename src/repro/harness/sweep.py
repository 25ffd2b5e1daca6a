"""Declarative parameter sweeps over (workload x policy x config x hyper).

``Sweep`` runs the full cross-product of its axes and returns a
``SweepResult`` that slices, aggregates, and renders — the formalization
of what the benchmark files do by hand, available to library users::

    from repro.harness.sweep import Sweep

    sweep = Sweep(
        workloads=["MT", "SC"],
        policies=["baseline", "griffin"],
        configs={"pcie": small_system(), "nvlink": nvlink_system()},
    )
    result = sweep.run(scale=0.01, seed=3)
    print(result.table("cycles"))
    print(result.speedup_table("baseline", "griffin"))

Snapshot-fork execution
-----------------------

Most sweeps vary *late-binding* knobs — hyperparameters and policy
fields the simulation first consults at its periodic migration phase
(see ``LATE_HYPER_FIELDS`` / ``LATE_POLICY_FIELDS`` in
:mod:`repro.system.machine`).  Every cell in such a group replays an
identical warm-up: same trace, same faults, same event stream up to the
first migration decision.  With ``fork=True`` (the default) the sweep
runs that shared prefix **once** per group, snapshots the machine at
``migration_period - 1`` cycles, and forks each cell from the snapshot
via :class:`repro.sim.snapshot.MachineSnapshot`.  Forked cells are
byte-identical to cold runs — the parity suite pins this — so results
never depend on ``fork`` or ``workers``.

Cells that cannot share a prefix run cold, exactly as before: object
workloads (no stable fingerprint), predictive policies (they consume
``lambda_t`` during warm-up), unknown policies (the cold path owns the
error message), and groups of one (nothing to amortize).

One observable asymmetry: a forked cell that exhausts ``max_events``
reports the *continuation* budget in its failure message, not the full
one.  The stall happens after the same total event count either way.

Execution and the store
-----------------------

Every ``Sweep.run`` executes through a lease queue
(:class:`repro.harness.queue.SweepQueue`): the calling process drains it
itself, or supervises ``workers`` local worker processes, and any
number of ``repro worker`` processes may attach to a ``queue_dir``.
Workers commit results into one fingerprint store
(:class:`repro.harness.io.SweepResultCache`) keyed by a cell fingerprint
(canonical JSON of the cell's full configuration) combined with
:func:`repro.perf.fingerprint.code_fingerprint`, so any source change
invalidates every entry.  ``cache_dir`` names that store; without one
(and without a ``queue_dir``) the sweep uses a temporary store and queue
and removes both before returning.  ``resume=True`` serves cells already
in the store instead of re-running them — a killed sweep re-runs only
what it had not finished.  Group snapshots are stored the same way;
failures are never stored.  ``repro serve`` reads and fills the same
kind of store, and both assemble results through
:func:`assemble_result`.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.config.hyperparams import GriffinHyperParams
from repro.config.presets import small_system
from repro.config.system import SystemConfig
from repro.core.policies import get_policy
from repro.harness.results import FailedRun, RunResult
from repro.harness.runner import harvest_result, prepare_run, run_workload
from repro.metrics.report import format_table, geometric_mean
from repro.system.machine import LATE_HYPER_FIELDS, LATE_POLICY_FIELDS

_METRICS = {
    "cycles": lambda r: r.cycles,
    "local_fraction": lambda r: r.local_fraction,
    "shootdowns": lambda r: r.total_shootdowns,
    "migrations": lambda r: r.total_migrations,
    "gpu_to_gpu": lambda r: r.gpu_to_gpu_migrations,
    "imbalance": lambda r: r.imbalance(),
}


@dataclass(frozen=True)
class SweepKey:
    """Coordinates of one point in the sweep grid."""

    workload: str
    policy: str
    config: str
    hyper: str
    fault: str = "none"


@dataclass
class SweepResult:
    """All runs of one sweep, indexed by :class:`SweepKey`.

    Attributes:
        points: SweepKey -> RunResult for every completed grid point.
        failures: SweepKey -> :class:`FailedRun` for points that stalled,
            blew their event budget, or raised.  A sweep always completes;
            a bad cell never takes the grid down with it.
        cache_hits: Cells served from the fingerprint store.
        forked_cells: Cells continued from a shared prefix snapshot.
        cold_cells: Cells simulated from cycle zero.
        fork_groups: Shared-prefix groups actually forked.
        prefix_events: Events executed across all shared prefixes; each
            group's other members skipped roughly this many each.
    """

    points: dict = field(default_factory=dict)  # SweepKey -> RunResult
    failures: dict = field(default_factory=dict)  # SweepKey -> FailedRun
    cache_hits: int = 0
    forked_cells: int = 0
    cold_cells: int = 0
    fork_groups: int = 0
    prefix_events: int = 0

    @property
    def cache_misses(self) -> int:
        """Cells executed instead of served from the store."""
        return self.forked_cells + self.cold_cells

    def get(self, workload: str, policy: str, config: str = "default",
            hyper: str = "default", fault: str = "none") -> RunResult:
        return self.points[SweepKey(workload, policy, config, hyper, fault)]

    def failure_table(self) -> str:
        """Plain-text table of the failed grid points (empty grid -> '')."""
        if not self.failures:
            return ""
        rows = [
            [k.workload, k.policy, k.config, k.fault, f.error_type,
             f.attempts, f.message, f.bundle_path or "-"]
            for k, f in self.failures.items()
        ]
        return format_table(
            ["Workload", "Policy", "Config", "Fault", "Error", "Attempts",
             "Message", "Bundle"],
            rows, "Sweep failures",
        )

    def metric(self, name: str):
        """(key, value) pairs for a named metric."""
        fn = _METRICS.get(name)
        if fn is None:
            raise KeyError(
                f"unknown metric {name!r}; available: {', '.join(_METRICS)}"
            )
        return [(key, fn(run)) for key, run in self.points.items()]

    def table(self, metric: str = "cycles") -> str:
        """Plain-text table of one metric over the whole grid."""
        rows = [
            [k.workload, k.policy, k.config, k.hyper,
             f"{v:,.2f}" if isinstance(v, float) else v]
            for k, v in self.metric(metric)
        ]
        return format_table(
            ["Workload", "Policy", "Config", "Hyper", metric], rows,
            f"Sweep: {metric}",
        )

    def speedups(self, baseline_policy: str, other_policy: str,
                 config: str = "default", hyper: str = "default") -> dict:
        """workload -> speedup of ``other`` over ``baseline``."""
        out = {}
        for key, run in self.points.items():
            if (key.policy, key.config, key.hyper) != (
                baseline_policy, config, hyper
            ):
                continue
            other = self.points.get(
                SweepKey(key.workload, other_policy, config, hyper, key.fault)
            )
            if other is not None:
                out[key.workload] = run.cycles / other.cycles
        return out

    def speedup_table(self, baseline_policy: str, other_policy: str,
                      config: str = "default", hyper: str = "default") -> str:
        speedups = self.speedups(baseline_policy, other_policy, config, hyper)
        rows = [[wl, f"{s:.2f}"] for wl, s in speedups.items()]
        if speedups:
            rows.append(["geomean", f"{geometric_mean(speedups.values()):.2f}"])
        return format_table(
            ["Workload", f"{other_policy} vs {baseline_policy}"], rows,
            f"Sweep speedups ({config}, {hyper})",
        )


# ----------------------------------------------------------------------
# Fingerprints and fork planning
# ----------------------------------------------------------------------


def _canon(value):
    """Reduce configs to canonical JSON-able structure for hashing."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _canon(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (list, tuple)):
        return [_canon(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _canon(item) for key, item in value.items()}
    return value


def _digest(payload: dict) -> str:
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _resolve_variant(args):
    """(PolicyConfig, GriffinHyperParams) for a cell, or None if the cell
    cannot be resolved eagerly (the cold path owns its error message)."""
    (workload, policy, _config, hyper, _scale, _seed,
     _fault, _max_events, _stall, _checks, _bundle_dir) = args
    if not isinstance(workload, str):
        return None
    try:
        policy = get_policy(policy) if isinstance(policy, str) else policy
    except KeyError:
        return None
    if hyper is None:
        hyper = GriffinHyperParams.calibrated()
    return policy, hyper


def cell_fingerprint(args, code_fp: str = "") -> Optional[str]:
    """Stable identity of one grid cell, or None if it has none.

    Hashes every input that reaches the simulation — workload name,
    policy, system config, hyperparameters, faults, scale, seed, and the
    run budgets — plus the source-tree fingerprint, so a cached result is
    valid exactly when a fresh run would be byte-identical to it.
    """
    resolved = _resolve_variant(args)
    if resolved is None:
        return None
    policy, hyper = resolved
    (workload, _policy, config, _hyper, scale, seed,
     fault, max_events, stall_threshold, checks, _bundle_dir) = args
    return _digest({
        "workload": workload,
        "policy": _canon(policy),
        "config": _canon(config),
        "hyper": _canon(hyper),
        "fault": _canon(fault),
        "scale": scale,
        "seed": seed,
        "max_events": max_events,
        "stall_threshold": stall_threshold,
        # bundle_dir is where evidence lands, not a simulation input; the
        # sanitizer config is hashed because it decides whether a cell
        # fails (a violation) or succeeds.
        "checks": _canon(checks) if checks is not None else None,
        "code": code_fp,
    })


def group_fingerprint(args, code_fp: str = "") -> Optional[str]:
    """Shared-prefix identity of a cell, or None if it cannot fork.

    Masks the late-binding fields — two cells with the same group
    fingerprint replay an identical event stream up to the migration
    phase, so one prefix snapshot serves both.  Predictive policies
    consume ``lambda_t`` during warm-up and therefore never group.
    """
    resolved = _resolve_variant(args)
    if resolved is None:
        return None
    policy, hyper = resolved
    if policy.predictive:
        return None
    (workload, _policy, config, _hyper, scale, seed,
     fault, max_events, stall_threshold, checks, _bundle_dir) = args
    if checks is not None and checks.enabled:
        # Checked cells run cold: the sanitizer attaches before start()
        # and tracks protocol state (drain phases, queued faults) a
        # mid-run fork could not reconstruct.
        return None
    return _digest({
        "workload": workload,
        "policy": {
            f.name: _canon(getattr(policy, f.name))
            for f in dataclasses.fields(policy)
            if f.name not in LATE_POLICY_FIELDS
        },
        "hyper": {
            f.name: _canon(getattr(hyper, f.name))
            for f in dataclasses.fields(hyper)
            if f.name not in LATE_HYPER_FIELDS
        },
        "config": _canon(config),
        "fault": _canon(fault),
        "scale": scale,
        "seed": seed,
        "max_events": max_events,
        "stall_threshold": stall_threshold,
        "code": code_fp,
    })


class SpecError(ValueError):
    """A JSON sweep spec failed validation.

    The service's admission path turns this into HTTP 400; the message
    is user-facing, so every raise names the offending field.
    """


# Top-level keys a JSON sweep spec may carry.  ``deadline_s`` is consumed
# by the service (per-request wall clock), not by the sweep itself, but
# it must not trip the unknown-key check.
_SPEC_KEYS = frozenset({
    "workloads", "policies", "configs", "hypers", "faults",
    "scale", "seed", "max_events", "stall_threshold", "deadline_s",
})
_CONFIG_SPEC_KEYS = frozenset({"preset", "gpus", "fabric"})


def _config_from_spec(name: str, cfg: Optional[dict]):
    from repro.config.presets import (
        NVLINK,
        PCIE_V4,
        paper_system,
        small_system,
        tiny_system,
    )

    presets = {"tiny": tiny_system, "small": small_system,
               "paper": paper_system}
    cfg = cfg or {}
    if not isinstance(cfg, dict):
        raise SpecError(f"configs[{name!r}] must be an object")
    unknown = set(cfg) - _CONFIG_SPEC_KEYS
    if unknown:
        raise SpecError(
            f"configs[{name!r}] has unknown keys {sorted(unknown)}; "
            f"allowed: {sorted(_CONFIG_SPEC_KEYS)}"
        )
    preset = cfg.get("preset", "small")
    if preset not in presets:
        raise SpecError(
            f"configs[{name!r}].preset must be one of "
            f"{sorted(presets)}, got {preset!r}"
        )
    gpus = cfg.get("gpus")
    if gpus is not None and (not isinstance(gpus, int) or gpus < 1):
        raise SpecError(f"configs[{name!r}].gpus must be a positive integer")
    fabric = cfg.get("fabric", "pcie")
    if fabric not in ("pcie", "nvlink"):
        raise SpecError(
            f"configs[{name!r}].fabric must be 'pcie' or 'nvlink'"
        )
    base = presets[preset]() if gpus is None else presets[preset](gpus)
    return base.with_link(NVLINK if fabric == "nvlink" else PCIE_V4)


def _names_from_spec(spec: dict, key: str, known, kind: str) -> list:
    values = spec.get(key)
    if (not isinstance(values, list) or not values
            or not all(isinstance(v, str) for v in values)):
        raise SpecError(f"{key!r} must be a non-empty list of {kind} names")
    unknown = [v for v in values if v not in known]
    if unknown:
        raise SpecError(
            f"unknown {kind}(s) {unknown}; available: {sorted(known)}"
        )
    return list(values)


def sweep_from_spec(spec: dict) -> tuple["Sweep", dict]:
    """Build a :class:`Sweep` plus run parameters from a JSON-shaped dict.

    This is the wire format ``repro serve`` accepts.  Validation is
    eager and strict — unknown keys, unknown workloads/policies, and bad
    types all raise :class:`SpecError` with a message naming the field —
    so a bad submission is rejected at admission, before anything is
    enqueued.  Returns ``(sweep, run_params)`` where ``run_params`` are
    keyword arguments for :meth:`Sweep.run` (``scale``, ``seed``,
    ``max_events_per_run``, ``stall_threshold``).

    Spec shape (everything but ``workloads``/``policies`` optional)::

        {"workloads": ["MT", "SC"], "policies": ["baseline", "griffin"],
         "configs": {"tiny": {"preset": "tiny", "gpus": 2,
                              "fabric": "pcie"}},
         "hypers": {"eager": {"min_pages_per_source": 1}},
         "faults": {"chaos": {"migration_drop_rate": 0.3}},
         "scale": 0.008, "seed": 5, "max_events": 5000000}
    """
    from repro.config.faults import FaultConfig
    from repro.core.policies import list_policies
    from repro.workloads.registry import list_workloads

    if not isinstance(spec, dict):
        raise SpecError("sweep spec must be a JSON object")
    unknown = set(spec) - _SPEC_KEYS
    if unknown:
        raise SpecError(
            f"unknown spec keys {sorted(unknown)}; "
            f"allowed: {sorted(_SPEC_KEYS)}"
        )
    workloads = _names_from_spec(spec, "workloads", set(list_workloads()),
                                 "workload")
    policies = _names_from_spec(spec, "policies", set(list_policies()),
                                "policy")

    configs = None
    if spec.get("configs") is not None:
        if not isinstance(spec["configs"], dict) or not spec["configs"]:
            raise SpecError("'configs' must be a non-empty object")
        configs = {
            str(name): _config_from_spec(name, cfg)
            for name, cfg in spec["configs"].items()
        }

    hypers = None
    if spec.get("hypers") is not None:
        if not isinstance(spec["hypers"], dict) or not spec["hypers"]:
            raise SpecError("'hypers' must be a non-empty object")
        base = GriffinHyperParams.calibrated()
        fields = {f.name for f in dataclasses.fields(GriffinHyperParams)}
        hypers = {}
        for name, overrides in spec["hypers"].items():
            overrides = overrides or {}
            if not isinstance(overrides, dict):
                raise SpecError(f"hypers[{name!r}] must be an object")
            bad = set(overrides) - fields
            if bad:
                raise SpecError(
                    f"hypers[{name!r}] has unknown fields {sorted(bad)}"
                )
            hypers[str(name)] = base.with_overrides(**overrides)

    faults = None
    if spec.get("faults") is not None:
        if not isinstance(spec["faults"], dict) or not spec["faults"]:
            raise SpecError("'faults' must be a non-empty object")
        fields = {f.name for f in dataclasses.fields(FaultConfig)}
        faults = {}
        for name, plan in spec["faults"].items():
            if plan is None:
                faults[str(name)] = None
                continue
            if not isinstance(plan, dict):
                raise SpecError(f"faults[{name!r}] must be an object or null")
            bad = set(plan) - fields
            if bad:
                raise SpecError(
                    f"faults[{name!r}] has unknown fields {sorted(bad)}"
                )
            try:
                faults[str(name)] = FaultConfig(**plan)
            except (TypeError, ValueError) as exc:
                raise SpecError(f"faults[{name!r}]: {exc}") from exc

    def _number(key, default, kind, minimum=None):
        value = spec.get(key, default)
        if value is None:
            return None
        if not isinstance(value, kind) or isinstance(value, bool):
            raise SpecError(f"{key!r} must be a number")
        if minimum is not None and value < minimum:
            raise SpecError(f"{key!r} must be >= {minimum}")
        return value

    run_params = {
        "scale": float(_number("scale", 0.015, (int, float), 1e-6)),
        "seed": _number("seed", 3, int, 0),
        "max_events_per_run": _number("max_events", None, int, 1),
        "stall_threshold": _number("stall_threshold", 1_000_000, int, 1),
    }
    sweep = Sweep(workloads=workloads, policies=policies,
                  configs=configs, hypers=hypers, faults=faults)
    return sweep, run_params


def partition_cached_cells(cells, cache, on_hit=None) -> tuple[list, list]:
    """Split planned queue cells into cache hits and cells still to run.

    ``cells`` is :func:`plan_queue_cells` output; ``cache`` a
    :class:`repro.harness.io.SweepResultCache`.  Returns ``(cached,
    missing)`` where ``cached`` holds ``(grid_index, key, fingerprint,
    RunResult)`` for every cell already present in the fingerprint cache
    and ``missing`` the remaining planned cells (grid order preserved).
    This is the partial-grid submission path: identical resubmissions
    are served entirely from ``cached`` and enqueue nothing.
    ``on_hit(key)``, if given, is called as each hit is read.

    Group fingerprints are deliberately left as planned even when cache
    hits shrink a fork group below two members: a fresh run of the full
    grid forks such a cell, so keeping the plan keeps the
    budget-exhaustion failure message (which quotes the continuation
    budget) byte-identical to a fresh run.
    """
    cached: list = []
    missing: list = []
    for index, (key, args, fingerprint, group_fp) in enumerate(cells):
        hit = cache.load(fingerprint) if fingerprint is not None else None
        if hit is not None:
            cached.append((index, key, fingerprint, hit))
            if on_hit is not None:
                on_hit(key)
        else:
            missing.append((key, args, fingerprint, group_fp))
    return cached, missing


def plan_queue_cells(grid, code_fp: str = "", fork: bool = True) -> list:
    """Queue rows ``(key, args, fingerprint, group_fp)`` for a grid.

    With ``fork=False`` every ``group_fp`` is None; see
    :func:`plan_fork_groups` for the fork plan.
    """
    cells = [(key, args, cell_fingerprint(args, code_fp), None)
             for key, args in grid]
    return plan_fork_groups(cells, code_fp) if fork else cells


def plan_fork_groups(cells, code_fp: str = "") -> list:
    """``cells`` with each cell's shared-prefix group fingerprint filled in.

    A cell keeps its group fingerprint only when at least two cells
    share it (a group of one amortizes nothing and runs cold).  The plan
    is observable beyond speed — a forked cell that exhausts
    ``max_events`` reports the *continuation* budget in its failure
    message — so it always covers the whole grid, never just the cells
    still to run.
    """
    group_fps = [group_fingerprint(args, code_fp)
                 for _key, args, _fp, _gfp in cells]
    members: dict[str, int] = {}
    for group_fp in group_fps:
        if group_fp is not None:
            members[group_fp] = members.get(group_fp, 0) + 1
    return [
        (key, args, fingerprint,
         group_fp if group_fp is not None and members[group_fp] >= 2 else None)
        for (key, args, fingerprint, _gfp), group_fp in zip(cells, group_fps)
    ]


def assemble_result(keys, hits: dict, queue=None) -> SweepResult:
    """Build a :class:`SweepResult` from store hits and a queue's outcomes.

    ``keys`` is the grid in order; ``hits`` maps the keys served from the
    fingerprint store to their results; ``queue`` (a
    :class:`repro.harness.queue.SweepQueue`, None when every cell was a
    hit) holds the rest.  ``Sweep.run``, :meth:`SweepQueue.collect` and
    ``repro serve`` all assemble here, so their results serialize
    byte-identically.  The fork counters come from how each queued cell
    ran, whichever worker ran it.
    """
    result = SweepResult(cache_hits=len(hits))
    rows = {} if queue is None else {
        key: rest for key, *rest in queue.outcomes()
    }
    prefixes: dict = {}
    for key in keys:
        if key in hits:
            result.points[key] = hits[key]
            continue
        status, outcome, group_fp, prefix_events = rows.get(key, (
            None, FailedRun(workload=key.workload, policy=key.policy,
                            error_type="Incomplete",
                            message="cell neither stored nor queued"),
            None, None,
        ))
        if isinstance(outcome, RunResult):
            result.points[key] = outcome
        else:
            result.failures[key] = outcome
        if status not in ("done", "failed", "quarantined"):
            continue
        if prefix_events is None:
            result.cold_cells += 1
        else:
            result.forked_cells += 1
            prefixes[group_fp] = prefix_events
    result.fork_groups = len(prefixes)
    result.prefix_events = sum(prefixes.values())
    return result


class _Settled:
    """Report each settled cell once, in completion order.

    Store hits land as they are read; queued cells land as their commits
    appear in the queue's event log.  Without a ``progress`` callable
    nothing is read.
    """

    def __init__(self, progress, total: int) -> None:
        self.progress = progress
        self.total = total
        self.queue = None
        self.seen: set = set()
        self.seq = 0

    def land(self, key) -> None:
        if key not in self.seen:
            self.seen.add(key)
            self.progress(len(self.seen), self.total, key)

    def poll(self) -> None:
        if self.progress is None or self.queue is None:
            return
        grid = self.queue.load_grid()
        for seq, idx, _status, _attempts in self.queue.settled(self.seq):
            self.seq = seq
            self.land(grid[idx][0])


def _drain_with_fleet(queue, workers: int, settled: _Settled) -> None:
    """Supervise ``workers`` forked workers until the queue drains.

    The fleet restarts workers that die (with backoff) and gives up on
    a slot after repeated deaths; a fleet with no slot left returns, and
    the caller drains the rest itself.  Each pass wakes on a worker's commit,
    a worker's exit or a due restart.
    """
    import select

    from repro.service.fleet import FleetSupervisor

    fleet = FleetSupervisor(queue, size=workers)
    fleet.start()
    try:
        while not queue.drained():
            settled.poll()
            fleet.poll()
            if fleet.dead:
                break
            fds = list(fleet.sentinels)
            if fleet.notify_fd is not None:
                fds.append(fleet.notify_fd)
            restart_in = fleet.next_restart_in()
            readable, _, _ = select.select(
                fds, [], [], 1.0 if restart_in is None else restart_in
            )
            if fleet.notify_fd in readable:
                try:
                    while os.read(fleet.notify_fd, 512):
                        pass
                except BlockingIOError:
                    pass
    finally:
        fleet.drain()


@dataclass(frozen=True)
class _WorkloadMeta:
    """Just enough workload identity for :func:`harvest_result`.

    Forked machines travel without their workload object; harvesting
    needs only ``spec.abbrev`` / ``seed`` / ``scale``, so this shim
    stands in (``spec`` resolves to the instance itself).
    """

    abbrev: str
    seed: int
    scale: float

    @property
    def spec(self) -> "_WorkloadMeta":
        return self


@dataclass
class Sweep:
    """A sweep definition: the cross-product of four axes.

    Attributes:
        workloads: Table III abbreviations.
        policies: Policy names.
        configs: Named system configurations (default: one
            ``small_system()`` under the name "default").
        hypers: Named hyperparameter sets (default: the calibrated set
            under the name "default").
        faults: Named fault-injection plans (default: one fault-free run
            under the name "none"; a ``None`` value means no faults).
    """

    workloads: list
    policies: list
    configs: Optional[dict] = None
    hypers: Optional[dict] = None
    faults: Optional[dict] = None

    def size(self) -> int:
        configs = self.configs or {"default": None}
        hypers = self.hypers or {"default": None}
        faults = self.faults or {"none": None}
        return (len(self.workloads) * len(self.policies)
                * len(configs) * len(hypers) * len(faults))

    def _grid(self, scale: float, seed: int, max_events, stall_threshold,
              checks=None, bundle_dir=None):
        configs = self.configs or {"default": small_system()}
        hypers = self.hypers or {"default": GriffinHyperParams.calibrated()}
        faults = self.faults or {"none": None}
        for config_name, config in configs.items():
            if config is None:
                config = small_system()
            for hyper_name, hyper in hypers.items():
                if hyper is None:
                    hyper = GriffinHyperParams.calibrated()
                for fault_name, fault in faults.items():
                    for workload in self.workloads:
                        wl_name = (
                            workload if isinstance(workload, str)
                            else getattr(
                                getattr(workload, "spec", None),
                                "abbrev", str(workload),
                            )
                        )
                        for policy in self.policies:
                            key = SweepKey(wl_name, policy, config_name,
                                           hyper_name, fault_name)
                            yield key, (workload, policy, config, hyper,
                                        scale, seed, fault, max_events,
                                        stall_threshold, checks, bundle_dir)

    def run(self, scale: float = 0.015, seed: int = 3,
            progress=None, workers: int = 1,
            max_events_per_run: Optional[int] = None,
            stall_threshold: Optional[int] = 1_000_000,
            fork: bool = True,
            cache_dir=None, resume: bool = False,
            checks=None, bundle_dir=None,
            cell_timeout: Optional[float] = None,
            queue_dir=None, lease_duration: float = 30.0,
            max_attempts: int = 3, backoff_base: float = 1.0,
            backoff_cap: float = 60.0) -> SweepResult:
        """Execute every grid point through a lease queue.

        The grid is planned with :func:`plan_queue_cells`; with
        ``resume`` the cells already in the store are served from it
        (:func:`partition_cached_cells`, as ``repro serve`` does), and
        the rest are queued and drained.  Results never depend on
        ``workers``, ``fork``, ``cell_timeout`` or where cells ran.

        Args:
            scale / seed: Forwarded to every run.
            progress: Optional callable ``(done, total, key)`` invoked
                once per settled cell (completion order, not grid order).
            workers: 1 (the default) drains the queue in this process;
                N > 1 runs N local worker processes, forked so they share
                the in-memory grid, and restarts any that die.
            max_events_per_run: Event budget for each grid point — the
                sweep-level no-hang guarantee.  A point that exhausts it
                lands in ``SweepResult.failures``.
            stall_threshold: Per-run livelock watchdog (None disables).
            fork: Share warm-up across cells that differ only in
                late-binding knobs (see module docstring).  Results are
                byte-identical either way; False forces every cell cold.
            cache_dir: Directory of the fingerprint store results are
                committed into.  None uses ``<queue_dir>/cache``, or a
                temporary store removed before returning.
            resume: Serve cells already present in the store instead of
                re-running them.
            checks: Optional :class:`repro.check.CheckConfig` applied to
                every cell.  Checked cells run cold (the sanitizer must
                observe the run from cycle zero) and a violating cell
                lands in ``failures`` like any other error.
            bundle_dir: Crash-bundle directory forwarded to every
                checked cell; each :class:`FailedRun` then records its
                ``bundle_path`` (also shown by :meth:`SweepResult.failure_table`).
            cell_timeout: Per-cell wall-clock budget in seconds.  Each
                cell then runs in its own supervised child process that
                is SIGKILLed past the deadline — the backstop for hangs
                in native/OS code that the in-sim event budgets and
                stall watchdog cannot see.  A timed-out cell is retried
                with backoff and quarantined as ``CellTimeout`` after
                ``max_attempts``; the rest of the grid completes.
            queue_dir: Keep the queue in this directory instead of a
                temporary one.  Any number of ``repro worker <queue_dir>``
                processes — on any machine sharing the filesystem — may
                then attach, and re-running with the same ``queue_dir``
                re-opens the queue and picks up where the grid left off
                (see docs/resilience.md).
            lease_duration / max_attempts / backoff_base / backoff_cap:
                Queue recovery policy — how long a worker may hold a
                cell without heartbeating, how many executions a cell is
                granted before quarantine, and the capped exponential
                backoff between retries.

        A point that raises is recorded as a :class:`FailedRun` in
        ``SweepResult.failures``; the rest of the grid still runs.
        """
        from repro.harness.io import SweepResultCache
        from repro.harness.queue import QueueSettings, SweepQueue
        from repro.harness.worker import run_worker
        from repro.perf.fingerprint import code_fingerprint

        grid = list(self._grid(scale, seed, max_events_per_run,
                               stall_threshold, checks, bundle_dir))
        code_fp = code_fingerprint()
        # Group fingerprints are planned only once some cell must run.
        cells = plan_queue_cells(grid, code_fp, fork=False)
        settled = _Settled(progress, len(cells))
        scratch = None
        if queue_dir is None:
            scratch = Path(tempfile.mkdtemp(prefix="repro-sweep-"))
            queue_dir = scratch / "queue"
        elif SweepQueue(queue_dir).db_path.exists():
            resume = True  # re-opening a queue resumes its grid
        try:
            store = SweepResultCache(
                cache_dir if cache_dir is not None
                else (scratch or Path(queue_dir)) / "cache"
            )
            cached, missing = ([], cells)
            if resume:
                cached, missing = partition_cached_cells(
                    cells, store, settled.land if progress else None
                )
            keys = [key for key, _args, _fp, _gfp in cells]
            hits = {key: run for _index, key, _fp, run in cached}
            if not missing:
                return assemble_result(keys, hits)
            if fork:
                cells = plan_fork_groups(cells, code_fp)
                hit = {index for index, _k, _fp, _run in cached}
                missing = [cell for index, cell in enumerate(cells)
                           if index not in hit]
            settings = QueueSettings(
                lease_duration=lease_duration,
                max_attempts=max_attempts, backoff_base=backoff_base,
                backoff_cap=backoff_cap, cell_timeout=cell_timeout,
            )
            queue = SweepQueue.create_or_attach(
                queue_dir, missing, settings=settings, code_fp=code_fp,
                store=store.root,
                digest=SweepQueue._spec_digest(cells, code_fp),
                grid_file=scratch is None,
            )
            settled.queue = queue
            if workers > 1:
                _drain_with_fleet(queue, workers, settled)
            # This process drains what is left (everything, with one
            # worker) and assembles, all on one held connection.
            with queue.connected():
                if run_worker(queue, notify=settled.poll).interrupted:
                    raise KeyboardInterrupt
                settled.poll()
                return assemble_result(keys, hits, queue)
        finally:
            if scratch is not None:
                shutil.rmtree(scratch, ignore_errors=True)


def _fork_cell(args):
    """The per-cell payload a fork continuation needs."""
    (_workload, policy, _config, hyper, _scale, _seed,
     _fault, max_events, stall_threshold, _checks, _bundle_dir) = args
    return policy, hyper, max_events, stall_threshold


def _prepare_group(args, cache=None, group_fp=None):
    """Run one group's shared prefix and snapshot it (cache-aware)."""
    if cache is not None and group_fp is not None:
        cached = cache.load_snapshot(group_fp)
        if cached is not None:
            return cached
    (workload, policy, config, hyper, scale, seed,
     fault, max_events, stall_threshold, _checks, _bundle_dir) = args
    machine, built, kernels = prepare_run(
        workload, policy=policy, config=config, hyper=hyper,
        scale=scale, seed=seed, faults=fault,
    )
    machine.start(kernels)
    machine.run_until(
        machine.hyper.migration_period - 1,
        max_events=max_events, stall_threshold=stall_threshold,
    )
    snap = machine.snapshot()
    meta = _WorkloadMeta(built.spec.abbrev, built.seed, built.scale)
    if cache is not None and group_fp is not None:
        cache.store_snapshot(group_fp, (snap, meta))
    return snap, meta


def _finish_fork(snap, meta: _WorkloadMeta, cell) -> RunResult:
    """Fork one cell off a prefix snapshot and run it to completion."""
    policy, hyper, max_events, stall_threshold = cell
    machine = snap.fork()
    machine.adopt_variant(policy, hyper)
    if machine.finish_time is None:
        budget = None
        if max_events is not None:
            # The budget spans prefix + continuation, like a cold run's.
            budget = max_events - snap.events_executed
        machine.finish(max_events=budget, stall_threshold=stall_threshold)
    return harvest_result(machine, meta)


def _run_point(args) -> RunResult:
    """Execute one grid point cold."""
    (workload, policy, config, hyper, scale, seed,
     fault, max_events, stall_threshold, checks, bundle_dir) = args
    return run_workload(
        workload, policy, config=config, hyper=hyper, scale=scale, seed=seed,
        faults=fault, max_events=max_events, stall_threshold=stall_threshold,
        checks=checks, bundle_dir=bundle_dir,
    )
