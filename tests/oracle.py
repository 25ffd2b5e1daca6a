"""The reference sweep executors are checked against.

``cold_sweep`` runs every cell of a :class:`Sweep` grid cold, one after
another, through :func:`repro.harness.runner.run_workload` — no queue,
no fork, no store.  Parity tests compare ``Sweep.run`` (and the service)
against it, so the reference never shares the executor it checks.
"""

from __future__ import annotations

from repro.harness.results import FailedRun
from repro.harness.runner import run_workload
from repro.harness.sweep import SweepResult


def cold_sweep(sweep, scale: float, seed: int, max_events=None,
               stall_threshold=1_000_000) -> SweepResult:
    """Every grid cell of ``sweep`` run cold, in grid order."""
    result = SweepResult()
    for key, args in sweep._grid(scale, seed, max_events, stall_threshold):
        (workload, policy, config, hyper, scale_, seed_, fault, budget,
         stall, _checks, _bundle_dir) = args
        try:
            result.points[key] = run_workload(
                workload, policy, config=config, hyper=hyper, scale=scale_,
                seed=seed_, faults=fault, max_events=budget,
                stall_threshold=stall,
            )
        except Exception as exc:
            result.failures[key] = FailedRun.from_exception(
                key.workload, key.policy, exc
            )
    return result


def cold_spec(spec: dict) -> SweepResult:
    """:func:`cold_sweep` of a ``repro serve`` JSON spec."""
    from repro.harness.sweep import sweep_from_spec

    sweep, params = sweep_from_spec(spec)
    return cold_sweep(sweep, params["scale"], params["seed"],
                      params["max_events_per_run"], params["stall_threshold"])
