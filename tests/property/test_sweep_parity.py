"""Differential parity of ``Sweep.run`` against an independent oracle.

Hypothesis generates small late-knob grids (policies that share a warm-up
prefix, hyperparameter variants that differ only in late-binding knobs)
and checks that every way of executing them serializes to the same
bytes as a cold loop of ``run_workload`` over the grid: one worker or
two, forked or cold, and resumed from a half-filled store.
"""

from __future__ import annotations

import json
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config.hyperparams import GriffinHyperParams
from repro.config.presets import tiny_system
from repro.harness.io import sweep_result_to_dict
from repro.harness.sweep import Sweep
from tests.oracle import cold_sweep

_BASE = GriffinHyperParams.calibrated()

_late_knobs = st.fixed_dictionaries({
    "lambda_d": st.sampled_from([1.5, 2.0, 3.0]),
    "min_pages_per_source": st.sampled_from([1, 4]),
    "max_pages_per_round": st.sampled_from([8, 64]),
})

grids = st.fixed_dictionaries({
    "workload": st.sampled_from(["MT", "SC"]),
    "policies": st.lists(
        st.sampled_from(["baseline", "griffin", "griffin_flush"]),
        min_size=1, max_size=2, unique=True,
    ),
    "hypers": st.lists(_late_knobs, min_size=1, max_size=2),
    "scale": st.sampled_from([0.005, 0.008]),
    "seed": st.integers(min_value=1, max_value=50),
})


def _sweep(grid: dict, policies=None) -> Sweep:
    return Sweep(
        workloads=[grid["workload"]],
        policies=policies or grid["policies"],
        configs={"tiny": tiny_system(2)},
        hypers={f"h{i}": _BASE.with_overrides(**knobs)
                for i, knobs in enumerate(grid["hypers"])},
    )


def _bytes(result) -> str:
    return json.dumps(sweep_result_to_dict(result), sort_keys=True)


@settings(max_examples=4, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(grid=grids)
def test_every_executor_matches_a_cold_loop(grid):
    scale, seed = grid["scale"], grid["seed"]
    expected = _bytes(cold_sweep(_sweep(grid), scale, seed))
    for workers in (1, 2):
        for fork in (True, False):
            result = _sweep(grid).run(scale=scale, seed=seed,
                                      workers=workers, fork=fork)
            assert _bytes(result) == expected, (workers, fork)
            assert result.forked_cells + result.cold_cells == len(
                result.points) + len(result.failures)
            if not fork:
                assert result.forked_cells == 0

    with tempfile.TemporaryDirectory() as store:
        half = _sweep(grid, policies=grid["policies"][:1])
        half.run(scale=scale, seed=seed, cache_dir=store)
        resumed = _sweep(grid).run(scale=scale, seed=seed, cache_dir=store,
                                   resume=True)
    assert _bytes(resumed) == expected
    assert resumed.cache_hits == half.size()
