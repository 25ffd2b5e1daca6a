"""End-to-end sanitizer tests: parity, crash bundles, replay, bisection.

Three contracts from docs/resilience.md are pinned here:

1. **Parity** — monitors are pure observers: a fully-checked clean run
   serializes byte-identically to the committed goldens for every parity
   grid cell, snapshot staging included.
2. **Detection** — every seeded corruption kind trips its monitor, and
   the failure writes a crash bundle with the violation report, the event
   ring, and a warm snapshot.
3. **Replay** — ``replay_bundle`` re-executes the bundle's tail and
   reproduces the identical failure (violation report field-for-field,
   stall cycle, or exhaustion list); ``bisect_bundle`` narrows a late
   detection to a small introduction window.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro import cli
from repro.check import (
    CheckConfig,
    CorruptionSpec,
    InvariantViolation,
    bisect_bundle,
    load_bundle,
    replay_bundle,
)
from repro.config.faults import FaultConfig
from repro.config.presets import tiny_system
from repro.harness.io import load_result, result_to_dict, save_result
from repro.harness.runner import run_workload
from repro.harness.sweep import Sweep
from repro.sim.engine import SimulationStall
from tests.oracle import cold_sweep

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from gen_golden_parity import PARITY_GRID, _CONFIGS, PARITY_FAULTS  # noqa: E402

_GOLDEN_PATH = Path(__file__).resolve().parents[1] / "golden_parity.json"
GOLDENS = json.loads(_GOLDEN_PATH.read_text())


def _run_cell(**kwargs):
    """The standard cell for failure scenarios: MT / griffin / tiny."""
    return run_workload("MT", "griffin", config=tiny_system(2),
                        scale=0.008, seed=5, **kwargs)


# ----------------------------------------------------------------------
# 1. Parity: checked clean runs are byte-identical and every monitor
#    stays silent (a violation would raise, so passing == silent).
# ----------------------------------------------------------------------


@pytest.mark.parametrize("key", sorted(GOLDENS))
def test_checked_run_matches_golden(key):
    spec = next(row for row in PARITY_GRID if row[0] == key)
    _, workload, policy, config_name, scale, seed, faulted = spec
    result = run_workload(
        workload, policy, config=_CONFIGS[config_name](),
        scale=scale, seed=seed,
        faults=PARITY_FAULTS if faulted else None,
        checks=CheckConfig(),
    )
    current = result_to_dict(result)
    assert current == GOLDENS[key], (
        f"checked run for {key} diverged from the unchecked golden; "
        "monitors must be pure observers"
    )
    assert (json.dumps(current, sort_keys=True)
            == json.dumps(GOLDENS[key], sort_keys=True))


def test_snapshot_staged_run_matches_golden():
    """The interval-staged drive loop (start/run_until/finish) is
    byte-identical to an uninterrupted run."""
    result = _run_cell(checks=CheckConfig(snapshot_interval=10_000))
    assert result_to_dict(result) == GOLDENS["MT/griffin/tiny/clean"]


def test_clean_checked_result_has_no_bundle_key():
    result = _run_cell(checks=CheckConfig())
    assert result.bundle_path is None
    assert "bundle" not in result_to_dict(result)


# ----------------------------------------------------------------------
# 2 + 3. Corruption drills -> violation + bundle -> deterministic replay.
# ----------------------------------------------------------------------


_KIND_TO_MONITOR = {
    "ownership_count": "ownership",
    "ownership_device": "ownership",
    "tlb_stale": "vm_coherence",
    "past_event": "event_queue",
}


def _corrupted_checks(kind):
    return CheckConfig(
        snapshot_interval=10_000,
        corruptions=(CorruptionSpec(kind, at_cycle=30_000),),
    )


@pytest.fixture(scope="module")
def violation_bundle(tmp_path_factory):
    """One ownership_count drill, shared by the replay/bisect/CLI tests."""
    tmp = tmp_path_factory.mktemp("violation")
    with pytest.raises(InvariantViolation) as info:
        _run_cell(checks=_corrupted_checks("ownership_count"),
                  bundle_dir=tmp)
    return info.value


def test_violation_bundle_contents(violation_bundle):
    exc = violation_bundle
    assert exc.report.monitor == "ownership"
    assert exc.bundle_path is not None
    bundle = load_bundle(exc.bundle_path)
    assert bundle.kind == "violation"
    assert bundle.manifest["violation"] == exc.report.to_dict()
    assert bundle.manifest["workload"] == "MT"
    assert bundle.manifest["ring"], "event ring buffer must not be empty"
    assert bundle.manifest["has_snapshot"]
    # The warm snapshot precedes the failure and is audit-clean by
    # construction (on_snapshot_point audits before every capture).
    assert bundle.snapshot.cycle <= exc.report.cycle
    assert bundle.manifest["monitor_state"]


def test_violation_replay_reproduces_identical_report(violation_bundle):
    outcome = replay_bundle(violation_bundle.bundle_path)
    assert outcome.kind == "violation"
    assert outcome.reproduced, outcome.render()
    assert outcome.observed == violation_bundle.report.to_dict()


@pytest.mark.parametrize("kind", ["ownership_device", "tlb_stale",
                                  "past_event"])
def test_other_corruption_kinds_fire_and_replay(tmp_path, kind):
    with pytest.raises(InvariantViolation) as info:
        _run_cell(checks=_corrupted_checks(kind), bundle_dir=tmp_path)
    exc = info.value
    assert exc.report.monitor == _KIND_TO_MONITOR[kind]
    assert exc.bundle_path is not None
    outcome = replay_bundle(exc.bundle_path)
    assert outcome.reproduced, outcome.render()


def test_bisect_narrows_the_violation_window(violation_bundle):
    result = bisect_bundle(violation_bundle.bundle_path, tolerance=2_000)
    assert result.clean_cycle <= result.violated_cycle
    assert result.window <= 2_000
    # The corruption fired at t=30000; the window must bracket it.
    assert result.clean_cycle < 30_000 <= result.violated_cycle
    assert result.report is not None
    assert result.report.monitor == "ownership"
    assert result.probes
    assert "bisected violation window" in result.render()


# ----------------------------------------------------------------------
# Stall bundles: the event budget trips mid-run and the tail replays.
# ----------------------------------------------------------------------


def test_stall_bundle_replays(tmp_path):
    with pytest.raises(SimulationStall) as info:
        _run_cell(checks=CheckConfig(snapshot_interval=5_000),
                  bundle_dir=tmp_path, max_events=500)
    exc = info.value
    assert exc.bundle_path is not None
    bundle = load_bundle(exc.bundle_path)
    assert bundle.kind == "stall"
    assert bundle.manifest["max_events"] == 500
    outcome = replay_bundle(exc.bundle_path)
    assert outcome.reproduced, outcome.render()


def test_failure_without_bundle_dir_still_raises(tmp_path):
    with pytest.raises(SimulationStall) as info:
        _run_cell(checks=CheckConfig(), max_events=500)
    assert getattr(info.value, "bundle_path", None) is None


# ----------------------------------------------------------------------
# Retry-exhaustion bundles: informational, attached to a completed run.
# ----------------------------------------------------------------------


def test_retry_exhaustion_bundle_and_io_round_trip(tmp_path):
    faults = FaultConfig(migration_drop_rate=1.0, max_migration_attempts=2)
    result = _run_cell(checks=CheckConfig(), bundle_dir=tmp_path,
                       faults=faults)
    assert result.pages_pinned > 0
    assert result.bundle_path is not None
    bundle = load_bundle(result.bundle_path)
    assert bundle.kind == "retry_exhaustion"
    assert bundle.manifest["exhaustions"]

    outcome = replay_bundle(result.bundle_path)
    assert outcome.reproduced, outcome.render()

    # The bundle path survives the result's JSON round trip ...
    assert result_to_dict(result)["bundle"] == result.bundle_path
    path = save_result(result, tmp_path / "result.json")
    assert load_result(path).bundle_path == result.bundle_path


# ----------------------------------------------------------------------
# Sweep integration: failures carry their bundle into the report.
# ----------------------------------------------------------------------


def test_sweep_failure_records_bundle_path(tmp_path):
    sweep = Sweep(workloads=["MT"], policies=["griffin"],
                  configs={"tiny": tiny_system(2)})
    result = sweep.run(scale=0.008, seed=5,
                       checks=_corrupted_checks("ownership_count"),
                       bundle_dir=tmp_path)
    assert not result.points
    (failure,) = result.failures.values()
    assert failure.error_type == "InvariantViolation"
    assert failure.bundle_path is not None
    assert Path(failure.bundle_path).is_dir()
    table = result.failure_table()
    assert "Bundle" in table
    assert failure.bundle_path in table


def test_checked_sweep_matches_unchecked_bytes():
    def dump(res):
        return [(str(k), json.dumps(result_to_dict(r), sort_keys=True))
                for k, r in res.points.items()]

    sweep = Sweep(workloads=["MT"], policies=["baseline", "griffin"],
                  configs={"tiny": tiny_system(2)})
    unchecked = cold_sweep(sweep, 0.008, 5)
    checked = sweep.run(scale=0.008, seed=5, checks=CheckConfig())
    assert not checked.failures
    assert dump(checked) == dump(unchecked)
    # Checked cells run cold: the sanitizer tracks protocol state a
    # mid-run fork could not reconstruct.
    assert checked.forked_cells == 0
    assert checked.cold_cells == 2


# ----------------------------------------------------------------------
# CLI: --check / --bundle-dir on run, and the replay subcommand.
# ----------------------------------------------------------------------


def test_cli_checked_run_clean(capsys):
    rc = cli.main(["run", "MT", "--gpus", "2", "--scale", "0.008",
                   "--seed", "5", "--check"])
    assert rc == 0
    assert "MT under griffin" in capsys.readouterr().out


def test_cli_checked_stall_writes_bundle_then_replays(tmp_path, capsys):
    rc = cli.main(["run", "MT", "--gpus", "2", "--scale", "0.008",
                   "--seed", "5", "--check", "--max-events", "500",
                   "--bundle-dir", str(tmp_path),
                   "--check-snapshot-interval", "5000"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "crash bundle written to" in err
    assert "griffin-sim replay" in err
    bundles = [p for p in tmp_path.iterdir() if p.is_dir()]
    assert len(bundles) == 1
    assert "stall" in bundles[0].name

    rc = cli.main(["replay", str(bundles[0])])
    out = capsys.readouterr().out
    assert rc == 0
    assert "kind:     stall" in out
    assert "reproduced" in out


def test_cli_replay_bisect(violation_bundle, capsys):
    rc = cli.main(["replay", "--bisect", "--tolerance", "4000",
                   violation_bundle.bundle_path])
    assert rc == 0
    assert "bisected violation window" in capsys.readouterr().out


def test_cli_replay_missing_bundle(tmp_path, capsys):
    rc = cli.main(["replay", str(tmp_path / "no-such-bundle")])
    assert rc == 2
    assert "not a crash bundle" in capsys.readouterr().err
