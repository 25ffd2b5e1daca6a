"""Fault-tolerant queue execution: parity, worker death, quarantine.

The contract under test: a sweep drained through the on-disk queue —
by in-process degradation, by a local worker fleet, or by a fleet that
loses a worker to SIGKILL mid-cell — produces a grid byte-identical to
a cold loop of ``run_workload`` over the grid, and a cell that can never
finish is quarantined with an evidence bundle instead of wedging the
grid.
"""

from __future__ import annotations

import json
import os
import signal
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.config.hyperparams import GriffinHyperParams
from repro.config.presets import tiny_system
from repro.harness.io import result_to_dict
from repro.harness.queue import QueueSettings, SweepQueue
from repro.harness.sweep import Sweep, plan_queue_cells
from repro.harness.worker import _CTX, run_worker
from repro.perf.fingerprint import code_fingerprint
from repro.workloads.registry import get_workload
from tests.oracle import cold_sweep

_BASE = GriffinHyperParams.calibrated()


def _knob_sweep() -> Sweep:
    return Sweep(
        workloads=["MT"],
        policies=["griffin", "griffin_flush"],
        configs={"tiny": tiny_system(2)},
        hypers={
            "default": _BASE,
            "eager": _BASE.with_overrides(
                min_pages_per_source=1, lambda_d=1.5
            ),
        },
    )


def _dump(result) -> list:
    return [
        (str(key), json.dumps(result_to_dict(run), sort_keys=True))
        for key, run in result.points.items()
    ]


def _dump_failures(result) -> list:
    return [
        (str(key), failure.error_type, failure.message)
        for key, failure in result.failures.items()
    ]


class SlowWorkload:
    """A deterministic workload that dawdles before building kernels.

    The sleep happens outside the simulation, so results are identical
    to the wrapped workload's — it only widens the window in which a
    worker can be killed mid-cell.
    """

    def __init__(self, inner, delay: float) -> None:
        self.inner = inner
        self.delay = delay
        self.spec = inner.spec
        self.seed = inner.seed
        self.scale = inner.scale
        self.page_size = inner.page_size

    def build_kernels(self, num_gpus):
        time.sleep(self.delay)
        return self.inner.build_kernels(num_gpus)


class HangingWorkload:
    """A workload that blocks forever, simulating a hang in native code."""

    def __init__(self, page_size, seconds: float = 3600.0) -> None:
        self.page_size = page_size
        self.seconds = seconds
        self.seed = 5
        self.scale = 0.008
        self.spec = type("Spec", (), {"abbrev": "HANG"})()

    def __reduce__(self):
        return (HangingWorkload, (self.page_size, self.seconds))

    def build_kernels(self, num_gpus):
        time.sleep(self.seconds)
        raise RuntimeError("unreachable")


class TestQueueParity:
    @pytest.fixture(scope="class")
    def serial(self):
        return cold_sweep(_knob_sweep(), 0.008, 5)

    def test_degraded_in_process_drain_matches_serial(self, serial,
                                                      tmp_path):
        """workers=1 and no external workers: the caller drains itself."""
        queued = _knob_sweep().run(scale=0.008, seed=5,
                                   queue_dir=tmp_path / "q")
        assert not queued.failures
        assert _dump(queued) == _dump(serial)

    def test_worker_fleet_matches_serial(self, serial, tmp_path):
        queued = _knob_sweep().run(scale=0.008, seed=5, workers=2,
                                   queue_dir=tmp_path / "q")
        assert not queued.failures
        assert _dump(queued) == _dump(serial)

    def test_deterministic_failures_match_serial(self, tmp_path):
        """A bad cell fails terminally with the serial oracle's record."""
        def sweep():
            return Sweep(workloads=["MT"],
                         policies=["griffin", "no_such_policy"],
                         configs={"tiny": tiny_system(2)})

        serial = cold_sweep(sweep(), 0.008, 5)
        queued = sweep().run(scale=0.008, seed=5, queue_dir=tmp_path / "q")
        assert _dump(queued) == _dump(serial)
        assert _dump_failures(queued) == _dump_failures(serial)
        (failure,) = queued.failures.values()
        assert failure.error_type == "ValueError"
        assert failure.attempts == 1  # deterministic -> never retried


class TestWorkerDeath:
    def test_sigkilled_worker_lease_reclaimed_byte_identical(self, tmp_path):
        """The acceptance drill: SIGKILL a worker mid-cell.

        The killed worker's lease expires, a surviving worker reclaims
        the cell after backoff, and the final grid is byte-identical to
        the serial oracle with no leaked leases.
        """
        cfg = tiny_system(2)
        slow = SlowWorkload(
            get_workload("SC", scale=0.008, seed=5,
                         page_size=cfg.page_size),
            delay=2.0,
        )

        def make_sweep():
            return Sweep(workloads=[slow, "SC"], policies=["griffin"],
                         configs={"tiny": cfg})

        serial = cold_sweep(make_sweep(), 0.008, 5)
        assert not serial.failures

        grid = list(make_sweep()._grid(0.008, 5, None, 1_000_000))
        queue = SweepQueue.create(
            tmp_path / "q", plan_queue_cells(grid, code_fingerprint()),
            QueueSettings(lease_duration=1.0, max_attempts=3,
                          backoff_base=0.05, backoff_cap=0.2),
        )

        victim = _CTX.Process(target=run_worker, args=(str(tmp_path / "q"),),
                              kwargs={"owner": "victim"})
        victim.start()
        # The victim claims cell 0 (the slow one) first; kill it while
        # the cell is provably mid-execution.
        deadline = time.time() + 30.0
        while time.time() < deadline:
            if queue.rows()[0][1] == "leased":
                break
            time.sleep(0.02)
        else:
            pytest.fail("victim worker never leased the slow cell")
        os.kill(victim.pid, signal.SIGKILL)
        victim.join()

        report = run_worker(tmp_path / "q", owner="rescue")
        assert report.completed >= 1

        assert queue.drained()
        stats = queue.stats()
        assert stats.leased == 0 and stats.open == 0  # no leaked leases
        assert stats.done == 2 and stats.unhealthy == 0

        queued = queue.collect()
        assert not queued.failures
        assert _dump(queued) == _dump(serial)

        # The killed cell's row tells the story: two attempts (victim's
        # lost lease + rescue's), rescued by the survivor.
        idx, status, owner, last_owner, attempts = queue.rows()[0][:5]
        assert (status, attempts, last_owner) == ("done", 2, "rescue")

    def test_zombie_commit_after_reclaim_is_harmless(self, tmp_path):
        """A worker that loses its lease but still commits changes nothing."""
        def make_sweep():
            return Sweep(workloads=["SC"], policies=["griffin"],
                         configs={"tiny": tiny_system(2)})

        grid = list(make_sweep()._grid(0.008, 5, None, 1_000_000))
        queue = SweepQueue.create(
            tmp_path / "q", plan_queue_cells(grid, code_fingerprint()),
            QueueSettings(lease_duration=10.0, backoff_base=0.0),
        )
        zombie = queue.claim("zombie", now=time.time() - 100.0)
        queue.reap()  # the stale lease is reclaimed immediately
        rescue = run_worker(tmp_path / "q", owner="rescue")
        assert rescue.completed == 1
        first = queue.collect()
        # The zombie finishes late and commits anyway: first-writer-wins.
        from repro.harness.worker import execute_cell

        queue.complete(zombie.idx, "zombie", execute_cell(zombie.args))
        assert _dump(queue.collect()) == _dump(first)
        assert queue.stats().done == 1


class TestQuarantine:
    def test_hung_cell_is_killed_retried_then_quarantined(self, tmp_path):
        """cell_timeout + max_attempts: a hang costs one cell, bounded time.

        The hanging cell is SIGKILLed at every attempt, retried with
        backoff, then quarantined with an evidence bundle; the healthy
        cell of the grid still completes.
        """
        cfg = tiny_system(2)
        sweep = Sweep(workloads=[HangingWorkload(cfg.page_size), "SC"],
                      policies=["griffin"], configs={"tiny": cfg})
        result = sweep.run(scale=0.008, seed=5, queue_dir=tmp_path / "q",
                           cell_timeout=0.5, max_attempts=2,
                           backoff_base=0.05, backoff_cap=0.2)
        assert len(result.points) == 1  # SC completed
        (failure,) = result.failures.values()
        assert failure.error_type == "CellTimeout"
        assert failure.attempts == 2
        assert failure.bundle_path is not None
        manifest = json.loads(
            (Path(failure.bundle_path) / "manifest.json").read_text()
        )
        events = [e["event"] for e in manifest["history"]]
        assert events == ["claim", "retry", "claim", "quarantined"]


class TestCellTimeoutClassic:
    def test_classic_path_timeout_fails_one_cell(self):
        """Sweep.run(cell_timeout=...) without a queue_dir: same backstop.

        The temporary queue retries the timed-out cell under
        ``max_attempts``, then quarantines it, like any queue.
        """
        cfg = tiny_system(2)
        sweep = Sweep(workloads=[HangingWorkload(cfg.page_size), "SC"],
                      policies=["griffin"], configs={"tiny": cfg})
        result = sweep.run(scale=0.008, seed=5, cell_timeout=1.0,
                           max_attempts=2, backoff_base=0.05,
                           backoff_cap=0.2)
        assert len(result.points) == 1
        (failure,) = result.failures.values()
        assert failure.error_type == "CellTimeout"
        assert "wall-clock timeout" in failure.message
        assert failure.attempts == 2

    def test_supervised_results_match_serial(self):
        serial = cold_sweep(_knob_sweep(), 0.008, 5)
        supervised = _knob_sweep().run(scale=0.008, seed=5,
                                       cell_timeout=300.0)
        assert not supervised.failures
        assert _dump(supervised) == _dump(serial)
        assert supervised.forked_cells == 4


class TestQueueCLI:
    def test_sweep_queue_dir_and_worker_exit_codes(self, tmp_path, capsys):
        queue_dir = str(tmp_path / "q")
        code = main(["sweep", "--workloads", "MT", "--policies", "griffin",
                     "--scale", "0.008", "--seed", "5", "--gpus", "2",
                     "--queue-dir", queue_dir])
        assert code == 0
        out = capsys.readouterr().out
        assert "cells: 1 (forked 0, cold 1, cached 0)" in out
        # The queue is drained; a late worker attaches, finds nothing to
        # do, and exits cleanly.
        assert main(["worker", queue_dir]) == 0
        assert "0 claimed" in capsys.readouterr().out

    def test_worker_exits_nonzero_on_unhealthy_grid(self, tmp_path, capsys):
        code = main(["sweep", "--workloads", "MT",
                     "--policies", "griffin,no_such_policy",
                     "--scale", "0.008", "--seed", "5", "--gpus", "2",
                     "--queue-dir", str(tmp_path / "q")])
        assert code == 1  # failures surface in the sweep exit code
        capsys.readouterr()
        assert main(["worker", str(tmp_path / "q")]) == 1
        err = capsys.readouterr().err
        assert "no_such_policy" in err  # failure table on stderr

    def test_worker_rejects_missing_queue(self, tmp_path, capsys):
        assert main(["worker", str(tmp_path / "nope")]) == 2
        assert "no sweep queue" in capsys.readouterr().err


class TestWorkerDrainReport:
    """Regression: a drained worker always returns a structured report.

    Before the fix, a KeyboardInterrupt landing before the first claim
    (or mid-cell) escaped ``run_worker`` entirely — the fleet supervisor
    saw a crash where a graceful drain had happened.
    """

    def _make_queue(self, tmp_path):
        from tests.unit.test_queue import make_cells

        return SweepQueue.create(
            tmp_path / "q", make_cells(2),
            QueueSettings(lease_duration=10.0, max_attempts=3),
        )

    def test_interrupt_before_first_claim_returns_report(
            self, tmp_path, monkeypatch):
        self._make_queue(tmp_path)

        def interrupted_claim(self, owner, now=None):
            raise KeyboardInterrupt

        monkeypatch.setattr(SweepQueue, "claim", interrupted_claim)
        report = run_worker(tmp_path / "q", owner="drainee")
        assert report.interrupted and report.claimed == 0
        assert report.to_dict()["interrupted"] is True
        assert report.summary().endswith("(interrupted)")

    def test_interrupt_mid_cell_releases_lease_and_reports(
            self, tmp_path, monkeypatch):
        import repro.harness.worker as worker_mod

        queue = self._make_queue(tmp_path)

        def interrupted_execute(args, group_fp, cache):
            raise KeyboardInterrupt

        monkeypatch.setattr(worker_mod, "execute_cell", interrupted_execute)
        report = run_worker(tmp_path / "q", owner="drainee")
        assert report.interrupted
        assert report.claimed == 1 and report.released == 1
        health = queue.health()
        assert health.stats.leased == 0  # the lease went back, not stranded
        assert health.stats.open == 2

    def test_interrupt_during_queue_open_still_reports(
            self, tmp_path, monkeypatch):
        self._make_queue(tmp_path)
        original_open = SweepQueue.open.__func__

        def interrupted_open(cls, root):
            raise KeyboardInterrupt

        monkeypatch.setattr(SweepQueue, "open",
                            classmethod(interrupted_open))
        try:
            report = run_worker(tmp_path / "q", owner="drainee")
        finally:
            monkeypatch.setattr(SweepQueue, "open",
                                classmethod(original_open))
        assert report.interrupted and report.claimed == 0
