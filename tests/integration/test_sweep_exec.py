"""Sweep execution: fork/cold, in-process/worker fleet, store/resume.

The contract under test: a sweep's results are a pure function of its
grid — identical bytes in identical key order no matter how it executes
(``fork`` on or off, any ``workers``, resumed from the store or fresh),
and identical to a cold loop of ``run_workload`` over the grid.
"""

from __future__ import annotations

import json
import tempfile

import pytest

from repro.config.hyperparams import GriffinHyperParams
from repro.config.presets import tiny_system
from repro.harness.io import result_to_dict
from repro.harness.sweep import (
    Sweep,
    cell_fingerprint,
    group_fingerprint,
)
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
    """(key, serialized result) pairs in iteration order."""
    return [
        (str(key), json.dumps(result_to_dict(run), sort_keys=True))
        for key, run in result.points.items()
    ]


class TestExecutionParity:
    @pytest.fixture(scope="class")
    def oracle(self):
        return cold_sweep(_knob_sweep(), 0.008, 5)

    @pytest.fixture(scope="class")
    def serial(self):
        return _knob_sweep().run(scale=0.008, seed=5)

    def test_serial_fork_matches_cold(self, serial, oracle):
        cold = _knob_sweep().run(scale=0.008, seed=5, fork=False)
        assert not serial.failures and not cold.failures
        assert _dump(serial) == _dump(oracle)
        assert _dump(cold) == _dump(oracle)
        assert serial.forked_cells == 4 and serial.cold_cells == 0
        assert cold.forked_cells == 0 and cold.cold_cells == 4

    def test_parallel_matches_serial(self, serial, oracle):
        """Two local workers: same bytes, same order, same fork counters."""
        parallel = _knob_sweep().run(scale=0.008, seed=5, workers=2)
        assert not parallel.failures
        assert _dump(parallel) == _dump(oracle)
        assert parallel.forked_cells == 4 and parallel.cold_cells == 0
        assert parallel.fork_groups == serial.fork_groups == 1
        assert parallel.prefix_events == serial.prefix_events

    def test_group_planning(self, serial):
        # griffin/griffin_flush x default/eager differ only in late
        # fields -> one shared prefix for all four cells.
        assert serial.fork_groups == 1
        assert serial.prefix_events > 0


class TestBlastRadius:
    def test_unpicklable_cell_does_not_kill_its_chunk(self):
        """A cell whose inputs cannot pickle still runs.

        Forked local workers inherit the in-memory grid, so nothing is
        pickled on the way to them; only external ``repro worker``
        processes need a pickled grid.
        """
        workload = get_workload("MT", scale=0.008, seed=5,
                                page_size=tiny_system(2).page_size)
        workload.poison = lambda: None  # closures cannot pickle
        sweep = Sweep(
            workloads=[workload],
            policies=["baseline", "griffin"],
            configs={"tiny": tiny_system(2)},
        )
        result = sweep.run(scale=0.008, seed=5, workers=2)
        assert not result.failures
        assert len(result.points) == 2
        assert {k.policy for k in result.points} == {"baseline", "griffin"}

    def test_bad_cell_fails_alone_in_a_chunk(self):
        sweep = Sweep(
            workloads=["MT"],
            policies=["griffin", "no_such_policy"],
            configs={"tiny": tiny_system(2)},
        )
        result = sweep.run(scale=0.008, seed=5, workers=2)
        assert len(result.points) == 1
        assert len(result.failures) == 1
        (failure,) = result.failures.values()
        assert failure.error_type == "ValueError"


class TestCacheResume:
    def test_resume_reruns_only_incomplete_cells(self, tmp_path):
        """A killed-then-resumed sweep serves finished cells from disk."""
        # "Interrupted" sweep: only the griffin half of the grid ran.
        partial = Sweep(
            workloads=["MT"], policies=["griffin"],
            configs={"tiny": tiny_system(2)},
            hypers={"default": _BASE,
                    "eager": _BASE.with_overrides(min_pages_per_source=1)},
        )
        first = partial.run(scale=0.008, seed=5, cache_dir=tmp_path)
        assert first.cache_hits == 0 and first.cache_misses == 2

        full = Sweep(
            workloads=["MT"], policies=["griffin", "griffin_flush"],
            configs={"tiny": tiny_system(2)},
            hypers={"default": _BASE,
                    "eager": _BASE.with_overrides(min_pages_per_source=1)},
        )
        resumed = full.run(scale=0.008, seed=5, cache_dir=tmp_path,
                           resume=True)
        assert resumed.cache_hits == 2  # the cells the partial sweep ran
        assert resumed.cache_misses == 2  # only griffin_flush cells ran
        assert len(resumed.points) == 4

        assert _dump(resumed) == _dump(cold_sweep(full, 0.008, 5))

    def test_cache_dir_without_resume_never_reads(self, tmp_path):
        sweep = Sweep(workloads=["MT"], policies=["griffin"],
                      configs={"tiny": tiny_system(2)})
        sweep.run(scale=0.008, seed=5, cache_dir=tmp_path)
        again = sweep.run(scale=0.008, seed=5, cache_dir=tmp_path)
        assert again.cache_hits == 0 and again.cache_misses == 1

    def test_failures_are_never_cached(self, tmp_path):
        sweep = Sweep(workloads=["MT"], policies=["griffin"],
                      configs={"tiny": tiny_system(2)})
        starved = sweep.run(scale=0.008, seed=5, cache_dir=tmp_path,
                            max_events_per_run=10)
        assert len(starved.failures) == 1
        assert not list((tmp_path / "results").glob("*.json"))


class TestProgress:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_progress_fires_once_per_settled_cell(self, workers):
        calls = []
        result = _knob_sweep().run(
            scale=0.008, seed=5, workers=workers,
            progress=lambda done, total, key: calls.append(
                (done, total, key)),
        )
        assert [done for done, _t, _k in calls] == [1, 2, 3, 4]
        assert {total for _d, total, _k in calls} == {4}
        assert sorted(map(str, (key for _d, _t, key in calls))) == sorted(
            map(str, result.points))

    def test_resumed_hits_report_progress(self, tmp_path):
        _knob_sweep().run(scale=0.008, seed=5, cache_dir=tmp_path)
        calls = []
        again = _knob_sweep().run(
            scale=0.008, seed=5, cache_dir=tmp_path, resume=True,
            progress=lambda done, total, key: calls.append(key),
        )
        assert again.cache_hits == 4
        assert calls == list(again.points)


class TestNoLeftovers:
    def test_storeless_sweep_removes_its_queue_and_store(self, tmp_path,
                                                         monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        result = _knob_sweep().run(scale=0.008, seed=5, workers=2)
        assert len(result.points) == 4
        assert list(tmp_path.iterdir()) == []


class TestFingerprints:
    def _args(self, hyper=_BASE, policy="griffin", seed=5, checks=None):
        return ("MT", policy, tiny_system(2), hyper, 0.008, seed,
                None, None, 1_000_000, checks, None)

    def test_cell_fingerprint_sensitivity(self):
        base = cell_fingerprint(self._args())
        assert base is not None
        assert cell_fingerprint(self._args()) == base
        assert cell_fingerprint(self._args(seed=6)) != base
        assert cell_fingerprint(self._args(), code_fp="other") != base

    def test_group_fingerprint_masks_late_fields_only(self):
        base = group_fingerprint(self._args())
        late = group_fingerprint(
            self._args(hyper=_BASE.with_overrides(lambda_d=9.9))
        )
        assert late == base  # lambda_d is a late knob -> same prefix
        assert group_fingerprint(self._args(policy="griffin_flush")) == base
        early = group_fingerprint(
            self._args(hyper=_BASE.with_overrides(t_ac=999))
        )
        assert early != base  # t_ac feeds warm-up -> different prefix

    def test_ungroupable_cells(self):
        workload = get_workload("MT", scale=0.008, seed=5,
                                page_size=tiny_system(2).page_size)
        object_cell = (workload,) + self._args()[1:]
        assert group_fingerprint(object_cell) is None
        assert cell_fingerprint(object_cell) is None
        assert group_fingerprint(self._args(policy="nope")) is None
        predictive = self._args(policy="griffin_predictive")
        assert group_fingerprint(predictive) is None
        assert cell_fingerprint(predictive) is not None
