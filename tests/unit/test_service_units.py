"""Unit tests for the service guards and the sweep wire format.

Everything here runs without sockets or workers: the admission budget,
deadline, circuit breaker and fleet supervisor take injectable clocks
(the fleet a fake process too), and ``sweep_from_spec`` is pure
validation.
"""

from __future__ import annotations

import pytest

from repro.harness.queue import QueueSettings, SweepQueue
from repro.harness.sweep import (
    SpecError,
    partition_cached_cells,
    sweep_from_spec,
)
from repro.service.admission import (
    AdmissionController,
    AdmissionLimitExceeded,
    CircuitBreaker,
    Deadline,
)
from repro.service.fleet import FleetSupervisor
from tests.unit.test_queue import make_cells


class FakeClock:
    def __init__(self, start: float = 0.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestSweepFromSpec:
    def test_minimal_spec_builds_default_axes(self):
        sweep, params = sweep_from_spec(
            {"workloads": ["MT"], "policies": ["baseline"]}
        )
        assert sweep.workloads == ["MT"] and sweep.policies == ["baseline"]
        assert sweep.configs is None and sweep.size() == 1
        assert params["scale"] == pytest.approx(0.015)
        assert params["seed"] == 3
        assert params["max_events_per_run"] is None
        assert params["stall_threshold"] == 1_000_000

    def test_full_spec_round_trips_every_axis(self):
        sweep, params = sweep_from_spec({
            "workloads": ["MT", "SC"],
            "policies": ["baseline", "griffin"],
            "configs": {"tiny": {"preset": "tiny", "gpus": 2,
                                 "fabric": "pcie"}},
            "hypers": {"eager": {"min_pages_per_source": 1}},
            "faults": {"chaos": {"migration_drop_rate": 0.3}, "none": None},
            "scale": 0.008, "seed": 5, "max_events": 1000,
        })
        assert sweep.size() == 2 * 2 * 1 * 1 * 2
        assert sweep.configs["tiny"].num_gpus == 2
        assert sweep.hypers["eager"].min_pages_per_source == 1
        assert sweep.faults["chaos"].migration_drop_rate == pytest.approx(0.3)
        assert sweep.faults["none"] is None
        assert params["scale"] == pytest.approx(0.008)
        assert params["max_events_per_run"] == 1000

    @pytest.mark.parametrize("spec, fragment", [
        ("not a dict", "JSON object"),
        ({}, "'workloads'"),
        ({"workloads": ["MT"]}, "'policies'"),
        ({"workloads": ["NOPE"], "policies": ["baseline"]}, "NOPE"),
        ({"workloads": ["MT"], "policies": ["warp_drive"]}, "warp_drive"),
        ({"workloads": ["MT"], "policies": ["baseline"],
          "bogus_key": 1}, "bogus_key"),
        ({"workloads": ["MT"], "policies": ["baseline"],
          "configs": {"x": {"preset": "galactic"}}}, "galactic"),
        ({"workloads": ["MT"], "policies": ["baseline"],
          "hypers": {"h": {"warp_factor": 9}}}, "warp_factor"),
        ({"workloads": ["MT"], "policies": ["baseline"],
          "faults": {"f": {"gremlins": 3}}}, "gremlins"),
        ({"workloads": ["MT"], "policies": ["baseline"],
          "scale": -1.0}, "scale"),
        ({"workloads": ["MT"], "policies": ["baseline"],
          "seed": "five"}, "seed"),
    ])
    def test_bad_specs_rejected_with_named_field(self, spec, fragment):
        with pytest.raises(SpecError, match=fragment):
            sweep_from_spec(spec)

    def test_partition_against_empty_cache(self, tmp_path):
        from repro.harness.io import SweepResultCache
        from repro.harness.sweep import plan_queue_cells

        sweep, params = sweep_from_spec(
            {"workloads": ["MT"], "policies": ["baseline", "griffin"]}
        )
        grid = list(sweep._grid(params["scale"], params["seed"],
                                None, params["stall_threshold"], None, None))
        cells = plan_queue_cells(grid, "codefp")
        cached, missing = partition_cached_cells(
            cells, SweepResultCache(tmp_path)
        )
        assert cached == [] and missing == cells


class TestAdmissionController:
    def test_admits_until_budget_then_429s(self):
        ctl = AdmissionController(max_in_flight_cells=10, retry_after=2.5)
        ctl.admit(6)
        ctl.admit(4)
        assert ctl.in_flight == 10
        with pytest.raises(AdmissionLimitExceeded) as err:
            ctl.admit(1)
        assert err.value.retry_after == pytest.approx(2.5)
        assert ctl.in_flight == 10  # refusal holds nothing

    def test_release_reopens_budget(self):
        ctl = AdmissionController(max_in_flight_cells=4)
        ctl.admit(4)
        ctl.release(3)
        ctl.admit(2)
        assert ctl.in_flight == 3

    def test_release_never_goes_negative(self):
        ctl = AdmissionController(max_in_flight_cells=4)
        ctl.release(99)
        assert ctl.in_flight == 0

    def test_zero_cell_submission_always_admitted(self):
        ctl = AdmissionController(max_in_flight_cells=1)
        ctl.admit(1)
        ctl.admit(0)  # fully cached submissions cost nothing


class TestDeadline:
    def test_none_never_expires(self):
        clock = FakeClock()
        deadline = Deadline(None, clock=clock)
        clock.advance(1e9)
        assert not deadline.expired
        assert deadline.remaining == float("inf")

    def test_expires_on_schedule(self):
        clock = FakeClock(100.0)
        deadline = Deadline(5.0, clock=clock)
        clock.advance(4.9)
        assert not deadline.expired
        clock.advance(0.2)
        assert deadline.expired and deadline.remaining < 0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Deadline(0.0)


class TestCircuitBreaker:
    def make(self, threshold=3, reset=30.0):
        clock = FakeClock()
        return CircuitBreaker(failure_threshold=threshold,
                              reset_after=reset, clock=clock), clock

    def test_closed_until_threshold(self):
        breaker, _clock = self.make()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED and breaker.allow()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN and not breaker.allow()

    def test_success_resets_the_count(self):
        breaker, _clock = self.make()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_admits_exactly_one_trial(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.advance(31.0)
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.allow()        # the trial
        assert not breaker.allow()    # everyone else still refused

    def test_trial_success_closes(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.advance(31.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow() and breaker.allow()

    def test_trial_failure_reopens(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.advance(31.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.retry_after == pytest.approx(30.0)

    def test_aborted_trial_returns_to_half_open(self):
        # A deadline-cancelled trial is not a fleet verdict: the next
        # compute request must get its own trial rather than finding the
        # circuit pinned cache-only forever.
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.advance(31.0)
        assert breaker.allow()
        breaker.abort_trial()
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.allow()

    def test_retry_after_counts_down(self):
        breaker, clock = self.make(reset=10.0)
        for _ in range(3):
            breaker.record_failure()
        assert breaker.retry_after == pytest.approx(10.0)
        clock.advance(4.0)
        assert breaker.retry_after == pytest.approx(6.0)
        assert breaker.to_dict()["state"] == "open"


class _ExitedProc:
    """A fleet process that has already died (no real worker needed)."""

    pid = None
    exitcode = 1
    sentinel = -1

    def is_alive(self) -> bool:
        return False

    def join(self, timeout=None) -> None:
        pass


class TestFleetRestartTimer:
    def test_next_restart_in_counts_down_the_backoff(self, tmp_path):
        clock = FakeClock(100.0)
        queue = SweepQueue.create(
            tmp_path / "q", make_cells(2),
            QueueSettings(lease_duration=10.0, max_attempts=3),
        )
        fleet = FleetSupervisor(queue, size=1, restart_base=2.0,
                                restart_cap=8.0, clock=clock,
                                worker_factory=lambda _dir: _ExitedProc())
        fleet.start()
        assert fleet.notify_fd is None  # custom factories do not notify
        assert fleet.next_restart_in() is None  # the slot holds a process
        fleet.poll()  # died with live cells: restart after the backoff
        assert fleet.sentinels == {}
        assert fleet.next_restart_in() == 2.0  # attempt 1 waits the base
        clock.advance(1.5)
        assert fleet.next_restart_in() == 0.5
        clock.advance(5.0)
        assert fleet.next_restart_in() == 0.0
        fleet.poll()  # due: the slot gets a new process
        assert fleet.next_restart_in() is None
        assert list(fleet.sentinels) == [-1]
