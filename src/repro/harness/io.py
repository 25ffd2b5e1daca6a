"""Result serialization: save/load runs as JSON for offline analysis."""

from __future__ import annotations

import json
import os
import pickle
import threading
from pathlib import Path
from typing import Optional, Union

from repro.harness.results import FailedRun, RunResult
from repro.mem.access import AccessKind
from repro.metrics.occupancy import OccupancySnapshot
from repro.metrics.timeline import MigrationEvent

_SCHEMA_VERSION = 1


def result_to_dict(result: RunResult) -> dict:
    """Convert a run result to a JSON-serializable dictionary.

    The ``bundle`` key is emitted only when a crash bundle was written,
    and ``cpu_pages_covered`` is deliberately not serialized at all:
    both rules keep the committed golden files byte-identical for runs
    that produce no bundle (the parity suites compare the full dict).
    """
    payload = {
        "schema": _SCHEMA_VERSION,
        "workload": result.workload,
        "policy": result.policy,
        "cycles": result.cycles,
        "transactions": result.transactions,
        "occupancy": {
            "pages_per_gpu": list(result.occupancy.pages_per_gpu),
            "cpu_pages": result.occupancy.cpu_pages,
        },
        "cpu_shootdowns": result.cpu_shootdowns,
        "gpu_shootdowns": result.gpu_shootdowns,
        "cpu_to_gpu_migrations": result.cpu_to_gpu_migrations,
        "gpu_to_gpu_migrations": result.gpu_to_gpu_migrations,
        "dftm_denials": result.dftm_denials,
        "kind_counts": {k.value: v for k, v in result.kind_counts.items()},
        "local_fraction": result.local_fraction,
        "migration_events": [
            {"time": e.time, "page": e.page, "src": e.src, "dst": e.dst}
            for e in result.migration_events
        ],
        "seed": result.seed,
        "scale": result.scale,
        "resilience": {
            "migration_retries": result.migration_retries,
            "migration_fallbacks": result.migration_fallbacks,
            "pages_pinned": result.pages_pinned,
            "shootdown_timeouts": result.shootdown_timeouts,
            "transfers_dropped": result.transfers_dropped,
        },
        "events_executed": result.events_executed,
    }
    if result.bundle_path is not None:
        payload["bundle"] = result.bundle_path
    return payload


def result_from_dict(data: dict) -> RunResult:
    """Rebuild a run result from :func:`result_to_dict` output."""
    schema = data.get("schema")
    if schema != _SCHEMA_VERSION:
        raise ValueError(f"unsupported result schema {schema!r}")
    return RunResult(
        workload=data["workload"],
        policy=data["policy"],
        cycles=data["cycles"],
        transactions=data["transactions"],
        occupancy=OccupancySnapshot(
            tuple(data["occupancy"]["pages_per_gpu"]),
            data["occupancy"]["cpu_pages"],
        ),
        cpu_shootdowns=data["cpu_shootdowns"],
        gpu_shootdowns=data["gpu_shootdowns"],
        cpu_to_gpu_migrations=data["cpu_to_gpu_migrations"],
        gpu_to_gpu_migrations=data["gpu_to_gpu_migrations"],
        dftm_denials=data["dftm_denials"],
        kind_counts={AccessKind(k): v for k, v in data["kind_counts"].items()},
        local_fraction=data["local_fraction"],
        migration_events=[
            MigrationEvent(e["time"], e["page"], e["src"], e["dst"])
            for e in data["migration_events"]
        ],
        seed=data["seed"],
        scale=data["scale"],
        # Pre-resilience files simply lack these; default them to zero.
        migration_retries=data.get("resilience", {}).get("migration_retries", 0),
        migration_fallbacks=data.get("resilience", {}).get("migration_fallbacks", 0),
        pages_pinned=data.get("resilience", {}).get("pages_pinned", 0),
        shootdown_timeouts=data.get("resilience", {}).get("shootdown_timeouts", 0),
        transfers_dropped=data.get("resilience", {}).get("transfers_dropped", 0),
        events_executed=data.get("events_executed", 0),
        bundle_path=data.get("bundle"),
    )


def failed_to_dict(failed: FailedRun) -> dict:
    """Convert a failed-run record to a JSON-serializable dictionary.

    ``bundle``, ``attempts``, and ``last_owner`` are emitted only when
    they carry information (a bundle exists, more than one attempt ran,
    a queue worker owned the cell), so files written before those fields
    existed — and in-process sweeps, which never set them — keep their
    exact byte layout.
    """
    payload = {
        "schema": _SCHEMA_VERSION,
        "workload": failed.workload,
        "policy": failed.policy,
        "error_type": failed.error_type,
        "message": failed.message,
    }
    if failed.bundle_path is not None:
        payload["bundle"] = failed.bundle_path
    if failed.attempts != 1:
        payload["attempts"] = failed.attempts
    if failed.last_owner is not None:
        payload["last_owner"] = failed.last_owner
    return payload


def failed_from_dict(data: dict) -> FailedRun:
    """Rebuild a failed-run record from :func:`failed_to_dict` output."""
    schema = data.get("schema")
    if schema != _SCHEMA_VERSION:
        raise ValueError(f"unsupported result schema {schema!r}")
    return FailedRun(
        workload=data["workload"],
        policy=data["policy"],
        error_type=data["error_type"],
        message=data["message"],
        bundle_path=data.get("bundle"),
        attempts=data.get("attempts", 1),
        last_owner=data.get("last_owner"),
    )


def sweep_key_to_dict(key) -> dict:
    """Serialize a :class:`repro.harness.sweep.SweepKey` for the wire."""
    return {
        "workload": key.workload,
        "policy": key.policy,
        "config": key.config,
        "hyper": key.hyper,
        "fault": key.fault,
    }


def sweep_result_to_dict(result) -> dict:
    """Serialize a :class:`repro.harness.sweep.SweepResult` for the wire.

    Cells appear in iteration (grid) order, each carrying its key and
    either a :func:`result_to_dict` payload or a :func:`failed_to_dict`
    payload, so a client can reassemble the exact structure
    ``Sweep.run()`` returns — the per-result dicts are byte-identical to
    locally serialized ones by construction.
    """
    return {
        "schema": _SCHEMA_VERSION,
        "points": [
            {"key": sweep_key_to_dict(key), "result": result_to_dict(run)}
            for key, run in result.points.items()
        ],
        "failures": [
            {"key": sweep_key_to_dict(key), "failure": failed_to_dict(failed)}
            for key, failed in result.failures.items()
        ],
    }


def save_result(result: RunResult, path: Union[str, Path]) -> Path:
    """Write a run result to a JSON file; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(result_to_dict(result), indent=2))
    return path


def load_result(path: Union[str, Path]) -> RunResult:
    """Read a run result back from :func:`save_result` output."""
    return result_from_dict(json.loads(Path(path).read_text()))


class SweepResultCache:
    """The fingerprint store: one result per cell, one snapshot per prefix.

    ``Sweep.run``, every :class:`repro.harness.queue.SweepQueue` worker
    and ``repro serve`` share this store: queue workers commit results
    into it, and ``resume`` / the service serve hits from it.

    Layout: ``<root>/results/<fingerprint>.json`` holds one result per
    completed cell (compact :func:`result_to_dict` JSON) and
    ``<root>/snapshots/<fingerprint>.pkl`` one pickled
    ``(MachineSnapshot, meta)`` pair per shared prefix.  Fingerprints
    (see :func:`repro.harness.sweep.cell_fingerprint`) already include
    the source-tree fingerprint, so entries from older code are simply
    never looked up; a corrupt or truncated entry reads as a miss.
    Failures are never stored — a flaky cell gets re-run, not replayed.
    Every write is atomic (temp file + rename), so concurrent workers
    storing the same entry never expose a torn file; the last writer
    wins with identical bytes.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        (self.root / "results").mkdir(parents=True, exist_ok=True)
        (self.root / "snapshots").mkdir(parents=True, exist_ok=True)

    def _result_path(self, fingerprint: str) -> Path:
        return self.root / "results" / f"{fingerprint}.json"

    def _snapshot_path(self, fingerprint: str) -> Path:
        return self.root / "snapshots" / f"{fingerprint}.pkl"

    @staticmethod
    def _write(path: Path, data: bytes) -> Path:
        tmp = path.with_name(
            f"{path.name}.tmp-{os.getpid()}-{threading.get_ident()}"
        )
        tmp.write_bytes(data)
        os.replace(tmp, path)
        return path

    def load(self, fingerprint: str) -> Optional[RunResult]:
        """The cached result for a cell fingerprint, or None on miss."""
        try:
            return load_result(self._result_path(fingerprint))
        except Exception:
            return None

    def store(self, fingerprint: str, result: RunResult) -> Path:
        """Persist one completed cell under its fingerprint."""
        text = json.dumps(result_to_dict(result), separators=(",", ":"),
                          check_circular=False)
        return self._write(self._result_path(fingerprint), text.encode())

    def load_snapshot(self, fingerprint: str):
        """The cached ``(snapshot, meta)`` for a group, or None on miss."""
        try:
            return pickle.loads(self._snapshot_path(fingerprint).read_bytes())
        except Exception:
            return None

    def store_snapshot(self, fingerprint: str, payload) -> None:
        """Persist one group's prefix snapshot under its fingerprint."""
        self._write(self._snapshot_path(fingerprint),
                    pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
