"""Deterministic machine snapshots: capture once, fork many.

A snapshot is a pickle of the *entire* machine graph — engine clock,
event queue (heap + same-cycle lane, with pending callbacks as bound
methods/partials), caches, TLBs, page table, DPC filter arrays, RNG
streams — taken while the engine is paused between events.  Forking
deserializes that payload into an independent machine that continues
byte-identically to the run it was captured from: the parity suite pins
``snapshot() -> fork() -> finish()`` against uninterrupted runs.

Two details make this exact rather than approximate:

* Components whose hot-path state is not naively picklable implement the
  state-capture protocol (``__getstate__``/``__setstate__``):
  ``id()``-keyed counter dicts travel in enum order, and the engine
  refuses capture mid-callback (see ``Engine.__getstate__``).
* The workload trace (kernels/workgroups/wavefront access lists) is
  immutable after construction, so it is serialized *by reference*: the
  payload stores a persistent id per trace object and every fork shares
  the one in-memory copy.  This keeps payloads proportional to live
  simulation state, not workload size, and is what makes shipping a
  snapshot to a worker once per chunk cheap.
"""

from __future__ import annotations

import io
import pickle
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.system.machine import Machine


class _SharedPickler(pickle.Pickler):
    """Serialize registered shared objects as persistent ids."""

    def __init__(self, file, shared_ids: dict) -> None:
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._shared_ids = shared_ids

    def persistent_id(self, obj):
        return self._shared_ids.get(id(obj))


class _SharedUnpickler(pickle.Unpickler):
    """Resolve persistent ids back to the shared in-memory objects."""

    def __init__(self, file, shared: list) -> None:
        super().__init__(file)
        self._shared = shared

    def persistent_load(self, pid):
        return self._shared[pid]


@dataclass
class MachineSnapshot:
    """A forkable copy of a paused machine.

    Attributes:
        payload: Pickled machine graph, shared objects as persistent ids.
        shared: Persistent-id table (index -> object); the objects are
            immutable workload traces, shared by every fork.
        cycle: Engine clock at capture time.
        events_executed: Events the captured run had executed — forks
            inherit this, so event budgets span prefix + continuation
            exactly like an uninterrupted run.
    """

    payload: bytes
    shared: list = field(repr=False)
    cycle: float
    events_executed: int

    @classmethod
    def capture(cls, machine: "Machine") -> "MachineSnapshot":
        shared = machine.shared_snapshot_objects()
        shared_ids = {id(obj): index for index, obj in enumerate(shared)}
        buffer = io.BytesIO()
        _SharedPickler(buffer, shared_ids).dump(machine)
        return cls(
            payload=buffer.getvalue(),
            shared=shared,
            cycle=machine.engine.now,
            events_executed=machine.engine.events_executed,
        )

    def fork(self) -> "Machine":
        """Materialize an independent machine from the captured state."""
        return _SharedUnpickler(io.BytesIO(self.payload), self.shared).load()
