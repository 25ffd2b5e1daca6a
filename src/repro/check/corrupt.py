"""Seeded state corruption: the sanitizer's drill mode.

A :class:`StateCorruptor` turns each :class:`CorruptionSpec` of the
attached :class:`~repro.check.config.CheckConfig` into an ordinary engine
event (``post_at`` of a bound method with a frozen spec argument).  That
choice does the heavy lifting for replay: a warm
:class:`~repro.sim.snapshot.MachineSnapshot` captured before ``at_cycle``
pickles the pending corruption event along with the rest of the queue, so
forking the snapshot reproduces both the corruption and its detection
deterministically — no re-arming, no wall-clock dependence.

The corruptions are deliberately *silent* with respect to the sanitizer's
bookkeeping: they damage raw simulation state behind the monitors' backs,
exactly like the bug classes they stand in for.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.check.config import CorruptionSpec
from repro.sim.component import Component
from repro.sim.event import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.system.machine import Machine


class StateCorruptor(Component):
    """Applies :class:`CorruptionSpec` drills at their scheduled cycles."""

    def __init__(self, machine: "Machine",
                 specs: Iterable[CorruptionSpec]) -> None:
        super().__init__(machine.engine, "checks.corruptor")
        self.machine = machine
        self.specs = tuple(specs)

    def arm(self) -> None:
        """Schedule every corruption as a plain engine event."""
        for spec in self.specs:
            self.engine.post_at(float(spec.at_cycle), self._apply, spec)

    # ------------------------------------------------------------------

    def _apply(self, spec: CorruptionSpec) -> None:
        self.bump(f"applied_{spec.kind}")
        getattr(self, f"_{spec.kind}")(spec)

    def _pick_page(self, spec: CorruptionSpec, want_device=None) -> int:
        """Resolve the target page (explicit, or first live match)."""
        if spec.page is not None:
            return spec.page
        table = self.machine.page_table
        for page, entry in table._entries.items():
            if want_device is None or entry.device == want_device:
                return page
        # Nothing touched yet: a synthetic high page is still corrupting
        # (it appears in a TLB / count without any table backing).
        return 1 << 30

    def _ownership_count(self, spec: CorruptionSpec) -> None:
        """Skew one GPU's resident count without moving any page."""
        self.machine.page_table._gpu_page_counts[spec.gpu] += 1

    def _ownership_device(self, spec: CorruptionSpec) -> None:
        """Flip one page's owner without maintaining the counts."""
        table = self.machine.page_table
        page = spec.page
        if page is None:
            for candidate, entry in table._entries.items():
                if entry.device != spec.gpu:
                    page = candidate
                    break
            else:
                page = 1 << 30
        entry = table.entry(page)
        entry.device = spec.gpu
        entry.migrating = False

    def _tlb_stale(self, spec: CorruptionSpec) -> None:
        """Insert a translation the page table contradicts."""
        gpu = self.machine.gpus[spec.gpu]
        page = spec.page
        if page is None:
            table = self.machine.page_table
            for candidate, entry in table._entries.items():
                if entry.device != spec.gpu:
                    page = candidate
                    break
            else:
                page = 1 << 30
        gpu.l2_tlb.insert(page, spec.gpu)

    def _past_event(self, spec: CorruptionSpec) -> None:
        """Push an event timestamped before the current cycle."""
        past = max(0.0, self.engine.now - 1000.0)
        self.engine._queue.push(Event(past, self._noop), False)

    def _noop(self) -> None:
        """Target of the past_event drill (picklable bound method)."""
