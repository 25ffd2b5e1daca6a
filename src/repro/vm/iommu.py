"""IOMMU model: multithreaded page-table walkers on the CPU die.

Translation requests that miss a GPU's L2 TLB travel over the inter-device
fabric to the IOMMU, queue for one of ``num_walkers`` page-table walkers
(paper: 8), and resolve against the system page table.  Resolution policy
(fault handling, DFTM, batching) is injected by the machine as the
``resolver`` callback so the same IOMMU serves both the baseline FCFS
scheme and Griffin.

The walker pool also reproduces the arbitration bias the paper blames for
part of the first-touch imbalance: requests are timestamped through a
:class:`~repro.interconnect.arbiter.BiasedArbiter`, giving the GPU that has
been winning grants a small head start in the queue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.config.system import IOMMUConfig
from repro.interconnect.arbiter import BiasedArbiter
from repro.interconnect.link import CPU_PORT, InterconnectFabric
from repro.mem.access import MemoryTransaction
from repro.sim.component import Component
from repro.sim.engine import Engine
from repro.sim.resource import SlotResource

TRANSLATION_MSG_BYTES = 64

Resolver = Callable[[MemoryTransaction, float, Callable], None]


@dataclass
class TranslationRequest:
    """A translation in flight through the IOMMU (debug/introspection)."""

    txn: MemoryTransaction
    arrived: float
    walk_done: float


class IOMMU(Component):
    """The I/O memory management unit, physically on the CPU."""

    def __init__(
        self,
        engine: Engine,
        config: IOMMUConfig,
        fabric: InterconnectFabric,
        arbiter: BiasedArbiter,
    ) -> None:
        super().__init__(engine, "iommu")
        self.config = config
        self.fabric = fabric
        self.arbiter = arbiter
        self.walkers = SlotResource("iommu.ptw", config.num_walkers)
        self.resolver: Optional[Resolver] = None
        self._post_abs = engine.post_at
        self._walk_latency = config.walk_latency

    def translate(self, txn: MemoryTransaction, request_time: float, on_data_complete: Callable) -> None:
        """Walk the page table for ``txn``; hand off to the resolver.

        ``request_time`` is when the L2 TLB miss leaves the GPU.  Each leg
        (fabric crossing, walker occupancy) fires as its own event at its
        start time so shared resources are acquired in simulated-time
        order.  The resolver is invoked at walk completion with
        ``(txn, walk_done_time, on_data_complete)``.
        """
        if self.resolver is None:
            raise RuntimeError("IOMMU resolver not wired; build via Machine")
        self.bump("translation_requests")
        now = self.engine._now
        self._post_abs(
            request_time if request_time > now else now,
            self._send_request, txn, on_data_complete,
        )

    def _send_request(self, txn: MemoryTransaction, on_data_complete: Callable) -> None:
        effective = self.arbiter.effective_time(txn.gpu_id, self.engine._now)
        self.arbiter.grant(txn.gpu_id)
        arrive = self.fabric.transfer(
            effective, txn.gpu_id, CPU_PORT, TRANSLATION_MSG_BYTES
        )
        now = self.engine._now
        self._post_abs(
            arrive if arrive > now else now,
            self._start_walk, txn, on_data_complete,
        )

    def _start_walk(self, txn: MemoryTransaction, on_data_complete: Callable) -> None:
        now = self.engine._now
        walk_done = self.walkers.acquire(now, self._walk_latency)
        self._post_abs(
            walk_done if walk_done > now else now, self.resolver, txn,
            walk_done, on_data_complete,
        )

    def reply_time(self, send_time: float, gpu_id: int) -> float:
        """Time the translation reply reaches the requesting GPU."""
        return self.fabric.transfer(
            send_time, CPU_PORT, gpu_id, TRANSLATION_MSG_BYTES
        )
