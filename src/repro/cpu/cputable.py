"""The multi-threaded CPU hash table baseline.

Structurally identical to the GPU table (it literally reuses
:class:`~repro.core.hashtable.GpuHashTable` with the same organizations) but

* the heap is sized from *CPU* memory, so the pool never runs dry and no
  insert is ever postponed -- SEPO is inert, matching the paper's baseline;
* batches are charged to the :data:`~repro.gpusim.device.XEON_E5_QUAD` cost
  model: 8 threads with a strong per-core IPC, cheap locks (contention still
  exists "but not as much"), and no PCIe or kernel-launch costs beyond a
  small parallel-section spawn.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.core.hashtable import GpuHashTable, run_fits
from repro.core.organizations import Organization
from repro.core.records import RecordBatch
from repro.gpusim.clock import CostLedger
from repro.gpusim.device import DeviceSpec, XEON_E5_QUAD
from repro.gpusim.kernel import KernelModel
from repro.gpusim.memory import DeviceMemory
from repro.memalloc.heap import GpuHeap

__all__ = ["CpuHashTable", "CpuRunReport"]


@dataclass
class CpuRunReport:
    """Result of a single-pass CPU run."""

    total_records: int
    elapsed_seconds: float
    breakdown: dict[str, float]
    table_bytes: int


class CpuHashTable:
    """Same table design, CPU residency, CPU cost model, no SEPO."""

    def __init__(
        self,
        n_buckets: int,
        organization: Organization,
        group_size: int = 64,
        device: DeviceSpec = XEON_E5_QUAD,
        page_size: int = 1 << 16,
        max_heap_bytes: int = 1 << 28,
        sanitize: str | None = None,
    ):
        self.device = device
        self.ledger = CostLedger()
        memory = DeviceMemory(device)
        # Half of CPU memory, capped: the arena is actually materialized, and
        # the baseline only needs "never fills", not literal gigabytes.
        heap_bytes = (
            min(memory.free // 2, max_heap_bytes)
            // page_size * page_size
        )
        heap = GpuHeap(heap_bytes, page_size, memory, name="cpu-heap")
        self.table = GpuHashTable(
            n_buckets=n_buckets,
            organization=organization,
            heap=heap,
            group_size=group_size,
            device_memory=memory,
            ledger=self.ledger,
            sanitize=sanitize,
        )
        self.kernel = KernelModel(device, self.ledger)

    # ------------------------------------------------------------------
    def run(self, batches: Sequence[RecordBatch]) -> CpuRunReport:
        """Process the whole input in one pass (the heap cannot fill):
        consecutive chunks inserted by one table call as far as
        :func:`~repro.core.hashtable.run_fits` lets them join, each still
        charged as its own parallel section."""
        run: list[RecordBatch] = []
        records = 0
        for batch in batches:
            if run and not run_fits(run[0], records, batch, len(batch)):
                self._insert(run)
                run, records = [], 0
            run.append(batch)
            records += len(batch)
        if run:
            self._insert(run)
        self.table.sanitize_check("end")
        return CpuRunReport(
            total_records=sum(len(b) for b in batches),
            elapsed_seconds=self.ledger.elapsed,
            breakdown=self.ledger.breakdown(),
            table_bytes=self.table.heap.resident_bytes,
        )

    def _insert(self, run: list[RecordBatch]) -> None:
        results = self.table.insert_run([(batch, None) for batch in run])
        for result in results:
            if not result.success.all():
                raise MemoryError(
                    "CPU heap exhausted: the baseline assumes the table "
                    "fits in CPU memory (Section VI-B)"
                )
            self.kernel.charge(result.stats)

    def result(self) -> dict[bytes, Any]:
        return self.table.result()
