"""Kernel launch cost model.

A kernel processing a batch of records is charged::

    t = launch + max(t_compute, t_memory, t_atomic)

``t_compute`` and ``t_memory`` form the usual roofline; ``t_atomic`` is the
serialized critical path through the most contended bucket lock and the most
contended allocator free-list (see :mod:`repro.gpusim.atomics`).  Taking the
max reflects that serialization on a hot lock overlaps with the independent
work of all other warps -- it only costs wall time once it exceeds them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.gpusim.atomics import contention_time
from repro.gpusim.clock import CostCategory, CostLedger
from repro.gpusim.device import DeviceSpec
from repro.gpusim.simt import SimtModel

__all__ = ["BatchStats", "KernelModel", "ALLOC_LOCK_FACTOR"]

#: A free-list bump allocation is a single atomicAdd -- roughly a quarter of
#: a full lock acquire/release round-trip (which needs a CAS retry loop).
ALLOC_LOCK_FACTOR = 0.25


@dataclass
class BatchStats:
    """Cost-relevant statistics of one kernel batch.

    Populated by hash-table/parse code as it does the *real* work, then
    handed to :meth:`KernelModel.charge`.
    """

    n_records: int = 0
    #: per-record ALU cost of parsing + hashing + bookkeeping, in cycles
    cycles_per_record: float = 0.0
    #: warp-divergence penalty factor (>= 1); ignored on CPUs
    divergence: float = 1.0
    #: DRAM bytes touched by the batch (reads + writes)
    bytes_touched: int = 0
    #: largest number of records hitting one bucket lock
    hottest_bucket: int = 0
    #: longest serialized chain of allocations on one free-list
    hottest_alloc: int = 0

    def merge(self, other: "BatchStats") -> None:
        self.n_records += other.n_records
        # Per-record cycle cost is a weighted mean across merged batches.
        total = self.n_records
        if total:
            w_self = (total - other.n_records) / total
            w_other = other.n_records / total
            self.cycles_per_record = (
                self.cycles_per_record * w_self + other.cycles_per_record * w_other
            )
            self.divergence = self.divergence * w_self + other.divergence * w_other
        self.bytes_touched += other.bytes_touched
        self.hottest_bucket = max(self.hottest_bucket, other.hottest_bucket)
        self.hottest_alloc = max(self.hottest_alloc, other.hottest_alloc)


@dataclass
class KernelModel:
    """Charges batches to a ledger using a device's SIMT model."""

    device: DeviceSpec
    ledger: CostLedger
    simt: SimtModel = field(init=False)

    def __post_init__(self) -> None:
        self.simt = SimtModel(self.device, self.ledger)

    def _contention(self, stats: BatchStats) -> float:
        return contention_time(
            self.device, stats.hottest_bucket
        ) + ALLOC_LOCK_FACTOR * contention_time(self.device, stats.hottest_alloc)

    def charge(self, stats: BatchStats) -> float:
        """Charge one batch (plus one launch); returns seconds charged."""
        tc = self.simt.compute_time(
            stats.n_records, stats.cycles_per_record, stats.divergence
        )
        tm = self.simt.memory_time(stats.bytes_touched)
        ta = self._contention(stats)
        t = max(tc, tm, ta)
        if t == ta and ta > 0:
            self.ledger.charge(CostCategory.ATOMIC, t)
        elif t == tc and tc >= tm:
            self.ledger.charge(CostCategory.COMPUTE, t)
        else:
            self.ledger.charge(CostCategory.MEMORY, t)
        return t + self.simt.charge_launch()
