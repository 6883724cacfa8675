"""Simulated-time accounting.

Every cost model in :mod:`repro.gpusim` charges seconds to a
:class:`CostLedger`.  The ledger keeps a per-category breakdown so that
experiment reports can explain results ("the pinned variant spends 92% of its
time in PCIE") rather than only produce totals.
"""

from __future__ import annotations

from enum import Enum

__all__ = ["CostCategory", "CostLedger"]


class CostCategory(str, Enum):
    """Where simulated time was spent."""

    COMPUTE = "compute"  # ALU work inside kernels / parallel sections
    MEMORY = "memory"  # DRAM traffic inside kernels
    ATOMIC = "atomic"  # serialized lock / atomic critical paths
    PCIE = "pcie"  # CPU<->GPU transfers
    LAUNCH = "launch"  # kernel launch / thread spawn overhead
    MAINTENANCE = "maintenance"  # SEPO bookkeeping (chain splicing, bitmaps)
    HOST = "host"  # CPU-side sequential work (partitioning, finalize)
    RETRY = "retry"  # failed PCIe attempts + backoff (resilience layer)
    SCRUB = "scrub"  # checksum maintenance + background scrub (integrity)


class CostLedger:
    """Accumulates simulated seconds, broken down by :class:`CostCategory`.

    The ledger is deliberately dumb -- it neither orders events nor models
    concurrency.  Overlap (e.g. BigKernel hiding PCIe behind compute) is the
    responsibility of the caller, which should charge only the *exposed*
    portion of an overlapped cost.
    """

    def __init__(self) -> None:
        self._spent: dict[CostCategory, float] = {c: 0.0 for c in CostCategory}

    def charge(self, category: CostCategory, seconds: float) -> float:
        """Add ``seconds`` to ``category``; returns the seconds charged."""
        if seconds < 0:
            raise ValueError(f"cannot charge negative time: {seconds}")
        self._spent[category] += seconds
        return seconds

    @property
    def elapsed(self) -> float:
        """Total simulated seconds across all categories."""
        return sum(self._spent.values())

    def breakdown(self) -> dict[str, float]:
        """Per-category seconds, keyed by category value, zeros included."""
        return {c.value: s for c, s in self._spent.items()}

    def spent(self, category: CostCategory) -> float:
        return self._spent[category]

    def reset(self) -> None:
        for c in CostCategory:
            self._spent[c] = 0.0

    def merge(self, other: "CostLedger") -> None:
        """Fold another ledger's charges into this one."""
        for c in CostCategory:
            self._spent[c] += other._spent[c]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(
            f"{c.value}={s * 1e3:.3f}ms" for c, s in self._spent.items() if s
        )
        return f"CostLedger({self.elapsed * 1e3:.3f}ms: {parts})"
