"""Demand-paging lower-bound study (Table III).

Simulates a GPU with hardware demand paging over CPU memory: the recorded
hash-table access trace is replayed through an LRU page cache of the assumed
GPU memory size.  Following the paper's methodology,

* pages are considered GPU-resident on first touch (the table is *built*
  on the GPU), so only *replacements* -- re-faults on previously evicted
  pages -- cost a transfer;
* the reported time is a lower bound: ``replacements * page_size`` bytes at
  full bulk PCIe bandwidth, ignoring fault-handling and transaction setup.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.trace import AccessTrace
from repro.gpusim.pcie import PCIE_GEN3_X16

__all__ = ["lru_replacements", "DemandPagingModel", "PagingEstimate"]


def lru_replacements(page_trace: np.ndarray, capacity_pages: int) -> int:
    """Count LRU *replacement* faults (first touches are free).

    ``page_trace`` is the page-id access sequence; ``capacity_pages`` the
    number of page frames that fit in GPU memory.
    """
    if capacity_pages <= 0:
        raise ValueError(f"capacity must be positive: {capacity_pages}")
    resident: dict[int, None] = {}  # insertion-ordered: LRU at the front
    seen: set[int] = set()
    replacements = 0
    for page in page_trace.tolist():
        if page in resident:
            del resident[page]  # refresh recency
        else:
            if page in seen:
                replacements += 1
            else:
                seen.add(page)
            if len(resident) >= capacity_pages:
                resident.pop(next(iter(resident)))  # evict LRU
        resident[page] = None
    return replacements


@dataclass
class PagingEstimate:
    """One Table-III row for one page size."""

    memory_bytes: int
    page_size: int
    replacements: int
    transferred_bytes: int
    transfer_seconds: float


class DemandPagingModel:
    """Replays a trace against assumed memory sizes and page sizes; every
    replacement moves one page over :data:`~repro.gpusim.pcie.
    PCIE_GEN3_X16`."""

    def __init__(self, trace: AccessTrace):
        self.trace = trace

    def estimate(self, memory_bytes: int, page_size: int) -> PagingEstimate:
        if memory_bytes <= 0:
            raise ValueError("GPU memory must be positive")
        page_trace = self.trace.page_trace(page_size)
        # A device smaller than one page still holds a single frame.
        capacity = max(1, memory_bytes // page_size)
        replacements = lru_replacements(page_trace, capacity)
        transferred = replacements * page_size
        return PagingEstimate(
            memory_bytes=memory_bytes,
            page_size=page_size,
            replacements=replacements,
            transferred_bytes=transferred,
            transfer_seconds=transferred / PCIE_GEN3_X16.bandwidth,
        )
