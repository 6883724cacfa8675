"""Capacity planning: predicting table size and SEPO iteration counts.

Section II: "due to the dynamic memory space requirement of hash tables,
there is typically no way to predict whether a given dataset can be
processed successfully within the available GPU memory" -- *before* seeing
the data.  Once stream statistics are measurable (a sample pass, or the
parse stage itself), the geometry is arithmetic.  This module does that
arithmetic so operators can size heaps, choose page/group trade-offs, and
anticipate iteration counts; its estimates are validated against actual
runs in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.core import entries as E
from repro.core.records import RecordBatch

__all__ = ["StreamStats", "PlanEstimate", "estimate_table_bytes", "plan"]


@dataclass
class StreamStats:
    """Measured statistics of a KV stream."""

    n_records: int
    n_distinct: int
    mean_key_len: float
    mean_val_len: float = 8.0  # combining scalars are 8 bytes

    @classmethod
    def from_batches(cls, batches: Sequence[RecordBatch]) -> "StreamStats":
        """Exact statistics from parsed batches (one pass, host-side)."""
        distinct: set[bytes] = set()
        n = 0
        key_bytes = 0
        val_bytes = 0
        for batch in batches:
            keys = batch.key_bytes_list()
            n += len(keys)
            key_bytes += sum(map(len, keys))
            distinct.update(keys)
            if batch.numeric_values is not None:
                val_bytes += 8 * len(keys)
            else:
                val_bytes += int(batch.val_lens.sum())
        if n == 0:
            return cls(0, 0, 0.0, 0.0)
        return cls(
            n_records=n,
            n_distinct=len(distinct),
            mean_key_len=key_bytes / n,
            mean_val_len=val_bytes / n,
        )


@dataclass
class PlanEstimate:
    """Predicted geometry of a run."""

    table_bytes: int
    heap_bytes: int
    iterations: int
    fits_in_memory: bool

    @property
    def table_over_memory(self) -> float:
        return self.table_bytes / self.heap_bytes if self.heap_bytes else 0.0


def estimate_table_bytes(stats: StreamStats, organization: str) -> int:
    """Predicted final table payload for a bucket organization."""
    klen = int(round(stats.mean_key_len))
    vlen = int(round(stats.mean_val_len))
    if organization == "combining":
        return stats.n_distinct * E.entry_size(klen, 8)
    if organization == "basic":
        return stats.n_records * E.entry_size(klen, vlen)
    if organization == "multi-valued":
        return (
            stats.n_distinct * E.key_entry_size(klen)
            + stats.n_records * E.value_node_size(vlen)
        )
    raise ValueError(f"unknown organization {organization!r}")


#: the share of the heap a table can fill: it absorbs bucket-group
#: fragmentation and retained pages; 0.8 matches the benchmark geometries
#: (each group strands part of its current page at eviction time)
PACKING_EFFICIENCY = 0.80


def plan(
    stats: StreamStats,
    heap_bytes: int,
    organization: str = "combining",
) -> PlanEstimate:
    """Predict whether/how a stream fits a heap, and the SEPO passes needed
    (at :data:`PACKING_EFFICIENCY`)."""
    if heap_bytes <= 0:
        raise ValueError("heap must be positive")
    table = estimate_table_bytes(stats, organization)
    usable = heap_bytes * PACKING_EFFICIENCY
    iterations = max(1, math.ceil(table / usable)) if table else 1
    return PlanEstimate(
        table_bytes=table,
        heap_bytes=heap_bytes,
        iterations=iterations,
        fits_in_memory=table <= usable,
    )
