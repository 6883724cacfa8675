"""The bucket array and bucket groups.

The table starts as "nothing but a simple array of null pointers" (Section
IV) -- here two arrays, because of the dual-pointer scheme: ``head_gpu``
holds each bucket's chain head as a GPU address (reset whenever the chain's
head is evicted) and ``head_cpu`` holds it as a CPU address (never reset, so
the CPU-side chain threads through every entry ever inserted).

Buckets are partitioned into *bucket groups* of ``group_size`` contiguous
buckets; each group allocates from its own heap page (Section IV-A).
"""

from __future__ import annotations

import numpy as np

from repro.gpusim.memory import DeviceMemory
from repro.memalloc.address import NULL

__all__ = ["BucketArray"]

#: device bytes per bucket: two 8-byte heads plus a 4-byte lock (the paper
#: keeps locks in GPU memory even in the pinned variant).
BYTES_PER_BUCKET = 20


class BucketArray:
    """Dual-pointer bucket heads plus the group partitioning."""

    def __init__(
        self,
        n_buckets: int,
        group_size: int,
        device_memory: DeviceMemory | None = None,
        name: str = "hashtable-buckets",
    ):
        if n_buckets <= 0:
            raise ValueError(f"need at least one bucket, got {n_buckets}")
        if group_size <= 0:
            raise ValueError(f"group size must be positive, got {group_size}")
        self.n_buckets = n_buckets
        self.group_size = group_size
        self.n_groups = (n_buckets + group_size - 1) // group_size
        if device_memory is not None:
            device_memory.reserve(name, n_buckets * BYTES_PER_BUCKET)
        self.head_gpu = np.full(n_buckets, NULL, dtype=np.int64)
        self.head_cpu = np.full(n_buckets, NULL, dtype=np.int64)

    # ------------------------------------------------------------------
    def bucket_of_hash(self, h: int | np.ndarray):
        """Map hash values to bucket indices."""
        return h % np.uint64(self.n_buckets)

    def reset_gpu_heads(self) -> None:
        """Invalidate all GPU chain heads (after a full eviction)."""
        self.head_gpu.fill(NULL)

    def occupied_buckets(self) -> np.ndarray:
        """Buckets with at least one entry ever inserted (CPU view)."""
        return np.flatnonzero(self.head_cpu != NULL)

    def resident_buckets(self) -> np.ndarray:
        """Buckets whose GPU chain is non-empty."""
        return np.flatnonzero(self.head_gpu != NULL)

    @property
    def nbytes(self) -> int:
        return self.n_buckets * BYTES_PER_BUCKET
