"""Atomic / lock contention model.

Hash-table inserts lock the target bucket.  With thousands of GPU threads in
flight, the execution-time lower bound contributed by locking is the
*critical path* through the most contended lock: all threads that hit the
hottest bucket serialize behind one another (Section VI-B explains Word
Count's poor speedup this way -- few distinct keys, so one bucket's lock is
hammered).

For a batch of records the model is::

    t_atomic = hottest_count * device.lock_s

where ``hottest_count`` is the largest number of records in the batch that
map to a single bucket (or, for allocator contention, to a single free-list).
On CPUs the same formula applies with a much cheaper ``lock_s`` and only 8
threads, so the term rarely binds -- matching the paper's observation that
the CPU implementation also contends, "but not as much".
"""

from __future__ import annotations

import numpy as np

from repro.gpusim.device import DeviceSpec

__all__ = ["hottest_count", "contention_time"]


def hottest_count(bucket_ids: np.ndarray, n_buckets: int | None = None) -> int:
    """Largest number of batch records mapping to a single bucket.

    ``bucket_ids`` is an integer array of per-record bucket indices.  Returns
    0 for an empty batch.
    """
    if bucket_ids.size == 0:
        return 0
    if np.minimum.reduce(bucket_ids) < 0:
        raise ValueError("bucket ids must be non-negative")
    counts = np.bincount(
        bucket_ids, minlength=n_buckets if n_buckets is not None else 0
    )
    return int(np.maximum.reduce(counts))


def contention_time(device: DeviceSpec, hottest: int) -> float:
    """Serialized critical-path time through the most contended lock."""
    if hottest < 0:
        raise ValueError("hottest count must be non-negative")
    if hottest <= 1:
        return 0.0  # an uncontended lock is part of per-record cycles
    return hottest * device.lock_s
