"""Phoenix++-style CPU MapReduce comparator (the paper's reference [12]).

Phoenix++ is a shared-memory, multi-threaded MapReduce for multi-core CPUs
whose key optimization -- combining values into a hash-based container
during the map phase -- is the same trick the paper's runtime plays.  The
comparator therefore runs the identical job specification on the CPU hash
table substrate: the same map functions, a combining (MAP_REDUCE) or
multi-valued (MAP_GROUP) container, CPU cost model, no PCIe.
"""

from __future__ import annotations

from repro.cpu.cputable import CpuHashTable
from repro.core.session import RunOutcome, map_input
from repro.gpusim.device import DeviceSpec, XEON_E5_QUAD
from repro.mapreduce.api import JobSpec

__all__ = ["PhoenixRuntime"]


class PhoenixRuntime:
    """Runs a JobSpec on the multi-threaded CPU substrate."""

    def __init__(
        self,
        job: JobSpec,
        device: DeviceSpec = XEON_E5_QUAD,
        n_buckets: int = 1 << 16,
        group_size: int = 64,
    ):
        self.job = job
        self.device = device
        self.n_buckets = n_buckets
        self.group_size = group_size

    def run(self, data: bytes) -> RunOutcome:
        job = self.job
        table = CpuHashTable(
            n_buckets=self.n_buckets,
            organization=job.make_organization(),
            group_size=self.group_size,
            device=self.device,
        )
        report = table.run(list(map_input(job, data, job.chunk_bytes)))
        return RunOutcome.of(job.name, self.device.name, table, report)
