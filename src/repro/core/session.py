"""GPU run environment wiring.

A :class:`GpuSession` bundles the pieces every GPU-side run needs -- device,
ledger, PCIe bus, kernel cost model, BigKernel pipeline -- and performs the
Section IV-A memory layout dance in the right order: fixed structures
(BigKernel staging buffers, the pending bitmap, the bucket array) are
reserved first, and the allocator heap takes *all remaining* device memory.

:func:`wire` is the one way from a job to a finished table (DESIGN.md "Run
path"): the standalone applications, the MapReduce runtime, the command
line and the crash harness all describe their job to it and run what it
returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

from repro.bigkernel.pipeline import BigKernelPipeline
from repro.core.buckets import BYTES_PER_BUCKET
from repro.core.hashtable import GpuHashTable
from repro.core.organizations import Organization
from repro.core.records import RecordBatch
from repro.core.sepo import SepoDriver
from repro.gpusim.clock import CostLedger
from repro.gpusim.device import DeviceSpec, GTX_780TI
from repro.gpusim.kernel import KernelModel
from repro.gpusim.memory import DeviceMemory
from repro.gpusim.pcie import PCIeBus
from repro.memalloc.heap import GpuHeap

__all__ = ["GpuSession", "RunOutcome", "WiredRun", "map_input", "wire"]


class GpuSession:
    """Device + ledger + bus + pipeline, and the memory-layout protocol."""

    @staticmethod
    def clamp_chunk(device: DeviceSpec, scale: int, chunk_bytes: int) -> int:
        """Cap the BigKernel chunk so staging fits a (scaled) small device.

        The divisor keeps the double-buffered staging reservation at ~6% of
        device memory, approximating the paper-scale proportions (2 x 1 MB
        of 3 GB) as closely as a scaled-down device allows.
        """
        capacity = device.mem_capacity // scale
        return max(1024, min(chunk_bytes, capacity // 16))

    def __init__(
        self,
        device: DeviceSpec = GTX_780TI,
        scale: int = 1,
        chunk_bytes: int = 1 << 20,
    ):
        self.device = device.scaled(scale) if scale > 1 else device
        self.scale = scale
        chunk_bytes = self.clamp_chunk(device, scale, chunk_bytes)
        self.ledger = CostLedger()
        self.memory = DeviceMemory(self.device)
        self.bus = PCIeBus(self.ledger)
        self.kernel = KernelModel(self.device, self.ledger)
        # Double-buffered input staging (BigKernel).  Each buffer gets 2x
        # slack because record-boundary-preserving partitioners may extend a
        # chunk past the nominal size.
        self.pipeline = BigKernelPipeline(
            self.bus, stage_buffer_bytes=2 * chunk_bytes
        )
        self.memory.reserve("bigkernel-staging", 2 * chunk_bytes)

    def build_table(
        self,
        n_buckets: int,
        organization: Organization,
        group_size: int = 64,
        page_size: int = 16 << 10,
        n_records: int = 0,
        **table_options,
    ) -> tuple[GpuHashTable, SepoDriver]:
        """Lay out device memory and wire a table + SEPO driver.

        Reservation order matters (Section IV-A): bitmap and bucket array
        first, then the heap is sized to whatever remains.
        ``table_options`` are :class:`GpuHashTable`'s own (``trace``,
        ``sanitize``, ``integrity``, ``scrub_budget``).
        """
        if n_records:
            self.memory.reserve("pending-bitmap", (n_records + 7) // 8)
        self.memory.reserve("hashtable-buckets", n_buckets * BYTES_PER_BUCKET)
        heap = GpuHeap.from_remaining(self.memory, page_size)
        table = GpuHashTable(
            n_buckets=n_buckets,
            organization=organization,
            heap=heap,
            group_size=group_size,
            ledger=self.ledger,
            **table_options,
        )
        table.maintenance_throughput = self.device.compute_throughput
        driver = SepoDriver(table, self.kernel, self.bus, self.pipeline)
        return table, driver


@dataclass
class RunOutcome:
    """Uniform result of an application or MapReduce run, GPU or CPU."""

    app: str
    device: str
    elapsed_seconds: float
    iterations: int
    table: Any  # GpuHashTable | CpuHashTable | DegradedTable
    report: Any = None  # SepoReport | CpuRunReport
    breakdown: dict[str, float] | None = None
    #: resilience telemetry when the run was journaled (see repro.resilience)
    resilience: Any = None  # ResilientReport | None

    @classmethod
    def of(cls, app: str, device: str, table, report, resilience=None):
        """The outcome a finished ``report`` describes (a report that does
        not count iterations made one pass)."""
        return cls(
            app=app,
            device=device,
            elapsed_seconds=report.elapsed_seconds,
            iterations=getattr(report, "iterations", 1),
            table=table,
            report=report,
            breakdown=report.breakdown,
            resilience=resilience,
        )

    def output(self) -> dict[bytes, Any]:
        """<key, value> (combining) or <key, values> (multi-valued) pairs."""
        return self.table.result()


def map_input(job, data: bytes, chunk_bytes: int) -> Iterator[RecordBatch]:
    """Partition ``data`` and run one map instance per chunk (Section V),
    lazily: a runtime that can fail part-way (MapCG) maps no further."""
    for chunk in job.partition(data, chunk_bytes):
        batch = job.map_chunk(chunk)
        # What crosses the PCIe bus is the raw chunk, not the staged pairs.
        batch.input_bytes = len(chunk)
        yield batch


@dataclass
class WiredRun:
    """A job wired to its table and driver, not yet run.

    Everything between the description and the outcome, in the open so that
    a harness can instrument the table or the driver before :meth:`run`.
    """

    name: str
    session: GpuSession
    batches: list[RecordBatch]
    table: GpuHashTable
    #: the session's ``SepoDriver``, or the ``ResilientDriver`` over it
    #: when the run is journaled
    driver: Any
    resume: bool = False

    def run(self) -> RunOutcome:
        table, resilience = self.table, None
        if isinstance(self.driver, SepoDriver):
            report = self.driver.run(self.batches)
        else:
            resilience = self.driver.run(self.batches, resume=self.resume)
            report, table = resilience.sepo, resilience.table
        return RunOutcome.of(
            self.name, self.session.device.name, table, report, resilience
        )


def wire(
    job,
    data: bytes | None = None,
    *,
    batches: list[RecordBatch] | None = None,
    device: DeviceSpec = GTX_780TI,
    scale: int = 1,
    chunk_bytes: int | None = None,
    n_buckets: int,
    group_size: int = 64,
    page_size: int = 16 << 10,
    trace=None,
    sanitize: str | None = None,
    integrity: str | None = None,
    scrub_budget: int = 4,
    journal=None,
    checkpoint_every: int = 1,
    resume: bool = False,
) -> WiredRun:
    """Wire ``job`` to a session, a table and a driver on the (scaled) GPU.

    ``job`` describes the work the way :class:`~repro.mapreduce.api.JobSpec`
    and :class:`~repro.apps.base.Application` both do: ``name``,
    ``chunk_bytes``, ``partition(data, chunk_bytes)``, ``map_chunk(chunk)``
    and ``make_organization()``.  ``batches`` reuses pre-parsed input in
    place of ``data`` (the parse cost is charged per pass by the cost model
    either way).

    The table options are declared here once and forwarded by every entry
    point above: ``sanitize`` is the invariant-checking level (one of
    :data:`repro.sanitize.LEVELS`; None reads ``REPRO_SANITIZE``),
    ``integrity`` the page-checksum mode (one of
    :data:`repro.integrity.INTEGRITY_MODES`; None reads ``REPRO_INTEGRITY``,
    else off) and ``scrub_budget`` the pages the background scrubber sweeps
    per iteration under ``integrity="scrub"``.

    A ``journal`` path makes the run crash-recoverable: the driver is
    wrapped in :class:`~repro.resilience.ResilientDriver`, which also
    replaces the stock driver's :class:`~repro.core.sepo.NoProgressError`
    with the degradation ladder, checkpoints every ``checkpoint_every``
    iterations (0 never), and with ``resume=True`` picks up an existing
    journal instead of starting over (starting fresh when the path holds
    none, so a supervisor can always pass it).
    """
    if resume and journal is None:
        raise ValueError("resume=True needs a journal to resume from")
    chunk = GpuSession.clamp_chunk(device, scale, chunk_bytes or job.chunk_bytes)
    if batches is None:
        batches = list(map_input(job, data, chunk))
    elif any(b.input_bytes > 2 * chunk for b in batches):
        raise ValueError(
            "pre-parsed batches exceed this device's staging buffer; "
            "re-partition with a smaller chunk size"
        )
    session = GpuSession(device, scale, chunk)
    table, driver = session.build_table(
        n_buckets=n_buckets,
        organization=job.make_organization(),
        group_size=group_size,
        page_size=page_size,
        n_records=sum(len(b) for b in batches),
        trace=trace,
        sanitize=sanitize,
        integrity=integrity,
        scrub_budget=scrub_budget,
    )
    if journal is not None:
        from repro.resilience import ResilientDriver

        driver = ResilientDriver(
            driver, journal_path=journal, checkpoint_every=checkpoint_every
        )
    return WiredRun(job.name, session, batches, table, driver, resume)
