"""Shared application machinery.

An :class:`Application` packages everything one of the paper's workloads
needs: a synthetic input generator, the parse ("map") kernel that turns raw
chunks into :class:`~repro.core.records.RecordBatch` objects, the bucket
organization and combiner, calibrated per-record cost parameters for the
SIMT model, and a pure-Python reference implementation for verification.

``run_gpu`` executes the app on the simulated GPU under SEPO; ``run_cpu``
executes the multi-threaded CPU baseline.  Both return a uniform
:class:`RunOutcome` so the benchmark harness can compute speedups.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.bigkernel.partitioner import partition_lines
from repro.core.combiners import Combiner
from repro.core.hashtable import GpuHashTable
from repro.core.organizations import (
    CombiningOrganization,
    MultiValuedOrganization,
    Organization,
)
from repro.core.records import RecordBatch
from repro.core.session import GpuSession
from repro.cpu.cputable import CpuHashTable
from repro.gpusim.device import DeviceSpec, GTX_780TI, XEON_E5_QUAD
from repro.mapreduce.api import JobSpec, Mode

__all__ = [
    "Application",
    "MapReduceApplication",
    "RunOutcome",
    "find_all",
    "first_at_or_after",
    "line_spans",
]


# ----------------------------------------------------------------------
# chunk scanning: what the parsers share.  A parser views its chunk as one
# uint8 vector, finds delimiter positions with whole-chunk compares, turns
# them into (start, length) spans and hands those to
# ``RecordBatch.from_spans`` -- no ``bytes`` object per record.
# ----------------------------------------------------------------------
def line_spans(view: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(starts, ends)`` of a chunk's lines, cut where ``bytes.split`` on
    the newline byte cuts them: empty lines included, the last one
    unterminated."""
    newlines = np.flatnonzero(view == 10)
    return (
        np.concatenate(([0], newlines + 1)),
        np.concatenate((newlines, [len(view)])),
    )


def find_all(
    view: np.ndarray, pattern: bytes, among: np.ndarray | None = None
) -> np.ndarray:
    """Every position at which ``pattern`` occurs in ``view``, ascending
    (overlapping occurrences included): one compare of the whole chunk for
    the first byte, the rest checked on the survivors only.  ``among``
    (ascending, non-negative) narrows the search to those positions."""
    last = len(view) - len(pattern)
    if among is None:
        hits, checked = np.flatnonzero(view[: max(last + 1, 0)] == pattern[0]), 1
    else:
        hits, checked = among[among <= last], 0
    for offset in range(checked, len(pattern)):
        hits = hits[view[hits + offset] == pattern[offset]]
    return hits


def first_at_or_after(
    positions: np.ndarray, starts: np.ndarray, none: int
) -> np.ndarray:
    """Per start, the first of the ascending ``positions`` at or after it,
    or ``none`` where there is no such position."""
    return np.append(positions, none)[np.searchsorted(positions, starts)]


@dataclass
class RunOutcome:
    """Uniform result of a GPU or CPU application run."""

    app: str
    device: str
    elapsed_seconds: float
    iterations: int
    table: Any  # GpuHashTable | CpuHashTable | DegradedTable
    report: Any = None  # SepoReport | CpuRunReport
    breakdown: dict[str, float] | None = None
    #: resilience telemetry when the run was journaled (see repro.resilience)
    resilience: Any = None  # ResilientReport | None

    def output(self) -> dict[bytes, Any]:
        t = self.table
        return t.result()


class Application:
    """Base class for the four standalone applications."""

    name: str = "abstract"
    #: 'combining' or 'multi-valued' (the paper's Section IV-B labels)
    organization: str = "combining"
    combiner: Combiner | None = None
    #: per-record ALU cost of the parse/map kernel, in cycles
    parse_cycles: float = 400.0
    #: warp-divergence factor of the kernel (Section VI-B)
    divergence: float = 1.0
    #: default BigKernel chunk size
    chunk_bytes: int = 1 << 20

    # ------------------------------------------------------------------
    # workload definition (overridden per app)
    # ------------------------------------------------------------------
    def generate_input(self, size_bytes: int, seed: int = 0) -> bytes:
        raise NotImplementedError

    def parse_chunk(self, chunk: bytes) -> RecordBatch:
        raise NotImplementedError

    def reference(self, data: bytes) -> dict[bytes, Any]:
        """Pure-Python expected output (tests compare table results to it)."""
        raise NotImplementedError

    def partition(self, data: bytes, chunk_bytes: int) -> list[bytes]:
        return partition_lines(data, chunk_bytes)

    # ------------------------------------------------------------------
    # shared machinery
    # ------------------------------------------------------------------
    def make_organization(self) -> Organization:
        if self.organization == "combining":
            if self.combiner is None:
                raise ValueError(f"{self.name} needs a combiner")
            return CombiningOrganization(self.combiner)
        if self.organization == "multi-valued":
            return MultiValuedOrganization()
        raise ValueError(f"unknown organization {self.organization!r}")

    def _stamp(self, batch: RecordBatch, raw_len: int) -> RecordBatch:
        batch.parse_cycles = self.parse_cycles
        batch.divergence = self.divergence
        # What crosses the PCIe bus is the raw chunk, not the staged pairs.
        batch.input_bytes = raw_len
        return batch

    def batches(self, data: bytes, chunk_bytes: int | None = None) -> list[RecordBatch]:
        size = chunk_bytes or self.chunk_bytes
        return [
            self._stamp(self.parse_chunk(c), len(c))
            for c in self.partition(data, size)
        ]

    # ------------------------------------------------------------------
    # execution entry points
    # ------------------------------------------------------------------
    def run_gpu(
        self,
        data: bytes,
        device: DeviceSpec = GTX_780TI,
        scale: int = 1,
        n_buckets: int = 1 << 14,
        group_size: int = 64,
        page_size: int = 16 << 10,
        chunk_bytes: int | None = None,
        trace=None,
        batches: list[RecordBatch] | None = None,
        backend: str = "analytic",
        sanitize: str | None = None,
        integrity: str | None = None,
        scrub_budget: int = 4,
        journal=None,
        checkpoint_every: int = 1,
        resume: bool = False,
        degrade: bool = True,
    ) -> RunOutcome:
        """Run under SEPO on the (scaled) simulated GPU.

        ``batches`` lets callers reuse pre-parsed input (the parse cost is
        charged per pass by the cost model either way).  Passing a
        ``journal`` path makes the run crash-recoverable: the driver is
        wrapped in :class:`~repro.resilience.ResilientDriver`, checkpoints
        every ``checkpoint_every`` iterations, and with ``resume=True``
        picks up an existing journal instead of starting over.
        """
        chunk = GpuSession.clamp_chunk(
            device, scale, chunk_bytes or self.chunk_bytes
        )
        if batches is None:
            batches = self.batches(data, chunk)
        elif any(b.input_bytes > 2 * chunk for b in batches):
            raise ValueError(
                "pre-parsed batches exceed this device's staging buffer; "
                "re-partition with a smaller chunk size"
            )
        n_records = sum(len(b) for b in batches)
        session = GpuSession(device, scale, chunk, backend=backend)
        table, driver = session.build_table(
            n_buckets=n_buckets,
            organization=self.make_organization(),
            group_size=group_size,
            page_size=page_size,
            n_records=n_records,
            trace=trace,
            sanitize=sanitize,
            integrity=integrity,
            scrub_budget=scrub_budget,
        )
        resilient_report = None
        if journal is not None:
            from repro.resilience import ResilientDriver

            resilient = ResilientDriver(
                driver,
                journal_path=journal,
                checkpoint_every=checkpoint_every,
                degrade=degrade,
            )
            resilient_report = resilient.run(batches, resume=resume)
            report = resilient_report.sepo
            table = resilient_report.table
        else:
            report = driver.run(batches)
        return RunOutcome(
            app=self.name,
            device=session.device.name,
            elapsed_seconds=report.elapsed_seconds,
            iterations=report.iterations,
            table=table,
            report=report,
            breakdown=report.breakdown,
            resilience=resilient_report,
        )

    def run_resumable(
        self,
        data: bytes,
        journal,
        checkpoint_every: int = 1,
        resume: bool = False,
        degrade: bool = True,
        **kwargs,
    ) -> RunOutcome:
        """Crash-recoverable :meth:`run_gpu` (journal path is mandatory)."""
        return self.run_gpu(
            data,
            journal=journal,
            checkpoint_every=checkpoint_every,
            resume=resume,
            degrade=degrade,
            **kwargs,
        )

    def run_cpu(
        self,
        data: bytes,
        device: DeviceSpec = XEON_E5_QUAD,
        n_buckets: int = 1 << 14,
        group_size: int = 64,
        chunk_bytes: int | None = None,
        batches: list[RecordBatch] | None = None,
    ) -> RunOutcome:
        """Run the multi-threaded CPU baseline (no SEPO needed)."""
        if batches is None:
            batches = self.batches(data, chunk_bytes)
        table = CpuHashTable(
            n_buckets=n_buckets,
            organization=self.make_organization(),
            group_size=group_size,
            device=device,
        )
        report = table.run(batches)
        return RunOutcome(
            app=self.name,
            device=device.name,
            elapsed_seconds=report.elapsed_seconds,
            iterations=1,
            table=table,
            report=report,
            breakdown=report.breakdown,
        )


class MapReduceApplication(Application):
    """Base class for the three MapReduce applications."""

    mode: Mode = Mode.MAP_REDUCE

    @property
    def organization(self) -> str:  # type: ignore[override]
        return "combining" if self.mode is Mode.MAP_REDUCE else "multi-valued"

    def make_job(self) -> JobSpec:
        """The job as the MapReduce programmer would write it (Section V)."""
        return JobSpec(
            name=self.name,
            mode=self.mode,
            map_chunk=lambda chunk: self._stamp(self.parse_chunk(chunk), len(chunk)),
            combiner=self.combiner if self.mode is Mode.MAP_REDUCE else None,
            partition=self.partition,
            chunk_bytes=self.chunk_bytes,
        )
