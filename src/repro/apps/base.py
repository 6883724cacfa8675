"""Shared application machinery.

An :class:`Application` packages everything one of the paper's workloads
needs: a synthetic input generator, the parse ("map") kernel that turns raw
chunks into :class:`~repro.core.records.RecordBatch` objects, the bucket
organization and combiner, calibrated per-record cost parameters for the
SIMT model, and a pure-Python reference implementation for verification.

``run_gpu`` executes the app on the simulated GPU under SEPO (DESIGN.md
"Run path"); ``run_cpu`` executes the multi-threaded CPU baseline.  Both
return a uniform :class:`~repro.core.session.RunOutcome` so the benchmark
harness can compute speedups.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.bigkernel.partitioner import partition_lines
from repro.core.combiners import Combiner
from repro.core.organizations import (
    CombiningOrganization,
    MultiValuedOrganization,
    Organization,
)
from repro.core.records import RecordBatch
from repro.core.session import RunOutcome, map_input, wire
from repro.cpu.cputable import CpuHashTable
from repro.gpusim.device import DeviceSpec, XEON_E5_QUAD
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

    def map_chunk(self, chunk: bytes) -> RecordBatch:
        """One map instance: the parsed chunk, stamped with the parse
        kernel's cost parameters."""
        batch = self.parse_chunk(chunk)
        batch.parse_cycles = self.parse_cycles
        batch.divergence = self.divergence
        return batch

    def batches(self, data: bytes, chunk_bytes: int | None = None) -> list[RecordBatch]:
        return list(map_input(self, data, chunk_bytes or self.chunk_bytes))

    # ------------------------------------------------------------------
    # execution entry points
    # ------------------------------------------------------------------
    def run_gpu(
        self, data: bytes, n_buckets: int = 1 << 14, **options
    ) -> RunOutcome:
        """Run under SEPO on the (scaled) simulated GPU.

        ``options`` are :func:`~repro.core.session.wire`'s, declared and
        documented there: where to run (``device``, ``scale``),
        the geometry (``group_size``, ``page_size``, ``chunk_bytes``),
        pre-parsed ``batches`` to reuse, the table options (``trace``,
        ``sanitize``, ``integrity``, ``scrub_budget``) and the journal
        (``journal``, ``checkpoint_every``, ``resume``).
        """
        return wire(self, data, n_buckets=n_buckets, **options).run()

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
        return RunOutcome.of(self.name, device.name, table, table.run(batches))


class MapReduceApplication(Application):
    """Base class for the three MapReduce applications."""

    mode: Mode = Mode.MAP_REDUCE

    @property
    def organization(self) -> str:  # type: ignore[override]
        return self.make_organization().kind

    def make_organization(self) -> Organization:
        return self.make_job().make_organization()

    def make_job(self) -> JobSpec:
        """The job as the MapReduce programmer would write it (Section V)."""
        return JobSpec(
            name=self.name,
            mode=self.mode,
            map_chunk=self.map_chunk,
            combiner=self.combiner if self.mode is Mode.MAP_REDUCE else None,
            partition=self.partition,
            chunk_bytes=self.chunk_bytes,
        )
