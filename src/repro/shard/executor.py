"""The sharded SEPO executor: N simulated GPUs, one key-space shard each.

Each shard is a complete single-device stack -- its own
:class:`~repro.memalloc.heap.GpuHeap`/page pool, hash table,
:class:`~repro.core.sepo.SepoDriver`, and a private
:class:`~repro.shard.transfer.ShardChannel` (clock + PCIe link +
double-buffered input pipeline).  The executor partitions every input
batch by key-space hash (:func:`repro.bigkernel.partitioner.
partition_by_shard`), then drives the shards **round-robin**: one SEPO
pass per shard per round, each pass streaming that shard's chunks over
its own link while the other shards' clocks advance independently.  The
aggregate wall time is therefore the *makespan* -- the slowest shard's
clock -- reported by the :class:`~repro.shard.transfer.TransferSchedule`
together with the intra-shard transfer/compute overlap efficiency.

Correctness bar: because shards partition the key space, the sharded
table's merged :meth:`result` and its cross-shard :meth:`lookup` answers
are identical to an unsharded run of the same stream (same organization,
generous heap), and :meth:`check_shards` runs the per-shard structural
sanitizer plus the cross-shard placement invariant (no key resident in
two shards, every key in its hash-assigned shard).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro.bigkernel.partitioner import partition_by_shard
from repro.core.hashing import fnv1a_batch
from repro.core.hashtable import GpuHashTable
from repro.core.lookup import LookupDriver
from repro.core.mutations import MutationBatch
from repro.core.records import RecordBatch, pack_byte_rows
from repro.core.sepo import NoProgressError, SepoDriver, SepoReport
from repro.gpusim.device import GTX_780TI, DeviceSpec
from repro.gpusim.kernel import KernelModel
from repro.gpusim.pcie import PCIE_GEN3_X16, PCIeLinkSpec
from repro.memalloc.heap import GpuHeap
from repro.shard.shardmap import ShardMap
from repro.shard.transfer import ShardChannel, TransferSchedule

__all__ = ["ShardReport", "ShardedExecutor"]


@dataclass
class ShardReport:
    """Result of one sharded run."""

    total_records: int
    #: per-shard SEPO reports, indexed by shard id
    shard_reports: list[SepoReport]
    #: aggregate clock/overlap accounting (see TransferSchedule.report)
    schedule: dict = field(default_factory=dict)

    @property
    def makespan_seconds(self) -> float:
        return self.schedule["makespan_seconds"]

    @property
    def records_per_second(self) -> float:
        """Aggregate simulated throughput: records / makespan."""
        makespan = self.makespan_seconds
        return self.total_records / makespan if makespan else 0.0


class ShardedExecutor:
    """N-shard SEPO execution with independent per-shard channels."""

    def __init__(
        self,
        n_shards: int,
        org_factory: Callable[[], Any],
        *,
        n_buckets: int,
        heap_bytes: int,
        page_size: int,
        group_size: int = 64,
        sanitize: str | None = None,
        max_iterations: int = 1000,
        device: DeviceSpec = GTX_780TI,
        link: PCIeLinkSpec = PCIE_GEN3_X16,
    ):
        self.shard_map = ShardMap(n_shards)
        self.channels: list[ShardChannel] = []
        self.tables: list[GpuHashTable] = []
        self.kernels: list[KernelModel] = []
        self.drivers: list[SepoDriver] = []
        for s in range(n_shards):
            channel = ShardChannel(s, link)
            heap = GpuHeap(heap_bytes, page_size)
            table = GpuHashTable(
                n_buckets=n_buckets,
                organization=org_factory(),
                heap=heap,
                group_size=group_size,
                ledger=channel.ledger,
                sanitize=sanitize,
            )
            kernel = KernelModel(device, channel.ledger)
            driver = SepoDriver(
                table,
                kernel,
                channel.bus,
                pipeline=channel.pipeline,
                max_iterations=max_iterations,
            )
            self.channels.append(channel)
            self.tables.append(table)
            self.kernels.append(kernel)
            self.drivers.append(driver)
        self.schedule = TransferSchedule(self.channels)
        self.total_records = 0

    @property
    def n_shards(self) -> int:
        return self.shard_map.n_shards

    # ------------------------------------------------------------------
    def partition(
        self, batches: Sequence[RecordBatch]
    ) -> tuple[list[list[RecordBatch]], list[list[tuple[int, RecordBatch, np.ndarray]]]]:
        """Split every batch by shard; returns (per-shard batch lists,
        per-parent-batch merge maps of ``(shard, sub_batch, indices)``)."""
        per_shard: list[list[RecordBatch]] = [[] for _ in range(self.n_shards)]
        merge_maps: list[list[tuple[int, RecordBatch, np.ndarray]]] = []
        for batch in batches:
            parts = partition_by_shard(batch, self.shard_map)
            merge_map = []
            for s, (sub, idx) in sorted(parts.items()):
                per_shard[s].append(sub)
                merge_map.append((s, sub, idx))
            merge_maps.append(merge_map)
        return per_shard, merge_maps

    def run(self, batches: Sequence[RecordBatch]) -> ShardReport:
        """Process every record of every batch to completion, round-robin.

        Shard *s* only ever sees records whose key hashes map to *s*;
        mutation batches get their per-shard lookup answers re-keyed back
        onto the parent batches' ``lookup_results`` (parent-local index),
        exactly as an unsharded :meth:`SepoDriver.run` would leave them.
        """
        per_shard, merge_maps = self.partition(batches)
        states = [
            self.drivers[s].begin(per_shard[s]) for s in range(self.n_shards)
        ]
        pending = [
            s for s in range(self.n_shards) if states[s].bitmap.any_pending()
        ]
        # Round-robin pass scheduling: each round gives every still-pending
        # shard one pass + rearrangement on its own clock.  Passes on
        # different shards overlap by construction (independent channels);
        # the makespan is whichever clock ends furthest along.
        while pending:
            for s in pending:
                try:
                    self.drivers[s].step(per_shard[s], states[s])
                except NoProgressError as exc:
                    raise NoProgressError(f"shard {s}: {exc}") from exc
            pending = [s for s in pending if states[s].bitmap.any_pending()]
        reports = [
            self.drivers[s].finalize(per_shard[s], states[s])
            for s in range(self.n_shards)
        ]
        self._merge_lookup_results(batches, merge_maps)
        for batch in batches:
            batch.invalidate_cache()  # partition froze the parent arrays
        n = sum(len(b) for b in batches)
        self.total_records += n
        return ShardReport(
            total_records=n,
            shard_reports=reports,
            schedule=self.schedule.report(),
        )

    @staticmethod
    def _merge_lookup_results(batches, merge_maps) -> None:
        for batch, merge_map in zip(batches, merge_maps):
            if not isinstance(batch, MutationBatch):
                continue
            for _s, sub, idx in merge_map:
                for j, v in sub.lookup_results.items():
                    batch.lookup_results[int(idx[j])] = v

    # ------------------------------------------------------------------
    # readers
    # ------------------------------------------------------------------
    def result(self) -> dict[bytes, Any]:
        """The merged final mapping (shards hold disjoint key sets)."""
        out: dict[bytes, Any] = {}
        for table in self.tables:
            out.update(table.result())
        return out

    def lookup(self, keys: list[bytes]) -> list[Any]:
        """Cross-shard SEPO lookups, answered shard-locally.

        Routes each query to its key's shard and runs that shard's
        :class:`~repro.core.lookup.LookupDriver` (charged to the shard's
        own clock), then scatters the answers back to query order --
        bit-identical to an unsharded lookup of the same keys, because a
        key's entire chain lives in exactly one shard.
        """
        values: list[Any] = [None] * len(keys)
        if not keys:
            return values
        kmat, klens = pack_byte_rows(keys)
        shard_ids = self.shard_map.shard_of_hash(fnv1a_batch(kmat, klens))
        for s in range(self.n_shards):
            idx = np.flatnonzero(shard_ids == s)
            if not len(idx):
                continue
            driver = LookupDriver(
                self.tables[s], self.kernels[s], self.channels[s].bus
            )
            result = driver.lookup([keys[int(i)] for i in idx])
            for i, v in zip(idx.tolist(), result.values):
                values[i] = v
        return values

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------
    def check_shards(self):
        """Per-shard structural sanitize + the cross-shard placement check.

        Raises :class:`~repro.sanitize.sanitizer.SanitizerError` on any
        violation; returns the number of distinct keys seen across shards.
        """
        from repro.sanitize.sanitizer import check_shard_placement

        for table in self.tables:
            table.check_invariants()
        return check_shard_placement(self.shard_map, self.tables)
