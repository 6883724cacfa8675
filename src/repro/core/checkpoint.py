"""Persisting finished tables.

The dual-pointer design makes the finished table a *CPU-side data
structure*: bucket heads (`head_cpu`) plus the segment store, linked by
never-reused segment addresses.  That structure serializes as-is -- no
pointer rewriting -- and loads back as a read-only :class:`FrozenTable`
that supports the same CPU-side traversals (``cpu_items``, ``result``,
single-key ``get``) without any GPU machinery.

Format: an ``.npz`` archive holding the bucket heads, the segment id/byte
arrays, and a JSON metadata record (organization kind, combiner descriptor,
page size).  Only the library's named combiners round-trip; tables built
with ad-hoc :func:`~repro.core.combiners.CallbackCombiner` callbacks refuse
to save (the callable cannot be serialized faithfully).
"""

from __future__ import annotations

import json
from typing import Any, Iterator

import numpy as np

from repro.core.combiners import (
    BitOrCombiner,
    Combiner,
    MaxCombiner,
    MinCombiner,
    SumCombiner,
)
from repro.core.hashtable import (
    GpuHashTable,
    cpu_chain_items,
    merge_chain_items,
)
from repro.core.hashing import fnv1a
from repro.core.organizations import (
    CombiningOrganization,
    MultiValuedOrganization,
)

__all__ = [
    "save_table",
    "load_table",
    "FrozenTable",
    "CheckpointError",
    "quiesce_table",
    "snapshot_table",
    "restore_table",
    "snapshot_clock",
    "restore_clock",
]

FORMAT_VERSION = 1

#: every named combiner must round-trip (name, scalar) -> same combiner
_COMBINER_FACTORIES = {
    "sum": SumCombiner,
    "max": MaxCombiner,
    "min": MinCombiner,
    "bitor": BitOrCombiner,
}


class CheckpointError(RuntimeError):
    """The table cannot be (de)serialized."""


def _org_kind(table: GpuHashTable) -> str:
    return table.org.kind


def save_table(table: GpuHashTable, path) -> None:
    """Serialize a table's CPU-side structure to ``path`` (.npz)."""
    combiner_meta = None
    if isinstance(table.org, CombiningOrganization):
        comb = table.org.combiner
        if comb.name not in _COMBINER_FACTORIES:
            raise CheckpointError(
                f"combiner {comb.name!r} is a runtime callback and cannot "
                "be serialized; finalize with .result() instead"
            )
        combiner_meta = {"name": comb.name, "scalar": comb.scalar}

    heap = table.heap
    # Snapshot every segment (resident pages included) without mutating.
    segments = sorted(
        {p.segment for p in heap.resident_pages} | set(heap._store)
    )
    seg_data = np.zeros((len(segments), heap.page_size), dtype=np.uint8)
    for row, seg in enumerate(segments):
        seg_data[row] = heap.segment_view(seg)

    meta = {
        "version": FORMAT_VERSION,
        "organization": _org_kind(table),
        "combiner": combiner_meta,
        "page_size": heap.page_size,
        "n_buckets": table.buckets.n_buckets,
        "total_inserted": table.total_inserted,
    }
    np.savez_compressed(
        path,
        meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        head_cpu=table.buckets.head_cpu,
        segment_ids=np.asarray(segments, dtype=np.int64),
        segment_data=seg_data,
    )


def load_table(path) -> "FrozenTable":
    """Load a serialized table as a read-only :class:`FrozenTable`.

    Any way the file can be bad -- truncated archive, tampered member
    bytes, non-JSON metadata, missing fields, unknown version or combiner
    -- surfaces as :class:`CheckpointError`, never a raw numpy/zipfile
    traceback.
    """
    try:
        archive = np.load(path)
    except Exception as exc:
        raise CheckpointError(
            f"unreadable checkpoint {path!r}: {exc}"
        ) from exc
    with archive:
        try:
            meta = json.loads(bytes(archive["meta"]).decode())
            head_cpu = archive["head_cpu"]
            segment_ids = archive["segment_ids"]
            segment_data = archive["segment_data"]
        except KeyError as exc:
            raise CheckpointError(f"missing field in checkpoint: {exc}")
        except Exception as exc:  # tampered member bytes / bad JSON
            raise CheckpointError(
                f"corrupt checkpoint {path!r}: {exc}"
            ) from exc
    if not isinstance(meta, dict):
        raise CheckpointError(f"corrupt checkpoint metadata in {path!r}")
    if meta.get("version") != FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {meta.get('version')!r}"
        )
    combiner = None
    if meta["combiner"] is not None:
        name = meta["combiner"]["name"]
        try:
            factory = _COMBINER_FACTORIES[name]
        except KeyError:
            raise CheckpointError(
                f"checkpoint names unknown combiner {name!r}"
            ) from None
        combiner = factory(meta["combiner"]["scalar"])
    return FrozenTable(
        organization=meta["organization"],
        combiner=combiner,
        page_size=int(meta["page_size"]),
        head_cpu=head_cpu,
        segments={
            int(seg): segment_data[row]
            for row, seg in enumerate(segment_ids)
        },
        total_inserted=int(meta["total_inserted"]),
    )


class FrozenTable:
    """Read-only CPU-side view of a persisted table."""

    def __init__(
        self,
        organization: str,
        combiner: Combiner | None,
        page_size: int,
        head_cpu: np.ndarray,
        segments: dict[int, np.ndarray],
        total_inserted: int = 0,
    ):
        self.organization = organization
        self.combiner = combiner
        self.page_size = page_size
        self.head_cpu = head_cpu
        self.segments = segments
        self.total_inserted = total_inserted
        if organization == "combining" and combiner is None:
            raise CheckpointError("combining tables need their combiner")

    # ------------------------------------------------------------------
    def _buf(self, segment: int) -> np.ndarray:
        try:
            return self.segments[segment]
        except KeyError:
            raise CheckpointError(
                f"chain references missing segment {segment}"
            ) from None

    def cpu_items(self) -> Iterator[tuple[bytes, Any]]:
        """Per-entry payloads, duplicates unmerged: the live table's own
        reader (:func:`~repro.core.hashtable.cpu_chain_items`) over the
        persisted segments, so mutation flags resolve with the same
        newest-first automaton."""
        return cpu_chain_items(
            self._buf, self.page_size, self.head_cpu, self.organization,
            self.combiner,
        )

    def result(self) -> dict[bytes, Any]:
        return merge_chain_items(
            self.cpu_items(), self.organization, self.combiner
        )

    def get(self, key: bytes) -> Any:
        """Single-key query via the key's one bucket chain (no full scan),
        through the same reader as :meth:`result`: ``None`` on a miss or a
        deleted key."""
        head = self.head_cpu[fnv1a(key) % len(self.head_cpu)]
        chain = cpu_chain_items(
            self._buf, self.page_size, np.array([head]), self.organization,
            self.combiner,
        )
        found = merge_chain_items(
            (item for item in chain if item[0] == key),
            self.organization, self.combiner,
        ).get(key)
        if found is not None and self.organization == "multi-valued":
            # chain walk collects newest-first; answer oldest-first to
            # match the dict model's append order
            return found[::-1]
        return found


# ----------------------------------------------------------------------
# in-progress snapshots (the resilience layer's journal payload)
# ----------------------------------------------------------------------
#
# A *finished* table serializes as CPU structure only (above).  An
# *in-progress* table additionally owes its future self the GPU-side heap
# state: pool free-slot order (slot assignment leaks into entry bytes as
# ``next_gpu`` pointers, so replaying allocations must pop the same slots),
# allocator tallies (the sanitizer reconciles them against a census), and
# the simulated clock.  Snapshots are only taken *quiesced* -- every page
# force-evicted -- so the entire table is CPU-addressable and no arena
# bytes or bump pointers need to travel.

from repro.memalloc.pages import PageKind  # noqa: E402

_KINDS = (PageKind.GENERIC, PageKind.KEY, PageKind.VALUE)


def quiesce_table(table: GpuHashTable, bus=None) -> int:
    """Force-evict every resident page (pinned ones included).

    The multi-valued deadlock-avoidance path already does exactly this at
    iteration end; a checkpoint does it unconditionally so the journal
    never has to serialize arena views or pin state.  Returns the bytes
    moved; charges them to ``bus`` as one bulky DMA when given.
    """
    heap = table.heap
    for page in heap.resident_pages:
        page.pinned = False
    org = table.org
    if isinstance(org, MultiValuedOrganization):
        org._pin_counts.clear()
    moved = heap.evict_all()
    table.buckets.reset_gpu_heads()
    table.alloc.drop_stale_pages()
    table.alloc.reset_failures()
    if bus is not None and moved:
        bus.bulk(moved)
    return moved


def snapshot_table(table: GpuHashTable) -> dict:
    """Arrays + metadata capturing a *quiesced* in-progress table.

    The caller (see :mod:`repro.resilience.journal`) owns writing them to
    disk; this function owns knowing what state matters.
    """
    heap = table.heap
    if heap.resident_pages:
        raise CheckpointError(
            "snapshot requires a quiesced table; call quiesce_table first"
        )
    segments = sorted(heap._store)
    seg_data = np.zeros((len(segments), heap.page_size), dtype=np.uint8)
    seg_kind = np.zeros(len(segments), dtype=np.uint8)
    seg_group = np.zeros(len(segments), dtype=np.int64)
    seg_used = np.zeros(len(segments), dtype=np.int64)
    for row, seg in enumerate(segments):
        seg_data[row] = heap._store[seg]
        kind, group, used = heap._store_meta[seg]
        seg_kind[row] = _KINDS.index(kind)
        seg_group[row] = group
        seg_used[row] = used
    stats = table.alloc.stats
    counters = np.array(
        [
            heap._next_segment,
            heap.bytes_evicted,
            heap.fragmented_bytes,
            table.total_inserted,
            table.total_postponed,
            table.iterations_completed,
            stats.requests,
            stats.postponed,
            stats.pages_taken,
            stats.bytes_allocated,
            # mutation-cycle state: a crash mid-mutation-pass must resume
            # with the reclaim ledger and per-op counters intact, or the
            # sanitizer's tombstone census flags the restored table.
            table.total_mutated,
            stats.entries_tombstoned,
            stats.bytes_tombstoned,
            *table.mutations.snapshot(),
        ],
        dtype=np.int64,
    )
    combiner_meta = None
    if isinstance(table.org, CombiningOrganization):
        comb = table.org.combiner
        if comb.name not in _COMBINER_FACTORIES:
            raise CheckpointError(
                f"combiner {comb.name!r} is a runtime callback and cannot "
                "be journaled"
            )
        combiner_meta = {"name": comb.name, "scalar": comb.scalar}
    return {
        "meta": {
            "version": FORMAT_VERSION,
            "organization": _org_kind(table),
            "impl": table.org.impl,
            "combiner": combiner_meta,
            "page_size": heap.page_size,
            "n_buckets": table.buckets.n_buckets,
            "group_size": table.buckets.group_size,
            "n_slots": heap.pool.n_slots,
        },
        "head_cpu": table.buckets.head_cpu.copy(),
        "segment_ids": np.asarray(segments, dtype=np.int64),
        "segment_data": seg_data,
        "segment_kind": seg_kind,
        "segment_group": seg_group,
        "segment_used": seg_used,
        "free_slots": np.asarray(heap.pool._free_slots, dtype=np.int64),
        "counters": counters,
    }


def restore_table(table: GpuHashTable, payload: dict) -> None:
    """Overwrite a freshly-built (empty) table with a snapshot's state.

    The caller rebuilds the table from its own run configuration; this
    cross-checks that configuration against the snapshot metadata so a
    resume against the wrong geometry fails loudly instead of corrupting
    addresses.
    """
    meta = payload["meta"]
    heap = table.heap
    mismatches = [
        (k, got, want)
        for k, got, want in [
            ("organization", _org_kind(table), meta["organization"]),
            ("page_size", heap.page_size, meta["page_size"]),
            ("n_buckets", table.buckets.n_buckets, meta["n_buckets"]),
            ("group_size", table.buckets.group_size, meta["group_size"]),
            ("n_slots", heap.pool.n_slots, meta["n_slots"]),
        ]
        if got != want
    ]
    if mismatches:
        detail = ", ".join(
            f"{k}: run has {got!r}, snapshot has {want!r}"
            for k, got, want in mismatches
        )
        raise CheckpointError(f"snapshot/run configuration mismatch: {detail}")
    if (
        heap.resident_pages or heap._store
        or table.total_inserted or table.total_mutated
    ):
        raise CheckpointError("restore target must be a fresh, empty table")

    table.buckets.head_cpu[:] = payload["head_cpu"]
    table.buckets.reset_gpu_heads()
    heap._store = {}
    heap._store_meta = {}
    seg_data = payload["segment_data"]
    seg_kind = payload["segment_kind"]
    seg_group = payload["segment_group"]
    seg_used = payload["segment_used"]
    for row, seg in enumerate(payload["segment_ids"]):
        seg = int(seg)
        heap._store[seg] = np.array(seg_data[row], dtype=np.uint8)
        heap._store_meta[seg] = (
            _KINDS[int(seg_kind[row])],
            int(seg_group[row]),
            int(seg_used[row]),
        )
    heap.pool.set_free_slots(payload["free_slots"])
    c = payload["counters"]
    heap._next_segment = int(c[0])
    heap.bytes_evicted = int(c[1])
    heap.fragmented_bytes = int(c[2])
    table.total_inserted = int(c[3])
    table.total_postponed = int(c[4])
    table.iterations_completed = int(c[5])
    stats = table.alloc.stats
    stats.requests = int(c[6])
    stats.postponed = int(c[7])
    stats.pages_taken = int(c[8])
    stats.bytes_allocated = int(c[9])
    table.total_mutated = int(c[10])
    stats.entries_tombstoned = int(c[11])
    stats.bytes_tombstoned = int(c[12])
    m = table.mutations
    (
        m.inserts, m.updates_inplace, m.updates_entries,
        m.deletes_inplace, m.deletes_noop, m.deletes_tombstones,
        m.lookups, m.gate_postponed, m.value_nodes,
    ) = (int(x) for x in c[13:22])
    # Re-seal restored segments: the snapshot's bytes are the new ground
    # truth, and the original seal charges already live in the restored
    # clock, so this recompute is uncharged.
    if heap.integrity is not None:
        heap.integrity.reseal_after_restore(heap)


def snapshot_clock(ledger) -> dict:
    """The ledger's per-category spends (plain floats, journal-ready)."""
    return ledger.breakdown()


def restore_clock(ledger, breakdown: dict) -> None:
    """Reset ``ledger`` and replay a journaled breakdown into it."""
    from repro.gpusim.clock import CostCategory

    ledger.reset()
    for name, seconds in breakdown.items():
        try:
            category = CostCategory(name)
        except ValueError:
            raise CheckpointError(
                f"journal names unknown cost category {name!r}"
            ) from None
        if seconds:
            ledger.charge(category, float(seconds))
