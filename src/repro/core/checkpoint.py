"""Persisting tables: one checksummed archive, one table layout.

The dual-pointer design makes the finished table a *CPU-side data
structure*: bucket heads (`head_cpu`) plus the segment store, linked by
never-reused segment addresses.  That structure serializes as-is -- no
pointer rewriting -- and loads back as a read-only :class:`FrozenTable`
that supports the same CPU-side traversals (``cpu_items``, ``result``,
single-key ``get``) without any GPU machinery.

Every file written here is one archive (:func:`write_journal`): a ``.npz``
of a JSON ``meta`` record plus named arrays, CRC-32 checksummed over the
arrays and atomically replaced (sibling temporary file, fsync,
:func:`os.replace`), so a crash mid-write leaves the old file or the new
one, never a torn one.  A table is ``meta["table"]`` plus the
``table_head_cpu``, ``table_segment_ids`` and ``table_segment_data``
arrays: :func:`save_table` writes exactly that, and the resilience
layer's journal adds the rest of :func:`snapshot_table` and its driver
state, so :func:`load_table` reads either file.  Only the library's named
combiners round-trip; a :func:`~repro.core.combiners.CallbackCombiner`
table refuses to save (the callable cannot be serialized faithfully).
"""

from __future__ import annotations

import io
import json
import os
import zlib
from dataclasses import fields
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
from repro.core.mutations import MutationCounters
from repro.core.organizations import (
    CombiningOrganization,
    MultiValuedOrganization,
)
from repro.memalloc.pages import KIND_BY_CODE, KIND_CODES

__all__ = [
    "save_table",
    "load_table",
    "FrozenTable",
    "CheckpointError",
    "JournalError",
    "write_journal",
    "read_journal",
    "quiesce_table",
    "snapshot_table",
    "restore_table",
    "restore_clock",
]

#: the one version of a table file, checked by :func:`read_journal` alone.
#: Version 1 files may hold multi-valued key entries flagged SHADOW (bit 2),
#: which no reader interprets any more: they are refused.
JOURNAL_VERSION = 2

#: every named combiner must round-trip (name, scalar) -> same combiner
_COMBINER_FACTORIES = {
    "sum": SumCombiner,
    "max": MaxCombiner,
    "min": MinCombiner,
    "bitor": BitOrCombiner,
}


class CheckpointError(RuntimeError):
    """The table cannot be (de)serialized."""


class JournalError(CheckpointError):
    """The archive is missing, corrupt, or inconsistent with the run (a
    :class:`CheckpointError`, so ``except CheckpointError`` catches it)."""


# ----------------------------------------------------------------------
# the archive
# ----------------------------------------------------------------------
def _arrays_checksum(arrays: dict[str, np.ndarray]) -> int:
    crc = 0
    for name in sorted(arrays):
        crc = zlib.crc32(name.encode(), crc)
        crc = zlib.crc32(np.ascontiguousarray(arrays[name]).tobytes(), crc)
    return crc


def write_journal(path, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    """Atomically persist one archive to ``path``.

    ``meta`` must be JSON-serializable; ``arrays`` maps member names to
    numpy arrays.  The checksum and version are added here.
    """
    meta = dict(meta)
    meta["journal_version"] = JOURNAL_VERSION
    meta["checksum"] = _arrays_checksum(arrays)
    buffer = io.BytesIO()
    np.savez_compressed(
        buffer,
        meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        **arrays,
    )
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as f:
        f.write(buffer.getvalue())
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


def read_journal(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Load and verify an archive; returns ``(meta, arrays)``.

    Every corruption mode -- truncated archive, tampered member bytes,
    bad JSON, wrong version, checksum mismatch -- raises
    :class:`JournalError` with a message naming the problem.
    """
    if not os.path.exists(path):
        raise JournalError(f"no journal at {path!r}")
    try:
        archive = np.load(path)
    except Exception as exc:
        raise JournalError(f"unreadable journal {path!r}: {exc}") from exc
    arrays: dict[str, np.ndarray] = {}
    with archive:
        try:
            meta = json.loads(bytes(archive["meta"]).decode())
            for name in archive.files:
                if name != "meta":
                    arrays[name] = archive[name]
        except KeyError as exc:
            raise JournalError(
                f"journal {path!r} is missing member {exc}"
            ) from None
        except Exception as exc:  # tampered member bytes / bad JSON
            raise JournalError(f"corrupt journal {path!r}: {exc}") from exc
    if not isinstance(meta, dict):
        raise JournalError(f"corrupt journal metadata in {path!r}")
    version = meta.get("journal_version")
    if version != JOURNAL_VERSION:
        raise JournalError(f"unsupported journal version {version!r}")
    if meta.get("checksum") != _arrays_checksum(arrays):
        raise JournalError(
            f"journal {path!r} failed its checksum (torn or tampered write)"
        )
    return meta, arrays


# ----------------------------------------------------------------------
# the table layout
# ----------------------------------------------------------------------
def _table_meta(table: GpuHashTable) -> dict:
    """``meta["table"]``: what a reader needs besides the arrays, and what
    a resume cross-checks against its own run configuration."""
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
    return {
        "organization": table.org.kind,
        "impl": table.org.impl,
        "combiner": combiner_meta,
        "page_size": heap.page_size,
        "n_buckets": table.buckets.n_buckets,
        "group_size": table.buckets.group_size,
        "n_slots": heap.pool.n_slots,
    }


def _segment_data(heap, segments, read) -> np.ndarray:
    data = np.zeros((len(segments), heap.page_size), dtype=np.uint8)
    for row, seg in enumerate(segments):
        data[row] = read(seg)
    return data


def save_table(table: GpuHashTable, path) -> None:
    """Serialize a table's CPU-side structure to ``path``.

    Resident pages are included and the table is left untouched.
    """
    heap = table.heap
    segments = sorted(
        {p.segment for p in heap.resident_pages} | set(heap._store)
    )
    write_journal(path, {"table": _table_meta(table)}, {
        "table_head_cpu": table.buckets.head_cpu,
        "table_segment_ids": np.asarray(segments, dtype=np.int64),
        "table_segment_data": _segment_data(heap, segments, heap.segment_view),
    })


def load_table(path) -> "FrozenTable":
    """Load a :func:`save_table` file -- or a journal -- as a read-only
    :class:`FrozenTable`.

    Any way the file can be bad surfaces as :class:`CheckpointError`,
    never a raw numpy/zipfile traceback.
    """
    meta, arrays = read_journal(path)
    try:
        table, comb = meta["table"], meta["table"]["combiner"]
        if comb is not None and comb["name"] not in _COMBINER_FACTORIES:
            raise CheckpointError(
                f"checkpoint names unknown combiner {comb['name']!r}"
            )
        data = arrays["table_segment_data"]
        return FrozenTable(
            table["organization"],
            None if comb is None
            else _COMBINER_FACTORIES[comb["name"]](comb["scalar"]),
            int(table["page_size"]),
            arrays["table_head_cpu"],
            {int(s): data[row]
             for row, s in enumerate(arrays["table_segment_ids"])},
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"malformed table record in {path!r}: {exc!r}"
        ) from None


class FrozenTable:
    """Read-only CPU-side view of a persisted table."""

    def __init__(
        self,
        organization: str,
        combiner: Combiner | None,
        page_size: int,
        head_cpu: np.ndarray,
        segments: dict[int, np.ndarray],
    ):
        self.organization = organization
        self.combiner = combiner
        self.page_size = page_size
        self.head_cpu = head_cpu
        self.segments = segments
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


#: ``table_counters``, column by column: (owner, attribute), the owner as
#: :func:`_counter_owners` names it.  The mutation-cycle state (from
#: ``total_mutated`` on) is there because a crash mid-mutation-pass must
#: resume with the reclaim ledger and per-op counters intact, or the
#: sanitizer's tombstone census flags the restored table.
_COUNTERS = (
    ("heap", "_next_segment"), ("heap", "bytes_evicted"),
    ("heap", "fragmented_bytes"), ("table", "total_inserted"),
    ("table", "total_postponed"), ("table", "iterations_completed"),
    ("stats", "requests"), ("stats", "postponed"), ("stats", "pages_taken"),
    ("stats", "bytes_allocated"), ("table", "total_mutated"),
    ("stats", "entries_tombstoned"), ("stats", "bytes_tombstoned"),
    *(("mutations", f.name) for f in fields(MutationCounters)),
)


def _counter_owners(table: GpuHashTable) -> dict:
    return {
        "table": table, "heap": table.heap, "stats": table.alloc.stats,
        "mutations": table.mutations,
    }


def snapshot_table(table: GpuHashTable) -> tuple[dict, dict]:
    """``(meta["table"], table_* arrays)`` capturing a *quiesced*
    in-progress table.

    The caller (the resilience layer's journal) owns writing them to disk;
    this function owns knowing what state matters.
    """
    heap = table.heap
    if heap.resident_pages:
        raise CheckpointError(
            "snapshot requires a quiesced table; call quiesce_table first"
        )
    meta = _table_meta(table)
    segments = sorted(heap._store)
    seg_kind = np.zeros(len(segments), dtype=np.uint8)
    seg_group = np.zeros(len(segments), dtype=np.int64)
    seg_used = np.zeros(len(segments), dtype=np.int64)
    for row, seg in enumerate(segments):
        kind, seg_group[row], seg_used[row] = heap._store_meta[seg]
        seg_kind[row] = KIND_CODES[kind]
    owners = _counter_owners(table)
    counters = np.array(
        [getattr(owners[owner], name) for owner, name in _COUNTERS],
        dtype=np.int64,
    )
    return meta, {
        "table_head_cpu": table.buckets.head_cpu.copy(),
        "table_segment_ids": np.asarray(segments, dtype=np.int64),
        "table_segment_data": _segment_data(heap, segments, heap._store.get),
        "table_segment_kind": seg_kind,
        "table_segment_group": seg_group,
        "table_segment_used": seg_used,
        "table_free_slots": np.asarray(heap.pool._free_slots, dtype=np.int64),
        "table_counters": counters,
    }


def restore_table(table: GpuHashTable, meta: dict, arrays: dict) -> None:
    """Overwrite a freshly-built (empty) table with a snapshot's state:
    its ``meta["table"]`` and (at least) its ``table_*`` arrays.

    The caller rebuilds the table from its own run configuration; this
    cross-checks that configuration against the snapshot metadata so a
    resume against the wrong geometry fails loudly instead of corrupting
    addresses.
    """
    heap = table.heap
    mismatches = [
        (k, got, want)
        for k, got, want in [
            ("organization", table.org.kind, meta["organization"]),
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

    table.buckets.head_cpu[:] = arrays["table_head_cpu"]
    table.buckets.reset_gpu_heads()
    seg_data = arrays["table_segment_data"]
    seg_kind = arrays["table_segment_kind"]
    seg_group = arrays["table_segment_group"]
    seg_used = arrays["table_segment_used"]
    for row, seg in enumerate(arrays["table_segment_ids"]):
        seg = int(seg)
        heap.set_stored(seg, np.array(seg_data[row], dtype=np.uint8))
        heap._store_meta[seg] = (
            KIND_BY_CODE[int(seg_kind[row])],
            int(seg_group[row]),
            int(seg_used[row]),
        )
    heap.pool.set_free_slots(arrays["table_free_slots"])
    owners = _counter_owners(table)
    for (owner, name), value in zip(_COUNTERS, arrays["table_counters"]):
        setattr(owners[owner], name, int(value))
    # Re-seal restored segments: the snapshot's bytes are the new ground
    # truth, and the original seal charges already live in the restored
    # clock, so this recompute is uncharged.
    if heap.integrity is not None:
        heap.integrity.reseal_after_restore(heap)


def restore_clock(ledger, breakdown: dict) -> None:
    """Reset ``ledger`` and replay a journaled breakdown
    (``ledger.breakdown()``) into it."""
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
