"""The three bucket organizations (Section IV-B) and their SEPO policies.

Each organization implements

* ``insert_indices`` -- the per-record insert path, returning a success mask
  (``False`` = POSTPONE) and accumulating cost statistics, and
* ``end_iteration`` -- the Figure-5 halt/rearrange step: which pages are
  evicted, which are retained, and what chain maintenance is required,
* ``should_halt`` -- whether the computation must stop mid-input (only the
  basic method halts early, at the 50%-failed-bucket-groups threshold).

The insert paths do the *real* work -- packing entries into heap pages and
maintaining both pointer chains -- while counting probe steps, touched bytes
and allocation contention for the cost model.

Every organization carries two interchangeable implementations, selected
by the ``impl`` constructor argument:

* ``"vectorized"`` (default) -- batched kernels wherever the scalar walk's
  effects and charges have a closed form: records are bucketized,
  allocation space is reserved per bucket group in one pass
  (:meth:`~repro.memalloc.allocator.BucketGroupAllocator.allocate_many`),
  entries are packed with slab-style numpy scatter writes, and chain heads
  are updated with grouped last-writer-wins scatters.  The probing
  organizations group the batch by distinct key and resolve every key
  against its bucket's resident chain prefix in one bulk pass
  (:func:`repro.core.chainview.resolve_keys`).  Whatever has no closed
  form -- mixed-op batches with deletes or lookups, traced runs, 64-bit
  hash collisions, callback combiners, tables holding tombstones,
  multi-valued inserts under pool pressure -- runs the scalar loop.
* ``"slow_reference"`` -- the one-record-at-a-time loops, always: the
  differential-testing oracle.

Both produce bit-identical tables, success masks, and cost tallies; only
wall-clock time differs.  Simulated-time accounting is therefore unaffected
by the choice (see docs/cost_model.md, "Host-side performance architecture").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core import entries as E
from repro.core.chainview import resolve_keys
from repro.core.combiners import Combiner
from repro.core.mutations import OP_DELETE, OP_INSERT, OP_LOOKUP, OP_UPDATE
from repro.memalloc.address import NULL
from repro.memalloc.pages import KIND_CODES, PageKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.hashtable import GpuHashTable
    from repro.core.records import RecordBatch

__all__ = [
    "Organization",
    "BasicOrganization",
    "MultiValuedOrganization",
    "CombiningOrganization",
    "EvictionReport",
    "IMPLS",
    "HASH_CYCLES_PER_BYTE",
    "PROBE_CYCLES",
    "INSERT_CYCLES",
    "TOMBSTONE_CYCLES",
    "UPDATE_CYCLES",
]

#: ALU cost constants (cycles) for the table's own work, used on both devices.
HASH_CYCLES_PER_BYTE = 3.0
PROBE_CYCLES = 12.0
INSERT_CYCLES = 30.0
#: maintenance cost per entry visited while splicing retained chains
SPLICE_CYCLES = 20.0
#: flag-word write of an in-place delete (cheaper than an insert: no
#: payload is stored, only the klen word is rewritten)
TOMBSTONE_CYCLES = 10.0
#: in-place value rewrite of a basic-method update (value store + flag word)
UPDATE_CYCLES = 18.0

#: valid implementations: batched kernels with a scalar fallback, or the
#: scalar oracle loops only
IMPLS = ("vectorized", "slow_reference")


def _stable_order(keys: np.ndarray) -> np.ndarray:
    """``argsort(kind="stable")`` via a composite quicksort key.

    Fusing the arrival position into one unique int64 key lets the default
    introsort produce exactly the stable permutation ~3x faster than
    mergesort.  Only valid for small-cardinality keys (bucket/group ids):
    ``keys * n + n`` must not overflow int64.
    """
    n = len(keys)
    return (keys.astype(np.int64) * n + np.arange(n)).argsort()


def segmented_exclusive_cumsum(x: np.ndarray, seg: np.ndarray) -> np.ndarray:
    """Per-element sum of *earlier* same-segment elements, in arrival order.

    This is the closed form behind the pre-aggregated kernels' walk
    accounting: with ``x`` holding per-record "a new entry was prepended
    here" event weights and ``seg`` the bucket ids, the result at record
    ``j`` is exactly how much the bucket's chain grew before ``j``'s walk
    started -- what the scalar reference observes record by record.
    """
    m = len(x)
    order = _stable_order(seg)
    xs = x[order]
    excl = np.cumsum(xs) - xs
    ss = seg[order]
    st = np.flatnonzero(np.r_[True, ss[1:] != ss[:-1]])
    base = np.repeat(excl[st], np.diff(np.r_[st, m]))
    out = np.empty(m, dtype=np.int64)
    out[order] = excl - base
    return out


def _link_heads(buckets, bs, gaddr, caddr) -> tuple[np.ndarray, np.ndarray]:
    """Prepend new entries to their bucket chains; returns their
    ``(next_gpu, next_cpu)`` pointers.

    ``bs`` are the entries' bucket ids sorted by (bucket, arrival), with
    ``gaddr``/``caddr`` the entries' own addresses in the same order.
    Within each bucket, an entry points at the one inserted just before it
    (the first at the old head), and the bucket head ends at the last
    arrival -- grouped last-writer-wins, what the scalar loop reaches one
    record at a time.
    """
    head_gpu, head_cpu = buckets.head_gpu, buckets.head_cpu
    first = np.r_[True, bs[1:] != bs[:-1]]
    next_gpu = np.where(first, head_gpu[bs], np.r_[NULL, gaddr[:-1]])
    next_cpu = np.where(first, head_cpu[bs], np.r_[NULL, caddr[:-1]])
    last = np.r_[first[1:], True]
    head_gpu[bs[last]] = gaddr[last]
    head_cpu[bs[last]] = caddr[last]
    return next_gpu, next_cpu


class _DistinctKeys:
    """One insert subset grouped by distinct key: the shared front of the
    pre-aggregated kernels.

    With ``m`` records holding ``G`` distinct keys, ``sub`` permutes subset
    positions key-major (arrival order inside a key), ``starts``/``counts``
    bound each key's segment of ``sub``, ``firstj`` is the subset position
    of each key's first occurrence, ``gpos`` maps a record to its key, and
    ``gbucket`` is each key's bucket.
    """

    def __init__(self, grouping, idx, buckets):
        m = len(idx)
        self.sub, self.starts = grouping.subset(idx)
        G = len(self.starts)
        self.counts = np.diff(np.r_[self.starts, m])
        self.firstj = self.sub[self.starts]
        self.gpos = np.empty(m, dtype=np.int64)
        self.gpos[self.sub] = np.repeat(np.arange(G), self.counts)
        self.isfirst = np.zeros(m, dtype=bool)
        self.isfirst[self.firstj] = True
        self.gbucket = buckets[self.firstj]

    def resolve(self, table, batch, idx, kind):
        """Look every distinct key up in its bucket's resident prefix."""
        rec = idx[self.firstj]
        return resolve_keys(
            table.heap, table.buckets.head_cpu[self.gbucket], kind,
            batch.keys[rec], batch.key_lens[rec],
        )

    def walk_charges(self, res, buckets, klens, created, header):
        """Closed form of what the scalar walks of all ``m`` records cost.

        A record's walk visits its bucket's resident prefix plus every
        entry prepended by earlier records of the batch.  Both have closed
        forms -- per-bucket exclusive cumulative sums of "entry prepended
        here" events (probe steps) and of their header+key costs (bytes) --
        so no per-record walk is replayed.  ``created`` marks the keys (G,)
        whose entry this batch creates at their first occurrence; a key
        that is neither resident nor created misses on every occurrence.

        Returns ``(probe_steps, walk_bytes, hit_res, hit_new)``: the two
        totals, and per-record masks of walks that end at a resident entry
        and at an entry an earlier record of this batch created.
        """
        m = len(buckets)
        gpos, firstj = self.gpos, self.firstj
        made = firstj[created]
        ev = np.zeros(m, dtype=np.int64)
        cv = np.zeros(m, dtype=np.int64)
        ev[made] = 1
        cv[made] = header + klens[made]
        A = segmented_exclusive_cumsum(ev, buckets)
        S = segmented_exclusive_cumsum(cv, buckets)
        hit_res = (res.hit >= 0)[gpos]
        hit_new = ~hit_res & created[gpos] & ~self.isfirst
        miss = ~(hit_res | hit_new)
        probe = np.zeros(m, dtype=np.int64)
        btv = np.zeros(m, dtype=np.int64)
        probe[miss] = res.n_resident[gpos][miss] + A[miss]
        btv[miss] = res.walk_bytes[gpos][miss] + S[miss]
        if hit_new.any():
            probe[hit_new] = A[hit_new] - A[firstj][gpos][hit_new]
            btv[hit_new] = S[hit_new] - S[firstj][gpos][hit_new]
        if hit_res.any():
            probe[hit_res] = res.hit[gpos][hit_res] + 1 + A[hit_res]
            btv[hit_res] = res.hit_bytes[gpos][hit_res] + S[hit_res]
        return int(probe.sum()), int(btv.sum()), hit_res, hit_new


@dataclass
class EvictionReport:
    """What an end-of-iteration rearrangement did."""

    bytes_evicted: int = 0
    pages_evicted: int = 0
    pages_retained: int = 0
    entries_spliced: int = 0
    maintenance_cycles: float = 0.0
    #: multi-valued deadlock avoidance kicked in: pinned pages were evicted
    forced_full_eviction: bool = False


class GroupLog:
    """Ordered log of bucket-group ids, one per successful allocation.

    The scalar reference :meth:`append`\\ s one int per success; the
    vectorized kernels :meth:`extend` whole arrays -- no per-element
    ``tolist``/``asarray`` conversion on either side.  Readers normalize
    through :meth:`as_array`, and equality compares normalized contents,
    so the differential suites keep asserting
    ``ta.alloc_groups == tb.alloc_groups`` across implementations.
    """

    __slots__ = ("_chunks", "_n")

    def __init__(self) -> None:
        self._chunks: list = []  # ints and int64 arrays, in arrival order
        self._n = 0

    def append(self, group: int) -> None:
        self._chunks.append(int(group))
        self._n += 1

    def extend(self, groups) -> None:
        a = np.asarray(groups, dtype=np.int64)
        if len(a):
            self._chunks.append(a)
            self._n += len(a)

    def __len__(self) -> int:
        return self._n

    def __bool__(self) -> bool:
        return self._n > 0

    def as_array(self) -> np.ndarray:
        parts: list[np.ndarray] = []
        pend: list[int] = []
        for c in self._chunks:
            if isinstance(c, int):
                pend.append(c)
            else:
                if pend:
                    parts.append(np.asarray(pend, dtype=np.int64))
                    pend = []
                parts.append(c)
        if pend:
            parts.append(np.asarray(pend, dtype=np.int64))
        if not parts:
            return np.empty(0, dtype=np.int64)
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupLog):
            return NotImplemented
        return bool(np.array_equal(self.as_array(), other.as_array()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GroupLog({self.as_array().tolist()!r})"


@dataclass(eq=False)
class InsertTally:
    """Cost counters accumulated by an insert loop."""

    attempted: int = 0
    succeeded: int = 0
    postponed: int = 0
    probe_steps: int = 0
    bytes_touched: int = 0
    table_cycles: float = 0.0
    #: bucket-group id per successful allocation (allocator contention)
    alloc_groups: GroupLog = field(default_factory=GroupLog)

    def __eq__(self, other) -> bool:
        if not isinstance(other, InsertTally):
            return NotImplemented
        return (
            self.attempted == other.attempted
            and self.succeeded == other.succeeded
            and self.postponed == other.postponed
            and self.probe_steps == other.probe_steps
            and self.bytes_touched == other.bytes_touched
            and self.table_cycles == other.table_cycles
            and self.alloc_groups == other.alloc_groups
        )


class Organization:
    """Base class; see module docstring."""

    kind: str = "abstract"
    #: page kinds this organization allocates from
    page_kinds: tuple[PageKind, ...] = (PageKind.GENERIC,)
    #: one of :data:`IMPLS`; governs inserts and mixed-op mutations alike
    impl: str = "vectorized"

    def _set_impl(self, impl: str) -> None:
        if impl not in IMPLS:
            raise ValueError(f"impl must be one of {IMPLS}: {impl!r}")
        self.impl = impl

    def insert_indices(
        self,
        table: "GpuHashTable",
        batch: "RecordBatch",
        idx: np.ndarray,
        buckets: np.ndarray,
        tally: InsertTally,
    ) -> np.ndarray:
        """Dispatch to the batched kernel or the scalar slow reference."""
        if self.impl == "slow_reference":
            return self._insert_scalar(table, batch, idx, buckets, tally)
        return self._insert_vectorized(table, batch, idx, buckets, tally)

    def _insert_scalar(self, table, batch, idx, buckets, tally) -> np.ndarray:
        raise NotImplementedError

    def _insert_vectorized(self, table, batch, idx, buckets, tally) -> np.ndarray:
        # organizations without a batched kernel fall back to the reference
        return self._insert_scalar(table, batch, idx, buckets, tally)

    # ------------------------------------------------------------------
    # mixed-op mutation path (see repro.core.mutations)
    # ------------------------------------------------------------------
    def mutate_indices(
        self,
        table: "GpuHashTable",
        batch,
        idx: np.ndarray,
        buckets: np.ndarray,
        tally: InsertTally,
    ) -> np.ndarray:
        """Apply a mixed insert/update/delete/lookup batch.

        Mutation batches are *gated*: any op whose bucket group is
        sticky-failed postpones up front, which preserves per-key issue
        order across postponement replays (same key -> same bucket -> same
        group, and a failed allocation poisons the group until the
        end-of-iteration eviction refills the pool).
        """
        if self.impl == "slow_reference":
            return self._mutate_impl(table, batch, idx, buckets, tally)
        return self._mutate_vectorized(table, batch, idx, buckets, tally)

    def _mutate_impl(self, table, batch, idx, buckets, tally) -> np.ndarray:
        """The in-order mixed-op loop: every op re-walks the real chain."""
        raise NotImplementedError(
            f"the {self.kind} organization has no mutation path"
        )

    def _mutate_vectorized(self, table, batch, idx, buckets, tally) -> np.ndarray:
        # no batched form for this op mix: the scalar loop is the kernel
        return self._mutate_impl(table, batch, idx, buckets, tally)

    def should_halt(self, table: "GpuHashTable") -> bool:
        return False

    def reconcile_tally(self, table: "GpuHashTable", census) -> list[str]:
        """Sanitizer hook: organization-specific tally-vs-census checks.

        ``census`` is a :class:`~repro.sanitize.sanitizer.SanitizeReport`
        holding the reachable-extent walk (``n_entries``,
        ``n_value_nodes``).  Returns violation messages; an acknowledged
        record that is not reachable was silently dropped.
        """
        return []

    def end_iteration(self, table: "GpuHashTable") -> EvictionReport:
        """Default policy: evict everything, reset all GPU chain heads."""
        report = EvictionReport()
        victims = table.heap.resident_pages
        report.pages_evicted = len(victims)
        report.bytes_evicted = table.heap.evict(victims)
        table.buckets.reset_gpu_heads()
        table.alloc.drop_stale_pages()
        table.alloc.reset_failures()
        return report

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _walk_resident_mut(table, bufs, addr, key, tally, trace):
        """Resident-prefix walk that distinguishes *absence* from *blocking*.

        Returns ``(hit, blocked)``: ``hit`` is ``(buf, off, klen, vlen,
        flags, addr)`` of the first (newest) same-key entry, live or dead,
        else None; ``blocked`` is True when the walk stopped at a
        non-resident entry, so a miss does not prove the key is absent from
        the table (the delete path must then prepend a tombstone entry
        rather than no-op).
        """
        heap = table.heap
        page_size = heap.page_size
        klen_key = len(key)
        while addr != NULL:
            seg, off = divmod(addr, page_size)
            cached = bufs.get(seg)
            if cached is None:
                page = heap.resident_page(seg)
                if page is None:
                    return None, True  # rest of chain is non-resident
                cached = heap.pool.slot_view(page.slot)
                bufs[seg] = cached
            next_gpu, next_cpu, klen, vlen = E.read_entry_header(cached, off)
            tally.probe_steps += 1
            tally.bytes_touched += E.ENTRY_HEADER + klen
            if trace is not None:
                trace.on_access(addr, E.ENTRY_HEADER + klen)
            if klen == klen_key and E.entry_key(cached, off, klen) == key:
                return (
                    cached, off, klen, vlen, E.entry_flags(cached, off), addr
                ), False
            addr = next_cpu
        return None, False

    def _delete_generic(self, table, tally, b, key, hit, blocked) -> bool:
        """Tombstone delete against a generic-entry chain; True = success.

        Upsert semantics: a proven-absent or already-dead key is a
        successful no-op; a live newest match is tombstoned in place; a
        miss against a chain that continues into evicted memory prepends a
        born-dead tombstone entry (absence is unprovable, and the
        tombstone must outrank any evicted copy at merge time)."""
        alloc = table.alloc
        trace = table.trace
        muts = table.mutations
        if hit is not None:
            buf, off, klen, vlen, flags, addr = hit
            if flags & E.GFLAG_TOMBSTONE:
                muts.deletes_noop += 1
                return True
            E.set_entry_flag(buf, off, E.GFLAG_TOMBSTONE)
            table.heap.note_write(addr // table.heap.page_size)
            alloc.note_tombstone(E.entry_size(klen, vlen))
            tally.table_cycles += TOMBSTONE_CYCLES
            tally.bytes_touched += 4  # the rewritten klen/flag word
            if trace is not None:
                trace.on_access(addr, 4)
            muts.deletes_inplace += 1
            return True
        if not blocked:
            muts.deletes_noop += 1
            return True
        group = b // table.buckets.group_size
        size = E.entry_size(len(key), 0)
        tally.table_cycles += INSERT_CYCLES
        a = alloc.allocate(group, size, PageKind.GENERIC)
        if a is None:
            return False
        head_gpu = table.buckets.head_gpu
        head_cpu = table.buckets.head_cpu
        buf = table.heap.pool.slot_view(a.page.slot)
        E.write_entry(
            buf, a.offset, int(head_gpu[b]), int(head_cpu[b]), key, b""
        )
        E.set_entry_flag(buf, a.offset, E.GFLAG_TOMBSTONE)
        head_gpu[b] = a.gpu_addr
        head_cpu[b] = a.cpu_addr
        alloc.note_tombstone(size)
        tally.bytes_touched += size + 16
        tally.alloc_groups.append(group)
        if trace is not None:
            trace.on_access(a.cpu_addr, size)
        muts.deletes_tombstones += 1
        return True

    def _lookup_generic(self, table, b, key, tally) -> list[bytes]:
        """Full CPU-chain lookup through the newest-first automaton.

        Dual pointers make evicted entries host-visible, so the walk never
        blocks.  Newest-first: a tombstone closes the key (older copies are
        dead), a shadow emits its own value and closes the key; the
        collected values are reversed to oldest-first, matching the
        dict-model's append order."""
        heap = table.heap
        page_size = heap.page_size
        addr = int(table.buckets.head_cpu[b])
        klen_key = len(key)
        out: list[bytes] = []
        while addr != NULL:
            seg, off = divmod(addr, page_size)
            buf = heap.segment_view(seg)
            _, next_cpu, klen, vlen = E.read_entry_header(buf, off)
            tally.probe_steps += 1
            tally.bytes_touched += E.ENTRY_HEADER + klen
            if klen == klen_key and E.entry_key(buf, off, klen) == key:
                flags = E.entry_flags(buf, off)
                if flags & E.GFLAG_TOMBSTONE:
                    break
                out.append(E.entry_value(buf, off, klen, vlen))
                if flags & E.GFLAG_SHADOW:
                    break
            addr = next_cpu
        out.reverse()
        return out


class BasicOrganization(Organization):
    """Duplicate keys stored as separate entries; halts at 50% failed groups."""

    kind = "basic"

    def __init__(self, halt_threshold: float = 0.5, impl: str = "vectorized"):
        if not 0.0 < halt_threshold <= 1.0:
            raise ValueError(f"halt threshold must be in (0, 1]: {halt_threshold}")
        self.halt_threshold = halt_threshold
        self._set_impl(impl)

    def should_halt(self, table) -> bool:
        return table.alloc.failed_fraction >= self.halt_threshold

    def reconcile_tally(self, table, census) -> list[str]:
        # One entry per acknowledged success, duplicates kept separately.
        # Mutations add entries too: insert/update ops that allocated, and
        # born-dead tombstones; in-place deletes and updates do not.
        m = table.mutations
        expected = (
            table.total_inserted + m.inserts + m.updates_entries
            + m.deletes_tombstones
        )
        if census.n_entries != expected:
            return [
                f"basic organization acknowledged {expected} entry-creating "
                f"operations but {census.n_entries} entries are reachable: "
                + ("records were silently dropped"
                   if census.n_entries < expected
                   else "phantom entries appeared")
            ]
        return []

    def _insert_vectorized(self, table, batch, idx, buckets, tally):
        """Batched insert: bulk-reserve, slab-write, scatter chain heads.

        No per-record Python work: allocation space for the whole batch is
        reserved per bucket group in one :meth:`allocate_many` pass, all
        entries are packed into heap pages with vectorized scatter writes,
        and chain pointers are derived by bucket-grouping the successful
        records (stable sort keeps arrival order, so chains stay
        newest-first and bit-identical to the scalar path).
        """
        if batch.values is None:
            raise ValueError("batch carries numeric values")
        heap = table.heap
        group_size = table.buckets.group_size
        m = len(idx)
        klens = batch.key_lens[idx].astype(np.int64)
        vlens = batch.val_lens[idx].astype(np.int64)
        sizes = E.entry_sizes_bulk(klens, vlens)
        groups = buckets // group_size
        # The allocator needs requests in *arrival* order within each group
        # (page-fill boundaries must match the sequential reference), so it
        # computes its own group-stable sort; the bucket sort below is only
        # for chain linking and orders records within a group by bucket id.
        bucket_order = _stable_order(buckets)
        bulk = table.alloc.allocate_many(groups, sizes, PageKind.GENERIC)
        ok = bulk.ok
        n_ok = int(ok.sum())
        tally.attempted += m
        # 3 * klen + 30 per record: integer-valued floats, so any summation
        # order is exact and matches the scalar accumulation bit for bit.
        tally.table_cycles += float(
            HASH_CYCLES_PER_BYTE * int(klens.sum()) + INSERT_CYCLES * m
        )
        tally.succeeded += n_ok
        tally.postponed += m - n_ok
        if n_ok == 0:
            return ok
        tally.bytes_touched += int((sizes[ok] + 16).sum())
        tally.alloc_groups.extend(groups[ok])

        sel = bucket_order[ok[bucket_order]]  # successes in (bucket, arrival) order
        next_gpu, next_cpu = _link_heads(
            table.buckets, buckets[sel], bulk.gpu_addr[sel], bulk.cpu_addr[sel]
        )

        # slab write of every new entry straight into the heap arena
        rec = idx[sel]
        pos = bulk.slot[sel] * heap.page_size + bulk.offset[sel]
        E.write_entries_bulk(
            heap.pool.arena, pos, next_gpu, next_cpu,
            batch.keys[rec], batch.key_lens[rec].astype(np.int64),
            batch.values[rec], batch.val_lens[rec].astype(np.int64),
        )
        trace = table.trace
        if trace is not None:  # replay accesses in arrival order
            for j in np.flatnonzero(ok).tolist():
                trace.on_access(int(bulk.cpu_addr[j]), int(sizes[j]))
        return ok

    def _insert_scalar(self, table, batch, idx, buckets, tally):
        heap = table.heap
        alloc = table.alloc
        head_gpu = table.buckets.head_gpu
        head_cpu = table.buckets.head_cpu
        group_size = table.buckets.group_size
        trace = table.trace
        all_keys = batch.key_bytes_list()
        idx_list = idx.tolist()
        bucket_list = buckets.tolist()
        success = np.zeros(len(idx), dtype=bool)
        for j, i in enumerate(idx_list):
            b = bucket_list[j]
            key = all_keys[i]
            value = batch.value_bytes(i)
            size = E.entry_size(len(key), len(value))
            a = alloc.allocate(b // group_size, size, PageKind.GENERIC)
            tally.attempted += 1
            tally.table_cycles += (
                HASH_CYCLES_PER_BYTE * len(key) + INSERT_CYCLES
            )
            if a is None:
                tally.postponed += 1
                continue
            buf = heap.pool.slot_view(a.page.slot)
            E.write_entry(
                buf, a.offset, int(head_gpu[b]), int(head_cpu[b]), key, value
            )
            head_gpu[b] = a.gpu_addr
            head_cpu[b] = a.cpu_addr
            tally.succeeded += 1
            tally.bytes_touched += size + 16  # entry write + head update
            tally.alloc_groups.append(b // group_size)
            if trace is not None:
                trace.on_access(a.cpu_addr, size)
            success[j] = True
        return success

    # -- mixed-op mutation path ----------------------------------------
    def _mutate_impl(self, table, batch, idx, buckets, tally):
        heap = table.heap
        alloc = table.alloc
        head_gpu = table.buckets.head_gpu
        head_cpu = table.buckets.head_cpu
        group_size = table.buckets.group_size
        trace = table.trace
        muts = table.mutations
        all_keys = batch.key_bytes_list()
        op_list = batch.ops.tolist()
        idx_list = idx.tolist()
        bucket_list = buckets.tolist()
        success = np.zeros(len(idx), dtype=bool)
        bufs: dict[int, np.ndarray] = {}
        for j, i in enumerate(idx_list):
            b = bucket_list[j]
            group = b // group_size
            key = all_keys[i]
            op = op_list[i]
            tally.attempted += 1
            tally.table_cycles += HASH_CYCLES_PER_BYTE * len(key)
            if alloc.group_failed(group):
                # the gate: a same-group op already postponed, so this op
                # must too, or it could overtake the pending one
                tally.postponed += 1
                muts.gate_postponed += 1
                continue
            if op == OP_LOOKUP:
                batch.lookup_results[i] = self._lookup_generic(
                    table, b, key, tally
                )
                tally.succeeded += 1
                muts.lookups += 1
                success[j] = True
                continue
            if op == OP_INSERT:
                value = batch.value_bytes(i)
                size = E.entry_size(len(key), len(value))
                tally.table_cycles += INSERT_CYCLES
                a = alloc.allocate(group, size, PageKind.GENERIC)
                if a is None:
                    tally.postponed += 1
                    continue
                buf = heap.pool.slot_view(a.page.slot)
                E.write_entry(
                    buf, a.offset, int(head_gpu[b]), int(head_cpu[b]),
                    key, value,
                )
                head_gpu[b] = a.gpu_addr
                head_cpu[b] = a.cpu_addr
                tally.succeeded += 1
                tally.bytes_touched += size + 16
                tally.alloc_groups.append(group)
                if trace is not None:
                    trace.on_access(a.cpu_addr, size)
                muts.inserts += 1
                success[j] = True
                continue
            if op == OP_UPDATE:
                value = batch.value_bytes(i)
                hit, blocked = self._walk_resident_mut(
                    table, bufs, int(head_cpu[b]), key, tally, trace
                )
                if hit is not None:
                    buf, off, klen, vlen, flags, addr = hit
                    if not flags & E.GFLAG_TOMBSTONE and vlen == len(value):
                        # live newest match, same width: rewrite in place
                        # and shadow it so older duplicates are superseded
                        E.set_entry_value(buf, off, klen, value)
                        E.set_entry_flag(buf, off, E.GFLAG_SHADOW)
                        heap.note_write(addr // heap.page_size)
                        tally.table_cycles += UPDATE_CYCLES
                        tally.bytes_touched += vlen + 4
                        if trace is not None:
                            trace.on_access(addr, vlen + 4)
                        tally.succeeded += 1
                        muts.updates_inplace += 1
                        success[j] = True
                        continue
                # dead, width-changing, or unproven-absent: prepend a
                # shadow entry that replaces every older copy at merge
                size = E.entry_size(len(key), len(value))
                tally.table_cycles += INSERT_CYCLES
                a = alloc.allocate(group, size, PageKind.GENERIC)
                if a is None:
                    tally.postponed += 1
                    continue
                buf = heap.pool.slot_view(a.page.slot)
                E.write_entry(
                    buf, a.offset, int(head_gpu[b]), int(head_cpu[b]),
                    key, value,
                )
                E.set_entry_flag(buf, a.offset, E.GFLAG_SHADOW)
                head_gpu[b] = a.gpu_addr
                head_cpu[b] = a.cpu_addr
                tally.succeeded += 1
                tally.bytes_touched += size + 16
                tally.alloc_groups.append(group)
                if trace is not None:
                    trace.on_access(a.cpu_addr, size)
                muts.updates_entries += 1
                success[j] = True
                continue
            # OP_DELETE
            hit, blocked = self._walk_resident_mut(
                table, bufs, int(head_cpu[b]), key, tally, trace
            )
            if self._delete_generic(table, tally, b, key, hit, blocked):
                tally.succeeded += 1
                success[j] = True
            else:
                tally.postponed += 1
        return success


class CombiningOrganization(Organization):
    """Duplicate keys combined in place via a callback (Section IV-B)."""

    kind = "combining"

    def __init__(self, combiner: Combiner, impl: str = "vectorized"):
        self.combiner = combiner
        self._set_impl(impl)

    def reconcile_tally(self, table, census) -> list[str]:
        # In-place combines acknowledge a success without a new entry, so
        # the census can only be *at most* the entry-creating op count;
        # more means entries appeared that no operation created.
        m = table.mutations
        bound = (
            table.total_inserted + m.inserts + m.updates_entries
            + m.deletes_tombstones
        )
        if census.n_entries > bound:
            return [
                f"combining organization acknowledged at most {bound} "
                f"entry-creating operations but {census.n_entries} entries "
                "are reachable: phantom entries appeared"
            ]
        return []

    def _insert_vectorized(self, table, batch, idx, buckets, tally):
        """Batched combining insert via in-batch pre-aggregation.

        Records are grouped by distinct key (cached hashes, one lexsort);
        duplicate values are folded in arrival order
        (:meth:`Combiner.fold_segments`) so each distinct key performs one
        chain probe and one in-place store; misses are bulk-allocated and
        scatter-written exactly like the basic kernel.  Tallies stay byte-identical to the scalar walk:
        probe steps and touched bytes are vectorized sums of the very
        charges the reference makes (see ``_insert_preagg``).

        Falls back to the scalar loop when the charges cannot be reproduced
        in closed form: an access trace is attached (per-walk ``on_access``
        ordering), a 64-bit hash collision was detected, the combiner has
        no ufunc (callbacks), the batch's numeric dtype differs from the
        combiner's, or the table holds tombstones.
        """
        if batch.numeric_values is None:
            raise ValueError(
                "the combining method stores fixed-width scalar values; "
                "build the batch with numeric_values"
            )
        comb = self.combiner
        grouping = batch.cache.grouping(table.buckets)
        if (
            table.trace is not None
            or grouping.has_collision
            or not comb.supports_vector_reduce
            or batch.numeric_values.dtype != comb.dtype
            or table.alloc.stats.entries_tombstoned > 0
        ):
            return self._insert_scalar(table, batch, idx, buckets, tally)
        return self._insert_preagg(
            table, batch, idx, buckets, tally,
            _DistinctKeys(grouping, idx, buckets),
        )

    def _insert_preagg(self, table, batch, idx, buckets, tally, dk, ops=None):
        """One probe + one combine per distinct key, scalar-exact tallies.

        ``dk`` is the subset's :class:`_DistinctKeys`; walk charges come
        from its closed form.  Each distinct key's values are folded in
        arrival order by :meth:`Combiner.fold_segments`, seeded with the
        stored scalar where the key is resident -- the scalar loop's own
        sequence of combines, so f64 sums round identically (the only
        divergence is int64 overflow, which wraps here as on a real GPU
        but raises in the scalar oracle's ``struct.pack``).

        Keys whose first allocation fails are postponed on *every*
        occurrence, exactly like the reference: a failed allocation mutates
        nothing and the pool never refills mid-iteration, so the doomed
        repeat requests are accounted arithmetically
        (:meth:`~repro.memalloc.allocator.BucketGroupAllocator.record_denied_retries`).
        """
        heap = table.heap
        alloc = table.alloc
        group_size = table.buckets.group_size
        comb = self.combiner
        page_size = heap.page_size
        m = len(idx)
        if m == 0:
            return np.zeros(0, dtype=bool)
        klens = batch.key_lens[idx].astype(np.int64)
        sub, starts, counts = dk.sub, dk.starts, dk.counts
        firstj, gpos, gbucket = dk.firstj, dk.gpos, dk.gbucket
        res = dk.resolve(table, batch, idx, "generic")

        # one optimistic allocation per distinct absent key, arrival order
        newg = np.flatnonzero(res.hit < 0)
        req = newg[np.argsort(firstj[newg])]  # first positions are unique
        req_first = firstj[req]
        sizes = E.entry_sizes_bulk(
            klens[req_first], np.full(len(req), comb.value_size, np.int64)
        )
        rgroups = gbucket[req] // group_size
        bulk = alloc.allocate_many(rgroups, sizes, PageKind.GENERIC)
        okpos = np.flatnonzero(bulk.ok)
        failpos = np.flatnonzero(~bulk.ok)
        succ = req[okpos]  # inserted keys, arrival order
        ins = np.zeros(len(starts), dtype=bool)
        ins[succ] = True
        if len(failpos):
            extra = int((counts[req[failpos]] - 1).sum())
            if extra:
                alloc.record_denied_retries(extra, rgroups[failpos])

        probe_steps, walk_bytes, hit_res, hit_new = dk.walk_charges(
            res, buckets, klens, ins, E.ENTRY_HEADER
        )
        r_ins = ins[gpos]
        n_hits = int(hit_res.sum()) + int(hit_new.sum())
        n_miss = m - n_hits
        n_post = int((~hit_res & ~r_ins).sum())
        tally.attempted += m
        tally.succeeded += m - n_post
        tally.postponed += n_post
        tally.probe_steps += probe_steps
        tally.bytes_touched += (
            walk_bytes
            + 2 * comb.value_size * n_hits
            + int((sizes[okpos] + 16).sum())
        )
        # integer-valued floats (supports_vector_reduce guarantees integer
        # comb.cycles), so any summation order matches the scalar path
        tally.table_cycles += float(
            HASH_CYCLES_PER_BYTE * int(klens.sum())
            + comb.cycles * n_hits
            + INSERT_CYCLES * n_miss
        )
        tally.alloc_groups.extend(rgroups[okpos])

        # fold every key's values in arrival order, a resident hit's onto
        # the scalar it already stores
        is_hit = res.hit >= 0
        hit_g = np.flatnonzero(is_hit)
        vdtype = comb.dtype.newbyteorder("<")
        arena = heap.pool.arena
        vo = res.hit_pos[hit_g] + E.ENTRY_HEADER + klens[firstj[hit_g]]
        stored = np.zeros(len(starts), dtype=comb.dtype)
        stored[hit_g] = E.gather_field(arena, vo, vdtype)
        red = comb.fold_segments(
            batch.numeric_values[idx][sub], starts, stored, is_hit
        )

        # scatter-write the new entries + grouped last-writer-wins heads
        if len(succ):
            sfj = firstj[succ]
            order2 = _stable_order(buckets[sfj])
            sel_g = succ[order2]
            next_gpu, next_cpu = _link_heads(
                table.buckets, buckets[sfj][order2],
                bulk.gpu_addr[okpos][order2], bulk.cpu_addr[okpos][order2],
            )
            rec = idx[sfj][order2]
            pos = bulk.slot[okpos][order2] * page_size + bulk.offset[okpos][order2]
            valmat = (
                red[sel_g].astype(vdtype).view(np.uint8)
                .reshape(len(succ), comb.value_size)
            )
            E.write_entries_bulk(
                arena, pos, next_gpu, next_cpu,
                batch.keys[rec], batch.key_lens[rec].astype(np.int64),
                valmat, np.full(len(succ), comb.value_size, np.int64),
            )

        # resident hit keys: one in-place store of the folded scalar each
        E.scatter_field(arena, vo, red[hit_g])
        for seg in np.unique(res.hit_addr[hit_g] // page_size).tolist():
            heap.note_write(seg)

        if ops is not None:
            # mixed-op accounting: under the no-failure pre-flight every
            # record succeeded; updates that hit combined in place, updates
            # that missed created their entry.
            hit = hit_res | hit_new
            upd = ops == OP_UPDATE
            muts = table.mutations
            muts.inserts += int((~upd).sum())
            muts.updates_inplace += int((upd & hit).sum())
            muts.updates_entries += int((upd & ~hit).sum())
        return hit_res | r_ins

    def _insert_scalar(self, table, batch, idx, buckets, tally):
        if batch.numeric_values is None:
            raise ValueError(
                "the combining method stores fixed-width scalar values; "
                "build the batch with numeric_values"
            )
        heap = table.heap
        alloc = table.alloc
        head_gpu = table.buckets.head_gpu
        head_cpu = table.buckets.head_cpu
        group_size = table.buckets.group_size
        comb = self.combiner
        fmt = comb.fmt
        trace = table.trace
        all_keys = batch.key_bytes_list()
        all_values = batch.numeric_values.tolist()
        idx_list = idx.tolist()
        bucket_list = buckets.tolist()
        success = np.zeros(len(idx), dtype=bool)
        bufs: dict[int, np.ndarray] = {}
        for j, i in enumerate(idx_list):
            b = bucket_list[j]
            key = all_keys[i]
            v = all_values[i]
            tally.attempted += 1
            tally.table_cycles += HASH_CYCLES_PER_BYTE * len(key)
            hit, _blocked = self._walk_resident_mut(
                table, bufs, int(head_cpu[b]), key, tally, trace
            )
            if hit is not None and hit[4] & E.GFLAG_TOMBSTONE:
                hit = None  # deleted key: a fresh entry supersedes it
            if hit is not None:
                buf, off, klen, _vlen, _fl, haddr = hit
                vo = off + E.ENTRY_HEADER + klen
                stored = fmt.unpack_from(buf, vo)[0]
                fmt.pack_into(buf, vo, comb.combine(stored, v))
                heap.note_write(haddr // heap.page_size)
                tally.table_cycles += comb.cycles
                # read + write of the stored scalar, at its actual width
                tally.bytes_touched += 2 * comb.value_size
                tally.succeeded += 1
                if trace is not None:
                    trace.on_access(int(head_cpu[b]), comb.value_size)
                success[j] = True
                continue
            size = E.entry_size(len(key), comb.value_size)
            a = alloc.allocate(b // group_size, size, PageKind.GENERIC)
            tally.table_cycles += INSERT_CYCLES
            if a is None:
                tally.postponed += 1
                continue
            buf = heap.pool.slot_view(a.page.slot)
            bufs[a.page.segment] = buf
            E.write_entry(
                buf, a.offset, int(head_gpu[b]), int(head_cpu[b]),
                key, comb.pack(v),
            )
            head_gpu[b] = a.gpu_addr
            head_cpu[b] = a.cpu_addr
            tally.succeeded += 1
            tally.bytes_touched += size + 16
            tally.alloc_groups.append(b // group_size)
            if trace is not None:
                trace.on_access(a.cpu_addr, size)
            success[j] = True
        return success

    # -- mixed-op mutation path ----------------------------------------
    def _mutate_vectorized(self, table, batch, idx, buckets, tally):
        """Mutation dispatch for the batched implementation.

        Insert/update-only batches reuse the pre-aggregated insert kernel
        (an update is an upsert-combine, identical to an insert) when a
        worst-case all-miss pre-flight proves no allocation can fail: then
        the postponement gate can never fire mid-batch, and the kernel's
        closed-form charges are exact.  Everything else -- deletes,
        lookups, callback combiners, sticky failures, tombstones already
        in the table -- runs the scalar loop.
        """
        comb = self.combiner
        ops_arr = batch.ops[idx]
        if (
            table.trace is None
            and not ((ops_arr == OP_DELETE) | (ops_arr == OP_LOOKUP)).any()
            and comb.supports_vector_reduce
            and batch.numeric_values is not None
            and batch.numeric_values.dtype == comb.dtype
            and not table.alloc.has_failures
            and table.alloc.stats.entries_tombstoned == 0
        ):
            grouping = batch.cache.grouping(table.buckets)
            if not grouping.has_collision:
                # worst-case pre-flight: one entry per distinct key, as if
                # every probe missed.  The real request sequence is a
                # same-order subsequence with identical sizes, and bump
                # allocation is monotone under dropping requests, so
                # success of the superset implies success of whatever the
                # kernel actually allocates.
                dk = _DistinctKeys(grouping, idx, buckets)
                first_arr = np.sort(dk.firstj)
                sizes = E.entry_sizes_bulk(
                    batch.key_lens[idx[first_arr]].astype(np.int64),
                    np.full(len(first_arr), comb.value_size, np.int64),
                )
                groups = buckets[first_arr] // table.buckets.group_size
                needed = table.alloc.plan_pages_needed(groups, sizes)
                if table.heap.pool.can_take(needed):
                    return self._insert_preagg(
                        table, batch, idx, buckets, tally, dk, ops=ops_arr
                    )
        return self._mutate_impl(table, batch, idx, buckets, tally)

    def _mutate_impl(self, table, batch, idx, buckets, tally):
        heap = table.heap
        alloc = table.alloc
        head_gpu = table.buckets.head_gpu
        head_cpu = table.buckets.head_cpu
        group_size = table.buckets.group_size
        comb = self.combiner
        fmt = comb.fmt
        trace = table.trace
        muts = table.mutations
        if batch.numeric_values is None:
            raise ValueError(
                "the combining method stores fixed-width scalar values; "
                "build the batch with numeric_values"
            )
        all_keys = batch.key_bytes_list()
        all_values = batch.numeric_values.tolist()
        op_list = batch.ops.tolist()
        idx_list = idx.tolist()
        bucket_list = buckets.tolist()
        success = np.zeros(len(idx), dtype=bool)
        bufs: dict[int, np.ndarray] = {}
        for j, i in enumerate(idx_list):
            b = bucket_list[j]
            group = b // group_size
            key = all_keys[i]
            op = op_list[i]
            tally.attempted += 1
            tally.table_cycles += HASH_CYCLES_PER_BYTE * len(key)
            if alloc.group_failed(group):
                tally.postponed += 1
                muts.gate_postponed += 1
                continue
            if op == OP_LOOKUP:
                raw = self._lookup_generic(table, b, key, tally)
                if raw:
                    acc = comb.unpack(raw[0])
                    for rv in raw[1:]:
                        acc = comb.combine(acc, comb.unpack(rv))
                    batch.lookup_results[i] = acc
                else:
                    batch.lookup_results[i] = None
                tally.succeeded += 1
                muts.lookups += 1
                success[j] = True
                continue
            if op == OP_DELETE:
                hit, blocked = self._walk_resident_mut(
                    table, bufs, int(head_cpu[b]), key, tally, trace
                )
                if self._delete_generic(table, tally, b, key, hit, blocked):
                    tally.succeeded += 1
                    success[j] = True
                else:
                    tally.postponed += 1
                continue
            # OP_INSERT and OP_UPDATE are both upsert-combines
            v = all_values[i]
            hit, blocked = self._walk_resident_mut(
                table, bufs, int(head_cpu[b]), key, tally, trace
            )
            if hit is not None and not hit[4] & E.GFLAG_TOMBSTONE:
                buf, off, klen = hit[0], hit[1], hit[2]
                vo = off + E.ENTRY_HEADER + klen
                stored = fmt.unpack_from(buf, vo)[0]
                fmt.pack_into(buf, vo, comb.combine(stored, v))
                heap.note_write(hit[5] // heap.page_size)
                tally.table_cycles += comb.cycles
                tally.bytes_touched += 2 * comb.value_size
                tally.succeeded += 1
                if trace is not None:
                    trace.on_access(int(head_cpu[b]), comb.value_size)
                if op == OP_UPDATE:
                    muts.updates_inplace += 1
                else:
                    muts.inserts += 1
                success[j] = True
                continue
            # clean miss, or the newest copy is a tombstone
            size = E.entry_size(len(key), comb.value_size)
            tally.table_cycles += INSERT_CYCLES
            a = alloc.allocate(group, size, PageKind.GENERIC)
            if a is None:
                tally.postponed += 1
                continue
            buf = heap.pool.slot_view(a.page.slot)
            bufs[a.page.segment] = buf
            E.write_entry(
                buf, a.offset, int(head_gpu[b]), int(head_cpu[b]),
                key, comb.pack(v),
            )
            head_gpu[b] = a.gpu_addr
            head_cpu[b] = a.cpu_addr
            tally.succeeded += 1
            tally.bytes_touched += size + 16
            tally.alloc_groups.append(group)
            if trace is not None:
                trace.on_access(a.cpu_addr, size)
            if op == OP_UPDATE:
                muts.updates_entries += 1
            else:
                muts.inserts += 1
            success[j] = True
        return success


class MultiValuedOrganization(Organization):
    """Keys carry a linked list of values; keys and values on separate pages."""

    kind = "multi-valued"
    page_kinds = (PageKind.KEY, PageKind.VALUE)

    def __init__(
        self, pin_retention_limit: float = 0.5, impl: str = "vectorized"
    ) -> None:
        if not 0.0 < pin_retention_limit <= 1.0:
            raise ValueError(
                f"pin retention limit must be in (0, 1]: {pin_retention_limit}"
            )
        self._set_impl(impl)
        #: per-segment count of PENDING keys (drives page pinning)
        self._pin_counts: dict[int, int] = {}
        #: when pinned pages exceed this fraction of the resident heap at
        #: iteration end, flush them too.  Not in the paper: without a bound,
        #: key-heavy workloads (e.g. Patent Citation) accumulate pinned key
        #: pages until value throughput per pass collapses.  Flushed keys are
        #: re-created on retry and merged at finalization.
        self.pin_retention_limit = pin_retention_limit

    def reconcile_tally(self, table, census) -> list[str]:
        # Every acknowledged insert/update appended exactly one value node
        # (key entries are created on demand and may be duplicated by
        # forced evictions, but values are never re-created).
        expected = table.total_inserted + table.mutations.value_nodes
        if census.n_value_nodes != expected:
            return [
                f"multi-valued organization acknowledged {expected} "
                f"value-appending operations but {census.n_value_nodes} "
                "value nodes are reachable: "
                + ("records were silently dropped"
                   if census.n_value_nodes < expected
                   else "phantom value nodes appeared")
            ]
        return []

    # -- pending-flag bookkeeping --------------------------------------
    def _set_pending(self, table, buf, seg, off) -> None:
        flags = E.get_flags(buf, off)
        if flags & E.FLAG_PENDING:
            return
        E.set_flags(buf, off, flags | E.FLAG_PENDING)
        table.heap.note_write(seg)
        self._pin_counts[seg] = self._pin_counts.get(seg, 0) + 1
        page = table.heap.resident_page(seg)
        assert page is not None
        page.pinned = True

    def _clear_pending(self, table, buf, seg, off) -> None:
        flags = E.get_flags(buf, off)
        if not flags & E.FLAG_PENDING:
            return
        E.set_flags(buf, off, flags & ~E.FLAG_PENDING)
        table.heap.note_write(seg)
        remaining = self._pin_counts.get(seg, 0) - 1
        if remaining <= 0:
            self._pin_counts.pop(seg, None)
            page = table.heap.resident_page(seg)
            if page is not None:
                page.pinned = False
        else:
            self._pin_counts[seg] = remaining

    # -- key-entry chain walk (different header layout) ------------------
    def _find_key_mut(self, table, bufs, addr, key, tally, trace):
        """Like :meth:`Organization._walk_resident_mut` for key entries:
        returns ``(hit, blocked)`` with ``hit = (buf, off, seg, flags,
        addr)`` of the newest same-key key entry, else None."""
        heap = table.heap
        page_size = heap.page_size
        klen_key = len(key)
        while addr != NULL:
            seg, off = divmod(addr, page_size)
            cached = bufs.get(seg)
            if cached is None:
                page = heap.resident_page(seg)
                if page is None:
                    return None, True
                cached = heap.pool.slot_view(page.slot)
                bufs[seg] = cached
            hdr = E.read_key_entry_header(cached, off)
            next_cpu, klen = hdr[1], hdr[4]
            tally.probe_steps += 1
            tally.bytes_touched += E.KEY_ENTRY_HEADER + klen
            if trace is not None:
                trace.on_access(addr, E.KEY_ENTRY_HEADER + klen)
            if klen == klen_key and E.key_entry_key(cached, off, klen) == key:
                return (cached, off, seg, hdr[5], addr), False
            addr = next_cpu
        return None, False

    def _append_value(
        self, table, tally, trace, kbuf, koff, kseg, group, value
    ) -> bool:
        """Allocate a value node and push it onto the key's value list."""
        size = E.value_node_size(len(value))
        a = table.alloc.allocate(group, size, PageKind.VALUE)
        if a is None:
            return False
        hdr = E.read_key_entry_header(kbuf, koff)
        vhead_gpu, vhead_cpu = hdr[2], hdr[3]
        vbuf = table.heap.pool.slot_view(a.page.slot)
        E.write_value_node(vbuf, a.offset, vhead_gpu, vhead_cpu, value)
        E.set_vhead(kbuf, koff, a.gpu_addr, a.cpu_addr)
        table.heap.note_write(kseg)
        tally.bytes_touched += size + 16
        tally.alloc_groups.append(group)
        if trace is not None:
            trace.on_access(a.cpu_addr, size)
        return True

    def _insert_vectorized(self, table, batch, idx, buckets, tally):
        """Batched multi-valued insert via in-batch pre-aggregation.

        Records are grouped by distinct key; each distinct key performs one
        chain probe, new key entries and all value nodes are bulk-allocated
        in one mixed-kind :meth:`allocate_many` call (KEY and VALUE requests
        interleaved in arrival order, so pages leave the shared pool exactly
        as the sequential walk would take them), value chains are linked with
        grouped scatters, and each key's value-list head is written once.

        The fast path only engages when a read-only allocator pre-flight
        (:meth:`~repro.memalloc.allocator.BucketGroupAllocator.plan_pages_needed`)
        proves every allocation will succeed; under pool pressure -- where
        per-record KEY/VALUE outcomes feed back into later requests -- the
        scalar loop handles postponement exactly.  Traced runs, hash
        collisions and tables holding tombstones also fall back.
        """
        if batch.values is None:
            raise ValueError("the multi-valued method requires byte values")
        grouping = batch.cache.grouping(table.buckets)
        if (
            table.trace is None
            and not grouping.has_collision
            and table.alloc.stats.entries_tombstoned == 0
        ):
            result = self._insert_preagg(
                table, batch, idx, buckets, tally,
                _DistinctKeys(grouping, idx, buckets),
            )
            if result is not None:
                return result
        return self._insert_scalar(table, batch, idx, buckets, tally)

    def _insert_preagg(self, table, batch, idx, buckets, tally, dk):
        """No-postponement fast path; returns None when it does not apply.

        Mutates nothing before the pre-flight decision: the request plan
        (one KEY allocation per distinct absent key at its first
        occurrence, one VALUE allocation per record, interleaved in arrival
        order) is built up front, and only executed when the planner proves
        the pool can serve it all.  Walk charges use the same closed form
        as the combining kernel, with key-entry header costs.
        """
        heap = table.heap
        alloc = table.alloc
        page_size = heap.page_size
        group_size = table.buckets.group_size
        m = len(idx)
        if m == 0:
            return np.zeros(0, dtype=bool)
        klens = batch.key_lens[idx].astype(np.int64)
        vlens = batch.val_lens[idx].astype(np.int64)
        vsizes = E.value_node_sizes_bulk(vlens)
        ksizes = E.key_entry_sizes_bulk(klens)
        if int(vsizes.max()) > page_size or int(ksizes.max()) > page_size:
            return None  # the scalar loop raises the allocator's ValueError

        sub, starts, counts = dk.sub, dk.starts, dk.counts
        firstj, gpos, gbucket = dk.firstj, dk.gpos, dk.gbucket
        G = len(starts)
        res = dk.resolve(table, batch, idx, "key")

        # interleaved request plan: [KEY for first occurrence of an absent
        # key] then [VALUE] per record, in arrival order
        newmask_g = res.hit < 0
        isnewfirst = dk.isfirst & newmask_g[gpos]
        nf_rec = np.flatnonzero(isnewfirst)
        nreq = 1 + isnewfirst.astype(np.int64)
        rstart = np.cumsum(nreq) - nreq
        total = m + len(nf_rec)
        groups_rec = buckets // group_size
        req_groups = np.repeat(groups_rec, nreq)
        req_sizes = np.empty(total, dtype=np.int64)
        req_codes = np.full(total, KIND_CODES[PageKind.VALUE], dtype=np.int64)
        kslots = rstart[isnewfirst]
        req_sizes[kslots] = ksizes[nf_rec]
        req_codes[kslots] = KIND_CODES[PageKind.KEY]
        vslots = rstart + nreq - 1
        req_sizes[vslots] = vsizes

        needed = alloc.plan_pages_needed(req_groups, req_sizes, kinds=req_codes)
        if not heap.pool.can_take(needed):
            return None  # pressure: the scalar loop postpones exactly

        bulk = alloc.allocate_many(req_groups, req_sizes, kinds=req_codes)
        assert bool(bulk.ok.all())  # guaranteed by the can_take pre-flight

        # per-record value node placement (arrival order)
        vgpu = bulk.gpu_addr[vslots]
        vcpu = bulk.cpu_addr[vslots]
        vpos = bulk.slot[vslots] * page_size + bulk.offset[vslots]
        # per-new-key key entry placement
        kg = gpos[nf_rec]
        kaddr_gpu = np.full(G, NULL, dtype=np.int64)
        kaddr_cpu = np.full(G, NULL, dtype=np.int64)
        kpos_g = np.full(G, -1, dtype=np.int64)
        kaddr_gpu[kg] = bulk.gpu_addr[kslots]
        kaddr_cpu[kg] = bulk.cpu_addr[kslots]
        kpos_g[kg] = bulk.slot[kslots] * page_size + bulk.offset[kslots]

        # link each key's value chain: first node points at the existing
        # list head (NULL for new keys), later nodes at their predecessor,
        # and the key's head ends at the last arrival
        arena = heap.pool.arena
        hit_g = np.flatnonzero(~newmask_g)
        hit_pos = res.hit_pos[hit_g]  # arena offsets of the hit key entries
        head0_g = np.full(G, NULL, dtype=np.int64)
        head0_c = np.full(G, NULL, dtype=np.int64)
        head0_g[hit_g] = E.gather_field(arena, hit_pos + 16, "<i8")
        head0_c[hit_g] = E.gather_field(arena, hit_pos + 24, "<i8")
        hit_flags = E.gather_field(arena, hit_pos + 36, "<u4")
        vg_s = vgpu[sub]
        vc_s = vcpu[sub]
        fmask = np.zeros(m, dtype=bool)
        fmask[starts] = True
        gpos_s = np.repeat(np.arange(G), counts)
        vnext_g_s = np.where(fmask, head0_g[gpos_s], np.r_[NULL, vg_s[:-1]])
        vnext_c_s = np.where(fmask, head0_c[gpos_s], np.r_[NULL, vc_s[:-1]])
        lastpos = starts + counts - 1
        vfinal_g = vg_s[lastpos]
        vfinal_c = vc_s[lastpos]
        vnext_g = np.empty(m, dtype=np.int64)
        vnext_c = np.empty(m, dtype=np.int64)
        vnext_g[sub] = vnext_g_s
        vnext_c[sub] = vnext_c_s
        E.write_value_nodes_bulk(
            arena, vpos, vnext_g, vnext_c, batch.values[idx], vlens
        )

        # new key entries: grouped last-writer-wins bucket heads, final
        # value-list head written with the entry itself
        if len(nf_rec):
            # kg lists the new keys in arrival order of their creation
            sel = kg[_stable_order(gbucket[kg])]
            nxt_g, nxt_c = _link_heads(
                table.buckets, gbucket[sel], kaddr_gpu[sel], kaddr_cpu[sel]
            )
            rec = idx[firstj[sel]]
            E.write_key_entries_bulk(
                arena, kpos_g[sel], nxt_g, nxt_c,
                vfinal_g[sel], vfinal_c[sel],
                batch.keys[rec], batch.key_lens[rec].astype(np.int64),
            )

        # resident hit keys: rewrite the value-list head once, un-pin
        E.scatter_field(
            arena, hit_pos + 16,
            np.stack((vfinal_g[hit_g], vfinal_c[hit_g]), axis=1),
        )
        hit_seg = res.hit_addr[hit_g] // page_size
        for seg in np.unique(hit_seg).tolist():
            heap.note_write(seg)
        pending = np.flatnonzero(hit_flags & E.FLAG_PENDING)
        for koff, kseg in zip(
            hit_pos[pending].tolist(), hit_seg[pending].tolist()
        ):
            self._clear_pending(table, arena, kseg, koff)

        probe_steps, walk_bytes, _, _ = dk.walk_charges(
            res, buckets, klens, newmask_g, E.KEY_ENTRY_HEADER
        )
        tally.attempted += m
        tally.succeeded += m
        tally.table_cycles += float(
            HASH_CYCLES_PER_BYTE * int(klens.sum()) + INSERT_CYCLES * m
        )
        tally.probe_steps += probe_steps
        tally.bytes_touched += (
            walk_bytes
            + int((vsizes + 16).sum())
            + int((ksizes[nf_rec] + 16).sum())
        )
        tally.alloc_groups.extend(req_groups)
        return np.ones(m, dtype=bool)

    def _insert_scalar(self, table, batch, idx, buckets, tally):
        if batch.values is None:
            raise ValueError("the multi-valued method requires byte values")
        heap = table.heap
        alloc = table.alloc
        head_gpu = table.buckets.head_gpu
        head_cpu = table.buckets.head_cpu
        group_size = table.buckets.group_size
        trace = table.trace
        all_keys = batch.key_bytes_list()
        idx_list = idx.tolist()
        bucket_list = buckets.tolist()
        success = np.zeros(len(idx), dtype=bool)
        bufs: dict[int, np.ndarray] = {}
        for j, i in enumerate(idx_list):
            b = bucket_list[j]
            group = b // group_size
            key = all_keys[i]
            value = batch.value_bytes(i)
            tally.attempted += 1
            tally.table_cycles += HASH_CYCLES_PER_BYTE * len(key) + INSERT_CYCLES
            hit, _blocked = self._find_key_mut(
                table, bufs, int(head_cpu[b]), key, tally, trace
            )
            if hit is not None and hit[3] & E.FLAG_TOMBSTONE:
                hit = None  # deleted key: a fresh key entry supersedes it
            if hit is None:
                ksize = E.key_entry_size(len(key))
                a = alloc.allocate(group, ksize, PageKind.KEY)
                if a is None:
                    tally.postponed += 1
                    continue
                kbuf = heap.pool.slot_view(a.page.slot)
                bufs[a.page.segment] = kbuf
                E.write_key_entry(
                    kbuf, a.offset, int(head_gpu[b]), int(head_cpu[b]), key
                )
                head_gpu[b] = a.gpu_addr
                head_cpu[b] = a.cpu_addr
                tally.bytes_touched += ksize + 16
                tally.alloc_groups.append(group)
                if trace is not None:
                    trace.on_access(a.cpu_addr, ksize)
                hit = (kbuf, a.offset, a.page.segment, 0)
            kbuf, koff, kseg = hit[:3]
            if self._append_value(
                table, tally, trace, kbuf, koff, kseg, group, value
            ):
                self._clear_pending(table, kbuf, kseg, koff)
                tally.succeeded += 1
                success[j] = True
            else:
                # The key entry exists but its value could not be stored:
                # flag it so its page is retained across the eviction.
                self._set_pending(table, kbuf, kseg, koff)
                tally.postponed += 1
        return success

    # -- mixed-op mutation path ----------------------------------------
    def _lookup_mv(self, table, b, key, tally) -> list[bytes]:
        """Full CPU-chain lookup: newest live key entry's values, plus any
        older duplicates (forced evictions split a key's values across
        entries) until a shadow or tombstone closes the key.  Returned
        oldest-first to match the dict-model's append order."""
        heap = table.heap
        page_size = heap.page_size
        addr = int(table.buckets.head_cpu[b])
        klen_key = len(key)
        out: list[bytes] = []
        while addr != NULL:
            seg, off = divmod(addr, page_size)
            buf = heap.segment_view(seg)
            hdr = E.read_key_entry_header(buf, off)
            next_cpu, vhead_cpu, klen, flags = hdr[1], hdr[3], hdr[4], hdr[5]
            tally.probe_steps += 1
            tally.bytes_touched += E.KEY_ENTRY_HEADER + klen
            if (
                klen == klen_key
                and E.key_entry_key(buf, off, klen) == key
                # skip empty PENDING entries: unacknowledged
                and not (flags & E.FLAG_PENDING and vhead_cpu == NULL)
            ):
                if flags & E.FLAG_TOMBSTONE:
                    break
                vaddr = vhead_cpu
                while vaddr != NULL:
                    vseg, voff = divmod(vaddr, page_size)
                    vbuf = heap.segment_view(vseg)
                    vh = E.read_value_node_header(vbuf, voff)
                    tally.probe_steps += 1
                    tally.bytes_touched += E.VALUE_NODE_HEADER + vh[2]
                    out.append(E.value_node_value(vbuf, voff, vh[2]))
                    vaddr = vh[1]
                if flags & E.FLAG_SHADOW:
                    break
            addr = next_cpu
        out.reverse()
        return out

    def _mutate_impl(self, table, batch, idx, buckets, tally):
        heap = table.heap
        alloc = table.alloc
        head_gpu = table.buckets.head_gpu
        head_cpu = table.buckets.head_cpu
        group_size = table.buckets.group_size
        trace = table.trace
        muts = table.mutations
        replace = batch.update_policy == "replace"
        all_keys = batch.key_bytes_list()
        op_list = batch.ops.tolist()
        idx_list = idx.tolist()
        bucket_list = buckets.tolist()
        success = np.zeros(len(idx), dtype=bool)
        bufs: dict[int, np.ndarray] = {}
        for j, i in enumerate(idx_list):
            b = bucket_list[j]
            group = b // group_size
            key = all_keys[i]
            op = op_list[i]
            tally.attempted += 1
            tally.table_cycles += HASH_CYCLES_PER_BYTE * len(key)
            if alloc.group_failed(group):
                tally.postponed += 1
                muts.gate_postponed += 1
                continue
            if op == OP_LOOKUP:
                batch.lookup_results[i] = self._lookup_mv(table, b, key, tally)
                tally.succeeded += 1
                muts.lookups += 1
                success[j] = True
                continue
            if op == OP_DELETE:
                hit, blocked = self._find_key_mut(
                    table, bufs, int(head_cpu[b]), key, tally, trace
                )
                if hit is not None:
                    kbuf, koff, kseg, fl, addr = hit
                    if fl & E.FLAG_TOMBSTONE:
                        muts.deletes_noop += 1
                    else:
                        if fl & E.FLAG_PENDING:
                            # a pinned key that dies stops pinning its page
                            self._clear_pending(table, kbuf, kseg, koff)
                        cur = E.get_flags(kbuf, koff)
                        E.set_flags(kbuf, koff, cur | E.FLAG_TOMBSTONE)
                        heap.note_write(kseg)
                        alloc.note_tombstone(E.key_entry_size(len(key)))
                        tally.table_cycles += TOMBSTONE_CYCLES
                        tally.bytes_touched += 4
                        if trace is not None:
                            trace.on_access(addr, 4)
                        muts.deletes_inplace += 1
                    tally.succeeded += 1
                    success[j] = True
                    continue
                if not blocked:
                    muts.deletes_noop += 1
                    tally.succeeded += 1
                    success[j] = True
                    continue
                # chain continues into evicted memory: born-dead key entry
                ksize = E.key_entry_size(len(key))
                tally.table_cycles += INSERT_CYCLES
                a = alloc.allocate(group, ksize, PageKind.KEY)
                if a is None:
                    tally.postponed += 1
                    continue
                kbuf = heap.pool.slot_view(a.page.slot)
                E.write_key_entry(
                    kbuf, a.offset, int(head_gpu[b]), int(head_cpu[b]), key
                )
                E.set_flags(kbuf, a.offset, E.FLAG_TOMBSTONE)
                head_gpu[b] = a.gpu_addr
                head_cpu[b] = a.cpu_addr
                alloc.note_tombstone(ksize)
                tally.bytes_touched += ksize + 16
                tally.alloc_groups.append(group)
                if trace is not None:
                    trace.on_access(a.cpu_addr, ksize)
                muts.deletes_tombstones += 1
                tally.succeeded += 1
                success[j] = True
                continue
            # OP_INSERT / OP_UPDATE: both append one value node
            value = batch.value_bytes(i)
            tally.table_cycles += INSERT_CYCLES
            hit, blocked = self._find_key_mut(
                table, bufs, int(head_cpu[b]), key, tally, trace
            )
            if hit is not None and hit[3] & E.FLAG_TOMBSTONE:
                hit = None  # deleted key: a fresh key entry supersedes it
            if op == OP_UPDATE and replace:
                # a shadow key entry replaces the whole value list; an
                # earlier pass's failed replace (our own empty pending
                # shadow) is completed instead of duplicated
                reuse = (
                    hit is not None
                    and hit[3] & E.FLAG_SHADOW
                    and hit[3] & E.FLAG_PENDING
                    and E.read_key_entry_header(hit[0], hit[1])[3] == NULL
                )
                if not reuse:
                    hit = None
                    shadow = True
                else:
                    shadow = False
            else:
                shadow = False
            created = False
            if hit is None:
                ksize = E.key_entry_size(len(key))
                a = alloc.allocate(group, ksize, PageKind.KEY)
                if a is None:
                    tally.postponed += 1
                    continue
                kbuf = heap.pool.slot_view(a.page.slot)
                bufs[a.page.segment] = kbuf
                E.write_key_entry(
                    kbuf, a.offset, int(head_gpu[b]), int(head_cpu[b]), key
                )
                if shadow:
                    E.set_flags(kbuf, a.offset, E.FLAG_SHADOW)
                head_gpu[b] = a.gpu_addr
                head_cpu[b] = a.cpu_addr
                tally.bytes_touched += ksize + 16
                tally.alloc_groups.append(group)
                if trace is not None:
                    trace.on_access(a.cpu_addr, ksize)
                hit = (kbuf, a.offset, a.page.segment, 0, a.cpu_addr)
                created = True
            kbuf, koff, kseg = hit[0], hit[1], hit[2]
            if self._append_value(
                table, tally, trace, kbuf, koff, kseg, group, value
            ):
                self._clear_pending(table, kbuf, kseg, koff)
                tally.succeeded += 1
                muts.value_nodes += 1
                if op == OP_INSERT:
                    muts.inserts += 1
                elif created:
                    muts.updates_entries += 1
                else:
                    muts.updates_inplace += 1
                success[j] = True
            else:
                self._set_pending(table, kbuf, kseg, koff)
                tally.postponed += 1
        return success

    # ------------------------------------------------------------------
    def end_iteration(self, table) -> EvictionReport:
        """Evict value pages and key pages without pending keys (Fig. 5b)."""
        report = EvictionReport()
        heap = table.heap
        victims = [p for p in heap.resident_pages if not p.pinned]
        retained = [p for p in heap.resident_pages if p.pinned]
        resident = len(victims) + len(retained)
        if retained and resident and (
            len(retained) / resident > self.pin_retention_limit
        ):
            victims, retained = victims + retained, []
            for p in victims:
                p.pinned = False
            self._pin_counts.clear()
            report.forced_full_eviction = True
        if not victims and retained:
            # Deadlock avoidance (not in the paper): every resident page
            # hosts a pending key, so retaining them all would leave the
            # pool empty forever.  Evict everything; retried records will
            # re-create their key entries, and the duplicate entries merge
            # during CPU-side finalization.
            victims, retained = retained, []
            for p in victims:
                p.pinned = False
            self._pin_counts.clear()
            report.forced_full_eviction = True
        report.pages_evicted = len(victims)
        report.pages_retained = len(retained)
        report.bytes_evicted = heap.evict(victims)
        self._splice_chains(table, report)
        table.alloc.drop_stale_pages()
        table.alloc.reset_failures()
        return report

    def _splice_chains(self, table, report) -> None:
        """Rebuild GPU chains over retained entries only.

        After a partial eviction, ``next_gpu`` pointers may target recycled
        slots.  The CPU chain (never broken) is walked to find the entries
        that are still resident; their ``next_gpu`` pointers are relinked to
        skip evicted entries, and every retained key's ``vhead_gpu`` is
        cleared because value pages are always evicted.
        """
        heap = table.heap
        page_size = heap.page_size
        head_gpu = table.buckets.head_gpu
        head_cpu = table.buckets.head_cpu
        for b in table.buckets.resident_buckets():
            # (gpu, buf, off, seg)
            resident: list[tuple[int, np.ndarray, int, int]] = []
            addr = int(head_cpu[b])
            while addr != NULL:
                seg, off = divmod(addr, page_size)
                page = heap.resident_page(seg)
                buf = heap.segment_view(seg)
                hdr = E.read_key_entry_header(buf, off)
                report.entries_spliced += 1
                if page is not None:
                    gpu = page.slot * page_size + off
                    resident.append((gpu, buf, off, seg))
                    E.set_vhead(buf, off, NULL, hdr[3])
                    heap.note_write(seg)
                addr = hdr[1]
            if not resident:
                head_gpu[b] = NULL
                continue
            head_gpu[b] = resident[0][0]
            for (g_cur, buf, off, seg), (g_next, _, _, _) in zip(
                resident, resident[1:]
            ):
                hdr = E.read_key_entry_header(buf, off)
                E.set_next_ptrs(buf, off, g_next, hdr[1])
                heap.note_write(seg)
            last_buf, last_off = resident[-1][1], resident[-1][2]
            hdr = E.read_key_entry_header(last_buf, last_off)
            E.set_next_ptrs(last_buf, last_off, NULL, hdr[1])
            heap.note_write(resident[-1][3])
        report.maintenance_cycles += report.entries_spliced * SPLICE_CYCLES
