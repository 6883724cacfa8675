"""SEPO lookups over a larger-than-memory table.

Section IV-C leaves lookups "to the reader as a mental exercise"; this
module is the solved exercise.  The same protocol as inserts, read-side:

* a lookup walks its bucket chain through resident segments and is
  **POSTPONE**d as soon as the chain crosses into a non-resident segment
  (it cannot prove a hit *or* a miss without those entries);
* the requestor notes which segment blocked each postponed lookup;
* between iterations the driver *rearranges data* -- it pages the
  most-demanded evicted segments back into free heap slots (evicting
  resident lookup pages when the pool runs dry) and reissues.

Combining-method semantics deserve care: a key may have residue entries in
several segments (one per iteration that evicted it), so a lookup only
completes once it has walked its *entire* chain, combining every match on
the way -- the value returned equals the finalized CPU-side result.

Like the insert kernels, the probe has interchangeable implementations
sharing exact accounting: ``slow_reference`` walks each query's chain
entry by entry, while ``vectorized`` (the default) resolves queries
against struct-of-arrays chain views (:mod:`repro.core.chainview`) --
every touched chain is bulk-parsed level-synchronously, cached in the
table's :class:`~repro.core.chainview.ChainViewStore` across postponement
passes (residency/write epochs invalidate), and each query becomes one
whole-chain key compare instead of a per-entry Python loop.  The
multi-valued walk interleaves two chain kinds with
per-key value lists and stays on the scalar path under every setting.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core import entries as E
from repro.core.hashing import fnv1a_batch
from repro.core.hashtable import GpuHashTable
from repro.core.organizations import (
    BasicOrganization,
    CombiningOrganization,
    HASH_CYCLES_PER_BYTE,
    IMPLS,
)
from repro.core.records import pack_byte_rows
from repro.gpusim.atomics import hottest_count
from repro.gpusim.kernel import BatchStats, KernelModel
from repro.gpusim.pcie import PCIeBus
from repro.memalloc.address import NULL

__all__ = ["LookupDriver", "LookupResult"]


@dataclass
class LookupResult:
    """Outcome of a batched SEPO lookup."""

    values: list[Any]  # per query: scalar / bytes / None (miss)
    iterations: int
    postponed_total: int
    segments_paged_in: int
    elapsed_seconds: float = 0.0
    iteration_postponed: list[int] = field(default_factory=list)


class LookupDriver:
    """Requestor-side loop for read queries (inserts' mirror image)."""

    def __init__(
        self,
        table: GpuHashTable,
        kernel: KernelModel,
        bus: PCIeBus,
        max_iterations: int = 10_000,
        impl: str = "vectorized",
    ):
        from repro.core.organizations import MultiValuedOrganization

        if impl not in IMPLS:
            raise ValueError(f"impl must be one of {IMPLS}: {impl!r}")
        self.impl = impl
        self._combiner = None
        self._multivalued = False
        if isinstance(table.org, CombiningOrganization):
            self._combiner = table.org.combiner
        elif isinstance(table.org, MultiValuedOrganization):
            self._multivalued = True
        elif not isinstance(table.org, BasicOrganization):
            raise NotImplementedError(
                f"SEPO lookups are not implemented for {table.org.kind!r}"
            )
        self.table = table
        self.kernel = kernel
        self.bus = bus
        self.max_iterations = max_iterations

    # ------------------------------------------------------------------
    def lookup(self, keys: list[bytes]) -> LookupResult:
        table = self.table
        heap = table.heap
        page_size = heap.page_size
        head_cpu = table.buckets.head_cpu
        start_elapsed = table.ledger.elapsed

        bucket_ids = table.buckets.bucket_of_hash(
            fnv1a_batch(*pack_byte_rows(keys))
        ).astype(np.int64)
        buckets = bucket_ids.tolist()
        values: list[Any] = [None] * len(keys)
        # Per-query walk state: (chain position, accumulated value, found)
        # for scalar methods, or (key position, value position, collected
        # values) for the multi-valued method.  Keeping the position makes
        # reissued lookups resume where they blocked, so already-walked
        # segments need not stay resident -- the read-side analogue of the
        # insert bitmap.
        if self._multivalued:
            state: dict[int, Any] = {
                i: (int(head_cpu[buckets[i]]), NULL, [], False)
                for i in range(len(keys))
            }
        else:
            state = {
                i: (int(head_cpu[buckets[i]]), None, False)
                for i in range(len(keys))
            }
        postponed_total = 0
        segments_paged_in = 0
        per_iteration: list[int] = []

        iteration = 0
        while state:
            iteration += 1
            if iteration > self.max_iterations:
                raise RuntimeError("lookup did not converge; heap too small?")
            demanded: Counter[int] = Counter()
            still: dict[int, tuple[int, Any, bool]] = {}
            stats = BatchStats(n_records=len(state), divergence=1.0)
            cycles = 0.0
            # Struct-of-arrays views of every chain this pass resumes
            # into, bulk-materialized (or served from the table's store:
            # residency/write epochs invalidate stale entries between
            # passes automatically).
            views = None
            if not self._multivalued and self.impl != "slow_reference":
                views = table.chain_views.get_many(
                    (ws[0] for ws in state.values()), "generic"
                )
            for i, walk_state in state.items():
                key = keys[i]
                if self._multivalued:
                    outcome = self._walk_mv(
                        key, *walk_state, page_size=page_size, stats=stats,
                        values=values, i=i,
                    )
                elif views is not None:
                    addr, acc, found = walk_state
                    outcome = self._walk_soa(
                        key, addr, acc, found, views, stats, values, i
                    )
                else:
                    addr, acc, found = walk_state
                    outcome = self._walk(
                        key, addr, acc, found, page_size, stats, values, i
                    )
                cycles += HASH_CYCLES_PER_BYTE * len(key)
                if outcome is not None:
                    blocked_seg, new_state = outcome
                    demanded[blocked_seg] += 1
                    still[i] = new_state
            stats.cycles_per_record = len(state) and cycles / len(state)
            stats.hottest_bucket = hottest_count(
                bucket_ids[np.fromiter(state, np.int64, len(state))]
            )
            self.kernel.charge(stats)
            postponed_total += len(still)
            per_iteration.append(len(still))
            if not still:
                break
            segments_paged_in += self._rearrange(demanded)
            state = still

        return LookupResult(
            values=values,
            iterations=iteration,
            postponed_total=postponed_total,
            segments_paged_in=segments_paged_in,
            elapsed_seconds=table.ledger.elapsed - start_elapsed,
            iteration_postponed=per_iteration,
        )

    # ------------------------------------------------------------------
    def _walk_soa(self, key, addr, acc, found, views, stats, values, i):
        """Advance one chain walk against the struct-of-arrays views.

        Charges exactly what :meth:`_walk` charges: the basic method pays
        for each entry up to and including its match; the combining method
        pays for the whole walked prefix (it must see every residue, and
        only an intervening tombstone match ends the walk early).  The
        key resolves in one whole-chain matrix compare; per-entry Python
        work happens only at actual matches.
        """
        if addr == NULL:
            if found:
                values[i] = acc
            return None
        view = views[addr]
        comb = self._combiner
        mpos = view.match_positions(key)
        if comb is None:
            if len(mpos):
                w = int(mpos[0])
                stats.bytes_touched += int(view.cum[w])
                if not (view.flags[w] & E.GFLAG_TOMBSTONE):
                    values[i] = view.value_bytes(w)  # newest entry wins
                return None  # a tombstone closes the key either way
        else:
            for w in mpos.tolist():
                if view.flags[w] & E.GFLAG_TOMBSTONE:
                    # a tombstone closes the key; every older residue is
                    # superseded, so the walk is complete here
                    stats.bytes_touched += int(view.cum[w])
                    if found:
                        values[i] = acc
                    return None
                v = comb.unpack(view.value_bytes(w))
                # the walk is newest-first: fold the older residue in from
                # the left, like GpuHashTable.result()
                acc = v if not found else comb.combine(v, acc)
                found = True
        n = view.n
        if n:
            stats.bytes_touched += int(view.cum[n - 1])
        if view.blocked is not None:
            seg, baddr = view.blocked
            return seg, (baddr, acc, found)
        if found:
            values[i] = acc
        return None

    def _walk(self, key, addr, acc, found, page_size, stats, values, i):
        """Advance one chain walk.

        Completes by filling ``values[i]`` (returns None), or blocks and
        returns ``(blocking_segment, resume_state)``.
        """
        heap = self.table.heap
        comb = self._combiner
        while addr != NULL:
            seg, off = divmod(addr, page_size)
            page = heap.resident_page(seg)
            if page is None:
                return seg, (addr, acc, found)  # POSTPONE here, resume here
            buf = heap.pool.slot_view(page.slot)
            _, next_cpu, klen, vlen = E.read_entry_header(buf, off)
            stats.bytes_touched += E.ENTRY_HEADER + klen
            if klen == len(key) and E.entry_key(buf, off, klen) == key:
                if E.entry_flags(buf, off) & E.GFLAG_TOMBSTONE:
                    # a tombstone closes the key; older copies are dead
                    if comb is not None and found:
                        values[i] = acc
                    return None
                raw = E.entry_value(buf, off, klen, vlen)
                if comb is None:
                    values[i] = raw  # basic method: newest entry wins
                    return None
                v = comb.unpack(raw)
                # newest-first walk: the older residue folds in from the
                # left, like GpuHashTable.result()
                acc = v if not found else comb.combine(v, acc)
                found = True
            addr = next_cpu
        if found:
            values[i] = acc
        return None

    def _walk_mv(self, key, kaddr, vaddr, collected, last, *, page_size,
                 stats, values, i):
        """Multi-valued walk: key chain, and each match's value chain.

        ``vaddr`` is NULL while walking key entries, or the current position
        inside a matched key's value list.  ``last`` is set once the walk
        enters a *shadow* key entry's value list: that entry supersedes all
        older same-key entries, so the walk completes when its list drains.
        A tombstoned key entry completes the walk immediately.  Completes by
        storing the collected value list (misses collect nothing -> empty
        list becomes None), or blocks with ``(segment, resume_state)``.
        """
        heap = self.table.heap
        while True:
            # Drain the current value chain first, if we are inside one.
            while vaddr != NULL:
                seg, off = divmod(vaddr, page_size)
                page = heap.resident_page(seg)
                if page is None:
                    return seg, (kaddr, vaddr, collected, last)
                buf = heap.pool.slot_view(page.slot)
                vnext_gpu, vnext_cpu, vlen = E.read_value_node_header(buf, off)
                stats.bytes_touched += E.VALUE_NODE_HEADER + vlen
                collected.append(E.value_node_value(buf, off, vlen))
                vaddr = vnext_cpu
            if last or kaddr == NULL:
                # collected is newest-first walk order; answer oldest-first
                # to match the dict model's append order
                values[i] = collected[::-1] if collected else None
                return None
            seg, off = divmod(kaddr, page_size)
            page = heap.resident_page(seg)
            if page is None:
                return seg, (kaddr, NULL, collected, last)
            buf = heap.pool.slot_view(page.slot)
            hdr = E.read_key_entry_header(buf, off)
            next_cpu, vhead_cpu, klen, flags = hdr[1], hdr[3], hdr[4], hdr[5]
            stats.bytes_touched += E.KEY_ENTRY_HEADER + klen
            if (
                klen == len(key)
                and E.key_entry_key(buf, off, klen) == key
                # skip empty PENDING entries: unacknowledged
                and not (flags & E.FLAG_PENDING and vhead_cpu == NULL)
            ):
                if flags & E.FLAG_TOMBSTONE:
                    # deleted: this and every older same-key entry is dead
                    values[i] = collected[::-1] if collected else None
                    return None
                vaddr = vhead_cpu  # collect this entry's values next
                if flags & E.FLAG_SHADOW:
                    last = True  # replaces the whole older value list
            kaddr = next_cpu

    def _rearrange(self, demanded: Counter[int]) -> int:
        """Page the most-demanded segments back in; returns pages moved."""
        heap = self.table.heap
        paged = 0
        for seg, _count in demanded.most_common():
            page = heap.page_in(seg)
            if page is None:
                if paged == 0:
                    # Pool exhausted before any progress: make room by
                    # evicting everything currently resident (lookups do
                    # not dirty pages, but evict() re-snapshots them).
                    heap.evict_all()
                    self.table.buckets.reset_gpu_heads()
                    page = heap.page_in(seg)
                    if page is None:
                        raise RuntimeError(
                            "heap cannot hold a single page for lookups"
                        )
                else:
                    break  # pool full; remaining demand waits a round
            self.bus.bulk(heap.page_size)
            paged += 1
        return paged
