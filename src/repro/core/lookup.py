"""SEPO lookups over a larger-than-memory table.

Section IV-C leaves lookups "to the reader as a mental exercise"; this
module is the solved exercise.  The same protocol as inserts, read-side:

* a lookup walks its bucket chain through resident segments and is
  **POSTPONE**d as soon as the chain crosses into a non-resident segment
  (it cannot prove a hit *or* a miss without those entries);
* the requestor notes which segment blocked each postponed lookup;
* between iterations the driver *rearranges data* -- it pages the
  blocking segments back into free heap slots, **newest first**
  (evicting resident lookup pages when the pool runs dry), and reissues.

Why newest first: every CPU-side link is written once, to what was the
chain head when the entry was prepended, and a (group, kind) fills its
pages in segment-id order, so every bucket chain and every value list
runs strictly downward in CPU address (the sanitizer checks it).  A walk
therefore only moves from newer segments to older ones, and a sweep from
the newest demanded segment down reaches each segment when every walk
that will ever need it is already waiting at or above it: the basic and
combining methods page a segment in once (twice only if it was resident
when the lookup began and a full eviction took it).  Ranking by demand
count instead lets the popular chains run ahead and pages the same
segments in again for the stragglers.

The one upward move in the structure is a multi-valued key entry's jump
to the head of its value list, which is newer than the entry.  A
multi-valued lookup therefore never makes that jump inside a walk: it is
a *key walk* down the key chain, which records every admissible match's
``vhead_cpu`` as a new *value-list walk* and closes at the first
tombstone or at the chain's end, plus one value-list walk per recorded
match, each straight down its list.  Every walk only moves downward, so
the rearrangement sweeps the key segments newest first and then the
value segments newest first.

Combining-method semantics deserve care: a key may have residue entries in
several segments (one per iteration that evicted it), so a lookup only
completes once it has walked its *entire* chain, combining every match on
the way -- the value returned equals the finalized CPU-side result.

One pass is one batched resolve per kind of walk
(:mod:`repro.core.chainview`): the open walks are index arrays plus
resume-address columns, every distinct chain they resume into is parsed
once -- fresh each pass, since every rearrangement moves pages -- and all
(query, resident entry) pairs go through the one key matcher.  A walk is
then *closed* or *ran off the resident suffix at segment s*: the second
set is the postponement mask, its (segment, address) columns are the
resume state, and its distinct segments are the page-in demand
(:func:`_page_in_order`).  A query is answered once all its walks are
closed.
A ``slow_reference`` table (``table.org.impl``, read when
:meth:`LookupDriver.lookup` runs) runs the same passes with the per-entry
walks (:meth:`LookupDriver._walk`, :meth:`LookupDriver._walk_keys`,
:meth:`LookupDriver._walk_values`) as the oracle; values, per-pass
counters and every charge are bit-identical.  A ``vectorized`` one hands
a step to the same loop when fewer than :data:`_BATCH_MIN_WALKS` of its
walks can move.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from types import SimpleNamespace
from typing import Any

import numpy as np

from repro.core import entries as E
from repro.core.chainview import (
    match_resident_chains,
    newest_matches,
    walk_resident,
)
from repro.core.hashing import fnv1a_batch
from repro.core.hashtable import GpuHashTable
from repro.core.organizations import (
    BasicOrganization,
    CombiningOrganization,
    HASH_CYCLES_PER_BYTE,
)
from repro.core.organizations.kernel_splice import _readmit_key_pages
from repro.core.records import pack_byte_rows
from repro.gpusim.atomics import hottest_count
from repro.gpusim.kernel import BatchStats, KernelModel
from repro.gpusim.pcie import PCIeBus
from repro.memalloc.address import NULL

__all__ = ["LookupDriver", "LookupResult"]

#: walks (open walks that do not resume in evicted memory) a step of a pass
#: needs before the batched resolve beats the per-walk loop: a resolve is
#: ~150 numpy dispatches (0.3-0.5 ms) whatever its width, a loop step
#: 3-12 us per walk.  Measured on ``kv_mixed``-shaped tables: resident,
#: whole-chain walks cross at 64-128 (combining) and 128-256 (basic,
#: multi-valued) queries.  On the multi-valued one (409 segments, 64
#: slots), where each of the 8 passes is a key step and a value step, a
#: lookup takes 22-24 ms with the cut-over anywhere in 0...512 (reissued
#: walks are short) and 84 ms with every step looped (best of five, two
#: x86 cores, Python 3.11, numpy 2.4).
_BATCH_MIN_WALKS = 128


def _page_in_order(blocked: np.ndarray) -> list[int]:
    """The segments that blocked a pass's postponed walks, in the order
    the rearrangement pages them in: newest first, whatever the demand.
    Chains run downward in CPU address, so no walk waiting below a segment
    can come to need it (module docstring)."""
    return np.unique(blocked)[::-1].tolist()


def _running_count(key: np.ndarray, flag: np.ndarray) -> np.ndarray:
    """Per match of a sorted :attr:`ChainMatches.key` column (or any
    subset of one): how many ``flag`` matches of the same key come before
    it or are it, in walk order."""
    seen = np.cumsum(flag)
    return seen - (seen - flag)[np.searchsorted(key, key)]


@dataclass
class LookupResult:
    """Outcome of a batched SEPO lookup."""

    values: list[Any]  # per query: scalar / bytes / None (miss)
    iterations: int
    postponed_total: int
    segments_paged_in: int
    elapsed_seconds: float = 0.0
    #: per pass: queries postponed, queries answered, and pages the
    #: rearrangement after it paged in
    iteration_postponed: list[int] = field(default_factory=list)
    iteration_answered: list[int] = field(default_factory=list)
    iteration_paged_in: list[int] = field(default_factory=list)


class LookupDriver:
    """Requestor-side loop for read queries (inserts' mirror image)."""

    def __init__(
        self,
        table: GpuHashTable,
        kernel: KernelModel,
        bus: PCIeBus,
        max_iterations: int = 10_000,
    ):
        from repro.core.organizations import MultiValuedOrganization

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
        start_elapsed = table.ledger.elapsed
        n = len(keys)
        keymat, klens = pack_byte_rows(keys)
        bucket_ids = table.buckets.bucket_of_hash(
            fnv1a_batch(keymat, klens)
        ).astype(np.int64)
        heads = table.buckets.head_cpu[bucket_ids].astype(np.int64)
        # what a pass reads of the queries and where it puts the answers
        q = SimpleNamespace(
            keys=keys, keymat=keymat, klens=klens.astype(np.int64),
            values=[None] * n,
        )
        # The open queries: their indices (``pend``) and, row for row, the
        # resume state -- where each walk goes on and what it has gathered
        # so far.  Keeping the position makes reissued lookups resume
        # where they blocked, so already-walked segments need not stay
        # resident -- the read-side analogue of the insert bitmap.
        st = {"pend": np.arange(n)}
        if self._multivalued:
            # kaddr: where the query's key walk goes on, NULL once closed
            st["kaddr"] = heads
            # the value-list walks the key walks recorded and that have not
            # drained, row for row: the query (owner), the match ordinal --
            # numbered as recorded, so one query's run in match order --
            # and where the walk goes on (vaddr)
            none = np.zeros(0, dtype=np.int64)
            q.lists = {"owner": none, "ord": none, "vaddr": none}
            q.n_lists = 0
            # per query: (ordinal, values newest first) per stretch drained
            q.collected = [[] for _ in keys]
        else:
            comb = self._combiner
            st.update(
                addr=heads, found=np.zeros(n, dtype=bool),
                acc=np.zeros(n, dtype=comb.dtype if comb else np.int64),
            )

        postponed: list[int] = []
        answered: list[int] = []
        paged_in: list[int] = []
        readmitted: set[int] = set()
        try:
            while len(st["pend"]):
                if len(postponed) >= self.max_iterations:
                    raise RuntimeError("lookup did not converge; heap too small?")
                pend = st["pend"]
                stats = BatchStats(n_records=len(pend), divergence=1.0)
                if self._multivalued:
                    still, demand = self._pass_mv(st, q, stats)
                else:
                    # per open query: the segment that blocked it, -1 =
                    # answered
                    blocked = self._advance(
                        st["addr"], self._pass_generic, self._pass_scalar,
                        st, q, stats,
                    )
                    still = blocked >= 0
                    demand = _page_in_order(blocked[still])
                stats.cycles_per_record = (
                    HASH_CYCLES_PER_BYTE * int(q.klens[pend].sum()) / len(pend)
                )
                stats.hottest_bucket = hottest_count(bucket_ids[pend])
                self.kernel.charge(stats)
                st = {name: column[still] for name, column in st.items()}
                postponed.append(len(st["pend"]))
                answered.append(len(pend) - len(st["pend"]))
                readmitted.update(demand)  # before the DMA, which can fail
                paged_in.append(self._rearrange(demand))
        finally:
            if self._multivalued:
                # no pass reads a GPU-side field: the page-in rule is
                # applied once, to what the lookup leaves resident
                _readmit_key_pages(table, sorted(readmitted))

        return LookupResult(
            values=q.values,
            iterations=len(postponed),
            postponed_total=sum(postponed),
            segments_paged_in=sum(paged_in),
            elapsed_seconds=table.ledger.elapsed - start_elapsed,
            iteration_postponed=postponed,
            iteration_answered=answered,
            iteration_paged_in=paged_in,
        )

    # ------------------------------------------------------------------
    # One basic / combining step over rows ``at`` of the open queries
    # ``st``: each returns, per row, the segment that blocked the walk (-1:
    # answered) and leaves the resume state in the columns.
    def _pass_generic(self, at, st, q, stats):
        """The basic / combining method as one resolve.

        Charges exactly what :meth:`_walk` charges: a walk that a match
        closes -- the basic method's newest match, the combining method's
        first tombstone match -- pays for the entries up to and including
        it and is answered; every other walk pays for the whole resident
        prefix and is postponed where that runs on into evicted memory.
        """
        arena = self.table.heap.pool.arena
        comb = self._combiner
        addr, found, acc = st["addr"], st["found"], st["acc"]
        pend = st["pend"][at]
        cm = match_resident_chains(
            self.table.heap, addr[at], "generic", q.keymat[pend], q.klens[pend]
        )
        tomb = (cm.flags & E.GFLAG_TOMBSTONE) != 0
        if comb is None:
            closer = newest_matches(cm.key)  # newest entry wins, live or dead
            live = closer[~tomb[closer]]
            got = E.gather_bytes(arena, cm.vpos[live], cm.vlen[live])
            for i, value in zip(pend[cm.key[live]].tolist(), got):
                q.values[i] = value
        else:
            # the first tombstone match closes the key, nothing behind it
            # shows
            dead = _running_count(cm.key, tomb)
            closer = np.flatnonzero(tomb & (dead == 1))
            shown = np.flatnonzero(dead == 0)
            row = at[cm.key[shown]]
            scalars = E.gather_field(
                arena, cm.vpos[shown], comb.dtype.newbyteorder("<")
            )
            # the walk is newest-first: fold the older residue in from the
            # left, like GpuHashTable.result()
            if comb.ufunc is not None:
                starts = newest_matches(row)
                r = row[starts]
                acc[r] = comb.fold_segments(
                    scalars, starts, acc[r], found[r], acc_right=True
                )
            else:
                for r, v in zip(row.tolist(), scalars.tolist()):
                    if found[r]:
                        v = comb.combine(v, acc[r].item())
                    acc[r], found[r] = v, True
            found[row] = True
        blocked, charge = cm.blocked_seg, cm.chain_bytes
        blocked[cm.key[closer]] = -1
        charge[cm.key[closer]] = cm.cum[closer]
        stats.bytes_touched += int(charge.sum())
        addr[at] = cm.blocked_addr
        if comb is not None:
            done = at[(blocked < 0) & found[at]]
            for i, v in zip(st["pend"][done].tolist(), acc[done].tolist()):
                q.values[i] = v
        return blocked

    def _pass_mv(self, st, q, stats):
        """The multi-valued method: every key walk that can move takes one
        step down its key chain, then every value-list walk -- the ones
        this step recorded included -- one step down its list.  Charges
        what :meth:`_walk_keys` and :meth:`_walk_values` charge.

        A query is answered once its key walk is closed and its lists are
        drained.  Returns the open-query mask and the page-in demand: the
        key walks' segments newest first, then the value walks'.
        """
        kseg = self._advance(
            st["kaddr"], self._key_walks, self._key_walks_scalar, st, q, stats
        )
        vseg = self._advance(
            q.lists["vaddr"], self._value_walks, self._value_walks_scalar,
            q, stats,
        )
        drained = vseg < 0
        q.lists = {name: column[~drained] for name, column in q.lists.items()}
        done = (kseg < 0) & ~np.isin(st["pend"], q.lists["owner"])
        for i in st["pend"][done].tolist():
            # the lists in match order, each newest first; answer oldest
            # first to match the dict model's append order
            got = sorted(q.collected[i], key=itemgetter(0))
            q.values[i] = [v for _, values in got for v in values][::-1] or None
        demand = _page_in_order(kseg[kseg >= 0])
        return ~done, demand + _page_in_order(vseg[~drained])

    def _advance(self, resume, bulk, loop, *args):
        """One step of the walks resuming at ``resume`` (NULL: closed, or
        an empty bucket): the ones that can move go through ``bulk`` as one
        resolve, or through the per-entry ``loop`` on a ``slow_reference``
        table and when fewer than :data:`_BATCH_MIN_WALKS` can.  Returns per
        walk the segment it is blocked at, -1 once it is closed."""
        batched = self.table.org.impl != "slow_reference"
        if batched:
            seg = self._stuck(resume)
        else:
            seg = np.full(len(resume), -1, dtype=np.int64)
        rows = np.flatnonzero((seg < 0) & (resume != NULL))
        walk = bulk if batched and len(rows) >= _BATCH_MIN_WALKS else loop
        seg[rows] = walk(rows, *args)
        return seg

    def _key_walks(self, rows, st, q, stats):
        """The key walks at ``rows`` as one resolve.  The first closer of a
        walk is its first tombstone match; every admissible match before
        it records its value list.  A closed walk pays for the entries up
        to and including its closer, every other one for the whole
        resident prefix, and waits where that runs on into evicted
        memory."""
        heap = self.table.heap
        kaddr, pend = st["kaddr"], st["pend"][rows]
        cm = match_resident_chains(
            heap, kaddr[rows], "key", q.keymat[pend], q.klens[pend]
        )
        vhead = heap.pool.arena.view(np.int64)[(cm.pos >> 3) + 3]
        # skip unborn entries: unacknowledged
        born = np.flatnonzero(~E.key_entry_unborn(cm.flags, vhead))
        flags = cm.flags[born]
        # deleted: this and every older same-key entry is dead
        tomb = (flags & E.FLAG_TOMBSTONE) != 0
        seen = _running_count(cm.key[born], tomb)
        keep = born[seen == 0]
        self._record(q, pend[cm.key[keep]], vhead[keep])
        closer = born[tomb & (seen == 1)]
        seg, addr, charge = cm.blocked_seg, cm.blocked_addr, cm.chain_bytes
        closed = cm.key[closer]
        seg[closed], addr[closed], charge[closed] = -1, NULL, cm.cum[closer]
        stats.bytes_touched += int(charge.sum())
        kaddr[rows] = addr
        return seg

    def _value_walks(self, rows, q, stats):
        """The value-list walks at ``rows`` of ``q.lists``, all together:
        collect what is resident, stop where a list ends (``vaddr`` NULL
        again) or leaves residency."""
        heap = self.table.heap
        lists = q.lists
        cols, counts, (seg, addr) = walk_resident(
            heap, lists["vaddr"][rows], "value"
        )
        _, pos, _, vlens, _ = cols
        stats.bytes_touched += E.VALUE_NODE_HEADER * len(pos) + int(vlens.sum())
        got = E.gather_bytes(heap.pool.arena, pos + E.VALUE_NODE_HEADER, vlens)
        ends = np.cumsum(counts)
        some = np.flatnonzero(counts)  # most reissued walks block at once
        for i, o, lo, hi in zip(
            lists["owner"][rows[some]].tolist(),
            lists["ord"][rows[some]].tolist(),
            (ends - counts)[some].tolist(), ends[some].tolist(),
        ):
            q.collected[i].append((o, got[lo:hi]))
        lists["vaddr"][rows] = addr
        return seg

    @staticmethod
    def _record(q, owner, vhead):
        """Open one value-list walk per match, at the list's head; the
        matches come grouped by query, in match order."""
        n = len(owner)
        new = {"owner": owner, "ord": q.n_lists + np.arange(n), "vaddr": vhead}
        q.lists = {
            name: np.concatenate((column, new[name]))
            for name, column in q.lists.items()
        }
        q.n_lists += n

    def _stuck(self, resume):
        """Per walk resuming at ``resume``: the segment it is postponed at
        again, untouched, because that is still evicted -- most reissued
        walks, which so never reach a parse -- else -1."""
        heap = self.table.heap
        seg = resume // heap.page_size
        evicted = heap.resident_slot_map()[seg] < 0
        return np.where((resume != NULL) & evicted, seg, -1)

    def _pass_scalar(self, at, st, q, stats):
        """The per-query, per-entry loop of the basic and combining methods
        (the oracle)."""
        page_size = self.table.heap.page_size
        blocked = np.full(len(at), -1, dtype=np.int64)
        for j, (r, i) in enumerate(zip(at.tolist(), st["pend"][at].tolist())):
            found = bool(st["found"][r])
            out = self._walk(
                q.keys[i], int(st["addr"][r]),
                st["acc"][r].item() if found else None, found, page_size,
                stats, q.values, i,
            )
            if out is not None:
                blocked[j], (st["addr"][r], acc, st["found"][r]) = out
                if st["found"][r]:
                    st["acc"][r] = acc
        return blocked

    def _key_walks_scalar(self, rows, st, q, stats):
        """:meth:`_key_walks` walk by walk, entry by entry (the oracle)."""
        page_size = self.table.heap.page_size
        kaddr = st["kaddr"]
        seg = np.full(len(rows), -1, dtype=np.int64)
        owner: list[int] = []
        vheads: list[int] = []
        for j, (r, i) in enumerate(zip(rows.tolist(), st["pend"][rows].tolist())):
            before = len(vheads)
            seg[j], kaddr[r] = self._walk_keys(
                q.keys[i], int(kaddr[r]), page_size, stats, vheads
            )
            owner += [i] * (len(vheads) - before)
        self._record(
            q, np.array(owner, dtype=np.int64), np.array(vheads, dtype=np.int64)
        )
        return seg

    def _value_walks_scalar(self, rows, q, stats):
        """:meth:`_value_walks` walk by walk, node by node (the oracle)."""
        page_size = self.table.heap.page_size
        lists = q.lists
        vaddr = lists["vaddr"]
        seg = np.full(len(rows), -1, dtype=np.int64)
        for j, (r, i, o) in enumerate(zip(
            rows.tolist(), lists["owner"][rows].tolist(),
            lists["ord"][rows].tolist(),
        )):
            got: list[bytes] = []
            seg[j], vaddr[r] = self._walk_values(
                int(vaddr[r]), page_size, stats, got
            )
            if got:
                q.collected[i].append((o, got))
        return seg

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

    def _walk_keys(self, key, kaddr, page_size, stats, vheads):
        """Advance one key walk down its key chain.

        Appends the ``vhead_cpu`` of every admissible match to ``vheads``
        (its value list is walked on its own, :meth:`_walk_values`).  A
        tombstoned match closes the walk.  Returns ``(-1, NULL)`` once
        closed, or the segment it blocks at and the address it resumes at.
        """
        heap = self.table.heap
        while kaddr != NULL:
            seg, off = divmod(kaddr, page_size)
            page = heap.resident_page(seg)
            if page is None:
                return seg, kaddr
            buf = heap.pool.slot_view(page.slot)
            hdr = E.read_key_entry_header(buf, off)
            next_cpu, vhead_cpu, klen, flags = hdr[1], hdr[3], hdr[4], hdr[5]
            stats.bytes_touched += E.KEY_ENTRY_HEADER + klen
            if (
                klen == len(key)
                and E.key_entry_key(buf, off, klen) == key
                # skip unborn entries: unacknowledged
                and not E.key_entry_unborn(flags, vhead_cpu)
            ):
                if flags & E.FLAG_TOMBSTONE:
                    # deleted: this and every older same-key entry is dead
                    break
                vheads.append(vhead_cpu)
            kaddr = next_cpu
        return -1, NULL

    def _walk_values(self, vaddr, page_size, stats, got):
        """Advance one value-list walk, appending each value to ``got``
        (newest first).  Returns ``(-1, NULL)`` once the list is drained,
        or the segment it blocks at and the address it resumes at."""
        heap = self.table.heap
        while vaddr != NULL:
            seg, off = divmod(vaddr, page_size)
            page = heap.resident_page(seg)
            if page is None:
                return seg, vaddr
            buf = heap.pool.slot_view(page.slot)
            _, vnext_cpu, vlen = E.read_value_node_header(buf, off)
            stats.bytes_touched += E.VALUE_NODE_HEADER + vlen
            got.append(E.value_node_value(buf, off, vlen))
            vaddr = vnext_cpu
        return -1, NULL

    def _rearrange(self, demanded: list[int]) -> int:
        """Page the demanded segments in, in order and as one DMA, as far as
        the pool goes (the rest waits a round); returns how many made it."""
        heap = self.table.heap
        stored = heap.stored_bytes
        paged = heap.page_in_many(demanded)
        if demanded and not paged:
            # Pool exhausted before any progress: make room by evicting
            # everything currently resident (lookups do not dirty pages,
            # but evict() re-snapshots them).
            stored += heap.evict_all()
            self.table.buckets.reset_gpu_heads()
            # an insert pass after this lookup must not fill evicted pages
            self.table.alloc.drop_stale_pages()
            paged = heap.page_in_many(demanded)
            if not paged:
                raise RuntimeError("heap cannot hold a single page for lookups")
        if heap.stored_bytes < stored:
            self.bus.bulk(stored - heap.stored_bytes)
        return paged
