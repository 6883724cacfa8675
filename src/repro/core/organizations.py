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
  (:func:`repro.core.chainview.resolve_keys`).  Mixed
  insert/update/delete/lookup batches run one such kernel too (resolve ->
  plan -> allocate -> scatter, exact through allocation failure in
  mid-batch) once they hold :data:`MIXED_KERNEL_MIN_OPS` ops:
  :func:`_mutate_generic` for the two generic-entry organizations,
  :func:`_mutate_multivalued` -- the same steps over a request stream of
  two page kinds -- for the third.  Pure-insert batches are exact
  through pool exhaustion as well: the pool empties once, and from there
  on the multi-valued method's two page kinds decouple
  (:meth:`MultiValuedOrganization._insert_preagg`).  Whatever has no
  closed form -- traced runs, 64-bit hash collisions, callback combiners,
  pure-insert batches into tables holding tombstones, a fault-injected
  pool whose ``n_free`` cannot be believed -- runs the scalar loop.
* ``"slow_reference"`` -- the one-record-at-a-time loops, always: the
  differential-testing oracle.

Both produce bit-identical tables, success masks, and cost tallies; only
wall-clock time differs.  Simulated-time accounting is therefore unaffected
by the choice (see docs/cost_model.md, "Host-side performance architecture").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.core import entries as E
from repro.core.chainview import (
    match_cpu_chains,
    resolve_keys,
    walk_cpu_image,
    word_aligned,
)
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

#: mixed-op batches of at least this many ops run the batched kernel under
#: ``impl="vectorized"``; smaller ones run the loop, whose per-op cost is
#: lower than the kernel's fixed cost of a few hundred numpy dispatches
#: (the ``mixed_sweep`` tier of BENCH_hostperf.json is the evidence)
MIXED_KERNEL_MIN_OPS = 512


def _stable_order(keys: np.ndarray) -> np.ndarray:
    """``argsort(kind="stable")`` via a composite quicksort key.

    Fusing the arrival position into one unique int64 key lets the default
    introsort produce exactly the stable permutation ~3x faster than
    mergesort.  Only valid for small-cardinality keys (bucket/group ids):
    ``keys * n + n`` must not overflow int64.
    """
    n = len(keys)
    return (keys.astype(np.int64) * n + np.arange(n)).argsort()


def segmented_exclusive_cumsum(
    x: np.ndarray, seg: np.ndarray, order: np.ndarray | None = None
) -> np.ndarray:
    """Per-element sum of *earlier* same-segment elements, in arrival order.

    This is the closed form behind the batched kernels' walk accounting:
    with ``x`` holding per-record "a new entry was prepended here" event
    weights and ``seg`` the bucket ids, the result at record ``j`` is
    exactly how much the bucket's chain grew before ``j``'s walk started
    -- what the scalar reference observes record by record.  ``order`` is
    ``_stable_order(seg)`` when the caller already has it.
    """
    m = len(x)
    if order is None:
        order = _stable_order(seg)
    xs = x[order]
    excl = np.cumsum(xs) - xs
    ss = seg[order]
    st = np.flatnonzero(np.r_[True, ss[1:] != ss[:-1]])
    base = np.repeat(excl[st], np.diff(np.r_[st, m]))
    out = np.empty(m, dtype=np.int64)
    out[order] = excl - base
    return out


def _run_starts(x: np.ndarray) -> np.ndarray:
    """Mask of the positions where a run of equal values of ``x`` begins."""
    first = np.ones(len(x), dtype=bool)
    np.not_equal(x[1:], x[:-1], out=first[1:])
    return first


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


def _link_value_lists(gaddr, caddr, first, head_gpu, head_cpu):
    """Push value nodes onto their key entries' lists; returns the nodes'
    ``(vnext_gpu, vnext_cpu)`` pointers.

    The nodes (own addresses ``gaddr``/``caddr``) come sorted by (entry,
    arrival), ``first`` marking each entry's first: that one points at the
    entry's list head before the batch (``head_gpu``/``head_cpu``, per
    node, read where ``first``), every other at the node pushed just
    before it.  An entry's new head is its last node.
    """
    vnext_gpu = np.where(first, head_gpu, np.r_[NULL, gaddr[:-1]])
    vnext_cpu = np.where(first, head_cpu, np.r_[NULL, caddr[:-1]])
    return vnext_gpu, vnext_cpu


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

    def first_creates(self, created):
        """``(made, creator)`` for :meth:`walk_charges` when each key of
        ``created`` (G,) gets its one new entry at its first occurrence --
        the pre-aggregated insert kernels' case."""
        made = np.zeros(len(self.gpos), dtype=bool)
        made[self.firstj[created]] = True
        creator = np.where(
            created[self.gpos] & ~self.isfirst, self.firstj[self.gpos], -1
        )
        return made, creator

    def makers(self, made, seg0):
        """``creator`` for :meth:`walk_charges` when any op may prepend an
        entry (the mixed-op kernels' case): per op, the latest earlier op
        of ``made`` (m,) with the same key, else -1 (``seg0`` as in
        :func:`_latest_before`)."""
        sub = self.sub
        c_s = _latest_before(made[sub], seg0)
        creator = np.empty(len(made), dtype=np.int64)
        creator[sub] = np.where(c_s >= 0, sub[c_s], -1)
        return creator

    def walk_charges(self, res, buckets, klens, made, creator, header):
        """Closed form of what a scalar walk by each of the ``m`` ops costs.

        A walk visits the entries earlier ops of the batch prepended to its
        bucket, newest first, then the bucket's resident prefix, and stops
        at its key's newest copy.  ``made`` (m,) marks the ops that prepend
        an entry; ``creator`` (m,) is the op that made the key's newest
        copy as the walk starts, -1 when that copy -- if there is one -- is
        resident.  With ``A`` / ``S`` the per-bucket exclusive cumulative
        sums of creation events and of their header+key bytes, a walker
        whose key was created by op ``c`` pays ``A[j] - A[c]`` probes and
        ``S[j] - S[c]`` bytes; any other pays ``A[j]`` plus the resident
        hit position + 1, or the whole resident prefix on a miss.  No
        per-op walk is replayed.

        Returns per-op ``(probe_steps, walk_bytes, A, S)``; callers sum
        over the ops that do walk.
        """
        gpos = self.gpos
        order = _stable_order(buckets)
        ev = made.astype(np.int64)
        A = segmented_exclusive_cumsum(ev, buckets, order)
        S = segmented_exclusive_cumsum(ev * (header + klens), buckets, order)
        hit = res.hit[gpos]
        probe = A + np.where(hit >= 0, hit + 1, res.n_resident[gpos])
        btv = S + np.where(hit >= 0, res.hit_bytes[gpos], res.walk_bytes[gpos])
        new = creator >= 0
        if new.any():
            c = creator[new]
            probe[new] = A[new] - A[c]
            btv[new] = S[new] - S[c]
        return probe, btv, A, S


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


def _latest_before(mask: np.ndarray, seg0: np.ndarray) -> np.ndarray:
    """Per position of a key-major array, the latest *earlier* position of
    the same key where ``mask`` holds, else -1 (``seg0[p]`` is the first
    position of ``p``'s key)."""
    at = np.where(mask, np.arange(len(mask)), -1)
    last = np.r_[-1, np.maximum.accumulate(at)[:-1]]
    return np.where(last >= seg0, last, -1)


class _KeyStates(NamedTuple):
    """What each op of a mixed batch finds its key as, key-major (aligned
    with ``_DistinctKeys.sub``); see :func:`_key_states`."""

    seg0: np.ndarray  # first position of the op's key
    key: np.ndarray  # the op's distinct key
    last_up: np.ndarray  # the key's latest earlier upsert, else -1
    untouched: np.ndarray  # no earlier op of the batch wrote the key
    live: np.ndarray  # the key's newest copy is resident and not dead
    unproven: np.ndarray  # a miss against a chain that runs on evicted


def _key_states(dk, res, is_up, is_del, tombstone) -> _KeyStates:
    """The state chain of the mixed-op kernels.

    An op finds its key live, dead, absent, or unproven (a miss against a
    chain that runs on into evicted memory).  Which depends only on the
    key's previous write of the batch -- after an upsert the key is live
    whether or not that op allocated, after a delete it is dead (or still
    absent) -- and before the first write on what ``res``, one resolve of
    the distinct keys, found (``tombstone`` is the dead bit of its flag
    words).  It holds for every op that runs: the ops of a group run up
    to its first denied request, and a key lives in one group.
    """
    sub = dk.sub
    seg0 = np.repeat(dk.starts, dk.counts)
    g_s = dk.gpos[sub]
    last_up = _latest_before(is_up[sub], seg0)
    last_del = _latest_before(is_del[sub], seg0)
    untouched = (last_up < 0) & (last_del < 0)
    hit0 = res.hit >= 0
    live0 = hit0 & ((res.hit_flags & tombstone) == 0)
    live = np.where(last_up >= 0, last_del < last_up, untouched & live0[g_s])
    unproven = untouched & (~hit0 & res.blocked)[g_s]
    return _KeyStates(seg0, g_s, last_up, untouched, live, unproven)


def _sticky_cut(table, groups, owner, sizes, tally, kinds=None):
    """Plan one kernel call's request stream and cut every group at its
    first denied request.

    ``owner`` (ascending) names the op behind each request, ``sizes`` /
    ``kinds`` are the requests as :meth:`plan_page_takes` takes them.  The
    pool grants page takes in request order; a group stops at its first
    denied one.  The op owning that request is *refused* -- charged what
    it did up to there -- every later op of the group postpones at the
    gate charged its hash alone, every earlier one runs.  Books the
    attempt and gate counts; returns ``(ran, refused, n_refused, cut)``,
    masks over the ops and the request index of each failing group's
    first denied request.
    """
    m = len(groups)
    stop = np.full(table.buckets.n_groups, m)
    cut = np.zeros(0, dtype=np.int64)
    if len(owner):
        rgroups = groups[owner]
        page_takes = table.alloc.plan_page_takes(rgroups, sizes, kinds=kinds)
        denied = page_takes[table.heap.pool.n_free:]
        if len(denied):
            g_denied, first = np.unique(rgroups[denied], return_index=True)
            cut = denied[first]
            stop[g_denied] = owner[cut]
    stop = stop[groups]
    ar = np.arange(m)
    ran = ar < stop
    refused = ar == stop
    n_refused = int(refused.sum())
    n_gated = m - int(ran.sum()) - n_refused
    tally.attempted += m
    tally.succeeded += m - n_gated - n_refused
    tally.postponed += n_gated + n_refused
    table.mutations.gate_postponed += n_gated
    return ran, refused, n_refused, cut


def _mutate_generic(table, batch, idx, buckets, tally, comb):
    """The batched mixed-op kernel of the two generic-entry organizations:
    resolve -> plan -> allocate -> scatter, bit-identical to their
    ``_mutate_impl`` loops through mid-batch allocation failure.

    ``comb`` is the whole policy.  ``None`` is the basic method: an insert
    prepends without probing, an update overwrites a live same-width hit
    and shadows it.  A :class:`Combiner` is the combining method: inserts
    and updates are the same upsert, which probes and combines into a live
    hit.  Deletes and lookups are common to both.

    Every op's group must be open (the caller gates failed groups).
    Returns the success mask, or None -- before touching anything -- when
    a request exceeds the page size (the loop raises the allocator's
    error).  docs/cost_model.md, "Mutation cycle costs", derives each
    step.
    """
    heap = table.heap
    alloc = table.alloc
    muts = table.mutations
    arena = heap.pool.arena
    m = len(idx)
    ar = np.arange(m)
    ops = batch.ops[idx]
    klens = batch.key_lens[idx].astype(np.int64)
    groups = buckets // table.buckets.group_size
    is_lk = ops == OP_LOOKUP
    is_del = ops == OP_DELETE
    is_upd = ops == OP_UPDATE
    is_up = ~(is_lk | is_del)
    if comb is None:
        width = np.where(is_up, batch.val_lens[idx], 0).astype(np.int64)
    else:
        width = np.where(is_up, comb.value_size, 0)

    # -- resolve: the state each op finds its key in ---------------------
    # (:func:`_key_states`; a live copy here also has a value width: the
    # previous upsert's, or before the first write the resident hit's)
    dk = _DistinctKeys(batch.cache.grouping(table.buckets), idx, buckets)
    res = dk.resolve(table, batch, idx, "generic")
    st = _key_states(dk, res, is_up, is_del, E.GFLAG_TOMBSTONE)
    sub, gpos = dk.sub, dk.gpos
    found_s = np.where(
        st.last_up >= 0, width[sub][st.last_up], res.hit_vlen[st.key]
    )
    if comb is None:
        keeps = is_upd[sub] & st.live & (found_s == width[sub])
    else:
        keeps = st.live
    takes = np.empty(m, dtype=bool)  # ops that allocate an entry
    takes[sub] = np.where(is_del[sub], st.unproven, is_up[sub] & ~keeps)
    live = np.empty(m, dtype=bool)
    live[sub] = st.live
    found = np.empty(m, dtype=np.int64)  # value width of that live copy
    found[sub] = found_s

    # -- plan: the sticky cut (:func:`_sticky_cut`) -----------------------
    # An op makes at most one request, so the refused op has done nothing
    # but its walk and is charged that and its INSERT_CYCLES.
    req = np.flatnonzero(takes)
    size = np.zeros(m, dtype=np.int64)
    size[req] = E.entry_sizes_bulk(klens[req], width[req])
    if len(req) and int(size.max()) > heap.page_size:
        return None
    ran, refused, n_refused, _ = _sticky_cut(
        table, groups, req, size[req], tally
    )
    made = takes & ran  # the entries this batch creates
    inplace = ran & is_up & ~takes  # overwrites (basic) / combines
    buried = ran & is_del & live  # live newest copies tombstoned in place
    born_dead = made & is_del

    # -- charges ---------------------------------------------------------
    creator = dk.makers(made, st.seg0)  # op that made the newest copy
    probe, walk_bytes, A, S = dk.walk_charges(
        res, buckets, klens, made, creator, E.ENTRY_HEADER
    )
    walks = (ran | refused) & (is_del | (is_upd if comb is None else is_up))
    n_inplace = int(inplace.sum())
    n_buried = int(buried.sum())
    tally.probe_steps += int(probe[walks].sum())
    tally.bytes_touched += (
        int(walk_bytes[walks].sum())
        + int((size[made] + 16).sum())
        + 4 * n_buried
        + (int((width[inplace] + 4).sum()) if comb is None
           else 2 * comb.value_size * n_inplace)
    )
    # integer-valued constants (the caller checked comb.cycles): the sum
    # is order-free and lands on the loop's float
    tally.table_cycles += float(
        HASH_CYCLES_PER_BYTE * int(klens.sum())
        + INSERT_CYCLES * (int(made.sum()) + n_refused)
        + (UPDATE_CYCLES if comb is None else comb.cycles) * n_inplace
        + TOMBSTONE_CYCLES * n_buried
    )
    muts.inserts += int((ran & (ops == OP_INSERT)).sum())
    muts.updates_inplace += int((inplace & is_upd).sum())
    muts.updates_entries += int((made & is_upd).sum())
    muts.deletes_inplace += n_buried
    muts.deletes_tombstones += int(born_dead.sum())
    muts.deletes_noop += int((ran & is_del & ~buried & ~takes).sum())
    n_tomb = n_buried + int(born_dead.sum())
    if n_tomb:
        alloc.note_tombstone(
            int(E.entry_sizes_bulk(klens[buried], found[buried]).sum())
            + int(size[born_dead].sum()),
            n_tomb,
        )

    # -- lookups read the table as it stood before the batch -------------
    looks = ran & is_lk
    if looks.any():
        muts.lookups += int(looks.sum())
        dirty = np.empty(m, dtype=bool)  # an earlier op wrote the same key
        dirty[sub] = ~st.untouched
        _answer_lookups(
            table, batch, idx, dk, comb, looks, dirty, ran, made, inplace,
            buried, A, S, tally,
        )

    # -- allocate: the request stream the loop would issue ---------------
    ask = np.flatnonzero(takes & (ran | refused))
    bulk = alloc.allocate_many(groups[ask], size[ask], PageKind.GENERIC)
    if not np.array_equal(bulk.ok, ran[ask]):  # pragma: no cover
        raise AssertionError("page-take plan and allocator disagree")
    tally.alloc_groups.extend(groups[ask][bulk.ok])

    # -- scatter: effects collapse per entry -----------------------------
    # All in-place ops between two allocations of a key land on one entry
    # (the resident hit before the first): flags OR together, the last
    # overwrite wins, combines fold in arrival order.  ``target`` names
    # that entry: the op that made it, or m + key for the resident hit.
    target = np.where(made, ar, np.where(creator >= 0, creator, m + gpos))
    nflags = np.zeros(m, dtype=np.int64)  # by making op
    rflags = np.zeros(len(dk.starts), dtype=np.int64)  # by key (resident)
    nflags[born_dead] = E.GFLAG_TOMBSTONE
    t = target[buried]
    nflags[t[t < m]] |= E.GFLAG_TOMBSTONE
    rflags[t[t >= m] - m] |= E.GFLAG_TOMBSTONE
    rewritten = np.zeros(len(dk.starts), dtype=bool)  # resident hits
    if comb is None:
        nflags[made & is_upd] |= E.GFLAG_SHADOW
        source = ar.copy()  # op whose value each new entry ends up with
        over = sub[inplace[sub]]  # in-place updates, key-major
        if len(over):
            t = target[over]
            nflags[t[t < m]] |= E.GFLAG_SHADOW
            rflags[t[t >= m] - m] |= E.GFLAG_SHADOW
            final = np.r_[t[1:] != t[:-1], True]  # last overwrite per entry
            t, over = t[final], over[final]
            new = t < m
            source[t[new]] = over[new]
            g, over = t[~new] - m, over[~new]
            E.scatter_rows(
                arena, res.hit_pos[g] + E.ENTRY_HEADER + klens[over],
                batch.values[idx[over]], width[over],
            )
    else:
        vdtype = comb.dtype.newbyteorder("<")
        folded = np.zeros(m, dtype=comb.dtype)  # by making op
        ups = sub[(ran & is_up)[sub]]  # upserts that ran, key-major
        if len(ups):
            t = target[ups]
            runs = np.flatnonzero(np.r_[True, t[1:] != t[:-1]])
            t = t[runs]
            seeded = t >= m  # runs that start on a resident hit
            g = t[seeded] - m
            vo = res.hit_pos[g] + E.ENTRY_HEADER + klens[dk.firstj[g]]
            seeds = np.zeros(len(runs), dtype=comb.dtype)
            seeds[seeded] = E.gather_field(arena, vo, vdtype)
            red = comb.fold_segments(
                batch.numeric_values[idx[ups]], runs, seeds, seeded
            )
            E.scatter_field(arena, vo, red[seeded])
            rewritten[g] = True
            folded[t[~seeded]] = red[~seeded]
    rewritten |= rflags != 0
    hits = np.flatnonzero(rflags)
    E.or_entry_flags(arena, res.hit_pos[hits], rflags[hits])
    for seg in np.unique(res.hit_addr[rewritten] // heap.page_size).tolist():
        heap.note_write(seg)

    # new entries: linked newest-first per bucket, written once with their
    # final value and flags
    order = np.flatnonzero(bulk.ok)
    if not len(order):
        return ran
    order = order[_stable_order(buckets[ask[order]])]
    new = ask[order]  # the making ops, by (bucket, arrival)
    at = bulk.slot[order] * heap.page_size + bulk.offset[order]
    next_gpu, next_cpu = _link_heads(
        table.buckets, buckets[new], bulk.gpu_addr[order], bulk.cpu_addr[order]
    )
    for dead in (False, True):  # entries with a value, then born dead
        part = is_del[new] == dead
        j = new[part]
        if not len(j):
            continue
        rec = idx[j]
        if dead:
            values = np.zeros((len(j), 0), dtype=np.uint8)
        elif comb is None:
            values = batch.values[idx[source[j]]]
        else:
            values = folded[j].astype(vdtype).view(np.uint8).reshape(len(j), -1)
        E.write_entries_bulk(
            arena, at[part], next_gpu[part], next_cpu[part],
            batch.keys[rec], klens[j], values, width[j],
        )
    flagged = nflags[new] != 0
    E.or_entry_flags(arena, at[flagged], nflags[new[flagged]])
    return ran


def _lookup_matches(table, batch, idx, dk, looks, kind):
    """What the in-stream lookups ``looks`` (m,) of one kernel call read:
    one flat image of the CPU side as it stood before the batch (released
    with the caller's frame), the looked-up keys' bucket chains walked
    through it, every same-key entry matched.

    Returns ``(lk, slot, n_keys, blob, image, cm)``: the lookup ops, each
    distinct key's row among the ``n_keys`` looked-up ones (-1 for the
    others), the image as bytes and as uint8, and the
    :class:`~repro.core.chainview.ChainMatches` of those rows.
    """
    lk = np.flatnonzero(looks)
    slot = np.full(len(dk.starts), -1, dtype=np.int64)
    slot[dk.gpos[lk]] = 0
    keys = np.flatnonzero(slot == 0)  # distinct looked-up keys
    slot[keys] = np.arange(len(keys))
    rec = idx[dk.firstj[keys]]
    blob = table.heap.cpu_image()
    image = np.frombuffer(blob, dtype=np.uint8)
    cm = match_cpu_chains(
        image, table.buckets.head_cpu[dk.gbucket[keys]], kind,
        batch.keys[rec], batch.key_lens[rec],
    )
    return lk, slot, len(keys), blob, image, cm


def _newest_first(cm, first, closing, dead):
    """The merge automaton of every reader as a mask over the matches
    ``cm`` (``first[k]`` is the first match of key ``k``): newest first, a
    ``dead`` match never shows, a ``closing`` one ends its key's walk, and
    nothing older than that shows.  Returns the ``shows`` mask and per key
    the ``(probes, bytes)`` of a walk up to and including the match that
    closes it, else of the whole chain."""
    base = np.r_[0, np.cumsum(closing)]
    older = base[:-1] - base[first][cm.key]  # closing matches before this
    closer = np.flatnonzero(closing & (older == 0))
    probes = cm.n_chain.copy()
    nbytes = cm.chain_bytes.copy()
    probes[cm.key[closer]] = cm.at[closer] + 1
    nbytes[cm.key[closer]] = cm.cum[closer]
    return (older == 0) & ~dead, probes, nbytes


def _answer_lookups(
    table, batch, idx, dk, comb, looks, dirty, ran, made, inplace, buried,
    A, S, tally,
):
    """Answer and charge the in-stream lookups of one generic-entry kernel
    call.

    Reads only :func:`_lookup_matches`.  The newest-first automaton of
    :meth:`Organization._lookup_generic` runs as a mask over those
    matches; a lookup is charged the entries the batch prepended to its
    bucket so far (``A`` / ``S``) plus the chain up to and including the
    match that closes its key, else the whole chain.  The few lookups an
    earlier op of their own batch wrote under replay that key's ops over
    its match list, without touching the heap.
    """
    results = batch.lookup_results
    gpos = dk.gpos
    lk, slot, n_keys, blob, image, cm = _lookup_matches(
        table, batch, idx, dk, looks, "generic"
    )
    first = np.searchsorted(cm.key, np.arange(n_keys))
    # a tombstone closes its key unseen, a shadow shows itself and closes
    shows, probes, nbytes = _newest_first(
        cm, first, cm.flags != 0, (cm.flags & E.GFLAG_TOMBSTONE) != 0
    )

    # every matched entry's value: bytes (basic) or its scalar
    if comb is None:
        old: list = [
            blob[a:b] for a, b in
            zip(cm.vpos.tolist(), (cm.vpos + cm.vlen).tolist())
        ]
    else:
        stored = np.flatnonzero(cm.vlen)  # born-dead entries hold none
        scalars = np.zeros(len(cm.key), dtype=comb.dtype)
        scalars[stored] = E.gather_field(
            image, cm.vpos[stored], comb.dtype.newbyteorder("<")
        )

    # per-key answers, oldest first
    vis = np.flatnonzero(shows)[::-1]  # keys descending, oldest first
    vkey = cm.key[vis]
    if comb is None:
        answers: list = [[] for _ in range(n_keys)]
        for k, p in zip(vkey.tolist(), vis.tolist()):
            answers[k].append(old[p])
    else:
        answers = [None] * n_keys
        if len(vis):
            starts = np.flatnonzero(np.r_[True, vkey[1:] != vkey[:-1]])
            red = comb.fold_segments(scalars[vis], starts)
            for k, v in zip(vkey[starts].tolist(), red.tolist()):
                answers[k] = v

    clean = lk[~dirty[lk]]
    ck = slot[gpos[clean]]
    tally.probe_steps += int((probes[ck] + A[clean]).sum())
    tally.bytes_touched += int((nbytes[ck] + S[clean]).sum())
    if comb is None:
        results.update(
            (i, answers[k].copy())
            for i, k in zip(idx[clean].tolist(), ck.tolist())
        )
    else:
        results.update(
            (i, answers[k]) for i, k in zip(idx[clean].tolist(), ck.tolist())
        )

    stale = lk[dirty[lk]]
    if not len(stale):
        return
    # replay: each such key's ops, in order, over its same-key entries
    # newest first -- [value, flags, making op or -1, match]
    wrote = np.zeros(len(dk.starts), dtype=bool)
    wrote[gpos[stale]] = True
    sub = dk.sub
    j_s = sub[(ran & wrote[gpos])[sub]]  # their ops that ran, key-major
    rec = idx[j_s]
    if comb is None:
        rows = batch.values[rec]
        vals = [
            row[:n].tobytes() for row, n in zip(rows, batch.val_lens[rec].tolist())
        ]
    else:
        vals = batch.numeric_values[rec].tolist()
        old = scalars.tolist()
    m_flags = cm.flags.tolist()
    m_at = cm.at.tolist()
    m_cum = cm.cum.tolist()
    n_chain, chain_bytes = cm.n_chain.tolist(), cm.chain_bytes.tolist()
    first = first.tolist() + [len(m_flags)]
    A_l, S_l = A.tolist(), S.tolist()
    TOMB, SHADOW = E.GFLAG_TOMBSTONE, E.GFLAG_SHADOW
    probe_steps = nbytes_sum = 0
    key = -1
    ents: list = []
    for j, i, g, op, value, is_made, is_inpl, is_bur, is_dirty in zip(
        j_s.tolist(), rec.tolist(), slot[gpos[j_s]].tolist(),
        batch.ops[rec].tolist(), vals, made[j_s].tolist(),
        inplace[j_s].tolist(), buried[j_s].tolist(), dirty[j_s].tolist(),
    ):
        if g != key:
            key = g
            ents = [
                [old[p], m_flags[p], -1, p]
                for p in range(first[g], first[g + 1])
            ]
        if op == OP_LOOKUP:
            if not is_dirty:
                continue
            out = []
            steps, nb = A_l[j] + n_chain[g], S_l[j] + chain_bytes[g]
            for v, flags, c, p in ents:
                if not flags & TOMB:
                    out.append(v)
                if flags:  # the closing match ends the walk
                    if c >= 0:
                        steps, nb = A_l[j] - A_l[c], S_l[j] - S_l[c]
                    else:
                        steps, nb = A_l[j] + m_at[p] + 1, S_l[j] + m_cum[p]
                    break
            probe_steps += steps
            nbytes_sum += nb
            out.reverse()
            if comb is None:
                results[i] = out
            elif out:
                acc = out[0]
                for v in out[1:]:  # (old . mid) . new, as the loop folds
                    acc = comb.combine(acc, v)
                results[i] = acc
            else:
                results[i] = None
        elif is_made:
            if op == OP_DELETE:
                ents.insert(0, [None, TOMB, j, -1])
            else:
                shadow = SHADOW if comb is None and op == OP_UPDATE else 0
                ents.insert(0, [value, shadow, j, -1])
        elif is_inpl:
            if comb is None:
                ents[0][0] = value
                ents[0][1] |= SHADOW
            else:
                ents[0][0] = comb.combine(ents[0][0], value)
        elif is_bur:
            ents[0][1] |= TOMB
    tally.probe_steps += probe_steps
    tally.bytes_touched += nbytes_sum


def _mutate_multivalued(table, batch, idx, buckets, tally, org):
    """The batched mixed-op kernel of the multi-valued organization ``org``:
    resolve -> plan -> allocate -> scatter, bit-identical to its
    ``_mutate_impl`` loop through mid-batch allocation failure, under
    both update policies.

    The multi-valued reading of :func:`_mutate_generic`.  An upsert makes
    up to two requests of two page kinds -- a key entry unless the key is
    live, then a value node -- so the request stream has two kinds and an
    op may be refused *half applied*: its key entry created and linked,
    its value node denied, and the entry the value was meant for left
    ``PENDING``.  The gate makes that op the last one its group runs in
    the call, so no later op reads what it left and the state chain
    stands.  Preconditions and the None return as for
    :func:`_mutate_generic`; docs/cost_model.md, "Mutation cycle costs",
    derives each step.
    """
    heap = table.heap
    alloc = table.alloc
    muts = table.mutations
    arena = heap.pool.arena
    page_size = heap.page_size
    m = len(idx)
    ar = np.arange(m)
    ops = batch.ops[idx]
    klens = batch.key_lens[idx].astype(np.int64)
    groups = buckets // table.buckets.group_size
    is_lk = ops == OP_LOOKUP
    is_del = ops == OP_DELETE
    is_upd = ops == OP_UPDATE
    is_up = ~(is_lk | is_del)
    vlens = np.where(is_up, batch.val_lens[idx], 0).astype(np.int64)
    ksizes = E.key_entry_sizes_bulk(klens)
    vsizes = E.value_node_sizes_bulk(vlens)
    PENDING, TOMB, SHADOW = E.FLAG_PENDING, E.FLAG_TOMBSTONE, E.FLAG_SHADOW

    # -- resolve: the state each op finds its key in ---------------------
    dk = _DistinctKeys(batch.cache.grouping(table.buckets), idx, buckets)
    res = dk.resolve(table, batch, idx, "key")
    st = _key_states(dk, res, is_up, is_del, TOMB)
    sub, gpos = dk.sub, dk.gpos
    G = len(dk.starts)
    hit_flags = res.hit_flags
    hits = np.flatnonzero(res.hit >= 0)
    vhead_gpu = np.full(G, NULL, dtype=np.int64)  # the hits' value lists
    vhead_cpu = np.full(G, NULL, dtype=np.int64)
    vhead_gpu[hits] = E.gather_field(arena, res.hit_pos[hits] + 16, "<i8")
    vhead_cpu[hits] = E.gather_field(arena, res.hit_pos[hits] + 24, "<i8")

    # -- the request stream: [KEY unless kept] + [VALUE] per upsert -------
    keeps = st.live
    if batch.update_policy == "replace":
        # an update prepends a SHADOW entry whatever it finds -- except
        # that a key's first write completes an earlier pass's refused
        # replace (an empty SHADOW|PENDING hit) instead of duplicating it
        unborn = SHADOW | PENDING
        reuse = ((hit_flags & (unborn | TOMB)) == unborn) & (vhead_cpu == NULL)
        keeps = np.where(is_upd[sub], st.untouched & reuse[st.key], keeps)
    needs_key = np.empty(m, dtype=bool)  # a delete's is born dead
    needs_key[sub] = np.where(is_del[sub], st.unproven, is_up[sub] & ~keeps)
    live = np.empty(m, dtype=bool)
    live[sub] = st.live
    nreq = needs_key.astype(np.int64) + is_up
    rend = np.cumsum(nreq)
    kreq = rend - nreq  # an op's KEY request, where it has one
    vreq = rend - 1  # ... and its VALUE request
    total = int(rend[-1])
    owner = np.repeat(ar, nreq)
    sizes = np.empty(total, dtype=np.int64)
    codes = np.full(total, KIND_CODES[PageKind.VALUE], dtype=np.int64)
    sizes[vreq[is_up]] = vsizes[is_up]
    sizes[kreq[needs_key]] = ksizes[needs_key]
    codes[kreq[needs_key]] = KIND_CODES[PageKind.KEY]
    if total and int(sizes.max()) > page_size:
        return None

    # -- plan: the sticky cut (:func:`_sticky_cut`) -----------------------
    # Refused at its KEY request an op has done nothing but its walk;
    # refused at its VALUE request (``half``) its KEY request, if it made
    # one, was served.
    ran, refused, _, cut = _sticky_cut(
        table, groups, owner, sizes, tally, codes
    )
    denied = np.full(m, -1)  # a refused op's denied request
    denied[owner[cut]] = cut
    half = is_up & (denied == vreq)
    made = needs_key & (ran | half)  # the key entries this batch creates
    appended = is_up & ran  # ... and its value nodes, one per op
    buried = ran & is_del & live  # live newest copies tombstoned in place
    born_dead = made & is_del

    # -- charges ---------------------------------------------------------
    creator = dk.makers(made, st.seg0)  # op that made the newest copy
    probe, walk_bytes, A, S = dk.walk_charges(
        res, buckets, klens, made, creator, E.KEY_ENTRY_HEADER
    )
    executed = ran | refused
    walks = executed & ~is_lk
    n_buried = int(buried.sum())
    tally.probe_steps += int(probe[walks].sum())
    tally.bytes_touched += (
        int(walk_bytes[walks].sum())
        + int((ksizes[made] + 16).sum())
        + int((vsizes[appended] + 16).sum())
        + 4 * n_buried
    )
    # integer-valued constants: the sum is order-free and lands on the
    # loop's float
    tally.table_cycles += float(
        HASH_CYCLES_PER_BYTE * int(klens.sum())
        + INSERT_CYCLES * int((executed & (is_up | needs_key)).sum())
        + TOMBSTONE_CYCLES * n_buried
    )
    muts.inserts += int((ran & (ops == OP_INSERT)).sum())
    muts.updates_inplace += int((ran & is_upd & ~needs_key).sum())
    muts.updates_entries += int((ran & is_upd & needs_key).sum())
    muts.value_nodes += int(appended.sum())
    muts.deletes_inplace += n_buried
    muts.deletes_tombstones += int(born_dead.sum())
    muts.deletes_noop += int((ran & is_del & ~buried & ~needs_key).sum())
    n_tomb = n_buried + int(born_dead.sum())
    if n_tomb:
        alloc.note_tombstone(int(ksizes[buried | born_dead].sum()), n_tomb)

    # -- lookups read the table as it stood before the batch -------------
    looks = ran & is_lk
    if looks.any():
        muts.lookups += int(looks.sum())
        dirty = np.empty(m, dtype=bool)  # an earlier op wrote the same key
        dirty[sub] = ~st.untouched
        _answer_lookups_mv(
            table, batch, idx, dk, looks, dirty, ran, made, buried, A, S,
            tally,
        )

    # -- allocate: the request stream the loop would issue ---------------
    # every request of the ops that ran, a refused op's up to and
    # including the denied one
    r = np.arange(total)
    issued = ran[owner] | (r <= denied[owner])
    ask = np.flatnonzero(issued)
    rgroups = groups[owner[ask]]
    bulk = alloc.allocate_many(rgroups, sizes[ask], kinds=codes[ask])
    served = ran[owner] | (r < denied[owner])
    if not np.array_equal(bulk.ok, served[ask]):  # pragma: no cover
        raise AssertionError("page-take plan and allocator disagree")
    tally.alloc_groups.extend(rgroups[bulk.ok])
    at = np.cumsum(issued) - 1  # request -> row of ``bulk``

    # -- scatter: effects collapse per key entry --------------------------
    # Every value between two key-entry creations of a key lands on one
    # entry (the resident hit before the first).  ``target`` names it:
    # the op that made it, or m + key for the resident hit.
    target = np.where(made, ar, np.where(creator >= 0, creator, m + gpos))
    new_vhead_gpu = np.full(m, NULL, dtype=np.int64)  # by making op
    new_vhead_cpu = np.full(m, NULL, dtype=np.int64)
    rewritten = np.zeros(G, dtype=bool)  # resident hits
    ups = sub[appended[sub]]  # upserts that ran, key-major
    if len(ups):
        t = target[ups]
        first = np.r_[True, t[1:] != t[:-1]]
        onto_hit = t >= m
        g = t[onto_hit] - m
        head_gpu = np.full(len(ups), NULL, dtype=np.int64)
        head_cpu = np.full(len(ups), NULL, dtype=np.int64)
        head_gpu[onto_hit] = vhead_gpu[g]
        head_cpu[onto_hit] = vhead_cpu[g]
        row = at[vreq[ups]]
        node_gpu, node_cpu = bulk.gpu_addr[row], bulk.cpu_addr[row]
        vnext_gpu, vnext_cpu = _link_value_lists(
            node_gpu, node_cpu, first, head_gpu, head_cpu
        )
        E.write_value_nodes_bulk(
            arena, bulk.slot[row] * page_size + bulk.offset[row],
            vnext_gpu, vnext_cpu, batch.values[idx[ups]], vlens[ups],
        )
        last = np.r_[first[1:], True]  # each entry's new list head
        t, node_gpu, node_cpu = t[last], node_gpu[last], node_cpu[last]
        new = t < m
        new_vhead_gpu[t[new]] = node_gpu[new]
        new_vhead_cpu[t[new]] = node_cpu[new]
        g = t[~new] - m
        E.scatter_field(
            arena, res.hit_pos[g] + 16,
            np.stack((node_gpu[~new], node_cpu[~new]), axis=1),
        )
        rewritten[g] = True

    # flags: new entries are written with theirs; a resident hit's word
    # drops PENDING at its first append or in-place delete, and the entry
    # a half-applied op meant its value for takes it (back) up
    nflags = np.zeros(m, dtype=np.int64)  # by making op
    rflags = np.zeros(G, dtype=np.int64)  # set on resident hits, by key
    nflags[born_dead] = TOMB
    if batch.update_policy == "replace":
        nflags[made & is_upd] = SHADOW
    t = target[buried]
    nflags[t[t < m]] |= TOMB
    rflags[t[t >= m] - m] |= TOMB
    t = target[appended | buried]
    completed = np.zeros(G, dtype=bool)
    completed[t[t >= m] - m] = True
    cleared = completed & ((hit_flags & PENDING) != 0)
    t = target[half]
    pinned_new = t[t < m]
    nflags[pinned_new] |= PENDING
    g = t[t >= m] - m
    pinned_hit = g[cleared[g] | ((hit_flags[g] & PENDING) == 0)]
    rflags[pinned_hit] |= PENDING
    changed = np.flatnonzero(cleared | (rflags != 0))
    E.scatter_field(
        arena, res.hit_pos[changed] + 36,
        (
            (hit_flags[changed] & ~np.where(cleared[changed], PENDING, 0))
            | rflags[changed]
        ).astype(np.uint32),
    )
    rewritten[changed] = True
    for seg in np.unique(res.hit_addr[rewritten] // page_size).tolist():
        heap.note_write(seg)
    # a key page serves one bucket group and only the last op a group runs
    # in the call can pin, so on any segment the clears come first
    n_cleared = int(cleared.sum())
    segs = np.r_[
        res.hit_addr[cleared] // page_size,
        res.hit_addr[pinned_hit] // page_size,
        bulk.segment[at[kreq[pinned_new]]],
    ]
    org._settle_pending(heap, segs, np.arange(len(segs)) >= n_cleared)

    # new key entries: linked newest-first per bucket, written once with
    # their final value list and flags
    new = np.flatnonzero(made)
    if len(new):
        new = new[_stable_order(buckets[new])]  # by (bucket, arrival)
        row = at[kreq[new]]
        next_gpu, next_cpu = _link_heads(
            table.buckets, buckets[new], bulk.gpu_addr[row], bulk.cpu_addr[row]
        )
        E.write_key_entries_bulk(
            arena, bulk.slot[row] * page_size + bulk.offset[row],
            next_gpu, next_cpu, new_vhead_gpu[new], new_vhead_cpu[new],
            batch.keys[idx[new]], klens[new], nflags[new],
        )
    return ran


def _answer_lookups_mv(
    table, batch, idx, dk, looks, dirty, ran, made, buried, A, S, tally
):
    """Answer and charge the in-stream lookups of one multi-valued kernel
    call: :func:`_answer_lookups` with value lists.

    A same-key entry is admissible unless it is an empty ``PENDING`` one
    (unacknowledged).  Over the admissible ones the automaton of
    :meth:`MultiValuedOrganization._lookup_mv` runs as a mask; the value
    lists of all entries that show are drained together and returned
    oldest first, each node read charged one probe and its header + value
    bytes on top of the key chain's charge.
    """
    results = batch.lookup_results
    gpos = dk.gpos
    lk, slot, n_keys, blob, image, cm = _lookup_matches(
        table, batch, idx, dk, looks, "key"
    )
    PENDING, TOMB, SHADOW = E.FLAG_PENDING, E.FLAG_TOMBSTONE, E.FLAG_SHADOW
    vhead = E.gather_field(image, cm.pos + 24, "<i8")
    unborn = ((cm.flags & PENDING) != 0) & (vhead == NULL)
    first = np.searchsorted(cm.key, np.arange(n_keys))
    # a tombstone closes its key unseen, a shadow's list is the last
    shows, probes, nbytes = _newest_first(
        cm, first, ((cm.flags & (TOMB | SHADOW)) != 0) & ~unborn,
        ((cm.flags & TOMB) != 0) | unborn,
    )

    # every shown entry's value list, newest node first
    vis = np.flatnonzero(shows)
    (vpos, _, vlen, _), counts = walk_cpu_image(image, vhead[vis], "value")
    lo = vpos + E.VALUE_NODE_HEADER
    values = [blob[a:b] for a, b in zip(lo.tolist(), (lo + vlen).tolist())]
    of_key = np.repeat(cm.key[vis], counts)
    n_nodes = np.bincount(of_key, minlength=n_keys)
    node_bytes = np.bincount(
        of_key, weights=E.VALUE_NODE_HEADER + vlen, minlength=n_keys
    ).astype(np.int64)

    clean = lk[~dirty[lk]]
    ck = slot[gpos[clean]]
    tally.probe_steps += int((probes[ck] + n_nodes[ck] + A[clean]).sum())
    tally.bytes_touched += int((nbytes[ck] + node_bytes[ck] + S[clean]).sum())
    hi = np.cumsum(n_nodes)  # a key's nodes: shown entries newest first
    lo_l, hi_l = (hi - n_nodes).tolist(), hi.tolist()
    results.update(
        (i, values[lo_l[k]:hi_l[k]][::-1])
        for i, k in zip(idx[clean].tolist(), ck.tolist())
    )

    stale = lk[dirty[lk]]
    if not len(stale):
        return
    # replay: each such key's ops, in order, over its same-key entries
    # newest first -- [values oldest first, flags, making op or -1, match,
    # no value yet]
    wrote = np.zeros(len(dk.starts), dtype=bool)
    wrote[gpos[stale]] = True
    sub = dk.sub
    j_s = sub[(ran & wrote[gpos])[sub]]  # their ops that ran, key-major
    rec = idx[j_s]
    vals = [
        row[:n].tobytes()
        for row, n in zip(batch.values[rec], batch.val_lens[rec].tolist())
    ]
    ends = np.zeros(len(cm.key), dtype=np.int64)  # match -> its nodes
    ends[vis] = np.cumsum(counts)
    n_vals = np.zeros(len(cm.key), dtype=np.int64)
    n_vals[vis] = counts
    m_hi, m_lo = ends.tolist(), (ends - n_vals).tolist()
    m_flags = cm.flags.tolist()
    m_empty = (vhead == NULL).tolist()
    m_at = cm.at.tolist()
    m_cum = cm.cum.tolist()
    n_chain, chain_bytes = cm.n_chain.tolist(), cm.chain_bytes.tolist()
    first = first.tolist() + [len(m_flags)]
    A_l, S_l = A.tolist(), S.tolist()
    shadow = SHADOW if batch.update_policy == "replace" else 0
    NODE = E.VALUE_NODE_HEADER
    probe_steps = nbytes_sum = 0
    key = -1
    ents: list = []
    for j, i, g, op, value, is_made, is_bur, is_dirty in zip(
        j_s.tolist(), rec.tolist(), slot[gpos[j_s]].tolist(),
        batch.ops[rec].tolist(), vals, made[j_s].tolist(),
        buried[j_s].tolist(), dirty[j_s].tolist(),
    ):
        if g != key:
            key = g
            ents = [
                [values[m_lo[p]:m_hi[p]][::-1], m_flags[p], -1, p, m_empty[p]]
                for p in range(first[g], first[g + 1])
            ]
        if op == OP_LOOKUP:
            if not is_dirty:
                continue
            shown = []
            steps, nb = A_l[j] + n_chain[g], S_l[j] + chain_bytes[g]
            for vs, flags, c, p, empty in ents:
                if flags & PENDING and empty:
                    continue
                if not flags & TOMB:
                    shown.append(vs)
                if flags & (TOMB | SHADOW):  # the closing match ends the walk
                    if c >= 0:
                        steps, nb = A_l[j] - A_l[c], S_l[j] - S_l[c]
                    else:
                        steps, nb = A_l[j] + m_at[p] + 1, S_l[j] + m_cum[p]
                    break
            out = [v for vs in reversed(shown) for v in vs]
            probe_steps += steps + len(out)
            nbytes_sum += nb + NODE * len(out) + sum(map(len, out))
            results[i] = out
        elif op == OP_DELETE:
            if is_made:
                ents.insert(0, [[], TOMB, j, -1, True])
            elif is_bur:  # a pinned key that dies stops pinning
                ents[0][1] = ents[0][1] & ~PENDING | TOMB
        else:
            if is_made:
                ents.insert(0, [[], shadow if op == OP_UPDATE else 0, j, -1, True])
            newest = ents[0]
            newest[0].append(value)
            newest[1] &= ~PENDING
            newest[4] = False
    tally.probe_steps += probe_steps
    tally.bytes_touched += nbytes_sum


class Organization:
    """Base class; see module docstring."""

    kind: str = "abstract"
    #: page kinds this organization allocates from
    page_kinds: tuple[PageKind, ...] = (PageKind.GENERIC,)
    #: one of :data:`IMPLS`; governs inserts and mixed-op mutations alike
    impl: str = "vectorized"
    #: every cycle constant this organization charges is integer-valued, so
    #: a batch's ``table_cycles`` may be summed in any order
    _integer_cycles = True

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

        ``slow_reference`` runs :meth:`_mutate_impl`, one op at a time, for
        everything.  ``vectorized`` takes the ops of groups that failed
        before the call out in one masked step (:meth:`_mutate_vectorized`)
        and hands the rest to :meth:`_mutate_open`: the organization's
        batched kernel (:func:`_mutate_generic`,
        :func:`_mutate_multivalued`) for batches of
        :data:`MIXED_KERNEL_MIN_OPS` ops or more, the same loop otherwise.
        Success masks, tallies, lookup answers, counters and table bytes
        do not depend on the choice.
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
        """The entry gate in one masked step, then :meth:`_mutate_open`.

        Ops whose group is already sticky-failed postpone charged for
        their hash alone and touch nothing, so they leave the batch
        together; what runs sees exactly the ops the loop would let
        through.  Integer-valued cycle constants make the charge
        order-free (a combiner with fractional ``cycles`` keeps the loop's
        own gate).
        """
        alloc = table.alloc
        if alloc.has_failures and self._integer_cycles:
            gated = np.isin(
                buckets // table.buckets.group_size, alloc.failed_groups
            )
            n = int(gated.sum())
            if n:
                tally.attempted += n
                tally.postponed += n
                tally.table_cycles += HASH_CYCLES_PER_BYTE * int(
                    batch.key_lens[idx[gated]].sum()
                )
                table.mutations.gate_postponed += n
                success = np.zeros(len(idx), dtype=bool)
                if n < len(idx):
                    success[~gated] = self._mutate_open(
                        table, batch, idx[~gated], buckets[~gated], tally
                    )
                return success
        return self._mutate_open(table, batch, idx, buckets, tally)

    def _mutate_open(self, table, batch, idx, buckets, tally) -> np.ndarray:
        """Apply ops whose groups are all open on entry.  Organizations
        override this to rule out what their kernel cannot take and call
        :meth:`_mutate_batched`; the default is the loop."""
        return self._mutate_impl(table, batch, idx, buckets, tally)

    def _mutate_batched(self, table, batch, idx, buckets, tally, kernel, policy):
        """``kernel`` (:func:`_mutate_generic` / :func:`_mutate_multivalued`,
        with its ``policy`` argument) where it applies, else the loop:
        small batches (:data:`MIXED_KERNEL_MIN_OPS`), traced runs
        (per-walk ``on_access`` order), 64-bit hash collisions, and heaps
        too oddly sized for word views."""
        if (
            len(idx) >= MIXED_KERNEL_MIN_OPS
            and table.trace is None
            and word_aligned(table.heap)
            and not batch.cache.grouping(table.buckets).has_collision
        ):
            done = kernel(table, batch, idx, buckets, tally, policy)
            if done is not None:
                return done
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
    def _mutate_open(self, table, batch, idx, buckets, tally):
        if batch.values is None:  # the loop raises on the first value read
            return self._mutate_impl(table, batch, idx, buckets, tally)
        return self._mutate_batched(
            table, batch, idx, buckets, tally, _mutate_generic, None
        )

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

        Records are grouped by distinct key (cached hashes, one sort);
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

    def _insert_preagg(self, table, batch, idx, buckets, tally, dk):
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

        made, creator = dk.first_creates(ins)
        probe, walk_bytes, _, _ = dk.walk_charges(
            res, buckets, klens, made, creator, E.ENTRY_HEADER
        )
        hit_res = (res.hit >= 0)[gpos]
        hit_new = creator >= 0
        r_ins = ins[gpos]
        n_hits = int(hit_res.sum()) + int(hit_new.sum())
        n_miss = m - n_hits
        n_post = int((~hit_res & ~r_ins).sum())
        tally.attempted += m
        tally.succeeded += m - n_post
        tally.postponed += n_post
        tally.probe_steps += int(probe.sum())
        tally.bytes_touched += (
            int(walk_bytes.sum())
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
    @property
    def _integer_cycles(self) -> bool:
        return float(self.combiner.cycles).is_integer()

    def _mutate_open(self, table, batch, idx, buckets, tally):
        comb = self.combiner
        if (  # callbacks and foreign dtypes combine one value at a time
            not comb.supports_vector_reduce
            or batch.numeric_values is None
            or batch.numeric_values.dtype != comb.dtype
        ):
            return self._mutate_impl(table, batch, idx, buckets, tally)
        return self._mutate_batched(
            table, batch, idx, buckets, tally, _mutate_generic, comb
        )

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
    def _count_pending(self, heap, seg, pin: bool) -> None:
        """One more (``pin``) or one fewer ``PENDING`` key entry on segment
        ``seg``: a key page is pinned while it hosts any."""
        counts = self._pin_counts
        if pin:
            counts[seg] = counts.get(seg, 0) + 1
            page = heap.resident_page(seg)
            assert page is not None
            page.pinned = True
            return
        remaining = counts.get(seg, 0) - 1
        if remaining <= 0:
            counts.pop(seg, None)
            page = heap.resident_page(seg)
            if page is not None:
                page.pinned = False
        else:
            counts[seg] = remaining

    def _set_pending(self, table, buf, seg, off) -> None:
        flags = E.get_flags(buf, off)
        if flags & E.FLAG_PENDING:
            return
        E.set_flags(buf, off, flags | E.FLAG_PENDING)
        table.heap.note_write(seg)
        self._count_pending(table.heap, seg, True)

    def _clear_pending(self, table, buf, seg, off) -> None:
        flags = E.get_flags(buf, off)
        if not flags & E.FLAG_PENDING:
            return
        E.set_flags(buf, off, flags & ~E.FLAG_PENDING)
        table.heap.note_write(seg)
        self._count_pending(table.heap, seg, False)

    def _settle_pending(self, heap, segs, pins) -> None:
        """The pin bookkeeping of one batched kernel call's
        :meth:`_set_pending` (``pins[e]``) and :meth:`_clear_pending`
        events, in the order the loop would have had them: ``segs[e]`` is
        the segment of the key entry whose ``PENDING`` bit flipped.  The
        kernels write the flag words themselves."""
        for seg, pin in zip(segs.tolist(), pins.tolist()):
            self._count_pending(heap, seg, pin)

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
        chain probe, new key entries and value nodes are bulk-allocated
        (KEY and VALUE requests interleaved in arrival order, so pages
        leave the shared pool exactly as the sequential walk would take
        them), value chains are linked with grouped scatters, and each
        key's value-list head is written once.  Exact through pool
        exhaustion (see :meth:`_insert_preagg`): a batch that crosses it,
        or enters with the pool already dry, postpones on the kernel.

        What still runs the scalar loop: traced runs (per-walk
        ``on_access`` order), 64-bit hash collisions, tables holding
        tombstones, a request larger than a page (the loop raises), and --
        the one pressure case left -- a fault-injected pool that denies
        takes ``n_free`` promised (:meth:`PagePool.can_take
        <repro.memalloc.pages.PagePool.can_take>`).
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
        """The closed form of the insert loop, pool exhaustion included;
        returns None, having mutated nothing, when it does not apply.

        The loop's request stream is one KEY request per absent key at
        each of its occurrences until one is granted, and one VALUE
        request per record whose key is resident or was just granted.
        Nothing fails before the first denied page take, so up to there
        the stream is the *plan* -- KEY at an absent key's first
        occurrence, VALUE per record, interleaved in arrival order -- and
        that take is request ``dry = plan_page_takes(plan)[n_free]`` of it
        (the end of the plan when the pool holds out: the all-granted
        batch is this body with an empty tail).  From ``dry`` on the pool
        is empty for the rest of the iteration and a request bump-fits
        its group's current page or is denied; a group's KEY page and
        VALUE page are separate bump counters, so the two kinds decouple:

        * a KEY request's fate depends on the KEY requests before it
          alone, and a denied one is denied again at every later
          occurrence of its key -- same size, and the page only fills --
          which :meth:`record_denied_retries
          <repro.memalloc.allocator.BucketGroupAllocator.record_denied_retries>`
          books, as the combining kernel does;
        * a VALUE request is issued iff its key is present by then.

        Two :meth:`allocate_many` calls therefore reproduce the loop: the
        plan up to ``dry`` with the KEY requests behind it (the same
        grants in the same order -- a page take behind ``dry`` is denied
        either way), then the VALUE requests behind ``dry`` of the keys
        that are present.  The effects follow under those masks: a key
        entry for every granted KEY request (also when every value of the
        key was denied: ``PENDING``, empty list, page pinned), value
        lists linked over the granted nodes only, ``PENDING`` on a key
        what its last VALUE request left with the pin counts moved flip by
        flip in arrival order (:meth:`_settle_pending`), walk charges with
        the granted KEY requests as the creation events.
        """
        heap = table.heap
        alloc = table.alloc
        pool = heap.pool
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

        sub, starts, counts, gpos = dk.sub, dk.starts, dk.counts, dk.gpos
        G = len(starts)
        res = dk.resolve(table, batch, idx, "key")
        is_hit = res.hit >= 0

        # the plan: [KEY at the first occurrence of an absent key] then
        # [VALUE] per record, in arrival order
        isnewfirst = dk.isfirst & ~is_hit[gpos]
        nf_rec = np.flatnonzero(isnewfirst)
        nreq = 1 + isnewfirst.astype(np.int64)
        rstart = np.cumsum(nreq) - nreq
        total = m + len(nf_rec)
        req_groups = np.repeat(buckets // group_size, nreq)
        req_sizes = np.empty(total, dtype=np.int64)
        req_codes = np.full(total, KIND_CODES[PageKind.VALUE], dtype=np.int64)
        kslots = rstart[nf_rec]
        req_sizes[kslots] = ksizes[nf_rec]
        req_codes[kslots] = KIND_CODES[PageKind.KEY]
        vslots = rstart + nreq - 1
        req_sizes[vslots] = vsizes

        takes = alloc.plan_page_takes(req_groups, req_sizes, kinds=req_codes)
        n_free = pool.n_free
        if not pool.can_take(min(len(takes), n_free)):
            return None  # an injected fault: ``n_free`` cannot be believed
        dry = int(takes[n_free]) if len(takes) > n_free else total

        ok = np.zeros(total, dtype=bool)
        gaddr = np.full(total, NULL, dtype=np.int64)
        caddr = np.full(total, NULL, dtype=np.int64)
        apos = np.full(total, -1, dtype=np.int64)  # arena byte positions

        def serve(ask):
            bulk = alloc.allocate_many(
                req_groups[ask], req_sizes[ask], kinds=req_codes[ask]
            )
            ok[ask] = bulk.ok
            gaddr[ask] = bulk.gpu_addr
            caddr[ask] = bulk.cpu_addr
            apos[ask] = bulk.slot * page_size + bulk.offset

        head = np.arange(total) < dry
        head[kslots] = True  # ... with the KEY requests behind it
        serve(np.flatnonzero(head))
        made = nf_rec[ok[kslots]]  # records that create their key's entry
        denied = gpos[nf_rec[~ok[kslots]]]
        alloc.record_denied_retries(int((counts[denied] - 1).sum()))
        present = is_hit.copy()
        present[gpos[made]] = True
        serve(vslots[(vslots >= dry) & present[gpos]])
        vok = ok[vslots]  # the success mask: a record's value node is stored

        # value lists: each key's granted nodes, arrival order, pushed onto
        # the list head the key had (NULL for a key entry of this batch)
        arena = pool.arena
        hit_g = np.flatnonzero(is_hit)
        hit_pos = res.hit_pos[hit_g]  # arena offsets of the hit key entries
        vhead_g = np.full(G, NULL, dtype=np.int64)
        vhead_c = np.full(G, NULL, dtype=np.int64)
        vhead_g[hit_g] = E.gather_field(arena, hit_pos + 16, "<i8")
        vhead_c[hit_g] = E.gather_field(arena, hit_pos + 24, "<i8")
        stored = sub[vok[sub]]  # key-major
        key_s = gpos[stored]
        first = _run_starts(key_s)
        node = vslots[stored]
        vnext_g, vnext_c = _link_value_lists(
            gaddr[node], caddr[node], first, vhead_g[key_s], vhead_c[key_s]
        )
        E.write_value_nodes_bulk(
            arena, apos[node], vnext_g, vnext_c,
            batch.values[idx[stored]], vlens[stored],
        )
        newest = np.ones(len(stored), dtype=bool)  # each key's new list head
        newest[:-1] = first[1:]
        appended = np.zeros(G, dtype=bool)  # keys whose list head moved
        appended[key_s[newest]] = True
        vhead_g[key_s[newest]] = gaddr[node[newest]]
        vhead_c[key_s[newest]] = caddr[node[newest]]
        # PENDING follows a key's VALUE requests one by one -- set by a
        # denied one, cleared by a granted one -- and is left as the last
        key_seg = np.full(G, -1, dtype=np.int64)  # where each key entry is
        key_seg[hit_g] = res.hit_addr[hit_g] // page_size
        key_seg[gpos[made]] = caddr[rstart[made]] // page_size
        was = (res.hit_flags & E.FLAG_PENDING) != 0
        asked = sub[present[gpos[sub]]]  # key-major
        key_a = gpos[asked]
        opens = _run_starts(key_a)  # a key's first request
        after = ~vok[asked]
        before = np.empty_like(after)
        before[1:] = after[:-1]
        before[opens] = was[key_a[opens]]
        flips = np.sort(asked[before != after])  # arrival order
        self._settle_pending(heap, key_seg[gpos[flips]], ~vok[flips])
        pending = present & ~vok[sub[starts + counts - 1]]

        # new key entries: grouped last-writer-wins bucket heads; value-list
        # head and flag word written with the entry itself
        if len(made):
            sel = made[_stable_order(buckets[made])]  # by (bucket, arrival)
            kg = gpos[sel]
            nxt_g, nxt_c = _link_heads(
                table.buckets, buckets[sel], gaddr[rstart[sel]],
                caddr[rstart[sel]],
            )
            E.write_key_entries_bulk(
                arena, apos[rstart[sel]], nxt_g, nxt_c,
                vhead_g[kg], vhead_c[kg],
                batch.keys[idx[sel]], klens[sel],
                np.where(pending[kg], E.FLAG_PENDING, 0),
            )

        # resident hit keys: the value-list head rewritten once, the flag
        # word where PENDING flipped
        moved = appended[hit_g]
        E.scatter_field(
            arena, hit_pos[moved] + 16,
            np.stack((vhead_g[hit_g[moved]], vhead_c[hit_g[moved]]), axis=1),
        )
        flip = (was != pending)[hit_g]
        E.scatter_field(
            arena, hit_pos[flip] + 36,
            (res.hit_flags[hit_g[flip]] ^ E.FLAG_PENDING).astype(np.uint32),
        )
        for seg in np.unique(key_seg[hit_g[moved | flip]]).tolist():
            heap.note_write(seg)

        probe, walk_bytes, _, _ = dk.walk_charges(
            res, buckets, klens, *dk.first_creates(present & ~is_hit),
            E.KEY_ENTRY_HEADER,
        )
        n_ok = int(vok.sum())
        tally.attempted += m
        tally.succeeded += n_ok
        tally.postponed += m - n_ok
        tally.table_cycles += float(
            HASH_CYCLES_PER_BYTE * int(klens.sum()) + INSERT_CYCLES * m
        )
        tally.probe_steps += int(probe.sum())
        tally.bytes_touched += (
            int(walk_bytes.sum())
            + int((vsizes[vok] + 16).sum())
            + int((ksizes[made] + 16).sum())
        )
        tally.alloc_groups.extend(req_groups[ok])
        return vok

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
    def _mutate_open(self, table, batch, idx, buckets, tally):
        if batch.values is None:  # the loop raises on the first value read
            return self._mutate_impl(table, batch, idx, buckets, tally)
        return self._mutate_batched(
            table, batch, idx, buckets, tally, _mutate_multivalued, self
        )

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
