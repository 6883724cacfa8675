"""The pure-insert kernels, one per organization.

Pure-insert batches are *ungated*: after a denied request a bucket group
keeps going, a smaller record may still fit, a denied key asks again at
every occurrence.  That is a different planning problem from the mixed-op
kernels' sticky cut, so these are separate bodies on the same front
(:mod:`.kernel_front`): :func:`_insert_basic` prepends without probing,
:func:`_insert_combining` and :func:`_insert_multivalued` group the batch
by distinct key and resolve each key once.  All three are bit-identical
to the organizations' scalar loops run ungated, pool exhaustion included.

Ungated, the loop over a run of chunks' rows is the loop over the chunks
in sequence, so one kernel call may serve a run: each kernel builds its
costs as per-op columns and :func:`_book` sums them per chunk, each
chunk's tally what the chunk inserted alone would have booked.
"""

from __future__ import annotations

import numpy as np

from repro.core import entries as E
from repro.core.organizations.costs import HASH_CYCLES_PER_BYTE, INSERT_CYCLES
from repro.core.organizations.kernel_front import (
    _DistinctKeys,
    _link_heads,
    _link_value_lists,
    _run_starts,
)
from repro.memalloc.address import NULL
from repro.memalloc.allocator import _stable_order
from repro.memalloc.pages import KIND_CODES, PageKind


def _book(tallies, bounds, ok, cycles, touched, probe, alloc_at, alloc_groups):
    """Book one kernel call's per-op cost columns into one tally per part.

    Part ``p`` is ops ``bounds[p]:bounds[p + 1]``; each of its counters is
    the sum of a column over those ops: ``ok`` (the success mask),
    ``cycles``, ``touched`` and ``probe`` (None: no probes).  An
    allocation is booked to the op that requested it: ``alloc_at``
    (nondecreasing) holds that op per granted request and
    ``alloc_groups`` its bucket group.  Cycle columns are integer-valued,
    so a part's ``table_cycles`` is the float its own call would sum.
    """
    lo, hi = bounds[:-1], bounds[1:]
    cols = np.array((
        ok, cycles, touched, np.zeros(len(ok)) if probe is None else probe,
    ), dtype=np.float64)
    if len(tallies) == 1:  # a call a chunk: one plain sum a column
        sums = cols[:, lo[0]:hi[0]].sum(axis=1)[:, None]
    else:
        acc = np.zeros((4, cols.shape[1] + 1))
        acc[:, 1:] = cols.cumsum(axis=1)
        sums = acc[:, hi] - acc[:, lo]
    n_ok, cyc, byt, prb = sums.tolist()
    cut = alloc_at.searchsorted(bounds).tolist()
    for p, tally in enumerate(tallies):
        m = int(hi[p] - lo[p])
        tally.attempted += m
        tally.succeeded += int(n_ok[p])
        tally.postponed += m - int(n_ok[p])
        tally.probe_steps += int(prb[p])
        tally.bytes_touched += int(byt[p])
        tally.table_cycles += cyc[p]
        tally.alloc_groups.extend(alloc_groups[cut[p]:cut[p + 1]])


def _insert_basic(table, batch, idx, buckets, tallies, bounds):
    """Batched basic insert: bulk-reserve, slab-write, scatter chain heads.

    No per-record Python work: allocation space for the whole batch is
    reserved per bucket group in one :meth:`allocate_many` pass, all
    entries are packed into heap pages with vectorized scatter writes,
    and chain pointers are derived by bucket-grouping the successful
    records (stable sort keeps arrival order, so chains stay
    newest-first and bit-identical to the scalar path).  It probes
    nothing, so it has no closed form to lose: it runs traced (the
    accesses are replayed in arrival order), over hash collisions and
    over tombstones alike.
    """
    if batch.values is None:
        raise ValueError("batch carries numeric values")
    heap = table.heap
    group_size = table.buckets.group_size
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
    _book(
        tallies, bounds, ok,
        HASH_CYCLES_PER_BYTE * klens + INSERT_CYCLES,
        np.where(ok, sizes + 16, 0), None, ok.nonzero()[0], groups[ok],
    )
    if not ok.any():
        return ok

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
        for j in ok.nonzero()[0].tolist():
            trace.on_access(int(bulk.cpu_addr[j]), int(sizes[j]))
    return ok


def _insert_combining(
    table, batch, idx, buckets, tallies, bounds, grouping, comb
):
    """Batched combining insert via in-batch pre-aggregation: one probe +
    one combine per distinct key, scalar-exact tallies.

    ``grouping`` is the batch's key grouping (cached hashes, one sort)
    and ``comb`` the organization's combiner; walk charges come from
    the closed form of :class:`_DistinctKeys`; misses are bulk-allocated
    and scatter-written like the basic kernel's entries.  Each distinct
    key's values are folded in
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
    page_size = heap.page_size
    m = len(idx)
    if m == 0:
        return np.zeros(0, dtype=bool)
    klens = batch.key_lens[idx].astype(np.int64)
    dk = _DistinctKeys(grouping, idx, buckets)
    sub, starts, counts = dk.sub, dk.starts, dk.counts
    firstj, gpos, gbucket = dk.firstj, dk.gpos, dk.gbucket
    res = dk.resolve(table, batch, idx, "generic")

    # one optimistic allocation per distinct absent key, arrival order
    newg = (res.hit < 0).nonzero()[0]
    req = newg[np.argsort(firstj[newg])]  # first positions are unique
    req_first = firstj[req]
    sizes = E.entry_sizes_bulk(
        klens[req_first], np.full(len(req), comb.value_size, np.int64)
    )
    rgroups = gbucket[req] // group_size
    bulk = alloc.allocate_many(rgroups, sizes, PageKind.GENERIC)
    okpos = bulk.ok.nonzero()[0]
    failpos = (~bulk.ok).nonzero()[0]
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
    hits = hit_res | (creator >= 0)
    touched = walk_bytes + 2 * comb.value_size * hits
    alloc_at = req_first[okpos]  # each entry, booked to its key's first op
    touched[alloc_at] += sizes[okpos] + 16
    # integer-valued cycles (supports_vector_reduce guarantees integer
    # comb.cycles), so any summation order matches the scalar path
    _book(
        tallies, bounds, hit_res | ins[gpos],
        HASH_CYCLES_PER_BYTE * klens
        + np.where(hits, comb.cycles, INSERT_CYCLES),
        touched, probe, alloc_at, rgroups[okpos],
    )

    # fold every key's values in arrival order, a resident hit's onto
    # the scalar it already stores
    is_hit = res.hit >= 0
    hit_g = is_hit.nonzero()[0]
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

    return hit_res | ins[gpos]


def _insert_multivalued(
    table, batch, idx, buckets, tallies, bounds, grouping, org
):
    """Batched multi-valued insert: the closed form of the insert loop of
    organization ``org``, pool exhaustion included; returns None, having
    mutated nothing, when it does not apply (a fault-injected pool that
    denies takes ``n_free`` promised, :meth:`PagePool.can_take
    <repro.memalloc.pages.PagePool.can_take>`).

    Records are grouped by distinct key (``grouping``) and each key
    probes once.
    The loop's request stream is one KEY request per absent key at
    each of its occurrences until one is granted, and one VALUE
    request per record whose key is resident or was just granted.
    Nothing fails before the first denied page take, so up to there
    the stream is the *plan* -- KEY at an absent key's first
    occurrence, VALUE per record, interleaved in arrival order -- and
    that take is request ``dry = takes[n_free]`` of it
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
    flip in arrival order (``org._settle_pending``), walk charges with
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

    dk = _DistinctKeys(grouping, idx, buckets)
    sub, starts, counts, gpos = dk.sub, dk.starts, dk.counts, dk.gpos
    G = len(starts)
    res = dk.resolve(table, batch, idx, "key")
    is_hit = res.hit >= 0

    # the plan: [KEY at the first occurrence of an absent key] then
    # [VALUE] per record, in arrival order
    isnewfirst = dk.isfirst & ~is_hit[gpos]
    nf_rec = isnewfirst.nonzero()[0]
    nreq = 1 + isnewfirst.astype(np.int64)
    rstart = nreq.cumsum() - nreq
    total = m + len(nf_rec)
    req_groups = (buckets // group_size).repeat(nreq)
    req_sizes = np.empty(total, dtype=np.int64)
    req_codes = np.full(total, KIND_CODES[PageKind.VALUE], dtype=np.int64)
    kslots = rstart[nf_rec]
    req_sizes[kslots] = ksizes[nf_rec]
    req_codes[kslots] = KIND_CODES[PageKind.KEY]
    vslots = rstart + nreq - 1
    req_sizes[vslots] = vsizes

    plan = alloc.plan(req_groups, req_sizes, kinds=req_codes)
    takes = plan.takes
    n_free = pool.n_free
    if not pool.can_take(min(len(takes), n_free)):
        return None  # an injected fault: ``n_free`` cannot be believed
    dry = int(takes[n_free]) if len(takes) > n_free else total

    ok = np.zeros(total, dtype=bool)
    gaddr = np.full(total, NULL, dtype=np.int64)
    caddr = np.full(total, NULL, dtype=np.int64)
    apos = np.full(total, -1, dtype=np.int64)  # arena byte positions

    def serve(ask, plan=None):
        bulk = alloc.allocate_many(
            req_groups[ask], req_sizes[ask], kinds=req_codes[ask], plan=plan
        )
        ok[ask] = bulk.ok
        gaddr[ask] = bulk.gpu_addr
        caddr[ask] = bulk.cpu_addr
        apos[ask] = bulk.slot * page_size + bulk.offset

    head = np.arange(total) < dry
    head[kslots] = True  # ... with the KEY requests behind it
    serve(head.nonzero()[0], plan.restrict(head))  # a prefix of each run
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
    hit_g = is_hit.nonzero()[0]
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
    org._settle_pending(heap, key_seg[gpos[flips]], ~vok[flips])
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
    touched = walk_bytes + np.where(vok, vsizes + 16, 0)
    touched[made] += ksizes[made] + 16
    _book(
        tallies, bounds, vok, HASH_CYCLES_PER_BYTE * klens + INSERT_CYCLES,
        touched, probe, np.arange(m).repeat(nreq)[ok], req_groups[ok],
    )
    return vok
