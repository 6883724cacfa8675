"""The batched mixed-op kernels: resolve -> plan -> allocate -> scatter.

:func:`_mutate_generic` serves the two generic-entry organizations (its
``comb`` argument is the whole policy), :func:`_mutate_multivalued` is the
same steps over a request stream of two page kinds.  They share the state
chain (:func:`_key_states`) and the sticky cut (:func:`_sticky_cut`), and
are bit-identical to the organizations' scalar loops through allocation
failure in mid-batch.

One call may serve a run of chunks (parts): the loop over their joined ops
is the loop over the parts in sequence, except that the driver would stop
after the part that brings the failed bucket groups to the organization's
:attr:`~.policy.Organization.stop_fraction`.  The sticky cut's plan says
where that is before anything is allocated, and the ops past it do not
run.  Costs are per-op columns that :func:`~.kernel_insert._book` sums per
part.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.core import entries as E
from repro.core.mutations import OP_DELETE, OP_INSERT, OP_LOOKUP, OP_UPDATE
from repro.core.organizations.costs import (
    HASH_CYCLES_PER_BYTE,
    INSERT_CYCLES,
    TOMBSTONE_CYCLES,
    UPDATE_CYCLES,
)
from repro.core.organizations.kernel_front import (
    _DistinctKeys,
    _latest_before,
    _link_heads,
    _link_value_lists,
    _run_starts,
)
from repro.core.organizations.kernel_insert import _book
from repro.core.organizations.kernel_lookup import (
    _answer_lookups,
    _answer_lookups_mv,
)
from repro.memalloc.address import NULL
from repro.memalloc.pages import KIND_CODES, PageKind


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
    seg0 = dk.starts.repeat(dk.counts)
    g_s = dk.gpos[sub]
    last_up, last_del = _latest_before(
        np.array((is_up[sub], is_del[sub])), seg0)
    untouched = (last_up < 0) & (last_del < 0)
    hit0 = res.hit >= 0
    live0 = hit0 & ((res.hit_flags & tombstone) == 0)
    live = np.where(last_up >= 0, last_del < last_up, untouched & live0[g_s])
    unproven = untouched & (~hit0 & res.blocked)[g_s]
    return _KeyStates(seg0, g_s, last_up, untouched, live, unproven)


def _sticky_cut(table, groups, owner, sizes, bounds, kinds=None):
    """Plan one kernel call's request stream and cut every group at its
    first denied request.

    ``owner`` (ascending) names the op behind each request, ``sizes`` /
    ``kinds`` are the requests as :meth:`~repro.memalloc.allocator.
    BucketGroupAllocator.plan` takes them.  The pool grants page takes in
    request order; a group stops at its first denied one.  The op owning
    that request is *refused* -- charged what it did up to there -- every
    later op of the group postpones at the gate charged its hash alone,
    every earlier one runs.

    ``bounds`` cut the ops into parts; the run goes as far as the first
    part after which the failed groups reach the organization's
    ``stop_fraction`` (groups failed before the call count too).  Every
    op decides on earlier ops alone, so the ops past that part are simply
    not run: neither ``ran`` nor ``refused``.  Books nothing; returns
    ``(ran, refused, denied, reached, issued, plan)``: masks over the ops,
    each refused op's denied request (else -1), the parts the run reaches,
    the mask of the requests issued (a ran op's, a refused op's up to its
    denied one) and the allocator's plan cut to those -- the one plan of
    the call (each group's issued requests are a prefix of its own).
    None when a fault injector denies takes while ``n_free`` looks healthy.
    """
    alloc, pool = table.alloc, table.heap.pool
    m = len(groups)
    ar = np.arange(m)
    plan = alloc.plan(groups[owner], sizes, kinds=kinds)
    takes = plan.takes
    if len(takes) and not pool.can_take(min(len(takes), pool.n_free)):
        return None  # an injected fault: ``n_free`` cannot be believed
    denied = takes[pool.n_free:]
    at = np.full(m, -1)
    if not len(denied):  # every request is granted
        stops = table.org.run_stops(table)
        reached = 1 if stops else len(bounds) - 1
        ran = ar < bounds[reached]
        refused = np.zeros(m, dtype=bool)
    else:
        g_denied, first = np.unique(plan.groups[denied], return_index=True)
        cut = denied[first]
        failed = len(alloc.failed_groups) + np.searchsorted(
            np.sort(owner[cut]), bounds[1:])
        stops = failed / alloc.n_groups >= table.org.stop_fraction
        reached = int(stops.argmax()) + 1 if stops.any() else len(bounds) - 1
        end = bounds[reached]
        stop = np.full(alloc.n_groups, m)
        stop[g_denied] = owner[cut]
        stop = stop[groups]
        ran = ar < np.minimum(stop, end)
        refused = (ar == stop) & (ar < end)
        cut = cut[owner[cut] < end]
        at[owner[cut]] = cut
    issued = ran[owner] | (np.arange(len(owner)) <= at[owner])
    if not issued.all():
        plan = plan.restrict(issued)
    return ran, refused, at, reached, issued, plan


def _mutate_generic(table, batch, idx, buckets, tallies, bounds, comb):
    """The batched mixed-op kernel of the two generic-entry organizations:
    resolve -> plan -> allocate -> scatter, bit-identical to their
    scalar loops (:mod:`.oracle`) through mid-batch allocation failure.

    ``comb`` is the whole policy.  ``None`` is the basic method: an insert
    prepends without probing, an update overwrites a live same-width hit
    and shadows it.  A :class:`Combiner` is the combining method: inserts
    and updates are the same upsert, which probes and combines into a live
    hit.  Deletes and lookups are common to both.

    Every op's group must be open (the caller gates failed groups), and
    every request fits a page (the table refuses a call with one).
    ``bounds`` cut the ops into the parts ``tallies`` book (the module
    docstring).  Returns ``(success, reached)``: the parts the run reaches
    and the success mask over their ops -- or None, having mutated
    nothing, on a pool whose ``n_free`` cannot be believed (:func:`_sticky_cut`).
    docs/cost_model.md, "Mutation cycle costs", derives each step.
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
    req = takes.nonzero()[0]
    size = np.zeros(m, dtype=np.int64)
    size[req] = E.entry_sizes_bulk(klens[req], width[req])
    cut = _sticky_cut(table, groups, req, size[req], bounds)
    if cut is None:
        return None
    ran, refused, _, reached, issued, plan = cut
    end = int(bounds[reached])  # the ops of the parts the run reaches
    made = takes & ran  # the entries this batch creates
    inplace = ran & is_up & ~takes  # overwrites (basic) / combines
    buried = ran & is_del & live  # live newest copies tombstoned in place
    born_dead = made & is_del
    looks = ran & is_lk

    # -- charges ---------------------------------------------------------
    creator = dk.makers(made, st.seg0)  # op that made the newest copy
    probe, walk_bytes, A, S = dk.walk_charges(
        res, buckets, klens, made, creator, E.ENTRY_HEADER
    )
    walks = (ran | refused) & (is_del | (is_upd if comb is None else is_up))
    probe = np.where(walks, probe, 0)  # the in-stream lookups add theirs
    touched = (
        np.where(walks, walk_bytes, 0) + np.where(made, size + 16, 0)
        + 4 * buried
        + np.where(inplace, width + 4 if comb is None
                   else 2 * comb.value_size, 0)
    )
    # integer-valued constants (the caller checked comb.cycles): a part's
    # sum is order-free and lands on the loop's float
    cycles = (
        HASH_CYCLES_PER_BYTE * klens + INSERT_CYCLES * (made | refused)
        + np.where(inplace, UPDATE_CYCLES if comb is None else comb.cycles, 0)
        + TOMBSTONE_CYCLES * buried
    )
    (n_ran, n_refused, n_ins, n_upd_in, n_upd_new, n_buried, n_dead, n_noop,
     n_looks) = np.array((
        ran, refused, ran & (ops == OP_INSERT), inplace & is_upd,
        made & is_upd, buried, born_dead, ran & is_del & ~buried & ~takes,
        looks,
    )).sum(axis=1).tolist()
    muts.gate_postponed += end - n_ran - n_refused
    muts.inserts += n_ins
    muts.updates_inplace += n_upd_in
    muts.updates_entries += n_upd_new
    muts.deletes_inplace += n_buried
    muts.deletes_tombstones += n_dead
    muts.deletes_noop += n_noop
    if n_buried + n_dead:
        alloc.note_tombstone(
            int(E.entry_sizes_bulk(klens[buried], found[buried]).sum())
            + int(size[born_dead].sum()),
            n_buried + n_dead,
        )

    # -- lookups read the table as it stood before the batch -------------
    if n_looks:
        muts.lookups += n_looks
        _answer_lookups(
            table, batch, idx, dk, st, comb, looks, made, inplace, buried,
            creator, A, S, probe, touched,
        )

    # -- allocate: the request stream the loop would issue ---------------
    ask = req[issued]
    bulk = alloc.allocate_many(groups[ask], size[ask], plan=plan)
    if (bulk.ok != ran[ask]).any():  # pragma: no cover
        raise AssertionError("page-take plan and allocator disagree")
    granted = ask[bulk.ok]
    _book(tallies[:reached], bounds[:reached + 1], ran, cycles, touched,
          probe, granted, groups[granted])

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
            # the last overwrite of each entry
            final = np.concatenate((t[1:] != t[:-1], [True]))
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
            runs = _run_starts(t).nonzero()[0]
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
    if rewritten.any():
        hits = rflags.nonzero()[0]
        E.or_entry_flags(arena, res.hit_pos[hits], rflags[hits])
        for seg in np.unique(res.hit_addr[rewritten] // heap.page_size).tolist():
            heap.note_write(seg)

    # new entries: linked newest-first per bucket, written once with their
    # final value and flags
    new = dk.by_bucket[made[dk.by_bucket]]  # by (bucket, arrival)
    if not len(new):
        return ran[:end], reached
    row = ask.searchsorted(new)  # each one's row of ``bulk``
    at = bulk.slot[row] * heap.page_size + bulk.offset[row]
    next_gpu, next_cpu = _link_heads(
        table.buckets, buckets[new], bulk.gpu_addr[row], bulk.cpu_addr[row]
    )
    if comb is None:
        values = batch.values[idx[source[new]]]
    else:
        values = folded[new].astype(vdtype).view(np.uint8).reshape(len(new), -1)
    dead = is_del[new]
    # written apart from the born-dead ones, so that each write is of one
    # width wherever the batch's records are
    for part in (~dead, dead) if dead.any() else (slice(None),):
        j = new[part]
        if len(j):
            E.write_entries_bulk(
                arena, at[part], next_gpu[part], next_cpu[part],
                batch.keys[idx[j]], klens[j], values[part], width[j],
                nflags[j],
            )
    return ran[:end], reached


def _mutate_multivalued(table, batch, idx, buckets, tallies, bounds, org):
    """The batched mixed-op kernel of the multi-valued organization ``org``:
    resolve -> plan -> allocate -> scatter, bit-identical to its
    scalar loop (:func:`.oracle.multivalued_loop`) through mid-batch
    allocation failure.

    The multi-valued reading of :func:`_mutate_generic`.  An upsert makes
    up to two requests of two page kinds -- a key entry unless the key is
    live, then a value node -- so the request stream has two kinds and an
    op may be refused *half applied*: its key entry created and linked,
    its value node denied, and the entry the value was meant for left
    ``PENDING``.  The gate makes that op the last one its group runs in
    the call -- later parts included -- so no later op reads what it left
    and the state chain stands.  Preconditions, ``bounds`` and the return
    as for :func:`_mutate_generic`;
    docs/cost_model.md, "Mutation cycle costs", derives each step.
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
    PENDING, TOMB = E.FLAG_PENDING, E.FLAG_TOMBSTONE

    # -- resolve: the state each op finds its key in ---------------------
    dk = _DistinctKeys(batch.cache.grouping(table.buckets), idx, buckets)
    res = dk.resolve(table, batch, idx, "key")
    st = _key_states(dk, res, is_up, is_del, TOMB)
    sub, gpos = dk.sub, dk.gpos
    G = len(dk.starts)
    hit_flags = res.hit_flags
    hits = (res.hit >= 0).nonzero()[0]
    vhead_gpu = np.full(G, NULL, dtype=np.int64)  # the hits' value lists
    vhead_cpu = np.full(G, NULL, dtype=np.int64)
    vhead_gpu[hits] = E.gather_field(arena, res.hit_pos[hits] + 16, "<i8")
    vhead_cpu[hits] = E.gather_field(arena, res.hit_pos[hits] + 24, "<i8")

    # -- the request stream: [KEY unless live] + [VALUE] per upsert -------
    needs_key = np.empty(m, dtype=bool)  # a delete's is born dead
    needs_key[sub] = np.where(is_del[sub], st.unproven, is_up[sub] & ~st.live)
    live = np.empty(m, dtype=bool)
    live[sub] = st.live
    nreq = needs_key.astype(np.int64) + is_up
    rend = nreq.cumsum()
    kreq = rend - nreq  # an op's KEY request, where it has one
    vreq = rend - 1  # ... and its VALUE request
    total = int(rend[-1])
    owner = ar.repeat(nreq)
    sizes = np.empty(total, dtype=np.int64)
    codes = np.full(total, KIND_CODES[PageKind.VALUE], dtype=np.int64)
    sizes[vreq[is_up]] = vsizes[is_up]
    sizes[kreq[needs_key]] = ksizes[needs_key]
    codes[kreq[needs_key]] = KIND_CODES[PageKind.KEY]

    # -- plan: the sticky cut (:func:`_sticky_cut`) -----------------------
    # Refused at its KEY request an op has done nothing but its walk;
    # refused at its VALUE request (``half``) its KEY request, if it made
    # one, was served.
    cut = _sticky_cut(table, groups, owner, sizes, bounds, codes)
    if cut is None:
        return None
    ran, refused, denied, reached, issued, plan = cut
    end = int(bounds[reached])  # the ops of the parts the run reaches
    muts.gate_postponed += end - int(ran.sum()) - int(refused.sum())
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
    probe = np.where(walks, probe, 0)  # the in-stream lookups add theirs
    touched = (
        np.where(walks, walk_bytes, 0) + np.where(made, ksizes + 16, 0)
        + np.where(appended, vsizes + 16, 0) + 4 * buried
    )
    # integer-valued constants: a part's sum is order-free and lands on
    # the loop's float
    cycles = (
        HASH_CYCLES_PER_BYTE * klens
        + INSERT_CYCLES * (executed & (is_up | needs_key))
        + TOMBSTONE_CYCLES * buried
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
        _answer_lookups_mv(
            table, batch, idx, dk, st, looks, ran, made, buried, creator, A,
            S, probe, touched,
        )

    # -- allocate: the request stream the loop would issue ---------------
    # every request of the ops that ran, a refused op's up to and
    # including the denied one
    ask = issued.nonzero()[0]
    rgroups = groups[owner[ask]]
    bulk = alloc.allocate_many(rgroups, sizes[ask], plan=plan)
    served = ran[owner] | (np.arange(total) < denied[owner])
    if not np.array_equal(bulk.ok, served[ask]):  # pragma: no cover
        raise AssertionError("page-take plan and allocator disagree")
    _book(tallies[:reached], bounds[:reached + 1], ran, cycles, touched,
          probe, owner[ask][bulk.ok], rgroups[bulk.ok])
    at = issued.cumsum() - 1  # request -> row of ``bulk``

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
        first = _run_starts(t)
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
        # each entry's new list head
        last = np.concatenate((first[1:], [True]))
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
    changed = (cleared | (rflags != 0)).nonzero()[0]
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
    segs = np.concatenate((
        res.hit_addr[cleared] // page_size,
        res.hit_addr[pinned_hit] // page_size,
        bulk.segment[at[kreq[pinned_new]]],
    ))
    org._settle_pending(heap, segs, np.arange(len(segs)) >= n_cleared)

    # new key entries: linked newest-first per bucket, written once with
    # their final value list and flags
    new = dk.by_bucket[made[dk.by_bucket]]  # by (bucket, arrival)
    if len(new):
        row = at[kreq[new]]
        next_gpu, next_cpu = _link_heads(
            table.buckets, buckets[new], bulk.gpu_addr[row], bulk.cpu_addr[row]
        )
        E.write_key_entries_bulk(
            arena, bulk.slot[row] * page_size + bulk.offset[row],
            next_gpu, next_cpu, new_vhead_gpu[new], new_vhead_cpu[new],
            batch.keys[idx[new]], klens[new], nflags[new],
        )
    return ran[:end], reached
