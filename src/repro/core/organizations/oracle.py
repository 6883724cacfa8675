"""The per-record loops: one per organization, the differential oracle.

Each loop applies a batch one op at a time against the real chains --
every op re-walks its bucket -- and defines what the batched kernels must
reproduce bit for bit: success masks, tallies, lookup answers, counters
and table bytes (docs/cost_model.md, "Mutation cycle costs").  It is all
that runs under ``impl="slow_reference"``, and under ``"vectorized"`` it
takes whatever has no closed form.

The organizations differ in what one op does to a chain
(:func:`basic_loop`, :func:`combining_loop`, :func:`multivalued_loop`);
the loop around it -- hash charge, gate, outcome -- is :func:`_each_op`,
and it serves both entry points.  Run *gated* (the default) it applies a
mixed insert/update/delete/lookup batch: an op whose bucket group already
failed in this iteration postpones up front, which keeps per-key issue
order across postponement replays.  Run with ``gated=False`` it is the
pure-insert path: every record is an ``OP_INSERT`` whatever the batch's
``ops`` say (a plain :class:`~repro.core.records.RecordBatch` has none),
nothing postpones at the gate -- after a denied request a group keeps
going, a smaller record may still fit -- and ``table.mutations`` is not
counted.
"""

from __future__ import annotations

import numpy as np

from repro.core import entries as E
from repro.core.mutations import (
    OP_DELETE,
    OP_INSERT,
    OP_LOOKUP,
    OP_UPDATE,
    MutationCounters,
)
from repro.core.organizations.costs import (
    HASH_CYCLES_PER_BYTE,
    INSERT_CYCLES,
    TOMBSTONE_CYCLES,
    UPDATE_CYCLES,
)
from repro.memalloc.address import NULL
from repro.memalloc.pages import PageKind


def _each_op(table, batch, idx, buckets, tally, gated, apply_op):
    """The loop itself.  Per op: the hash charge, the gate, then
    ``apply_op(op, i, b, key, muts)`` -- what the organization does with
    op ``op`` of record ``i`` on bucket ``b``, True = success, False =
    the allocator refused -- and the outcome booked.  ``muts`` is the
    table's mutation counters, or a scratch set when ``gated`` is off
    (module docstring)."""
    alloc = table.alloc
    group_size = table.buckets.group_size
    muts = table.mutations if gated else MutationCounters()
    all_keys = batch.key_bytes_list()
    ops = batch.ops[idx].tolist() if gated else [OP_INSERT] * len(idx)
    success = np.zeros(len(idx), dtype=bool)
    for j, (i, b, op) in enumerate(zip(idx.tolist(), buckets.tolist(), ops)):
        key = all_keys[i]
        tally.attempted += 1
        tally.table_cycles += HASH_CYCLES_PER_BYTE * len(key)
        if gated and alloc.group_failed(b // group_size):
            # the gate: a same-group op already postponed, so this op
            # must too, or it could overtake the pending one
            tally.postponed += 1
            muts.gate_postponed += 1
        elif apply_op(op, i, b, key, muts):
            tally.succeeded += 1
            success[j] = True
        else:
            tally.postponed += 1
    return success


# ----------------------------------------------------------------------
# generic entries (basic and combining)
# ----------------------------------------------------------------------
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


def _prepend_entry(table, tally, bufs, b, key, value, flags=0) -> bool:
    """Allocate a generic entry holding ``key``/``value`` and make it the
    head of bucket ``b``'s chains, its flag word carrying ``flags``.

    ``INSERT_CYCLES`` is charged before the allocation -- a refused op
    pays it -- the entry write and the head update after.  False = the
    allocator refused and nothing was written.
    """
    group = b // table.buckets.group_size
    size = E.entry_size(len(key), len(value))
    tally.table_cycles += INSERT_CYCLES
    a = table.alloc.allocate(group, size, PageKind.GENERIC)
    if a is None:
        return False
    head_gpu = table.buckets.head_gpu
    head_cpu = table.buckets.head_cpu
    buf = bufs[a.page.segment] = table.heap.pool.slot_view(a.page.slot)
    E.write_entry(
        buf, a.offset, int(head_gpu[b]), int(head_cpu[b]), key, value
    )
    if flags:
        E.set_entry_flag(buf, a.offset, flags)
    head_gpu[b] = a.gpu_addr
    head_cpu[b] = a.cpu_addr
    tally.bytes_touched += size + 16  # entry write + head update
    tally.alloc_groups.append(group)
    if table.trace is not None:
        table.trace.on_access(a.cpu_addr, size)
    return True


def _delete_generic(table, tally, bufs, b, key, hit, blocked) -> bool:
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
    if not _prepend_entry(table, tally, bufs, b, key, b"", E.GFLAG_TOMBSTONE):
        return False
    alloc.note_tombstone(E.entry_size(len(key), 0))
    muts.deletes_tombstones += 1
    return True


def _lookup_generic(table, b, key, tally) -> list[bytes]:
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


def basic_loop(org, table, batch, idx, buckets, tally, gated=True):
    """The basic method, one op at a time (see module docstring): an
    insert prepends without probing, an update overwrites a live
    same-width newest copy in place and shadows it, else prepends a
    shadow entry."""
    heap = table.heap
    head_cpu = table.buckets.head_cpu
    trace = table.trace
    bufs: dict[int, np.ndarray] = {}

    def apply_op(op, i, b, key, muts) -> bool:
        if op == OP_LOOKUP:
            batch.lookup_results[i] = _lookup_generic(table, b, key, tally)
            muts.lookups += 1
            return True
        if op == OP_INSERT:
            done = _prepend_entry(
                table, tally, bufs, b, key, batch.value_bytes(i)
            )
            muts.inserts += done
            return done
        hit, blocked = _walk_resident_mut(
            table, bufs, int(head_cpu[b]), key, tally, trace
        )
        if op == OP_DELETE:
            return _delete_generic(table, tally, bufs, b, key, hit, blocked)
        value = batch.value_bytes(i)
        if (
            hit is not None
            and not hit[4] & E.GFLAG_TOMBSTONE
            and hit[3] == len(value)
        ):
            # live newest match, same width: rewrite in place
            # and shadow it so older duplicates are superseded
            buf, off, klen, vlen, _, addr = hit
            E.set_entry_value(buf, off, klen, value)
            E.set_entry_flag(buf, off, E.GFLAG_SHADOW)
            heap.note_write(addr // heap.page_size)
            tally.table_cycles += UPDATE_CYCLES
            tally.bytes_touched += vlen + 4
            if trace is not None:
                trace.on_access(addr, vlen + 4)
            muts.updates_inplace += 1
            return True
        # dead, width-changing, or unproven-absent: prepend a
        # shadow entry that replaces every older copy at merge
        done = _prepend_entry(
            table, tally, bufs, b, key, value, E.GFLAG_SHADOW
        )
        muts.updates_entries += done
        return done

    return _each_op(table, batch, idx, buckets, tally, gated, apply_op)


def combining_loop(org, table, batch, idx, buckets, tally, gated=True):
    """The combining method, one op at a time (see module docstring):
    inserts and updates are the same upsert, which probes and combines
    into a live newest copy in place, else prepends an entry."""
    if batch.numeric_values is None:
        raise ValueError(
            "the combining method stores fixed-width scalar values; "
            "build the batch with numeric_values"
        )
    heap = table.heap
    head_cpu = table.buckets.head_cpu
    comb = org.combiner
    fmt = comb.fmt
    trace = table.trace
    all_values = batch.numeric_values.tolist()
    bufs: dict[int, np.ndarray] = {}

    def apply_op(op, i, b, key, muts) -> bool:
        if op == OP_LOOKUP:
            raw = _lookup_generic(table, b, key, tally)
            if raw:
                acc = comb.unpack(raw[0])
                for rv in raw[1:]:
                    acc = comb.combine(acc, comb.unpack(rv))
                batch.lookup_results[i] = acc
            else:
                batch.lookup_results[i] = None
            muts.lookups += 1
            return True
        hit, blocked = _walk_resident_mut(
            table, bufs, int(head_cpu[b]), key, tally, trace
        )
        if op == OP_DELETE:
            return _delete_generic(table, tally, bufs, b, key, hit, blocked)
        # OP_INSERT and OP_UPDATE are both upsert-combines
        v = all_values[i]
        if hit is not None and not hit[4] & E.GFLAG_TOMBSTONE:
            buf, off, klen = hit[0], hit[1], hit[2]
            vo = off + E.ENTRY_HEADER + klen
            stored = fmt.unpack_from(buf, vo)[0]
            fmt.pack_into(buf, vo, comb.combine(stored, v))
            heap.note_write(hit[5] // heap.page_size)
            tally.table_cycles += comb.cycles
            # read + write of the stored scalar, at its actual width
            tally.bytes_touched += 2 * comb.value_size
            if trace is not None:
                trace.on_access(hit[5], comb.value_size)
            if op == OP_UPDATE:
                muts.updates_inplace += 1
            else:
                muts.inserts += 1
            return True
        # clean miss, or the newest copy is a tombstone: a fresh entry
        # supersedes it
        done = _prepend_entry(table, tally, bufs, b, key, comb.pack(v))
        if op == OP_UPDATE:
            muts.updates_entries += done
        else:
            muts.inserts += done
        return done

    return _each_op(table, batch, idx, buckets, tally, gated, apply_op)


# ----------------------------------------------------------------------
# key entries and value nodes (multi-valued)
# ----------------------------------------------------------------------
def _find_key_mut(table, bufs, addr, key, tally, trace):
    """Like :func:`_walk_resident_mut` for key entries (a different
    header layout): returns ``(hit, blocked)`` with ``hit = (buf, off,
    seg, flags, addr)`` of the newest same-key key entry, else None."""
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


def _prepend_key_entry(table, tally, bufs, b, key, flags=0):
    """The key-entry twin of :func:`_prepend_entry`: allocate an entry
    with an empty value list for ``key`` on a KEY page, flag word
    ``flags``, and make it the head of bucket ``b``'s chains.  Returns
    its ``hit`` tuple as :func:`_find_key_mut` would, or None when the
    allocator refused.  Charges no ``INSERT_CYCLES``: an upsert pays
    them once, whether or not it needs a key entry."""
    group = b // table.buckets.group_size
    ksize = E.key_entry_size(len(key))
    a = table.alloc.allocate(group, ksize, PageKind.KEY)
    if a is None:
        return None
    head_gpu = table.buckets.head_gpu
    head_cpu = table.buckets.head_cpu
    kbuf = bufs[a.page.segment] = table.heap.pool.slot_view(a.page.slot)
    E.write_key_entry(kbuf, a.offset, int(head_gpu[b]), int(head_cpu[b]), key)
    if flags:
        E.set_flags(kbuf, a.offset, flags)
    head_gpu[b] = a.gpu_addr
    head_cpu[b] = a.cpu_addr
    tally.bytes_touched += ksize + 16
    tally.alloc_groups.append(group)
    if table.trace is not None:
        table.trace.on_access(a.cpu_addr, ksize)
    return (kbuf, a.offset, a.page.segment, flags, a.cpu_addr)


def _append_value(table, tally, kbuf, koff, kseg, b, value) -> bool:
    """Allocate a value node and push it onto the key's value list."""
    group = b // table.buckets.group_size
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
    if table.trace is not None:
        table.trace.on_access(a.cpu_addr, size)
    return True


def _lookup_mv(table, b, key, tally) -> list[bytes]:
    """Full CPU-chain lookup: newest live key entry's values, plus any
    older duplicates (forced evictions split a key's values across
    entries) until a tombstone closes the key.  Returned
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
            # skip unborn entries: unacknowledged
            and not E.key_entry_unborn(flags, vhead_cpu)
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
        addr = next_cpu
    out.reverse()
    return out


def multivalued_loop(org, table, batch, idx, buckets, tally, gated=True):
    """The multi-valued method, one op at a time (see module docstring):
    inserts and updates both append one value node, to the key's newest
    live entry or to a key entry created for it."""
    heap = table.heap
    alloc = table.alloc
    head_cpu = table.buckets.head_cpu
    trace = table.trace
    bufs: dict[int, np.ndarray] = {}

    def apply_op(op, i, b, key, muts) -> bool:
        if op == OP_LOOKUP:
            batch.lookup_results[i] = _lookup_mv(table, b, key, tally)
            muts.lookups += 1
            return True
        if op == OP_DELETE:
            hit, blocked = _find_key_mut(
                table, bufs, int(head_cpu[b]), key, tally, trace
            )
            if hit is not None and not hit[3] & E.FLAG_TOMBSTONE:
                kbuf, koff, kseg, fl, addr = hit
                if fl & E.FLAG_PENDING:
                    # a pinned key that dies stops pinning its page
                    org._clear_pending(table, kbuf, kseg, koff)
                cur = E.get_flags(kbuf, koff)
                E.set_flags(kbuf, koff, cur | E.FLAG_TOMBSTONE)
                heap.note_write(kseg)
                alloc.note_tombstone(E.key_entry_size(len(key)))
                tally.table_cycles += TOMBSTONE_CYCLES
                tally.bytes_touched += 4
                if trace is not None:
                    trace.on_access(addr, 4)
                muts.deletes_inplace += 1
            elif hit is not None or not blocked:
                muts.deletes_noop += 1  # already dead, or proven absent
            else:
                # chain continues into evicted memory: born-dead key entry
                tally.table_cycles += INSERT_CYCLES
                if _prepend_key_entry(
                    table, tally, bufs, b, key, E.FLAG_TOMBSTONE
                ) is None:
                    return False
                alloc.note_tombstone(E.key_entry_size(len(key)))
                muts.deletes_tombstones += 1
            return True
        # OP_INSERT / OP_UPDATE: both append one value node
        value = batch.value_bytes(i)
        tally.table_cycles += INSERT_CYCLES
        hit, blocked = _find_key_mut(
            table, bufs, int(head_cpu[b]), key, tally, trace
        )
        if hit is not None and hit[3] & E.FLAG_TOMBSTONE:
            hit = None  # deleted key: a fresh key entry supersedes it
        created = hit is None
        if created:
            hit = _prepend_key_entry(table, tally, bufs, b, key)
            if hit is None:
                return False
        kbuf, koff, kseg = hit[0], hit[1], hit[2]
        if not _append_value(table, tally, kbuf, koff, kseg, b, value):
            # The key entry exists but its value could not be stored:
            # flag it so its page is retained across the eviction.
            org._set_pending(table, kbuf, kseg, koff)
            return False
        org._clear_pending(table, kbuf, kseg, koff)
        muts.value_nodes += 1
        if op == OP_INSERT:
            muts.inserts += 1
        elif created:
            muts.updates_entries += 1
        else:
            muts.updates_inplace += 1
        return True

    return _each_op(table, batch, idx, buckets, tally, gated, apply_op)


def splice_chains(table) -> int:
    """Rebuild the GPU chains over the key entries a partial eviction
    left resident (``next_gpu`` may target recycled slots afterwards).
    Every resident bucket's CPU chain (never broken) is walked to find the
    entries that stayed; their ``next_gpu`` pointers are relinked to skip
    the evicted ones, and every retained key's ``vhead_gpu`` is cleared
    because value pages are always evicted.  Returns the entries walked."""
    heap = table.heap
    page_size = heap.page_size
    head_gpu = table.buckets.head_gpu
    head_cpu = table.buckets.head_cpu
    walked = 0
    for b in table.buckets.resident_buckets():
        # (gpu, buf, off, seg)
        resident: list[tuple[int, np.ndarray, int, int]] = []
        addr = int(head_cpu[b])
        while addr != NULL:
            seg, off = divmod(addr, page_size)
            page = heap.resident_page(seg)
            buf = heap.segment_view(seg)
            hdr = E.read_key_entry_header(buf, off)
            walked += 1
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
    return walked
