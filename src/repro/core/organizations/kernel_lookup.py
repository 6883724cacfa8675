"""In-stream lookups of the mixed-op kernels.

A lookup inside a mutation batch reads the table as it stood before the
batch: one flat image of the CPU side, the looked-up keys' chains matched
through it, the newest-first automaton of the scalar readers run as a mask
over the matches.  Only the few lookups whose key an earlier op of their
own batch wrote replay that key's ops, over the match list and without
touching the heap.
"""

from __future__ import annotations

import numpy as np

from repro.core import entries as E
from repro.core.chainview import match_cpu_chains, walk_cpu_image
from repro.core.mutations import OP_DELETE, OP_LOOKUP, OP_UPDATE
from repro.memalloc.address import NULL


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
    :func:`.oracle._lookup_generic` runs as a mask over those
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


def _answer_lookups_mv(
    table, batch, idx, dk, looks, dirty, ran, made, buried, A, S, tally
):
    """Answer and charge the in-stream lookups of one multi-valued kernel
    call: :func:`_answer_lookups` with value lists.

    A same-key entry is admissible unless it is an empty ``PENDING`` one
    (unacknowledged).  Over the admissible ones the automaton of
    :func:`.oracle._lookup_mv` runs as a mask; the value
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
    unborn = E.key_entry_unborn(cm.flags, vhead)
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
                if empty and not flags & TOMB:  # unborn
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
