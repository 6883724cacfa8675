"""In-stream lookups of the mixed-op kernels.

A lookup inside a mutation batch reads the table as it stood before the
batch -- the heap's flat image of the CPU side, the looked-up keys' chains
matched through the table's cached suffixes
(:class:`~repro.core.suffixes.SuffixCache`), the newest-first automaton
of the scalar readers run as a mask over the matches -- plus what the
earlier ops of its batch did to its key.
Both are column operations: a lookup reads what its key showed before the
batch, oldest first, then the values the batch added to it in op order,
cut where the newest op before it that closed the key left it
(:func:`_reads`).  Nothing is replayed op by op.
"""

from __future__ import annotations

from operator import add
from typing import NamedTuple

import numpy as np

from repro.core import entries as E
from repro.core.chainview import walk_cpu_image
from repro.core.mutations import OP_DELETE, OP_LOOKUP, OP_UPDATE
from repro.core.organizations.kernel_front import _latest_before, _slices
from repro.core.suffixes import _ranges


def _lookup_matches(table, batch, idx, dk, looks):
    """What the in-stream lookups ``looks`` (m,) of one kernel call read:
    the heap's image of the CPU side as it stood before the batch
    (:meth:`~repro.memalloc.heap.GpuHeap.image`), the looked-up keys'
    bucket chains read through it and the table's cached suffixes, every
    same-key entry matched.

    Returns ``(lk, slot, n_keys, image, cm)``: the lookup ops, each
    distinct key's row among the ``n_keys`` looked-up ones (-1 for the
    others), the image, and the
    :class:`~repro.core.chainview.ChainMatches` of those rows.
    """
    lk = looks.nonzero()[0]
    slot = np.full(len(dk.starts), -1, dtype=np.int64)
    slot[dk.gpos[lk]] = 0
    keys = (slot == 0).nonzero()[0]  # distinct looked-up keys
    slot[keys] = np.arange(len(keys))
    rec = idx[dk.firstj[keys]]
    buckets = dk.gbucket[keys]
    image = table.heap.image()
    cm = table.suffixes.match(
        image, table.buckets.head_cpu[buckets], buckets, batch.keys[rec],
        batch.key_lens[rec],
    )
    return lk, slot, len(keys), image, cm


def _newest_first(cm, first, closing, dead):
    """The merge automaton of every reader as a mask over the matches
    ``cm`` (``first[k]`` is the first match of key ``k``): newest first, a
    ``dead`` match never shows, a ``closing`` one ends its key's walk, and
    nothing older than that shows.  Returns the ``shows`` mask and per key
    the ``(probes, bytes)`` of a walk up to and including the match that
    closes it, else of the whole chain."""
    base = np.concatenate(([0], closing.cumsum()))
    older = base[:-1] - base[first][cm.key]  # closing matches before this
    closer = (closing & (older == 0)).nonzero()[0]
    probes = cm.n_chain.copy()
    nbytes = cm.chain_bytes.copy()
    probes[cm.key[closer]] = cm.at[closer] + 1
    nbytes[cm.key[closer]] = cm.cum[closer]
    return (older == 0) & ~dead, probes, nbytes


def _spans(image, lo, n) -> list:
    """``bytes(image[lo[i]:lo[i] + n[i]])`` for every ``i``: one gather
    of the spans, then slices of it."""
    ends = n.cumsum()
    return _slices(image[_ranges(lo, n)].tobytes(), ends - n, ends)


def _value_bytes(batch, rec) -> list:
    """The byte values of records ``rec``, exact length."""
    width = batch.values.shape[1]
    lo = rec * width
    return _slices(batch.values.tobytes(), lo, lo + batch.val_lens[rec])


class _Reads(NamedTuple):
    """What the in-stream lookups of one kernel call read; see
    :func:`_reads`."""

    lk: np.ndarray  # the lookups, key-major
    row: np.ndarray  # ... their keys' rows among the looked-up ones
    probe: np.ndarray  # ... and the charges of their key walks
    nbytes: np.ndarray
    dirty: np.ndarray  # the ones an earlier op of the batch wrote before
    pre: np.ndarray  # ... of which these read the pre-batch elements
    alo: np.ndarray  # ... then ``added[alo:ahi]``
    ahi: np.ndarray
    added: np.ndarray  # the ops that add an element, key-major
    flo: np.ndarray  # ``folded[flo:flo + fn]`` fold into the newest entry
    fn: np.ndarray
    folded: np.ndarray  # the ops of ``combines``, key-major


def _reads(dk, st, looks, slot, adds, close, made, creator, cm, first,
           probes, nbytes, A, S, combines=None) -> _Reads:
    """What each in-stream lookup (``looks``, over the kernel's ``m``
    ops) of one kernel call reads, and the charge of its key walk.

    A lookup reads what its key showed before the batch, oldest first,
    then the elements the ops of ``adds`` put on the key before it, in op
    order -- unless an op of ``close`` before it wrote a tombstone or a
    shadow on the key's newest entry: every later walk stops there, so
    the lookup reads only what was added from the newest such op on, that
    op's own element included.  Two segmented scans over the batch,
    key-major, find for every position the newest closing op and the
    number of elements added before it.  ``combines`` (optional) are ops
    whose value folds into their key's newest entry: a lookup's are the
    ones since that entry was added, or since the batch began.

    The walk is charged as the scalar walk's: the entries the batch
    prepended to its bucket so far (``A`` / ``S``), then down to the
    closed entry -- ``A[j] - A[c]`` when op ``c`` made it, the newest
    match's ``at + 1`` when it stood before the batch -- else down to what
    closed the key before the batch (``probes`` / ``nbytes`` by row, of
    :func:`_newest_first`).
    """
    sub, key, seg0 = dk.sub, st.key, st.seg0
    ql = looks[sub].nonzero()[0]
    lk, row = sub[ql], slot[key[ql]]
    probe, nb = A[lk] + probes[row], S[lk] + nbytes[row]
    dirty = (~st.untouched[ql]).nonzero()[0]
    dq = ql[dirty]
    written = np.zeros(len(slot), dtype=bool)  # keys a dirty lookup reads
    written[key[dq]] = True
    added = adds[sub] & written[key]
    before = added.cumsum() - added  # elements added earlier, key-major
    e = _latest_before(close[sub], seg0)[dq]  # the newest closing op
    closed = e >= 0
    alo = before[np.where(closed, e, seg0[dq])]
    if closed.any():
        i = dirty[closed]
        j, je = lk[i], sub[e[closed]]
        c = np.where(made[je], je, creator[je])  # op that made the entry
        pc, bc = A[j] - A[c], S[j] - S[c]
        hit = (c < 0).nonzero()[0]  # it stood before the batch
        p = first[row[i[hit]]]
        pc[hit] = A[j[hit]] + cm.at[p] + 1
        bc[hit] = S[j[hit]] + cm.cum[p]
        probe[i], nb[i] = pc, bc
    flo = fn = folded = np.zeros(0, dtype=np.int64)
    if combines is not None:
        f = combines[sub] & written[key]
        done = f.cumsum() - f  # combines earlier
        maker = _latest_before(added, seg0)[dq]
        flo = done[np.where(maker >= 0, maker, seg0[dq])]
        fn, folded = done[dq] - flo, sub[f]
    return _Reads(lk, row, probe, nb, dirty, ~closed, alo, before[dq],
                  sub[added], flo, fn, folded)


def _pre_blocks(of_key, n_keys, r):
    """Each lookup's slice ``[lo, hi)`` of the pre-batch elements, laid
    out rows descending and oldest first (``of_key``: the row of each);
    empty for a lookup that does not read them."""
    n = np.bincount(of_key, minlength=n_keys)
    lo = (len(of_key) - n.cumsum())[r.row]
    hi = lo + n[r.row]
    shut = r.dirty[~r.pre]
    hi[shut] = lo[shut]
    return lo, hi


def _list_answers(results, idx, r, shown, lo, hi, added):
    """Deposit list answers: ``shown[lo:hi]`` per lookup, and for the
    dirty ones ``added[alo:ahi]`` after it."""
    answers = _slices(shown, lo, hi)
    results.update(zip(idx[r.lk].tolist(), answers))
    if len(r.dirty):
        results.update(zip(idx[r.lk[r.dirty]].tolist(), map(
            add, map(answers.__getitem__, r.dirty.tolist()),
            _slices(added, r.alo, r.ahi),
        )))


def _answer_lookups(
    table, batch, idx, dk, st, comb, looks, made, inplace, buried, creator,
    A, S, probe, touched,
):
    """Answer and charge the in-stream lookups of one generic-entry kernel
    call: each lookup's probes and bytes are added to its op's row of the
    kernel's ``probe`` and ``touched`` columns.

    Reads only :func:`_lookup_matches`: the newest-first automaton of
    :func:`.oracle._lookup_generic` runs as a mask over those matches,
    and :func:`_reads` adds what the batch did before each lookup.  A
    basic entry the batch makes adds its op's value, an overwrite in
    place adds the value it writes; an update (either) shadows, a delete
    that buries or is born dead is a tombstone.  A combining entry the
    batch makes adds its op's value, and the combines into it fold in.
    Basic answers are list slices; combining ones fold each lookup's
    newest entry with the combines before the lookup, then its entries
    oldest first, as the loop reads the table.  ``st`` and ``creator``
    are the kernel's :class:`~.kernel_mixed._KeyStates` and makers.
    """
    lk, slot, n_keys, image, cm = _lookup_matches(
        table, batch, idx, dk, looks
    )
    first = np.searchsorted(cm.key, np.arange(n_keys))
    # a tombstone closes its key unseen, a shadow shows itself and closes
    shows, probes, nbytes = _newest_first(
        cm, first, cm.flags != 0, (cm.flags & E.GFLAG_TOMBSTONE) != 0
    )
    ops = batch.ops[idx]
    is_del = ops == OP_DELETE
    is_up = ~is_del & (ops != OP_LOOKUP)
    if comb is None:
        adds = made & is_up | inplace
        close = made & (is_del | (ops == OP_UPDATE)) | inplace | buried
    else:
        adds = made & is_up
        close = made & is_del | buried
    r = _reads(dk, st, looks, slot, adds, close, made, creator, cm, first,
               probes, nbytes, A, S, None if comb is None else inplace)
    probe[r.lk] += r.probe
    touched[r.lk] += r.nbytes
    old = shows.nonzero()[0][::-1]  # keys descending, oldest first
    lo, hi = _pre_blocks(cm.key[old], n_keys, r)
    if comb is None:
        vpos = cm.vpos[old]
        _list_answers(
            batch.lookup_results, idx, r,
            _spans(image, vpos, cm.vlen[old]), lo, hi,
            _value_bytes(batch, idx[r.added]),
        )
        return

    # per lookup one segment: its pre-batch scalars, then its added ones
    n_pre = hi - lo
    n_add = np.zeros(len(lo), dtype=np.int64)
    n_add[r.dirty] = r.ahi - r.alo
    start = np.zeros(len(lo), dtype=np.int64)
    start[r.dirty] = len(old) + r.alo
    vals = np.concatenate((
        E.gather_field(image, cm.vpos[old], comb.dtype.newbyteorder("<")),
        batch.numeric_values[idx[r.added]],
    ))[_ranges(np.stack((lo, start), axis=1).ravel(),
               np.stack((n_pre, n_add), axis=1).ravel())]
    n = n_pre + n_add
    ends = n.cumsum()
    some = n.nonzero()[0]
    # a dirty lookup's newest entry first takes the combines before it
    late = ((r.fn > 0) & (n[r.dirty] > 0)).nonzero()[0]
    if len(late):
        fn = r.fn[late]
        newest = ends[r.dirty[late]] - 1
        vals[newest] = comb.fold_segments(
            batch.numeric_values[idx[r.folded]][_ranges(r.flo[late], fn)],
            fn.cumsum() - fn, vals[newest], np.ones(len(fn), dtype=bool),
        )
    answers = np.full(len(lo), None, dtype=object)
    if len(some):
        answers[some] = comb.fold_segments(vals, (ends - n)[some])
    batch.lookup_results.update(zip(idx[r.lk].tolist(), answers.tolist()))


def _answer_lookups_mv(
    table, batch, idx, dk, st, looks, ran, made, buried, creator, A, S,
    probe, touched,
):
    """Answer and charge the in-stream lookups of one multi-valued kernel
    call: :func:`_answer_lookups` with value lists.

    A same-key entry is admissible unless it is an empty ``PENDING`` one
    (unacknowledged).  Over the admissible ones the automaton of
    :func:`.oracle._lookup_mv` runs as a mask; what a key showed before
    the batch is the value nodes of the entries that show, oldest first,
    and every upsert of the batch adds its value.  A tombstone the batch
    writes closes the key.  A lookup's answer is a list slice, charged
    the key walk plus one probe and the header + value bytes of every
    node it returns.
    """
    lk, slot, n_keys, image, cm = _lookup_matches(
        table, batch, idx, dk, looks
    )
    vhead = E.gather_field(image, cm.pos + 24, "<i8")
    tomb = (cm.flags & E.FLAG_TOMBSTONE) != 0
    first = np.searchsorted(cm.key, np.arange(n_keys))
    # a tombstone closes its key unseen
    shows, probes, nbytes = _newest_first(
        cm, first, tomb, tomb | E.key_entry_unborn(cm.flags, vhead)
    )
    vis = shows.nonzero()[0]
    (vpos, _, vlen, _), counts = walk_cpu_image(image, vhead[vis], "value")

    ops = batch.ops[idx]
    is_del = ops == OP_DELETE
    adds = ran & ~is_del & (ops != OP_LOOKUP)  # an upsert appends a value
    close = made & is_del | buried
    r = _reads(dk, st, looks, slot, adds, close, made, creator, cm, first,
               probes, nbytes, A, S)

    old = slice(None, None, -1)  # keys descending, oldest node first
    lo, hi = _pre_blocks(cm.key[vis].repeat(counts)[old], n_keys, r)
    node = E.VALUE_NODE_HEADER + vpos[old]
    rec = idx[r.added]
    # every node read: one probe, its header and value bytes
    pre_b = np.concatenate(([0], (E.VALUE_NODE_HEADER + vlen[old]).cumsum()))
    add_b = np.concatenate(([0], (
        E.VALUE_NODE_HEADER + batch.val_lens[rec].astype(np.int64)).cumsum()))
    probe[r.lk] += r.probe + hi - lo
    touched[r.lk] += r.nbytes + pre_b[hi] - pre_b[lo]
    dirty = r.lk[r.dirty]
    probe[dirty] += r.ahi - r.alo
    touched[dirty] += add_b[r.ahi] - add_b[r.alo]
    _list_answers(
        batch.lookup_results, idx, r, _spans(image, node, vlen[old]),
        lo, hi, _value_bytes(batch, rec),
    )
