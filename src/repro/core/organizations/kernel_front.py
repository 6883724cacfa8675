"""What every batched kernel starts from: grouping, linking, walk charges.

Order-preserving sorts and segmented sums, the grouped last-writer-wins
links of bucket chains and value lists, and :class:`_DistinctKeys` -- one
subset of a batch grouped by distinct key, resolved against the resident
chains once, with the closed form of what a scalar walk by each op costs.
The insert kernels (:mod:`.kernel_insert`) and the mixed-op kernels
(:mod:`.kernel_mixed`) are both built on it.
"""

from __future__ import annotations

import numpy as np

from repro.core.chainview import resolve_keys
from repro.memalloc.address import NULL
from repro.memalloc.allocator import _stable_order


def segmented_exclusive_cumsum(
    x: np.ndarray, seg: np.ndarray, order: np.ndarray | None = None
) -> np.ndarray:
    """Per-element sum of *earlier* same-segment elements, in arrival order.

    This is the closed form behind the batched kernels' walk accounting:
    with ``x`` holding per-record "a new entry was prepended here" event
    weights and ``seg`` the bucket ids, the result at record ``j`` is
    exactly how much the bucket's chain grew before ``j``'s walk started
    -- what the scalar reference observes record by record.  ``x`` may
    stack several such rows over the same records (the sums run along its
    last axis); ``order`` is ``_stable_order(seg)`` when the caller
    already has it.
    """
    if order is None:
        order = _stable_order(seg)
    xs = x[..., order]
    excl = xs.cumsum(axis=-1) - xs
    # each position's segment start, and the sum the segment starts from
    start = np.maximum.accumulate(
        np.where(_run_starts(seg[order]), np.arange(len(order)), 0))
    out = np.empty_like(excl)
    out[..., order] = excl - excl[..., start]
    return out


def _slices(seq, lo: np.ndarray, hi: np.ndarray) -> list:
    """``[seq[a:b] for a, b in zip(lo, hi)]`` for ``bytes`` or a list.

    The comprehension runs in one frame for all the slices; on CPython
    3.11 it beats ``map(seq.__getitem__, map(slice, ...))``, which builds
    a ``slice`` object per element, at every size measured (1.1-1.9x,
    200 to 50,000 slices).
    """
    return [seq[a:b] for a, b in zip(lo.tolist(), hi.tolist())]


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
    first = _run_starts(bs)
    next_gpu = np.where(
        first, head_gpu[bs], np.concatenate(([NULL], gaddr[:-1])))
    next_cpu = np.where(
        first, head_cpu[bs], np.concatenate(([NULL], caddr[:-1])))
    last = np.concatenate((first[1:], [True]))
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
    vnext_gpu = np.where(first, head_gpu, np.concatenate(([NULL], gaddr[:-1])))
    vnext_cpu = np.where(first, head_cpu, np.concatenate(([NULL], caddr[:-1])))
    return vnext_gpu, vnext_cpu


def _latest_before(mask: np.ndarray, seg0: np.ndarray) -> np.ndarray:
    """Per position of a key-major array, the latest *earlier* position of
    the same key where ``mask`` holds, else -1 (``seg0[p]`` is the first
    position of ``p``'s key).  ``mask`` may stack several rows."""
    at = np.where(mask, np.arange(mask.shape[-1]), -1)
    last = np.maximum.accumulate(at, axis=-1)
    last[..., 1:] = last[..., :-1].copy()
    last[..., 0] = -1
    return np.where(last >= seg0, last, -1)


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
        self.counts = np.concatenate((self.starts[1:], [m])) - self.starts
        self.firstj = self.sub[self.starts]
        self.gpos = np.empty(m, dtype=np.int64)
        self.gpos[self.sub] = np.arange(G).repeat(self.counts)
        self.isfirst = np.zeros(m, dtype=bool)
        self.isfirst[self.firstj] = True
        self.gbucket = buckets[self.firstj]
        #: the records by (bucket, arrival): how walks see their chains grow
        self.by_bucket = _stable_order(buckets)

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
        ev = np.array((made, made * (header + klens)), dtype=np.int64)
        A, S = segmented_exclusive_cumsum(ev, buckets, self.by_bucket)
        hit = res.hit[gpos]
        found = hit >= 0
        probe = A + np.where(found, hit + 1, res.n_resident[gpos])
        btv = S + np.where(found, res.hit_bytes[gpos], res.walk_bytes[gpos])
        new = (creator >= 0).nonzero()[0]
        if len(new):
            c = creator[new]
            probe[new] = A[new] - A[c]
            btv[new] = S[new] - S[c]
        return probe, btv, A, S
