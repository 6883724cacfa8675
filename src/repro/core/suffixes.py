"""The stored suffixes of a table's bucket chains, parsed once.

In-stream lookups read whole chains, evicted entries included, through
the heap's flat image of the CPU side
(:meth:`~repro.memalloc.heap.GpuHeap.image`).  Most of what one call reads
an earlier call on the same table has already read: a stored segment's
bytes change only through :meth:`~repro.memalloc.heap.GpuHeap.set_stored`,
which bumps its store version, and a chain grows only at its head.  So
from where a walk leaves the resident pages, the rest of its chain reads
the same on every call until a segment under it is stored again.

:class:`SuffixCache` keeps, per bucket, one such *suffix*, parsed: it
begins at ``start[b]``, lies in stored segments only and runs to the
chain's end.  A call walks each looked-up chain from its head to the
cached suffix, reads what lies on resident pages uncached and caches the
stored nodes in front of the suffix with it: what it parses is what the
table gained since the last call that read the chain.  Keys are found in
a suffix through its key index, not by comparing every pair.
"""

from __future__ import annotations

import numpy as np

from repro.core.chainview import (
    _ALL_ONES,
    _LAYOUTS,
    ChainMatches,
    _chains_of,
    _key_words,
    _match_pairs,
    _walk,
)
from repro.memalloc.address import NULL

__all__ = ["SuffixCache"]

#: the rows of the pool: a node's address, key and value length, flags,
#: the nodes after it to the chain's end (``depth``), the walk charge from
#: it to the chain's end, itself included (``tail``), and its bucket (-1:
#: a row no suffix holds any more)
_ADDR, _KLEN, _VLEN, _FLAGS, _DEPTH, _TAIL, _BUCKET = range(7)

#: an index entry is a row's key index in its high bits and, in the low
#: :data:`_ROW_BITS`, ``_LAST_ROW - row``: among equal keys the newest row
#: (the highest, see :meth:`SuffixCache._keep`) sorts first
_ROW_BITS = 28
_ROWS = np.uint64((1 << _ROW_BITS) - 1)
_KEYS = ~_ROWS
_LAST_ROW = (1 << _ROW_BITS) - 1

#: the key index's weights: one per 8-byte word column, and the length's
_SALT = np.random.default_rng(0x5EED).integers(
    0, 1 << 63, size=128, dtype=np.uint64) * np.uint64(2) + np.uint64(1)
_LEN = np.uint64(0xC2B2AE3D27D4EB4F)


def _ranges(lo, n):
    """``lo[i], lo[i] + 1, ..., lo[i] + n[i] - 1`` for every ``i``, in
    order."""
    ends = n.cumsum()
    return np.arange(ends[-1] if len(n) else 0) + (lo - ends + n).repeat(n)


def key_index(words, klens) -> np.ndarray:
    """The index key of keys given as 8-byte word columns ``words[c]``,
    zero past each key's length, and their lengths: a weighted sum of the
    words, mod 2**64.

    Equal keys get equal index keys; unequal ones rarely do (the weights
    are random and odd), and a lookup confirms every candidate with the
    word compare anyway.  A zero word adds nothing, so the entry side and
    the batch side need not pad to one width.
    """
    h = klens.astype(np.uint64) * _LEN
    for c, w in enumerate(words):
        h += w * _SALT[c]
    return h


def entry_words(ewords, wbase, klens, width: int) -> list:
    """The keys of entries ``r`` -- ``klens[r]`` bytes from word
    ``wbase[r]`` of ``ewords`` -- as :func:`key_index` takes them, as far
    as their first ``width`` words."""
    beyond = 64 - (klens << 3)  # the bits of a word past the key
    out = []
    for c in range(min(width, -(-int(klens.max(initial=0)) // 8))):
        bits = _ALL_ONES >> np.maximum(beyond, 0).view(np.uint64)
        out.append(ewords.take(wbase + c, mode="clip") & bits)
        beyond += 64
    return out


def _same_keys(ewords, wbase, klens, qwords, qlens, rep) -> np.ndarray:
    """Which of the pairs ``p`` -- the entry whose key is ``klens[p]``
    bytes from word ``wbase[p]`` of ``ewords``, the batch key ``rep[p]``
    (words ``qwords[rep[p]]``, length ``qlens[rep[p]]``) -- hold equal
    keys: lengths first, then every word."""
    same = klens == qlens[rep]
    words = entry_words(ewords, wbase, klens, qwords.shape[1])
    for w, q in zip(words, qwords.T):
        same &= w == q[rep]
    return same


class SuffixCache:
    """One table's bucket chains as far as they lie in stored segments,
    parsed once and kept between the in-stream lookups that read them
    (:meth:`match`; see the module docstring).

    The suffixes' nodes are rows of one pool (the ``_ADDR`` ... ``_BUCKET``
    columns).  A row's ``depth`` and ``tail`` are fixed while its suffix
    is, so however long the walk that joins the suffix, the row's walk
    position and charge are one subtraction away.  The pool is indexed by
    :func:`key_index`, computed once, when a row is added; among equal
    index keys the rows run in walk order, newest first.  A suffix is
    dropped (:meth:`sync`) as soon as a segment under it is stored again.
    """

    def __init__(self, heap, n_buckets: int, kind: str):
        self.heap = heap
        self.layout = _LAYOUTS[kind]
        #: per bucket, where its cached suffix begins, else NULL
        self.start = np.full(n_buckets, NULL, dtype=np.int64)
        self._first = np.zeros(n_buckets, dtype=np.int64)  # its first row
        self._cols = np.zeros((7, 1 << 14), dtype=np.int64)  # the pool
        self._n = self._garbage = 0  # rows taken, rows of no suffix
        #: the key index: one entry per live row, sorted
        self._index = np.zeros(0, dtype=np.uint64)
        #: per segment: the store version seen, and whether a row is on it
        self._seen = np.zeros(0, dtype=np.int64)
        self._spanned = np.zeros(0, dtype=bool)
        #: nodes walked, and (key, entry) pairs compared, by :meth:`match`
        self.parsed = self.compared = 0

    def index_rows(self, at=slice(None)) -> np.ndarray:
        """The pool rows of the key index's entries ``at``."""
        return _LAST_ROW - (self._index[at] & _ROWS).astype(np.int64)

    def rows(self) -> np.ndarray:
        """The live rows, grouped by bucket, each suffix in walk order."""
        cols = self._cols[:, : self._n]
        live = np.flatnonzero(cols[_BUCKET] >= 0)
        return live[np.lexsort((-cols[_DEPTH, live], cols[_BUCKET, live]))]

    def sync(self) -> None:
        """Drop every suffix over a segment whose store version moved
        since the last call."""
        versions = self.heap.versions
        n = len(versions)
        if n > len(self._seen):
            grow = 2 * n - len(self._seen)
            self._seen = np.append(self._seen, np.zeros(grow, np.int64))
            self._spanned = np.append(self._spanned, np.zeros(grow, bool))
        seen = self._seen[:n]
        moved = np.flatnonzero(versions != seen)
        if not len(moved):
            return
        seen[moved] = versions[moved]
        moved = moved[self._spanned[moved]]
        if not len(moved):
            return
        self._spanned[moved] = False
        hit = np.zeros(n, dtype=bool)
        hit[moved] = True
        cols = self._cols[:, : self._n]
        on = hit[cols[_ADDR] // self.heap.page_size] & (cols[_BUCKET] >= 0)
        self._forget(np.unique(cols[_BUCKET, on]))

    def _forget(self, buckets) -> None:
        """Take the suffixes of ``buckets`` out of the cache."""
        buckets = buckets[self.start[buckets] != NULL]
        if not len(buckets):
            return
        self.start[buckets] = NULL
        drop = np.zeros(len(self.start) + 1, dtype=bool)  # [-1]: no suffix
        drop[buckets] = True
        cols = self._cols[:, : self._n]
        gone = drop[cols[_BUCKET]]
        cols[_BUCKET, gone] = -1
        self._garbage += int(gone.sum())
        self._index = self._index[~gone[self.index_rows()]]
        if self._garbage > max(self._n - self._garbage, 1 << 12):
            live = np.flatnonzero(cols[_BUCKET] >= 0)
            renumber = np.zeros(self._n, dtype=np.int64)
            renumber[live] = np.arange(len(live))
            self._cols[:, : len(live)] = cols[:, live]
            self._n, self._garbage = len(live), 0
            self._index = (self._index & _KEYS) | (
                _LAST_ROW - renumber[self.index_rows()]).astype(np.uint64)
            has = self.start != NULL
            self._first[has] = renumber[self._first[has]]

    def _keep(self, buckets, cols, counts, below, ewords) -> None:
        """Cache walk ``i``'s ``counts[i]`` rows of chain-major ``cols``
        (addr, klen, vlen, flags) as bucket ``buckets[i]``'s suffix: in
        front of the suffix it has where ``below[i]`` (the walk reached
        that suffix's start), in place of it elsewhere."""
        replaced = ~below
        if replaced.any():
            self._forget(buckets[replaced])
        header = self.layout.header
        addr, klen = cols[0], cols[1]
        r, n = len(addr), self._n
        if n + r > _LAST_ROW:  # a pool of 15 GB
            raise OverflowError("a suffix cache holds at most 2**28 rows")
        if n + r > self._cols.shape[1]:
            grown = np.zeros((7, max(2 * self._cols.shape[1], n + r)),
                             dtype=np.int64)
            grown[:, :n] = self._cols[:, :n]
            self._cols = grown
        ends = counts.cumsum()
        begin = ends - counts
        owner = np.arange(len(counts)).repeat(counts)
        cost = header + klen
        c = cost.cumsum()
        # per walk: the nodes and the charge of the suffix it runs into
        first = self._first[buckets]
        depth = self._cols[_DEPTH][first] + 1
        tail = self._cols[_TAIL][first]
        depth[replaced] = tail[replaced] = 0
        # walk row i becomes pool row n + r - 1 - i: a suffix's newer rows
        # are the higher ones
        at = np.arange(r)
        rows = np.empty((7, r), dtype=np.int64)
        rows[:4] = cols
        rows[_DEPTH] = (ends - 1 + depth)[owner] - at
        rows[_TAIL] = (c[ends - 1] + tail)[owner] - c + cost
        rows[_BUCKET] = buckets[owner]
        self._cols[:, n : n + r] = rows[:, ::-1]
        self._n = n + r
        h = key_index(entry_words(
            ewords, (addr + header) >> 3, klen, self.heap.page_size >> 3), klen)
        index = np.concatenate((self._index, (h & _KEYS) | (
            at + _LAST_ROW - n - r + 1).astype(np.uint64)))
        index.sort(kind="stable")  # one merge: the old entries are a run
        self._index = index
        self.start[buckets] = addr[begin]
        self._first[buckets] = n + r - 1 - begin
        self._spanned[addr // self.heap.page_size] = True

    def match(self, image, heads, buckets, keys, key_lens) -> ChainMatches:
        """:func:`~repro.core.chainview.match_cpu_chains` of the same keys
        through ``image`` (the heap's
        :meth:`~repro.memalloc.heap.GpuHeap.image`), field for field: read
        from the cached suffixes and the nodes in front of them.

        ``buckets[g]`` is key ``g``'s bucket and ``heads[g]`` its chain
        head; the other arguments are :func:`match_cpu_chains`'.
        """
        heap, layout = self.heap, self.layout
        header, ps = layout.header, heap.page_size
        ewords = image.view(np.uint64)
        G = len(heads)
        self.sync()
        live, uniq, chain = _chains_of(heads)
        nc = len(uniq)
        bucket = np.empty(nc, dtype=np.int64)
        bucket[chain] = buckets[live]

        # every chain from its head to its bucket's suffix, which joins
        # it, or to its end; what lies on resident pages is read uncached
        # (``loose``): the resident prefix, and the whole walk where it
        # runs back into residency behind a stored node
        stop = self.start[bucket]
        joined = uniq == stop
        walk = np.flatnonzero(~joined)
        loose, loose_n = None, np.zeros(nc, dtype=np.int64)
        if len(walk):
            cols, cnt, (_, end) = _walk(
                image, uniq[walk], layout, None, 0, stop[walk])
            cols = [cols[0], *cols[2:]]
            self.parsed += len(cols[0])
            reached = (end == stop[walk]) & (end != NULL)
            joined[walk] = reached
            if heap.resident_bytes:
                on = heap.resident_slot_map()[cols[0] // ps] >= 0
                ends = cnt.cumsum()
                owner = np.arange(len(walk)).repeat(cnt)
                seen = (~on).cumsum()
                ahead = seen == (seen[ends - cnt] - ~on[ends - cnt])[owner]
                back = np.bincount(owner[on & ~ahead], minlength=len(walk)) > 0
                out = ahead | back[owner]
                if out.any():
                    loose = [c[out] for c in cols]
                    loose_n[walk] = np.bincount(owner[out],
                                                minlength=len(walk))
                    cols = [c[~out] for c in cols]
                    cnt = cnt - loose_n[walk]
                    kept = ~back & (cnt > 0)
                    self._forget(bucket[walk[~kept & ~reached]])
                    walk, cnt, reached = (
                        x[kept] for x in (walk, cnt, reached))
            self._keep(bucket[walk], cols, cnt, reached, ewords)
            joined[walk] = True

        # per chain: its loose nodes, then the suffix it joins; a suffix
        # row's walk position and charge are ``base_n - depth`` and
        # ``base_b - tail`` plus its own cost
        first = self._first[bucket]
        base_n = np.where(joined, self._cols[_DEPTH][first], -1)
        base_b = np.where(joined, self._cols[_TAIL][first], 0)
        found = []
        if loose is not None and len(loose[0]):
            laddr, lklen = loose[0], loose[1]
            lc = np.concatenate(([0], (header + lklen).cumsum()))
            lstart = loose_n.cumsum() - loose_n
            base_n += loose_n
            base_b += lc[lstart + loose_n] - lc[lstart]
            has = loose_n[chain] > 0
            sel, csel = live[has], chain[has]
            npairs = loose_n[csel]
            self.compared += int(npairs.sum())
            k, at, row = _match_pairs(
                ewords, (laddr + header) >> 3, lklen, lstart[csel], npairs,
                _key_words(keys[sel], key_lens[sel]), key_lens[sel])
            found.append((sel[k], at, lc[row + 1] - lc[lstart[csel[k]]],
                          laddr[row], lklen[row], loose[2][row],
                          loose[3][row]))
        n_chain = np.zeros(G, dtype=np.int64)
        chain_bytes = np.zeros(G, dtype=np.int64)
        n_chain[live] = base_n[chain] + 1
        chain_bytes[live] = base_b[chain]

        # the suffixes, through the key index
        j = joined[chain]
        q, qc = live[j], chain[j]
        qwords, qlens = _key_words(keys[q], key_lens[q]), key_lens[q]
        h = key_index(qwords.T, qlens) & _KEYS
        lo = self._index.searchsorted(h)
        cnt = self._index.searchsorted(h | _ROWS, "right") - lo
        self.compared += int(cnt.sum())
        rep = np.arange(len(q)).repeat(cnt)
        rows = self.index_rows(_ranges(lo, cnt))
        addr, klen = self._cols[_ADDR][rows], self._cols[_KLEN][rows]
        same = _same_keys(ewords, (addr + header) >> 3, klen, qwords, qlens,
                          rep)
        rows, rep = rows[same], rep[same]
        ch = qc[rep]
        klen = klen[same]
        found.append((
            q[rep], base_n[ch] - self._cols[_DEPTH][rows],
            base_b[ch] - self._cols[_TAIL][rows] + header + klen,
            addr[same], klen, self._cols[_VLEN][rows],
            self._cols[_FLAGS][rows],
        ))
        if len(found) == 1:
            key, at, cum, addr, klen, vlen, flags = found[0]
        else:  # by key, its loose matches first
            key, at, cum, addr, klen, vlen, flags = map(
                np.concatenate, zip(*found))
            order = key.argsort(kind="stable")
            key, at, cum, addr, klen, vlen, flags = (
                col[order] for col in (key, at, cum, addr, klen, vlen, flags))
        return ChainMatches(
            n_chain, chain_bytes, np.full(G, -1, dtype=np.int64),
            np.full(G, NULL, dtype=np.int64), key, at, cum, addr, addr,
            addr + header + klen, vlen, flags,
        )

