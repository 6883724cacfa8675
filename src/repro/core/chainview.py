"""Struct-of-arrays views over bucket chains.

A bucket chain is a linked list, so a single walk is inherently
sequential; the vectorization win comes from walking *many* chains at
once.  One walker (:func:`_walk`) advances every requested chain
level-synchronously: one gather steps all still-live walks to their
``next_cpu`` together, and the nodes' other header words are gathered once
at the end.  Per-entry Python work -- ``divmod``, a dict probe, a
``struct.unpack_from`` and two ``bytes`` copies per chain step -- becomes
a handful of numpy operations per chain *level*, shared by every chain
still alive at that depth; the few chains far longer than the rest finish
one node at a time.  The walker serves two address translations:

* :func:`materialize_chains` reads *resident* chains out of the GPU arena
  under the residency map, and a walk blocks where its chain leaves it;
* :func:`walk_cpu_image` reads the *finished* table out of the flat
  CPU-side image, where a CPU address is the byte offset and nothing
  blocks (``GpuHashTable.result``).

A parse returns a :class:`ChainBlock`: chain-major flat arrays of addresses,
byte positions, key/value lengths, mutation flags and walk-charge
cumsums, and per chain the (segment, address) where its walk left
residency.  There is no key matrix in a parse: the keys stay where they
lie, and the one key matcher (:func:`_match_keys`) reads them as 8-byte
words straight out of the arena / CPU image, for the (key, entry) pairs
that survive the key-length compare only (``ChainBlock.keys`` builds the
zero-padded matrix when somebody asks -- the sanitizer's cross-check,
``ChainSoA.key_bytes``).  Every
batched reader -- the insert and mixed-op kernels and the lookup driver's
pass -- hands all its keys at once to that matcher and gets back a
:class:`ChainMatches`: every same-key entry of every key's chain.
:func:`match_resident_chains` reads the *resident* prefixes (one SEPO
lookup pass: what is not matched there and runs on into evicted memory
is postponed at ``blocked_seg``), :func:`resolve_keys` keeps each key's
first such match -- what a scalar write-side walk would have found and
been charged -- and :func:`match_cpu_chains` matches the *whole* chain,
read through the CPU-side image -- what an in-stream lookup visits.

:class:`ChainViewStore` caches per-chain :class:`ChainSoA` views under a
stamp of two heap counters: ``residency_epoch`` (any page moving in or
out of the arena relocates bytes) and ``write_epoch`` (any in-place
entry write -- tombstones, combines, splices -- goes through
``GpuHeap.note_write``, which the integrity layer already requires of
every such path).  Entry *allocation* never invalidates a view: new
entries are only ever prepended, so a cached view keyed by its start
address stays byte-accurate and simply becomes a suffix.  No reader in
the library goes through the store (see its docstring).
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Callable, NamedTuple

import numpy as np

from repro.core import entries as E
from repro.memalloc.address import NULL

__all__ = [
    "ChainBlock",
    "ChainSoA",
    "ChainViewStore",
    "ChainMatches",
    "KeyResolve",
    "match_cpu_chains",
    "match_resident_chains",
    "materialize_chains",
    "newest_matches",
    "resolve_keys",
    "walk_cpu_image",
    "walk_resident",
]

#: generic-entry flag bits live above GKLEN_MASK in the klen word
_GFLAG_BITS = ~np.int64(E.GKLEN_MASK)

#: (batch key, resident entry) pairs :func:`resolve_keys` expands at a
#: time; bounds its pair arrays however many keys share one long chain
_RESOLVE_PAIRS = 1 << 18

#: a whole 8-byte key word; shifted right it cuts a key's last word at the
#: key's length (little-endian: the key's bytes are the low ones)
_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

#: live walks a level-synchronous round needs to beat the per-node loop:
#: a round is 5 (image) to 10 (arena) numpy dispatches whatever its
#: width, a loop step well under a microsecond
_ROUND_MIN_LIVE = 32


class ChainSoA:
    """One chain's resident prefix, parsed into flat arrays (walk order:
    index 0 is the entry at the start address, i.e. newest first)."""

    __slots__ = (
        "head", "arena", "addrs", "pos", "klens", "vlens", "flags",
        "costs", "cum", "_keys", "blocked",
    )

    def __init__(self, head, arena, addrs, pos, klens, vlens, flags,
                 costs, cum, keys, blocked):
        self.head = head  # cpu address the walk started from
        self.arena = arena  # the heap arena (uint8); pos indexes into it
        self.addrs = addrs  # cpu address per entry
        self.pos = pos  # absolute arena byte position per entry
        self.klens = klens
        self.vlens = vlens  # zeros for key-entry chains
        self.flags = flags  # raw mutation-flag bits per entry
        self.costs = costs  # bytes a walk is charged for visiting
        self.cum = cum  # inclusive prefix sums of costs, walk order
        self._keys = keys  # the key matrix, or what builds it when asked
        #: (segment, address) where the walk left residency, else None
        self.blocked = blocked

    @property
    def n(self) -> int:
        return len(self.addrs)

    @property
    def keys(self) -> np.ndarray:
        """(n, width) zero-padded key bytes."""
        if callable(self._keys):
            self._keys = self._keys()
        return self._keys

    def key_bytes(self, w: int, blob: bytes | None = None) -> bytes:
        """Key bytes of entry ``w``; pass ``self.keys.tobytes()`` as
        ``blob`` when extracting many keys to skip per-row views."""
        width = self.keys.shape[1]
        if blob is None:
            return bytes(self.keys[w, : self.klens[w]])
        start = w * width
        return blob[start : start + int(self.klens[w])]


class ChainBlock(Mapping):
    """Everything one :func:`materialize_chains` call parsed.

    The flat arrays are chain-major: chain ``i`` (the one starting at
    ``heads[i]``) owns rows ``starts[i]:starts[i + 1]`` in walk order.  As
    a mapping it is ``head -> ChainSoA``, each view a zero-copy slice built
    when asked for, so bulk consumers never pay per-chain Python.  The
    keys are not copied out of ``arena``: row ``r``'s lie at
    ``pos[r] + header``, and :attr:`keys` gathers them when asked.
    """

    def __init__(self, heads, arena, header, starts, addrs, pos, klens,
                 vlens, flags, costs, cum, blocked):
        self.heads = heads  # distinct non-NULL start addresses (int64)
        self.arena = arena
        self.header = header  # bytes in front of every entry's key
        self.starts = starts  # (len(heads) + 1,) row bounds per chain
        self.addrs = addrs
        self.pos = pos
        self.klens = klens
        self.vlens = vlens
        self.flags = flags
        self.costs = costs
        self.cum = cum  # inclusive, restarting at every chain
        #: per chain: the (segment, address) where its walk left
        #: residency, ``(-1, NULL)`` for a chain that is resident to its end
        self.blocked_seg, self.blocked_addr = blocked
        self._keys: np.ndarray | None = None  # built when asked
        self._index: dict | None = None  # head -> chain, built when asked

    @property
    def keys(self) -> np.ndarray:
        """One zero-padded (rows, longest key) matrix of every entry's key
        bytes, gathered byte by byte (any alignment) on first use."""
        if self._keys is None:
            klens = self.klens
            width = int(klens.max()) if len(klens) else 0
            # clamped so short keys never index past the arena end
            cols = np.arange(width, dtype=np.int64)
            valid = cols[None, :] < klens[:, None]
            at = np.where(valid, (self.pos + self.header)[:, None] + cols, 0)
            self._keys = np.where(valid, self.arena[at], np.uint8(0))
        return self._keys

    def __len__(self) -> int:
        return len(self.heads)

    def __iter__(self):
        return iter(self.heads.tolist())

    def __getitem__(self, head: int) -> ChainSoA:
        if self._index is None:
            self._index = {h: i for i, h in enumerate(self.heads.tolist())}
        i = self._index[head]
        a, b = int(self.starts[i]), int(self.starts[i + 1])
        seg = int(self.blocked_seg[i])
        return ChainSoA(
            head, self.arena, self.addrs[a:b], self.pos[a:b],
            self.klens[a:b], self.vlens[a:b], self.flags[a:b],
            self.costs[a:b], self.cum[a:b], lambda: self.keys[a:b],
            (seg, int(self.blocked_addr[i])) if seg >= 0 else None,
        )


class _Layout(NamedTuple):
    """How the walker reads one kind of linked node.

    Every kind keeps ``next_cpu`` at byte 8 and two u32 fields side by
    side in one 8-aligned word further in; the walker gathers that word
    once, splits it into raw ``(u, v)`` columns (``u`` the low half) and
    :attr:`decode` turns those into ``(klen, vlen, flags)``.
    """

    header: int  # bytes in front of the node's payload
    word: int  # int64 index, from the node start, of the (u, v) word
    decode: Callable


def _zeros(col):
    return np.zeros(len(col), dtype=np.int64)


_LAYOUTS = {
    # u = klen word (flags in its top bits), v = vlen
    "generic": _Layout(
        E.ENTRY_HEADER, 2,
        lambda u, v: (u & np.int64(E.GKLEN_MASK), v, u & _GFLAG_BITS),
    ),
    # multi-valued key entries: u = klen, v = flags
    "key": _Layout(E.KEY_ENTRY_HEADER, 4, lambda u, v: (u, _zeros(u), v)),
    # value nodes: u = vlen, v = pad
    "value": _Layout(
        E.VALUE_NODE_HEADER, 2, lambda u, v: (_zeros(u), u, _zeros(u))
    ),
}

#: the low half of an int64 word
_U32 = np.int64(0xFFFFFFFF)

#: the offset-table entry of a segment that is not resident: any address
#: plus it is negative, so one sign test tells a walk it has left the arena
_ABSENT = np.int64(-1 << 62)


def _walk(buf, heads, layout, offset, page_size):
    """The level-synchronous walker behind every bulk chain read.

    Walks the linked nodes starting at each of ``heads`` (``NULL`` heads
    are empty chains) through ``buf``, a uint8 array, under one of two
    address translations.  With ``offset`` -- per segment, what a CPU
    address in it adds to become its byte position in ``buf``, or
    :data:`_ABSENT` where the segment is not mapped -- a walk *blocks*
    where it leaves the mapped segments (the GPU arena under the residency
    map).  With ``offset=None`` a CPU address *is* the byte offset (the
    flat CPU-side image) and no walk can block.  Either way only the
    addresses are kept and scattered: through the image they are the
    positions too, in the arena the positions are translated from them
    once more, all together, at the end.

    One round steps every live walk to its next node: a resident round
    translates with a floor-divide, a gather, an add and a sign test, then
    steps with a shift, a gather, a test and two compressions; an image
    round only steps.  That pays only while many walks are live: under
    :data:`_ROUND_MIN_LIVE` the few long ones finish one node at a time.
    Either way only the pointers are chased; the nodes' other fields are
    gathered once, for all of them, at the end.

    Returns ``(addr, pos, klen, vlen, flags)`` columns in chain-major
    walk order, the per-chain node counts, and per chain the ``(segment,
    address)`` arrays of where its walk blocked (``-1`` / ``NULL`` for the
    walks that did not).
    """
    heads = np.asarray(heads, dtype=np.int64)
    nc = len(heads)
    image = offset is None
    nxt64 = buf.view(np.int64)[1:]  # a node's next_cpu: nxt64[pos >> 3]
    ci = (heads != NULL).nonzero()[0]
    cur = heads[ci]
    blocked = np.full(nc, -1, dtype=np.int64), np.full(nc, NULL, dtype=np.int64)
    # per round, then the tail: the walks stepped and their addresses
    walks: list[np.ndarray] = []
    addrs: list[np.ndarray] = []
    while len(cur) >= _ROUND_MIN_LIVE:
        pos = cur
        if not image:
            seg = cur // page_size
            pos = cur + offset[seg]
            dead = pos < 0
            if dead.any():
                blocked[0][ci[dead]] = seg[dead]
                blocked[1][ci[dead]] = cur[dead]
                live = ~dead
                ci, cur, pos = ci[live], cur[live], pos[live]
        walks.append(ci)
        addrs.append(cur)
        nxt = nxt64[pos >> 3]
        alive = nxt != NULL
        ci, cur = ci[alive], nxt[alive]
    rounds = len(walks)
    rank = np.arange(rounds).repeat([len(w) for w in walks])

    if len(cur):
        # the few long walks, node by node: one list of addresses
        step = memoryview(nxt64)
        t_addr: list[int] = []
        append = t_addr.append
        lens = []
        if image:
            for addr in cur.tolist():
                before = len(t_addr)
                while addr != NULL:
                    append(addr)
                    addr = step[addr >> 3]
                lens.append(len(t_addr) - before)
        else:
            off = offset.tolist()
            for c, addr in zip(ci.tolist(), cur.tolist()):
                before = len(t_addr)
                while addr != NULL:
                    seg = addr // page_size
                    pos = addr + off[seg]
                    if pos < 0:
                        blocked[0][c], blocked[1][c] = seg, addr
                        break
                    append(addr)
                    addr = step[pos >> 3]
                lens.append(len(t_addr) - before)
        # a tail node's rank: the rounds, then its place in its chain's run
        first = np.cumsum(lens) - lens
        rank = np.concatenate((
            rank, rounds + np.arange(len(t_addr)) - first.repeat(lens)
        ))
        walks.append(ci.repeat(lens))
        addrs.append(np.array(t_addr, dtype=np.int64))

    if not walks:
        empty = np.zeros(0, dtype=np.int64)
        return (empty,) * 5, np.zeros(nc, dtype=np.int64), blocked
    ci_all = np.concatenate(walks)
    counts = np.bincount(ci_all, minlength=nc)
    # chain-major reassembly: a node's row is its chain's first row plus
    # its rank in the walk
    dest = (counts.cumsum() - counts)[ci_all] + rank
    addr_s = np.empty(len(dest), dtype=np.int64)
    addr_s[dest] = np.concatenate(addrs)
    pos_s = addr_s if image else addr_s + offset[addr_s // page_size]
    uv = buf.view(np.int64)[layout.word:][pos_s >> 3]
    fields = layout.decode(uv & _U32, (uv >> 32) & _U32)
    return (addr_s, pos_s, *fields), counts, blocked


def _materialize_scalar(heap, head, kind, header, arena) -> ChainSoA:
    """Per-entry walk producing the same ChainSoA as the bulk path: the
    sanitizer's independent reference parse."""
    page_size = heap.page_size
    addr = head
    addrs, pos, klens, vlens, flags = [], [], [], [], []
    blocked = None
    while addr != NULL:
        seg, off = divmod(addr, page_size)
        page = heap.resident_page(seg)
        if page is None:
            blocked = (seg, addr)
            break
        buf = heap.pool.slot_view(page.slot)
        if kind == "generic":
            _, next_cpu, kl, vl = E.read_entry_header(buf, off)
            fl = E.entry_flags(buf, off)
        else:
            hdr = E.read_key_entry_header(buf, off)
            next_cpu, kl, fl = hdr[1], hdr[4], hdr[5]
            vl = 0
        addrs.append(addr)
        pos.append(page.slot * page_size + off)
        klens.append(kl)
        vlens.append(vl)
        flags.append(fl)
        addr = next_cpu
    klen_a = np.array(klens, dtype=np.int64)
    costs = header + klen_a
    keymat = np.zeros((len(addrs), max(klens, default=0)), dtype=np.uint8)
    for w, (p, kl) in enumerate(zip(pos, klens)):
        keymat[w, :kl] = arena[p + header : p + header + kl]
    return ChainSoA(
        head, arena, np.array(addrs, dtype=np.int64),
        np.array(pos, dtype=np.int64), klen_a,
        np.array(vlens, dtype=np.int64), np.array(flags, dtype=np.int64),
        costs, costs.cumsum(), keymat, blocked,
    )


def _assemble(
    heads, arena, header, addr_s, pos_s, klen_s, vlen_s, flags_s, counts,
    blocked,
) -> ChainBlock:
    """Shared tail of both parse paths: chain-major header columns ->
    :class:`ChainBlock` with walk costs.

    Inputs must already be chain-major (chain ``i``'s entries contiguous,
    in walk order, ``counts[i]`` long).
    """
    costs_s = header + klen_s
    starts = np.concatenate(([0], counts.cumsum()))

    # inclusive per-chain cumsum: global cumsum minus each chain's base
    c = costs_s.cumsum()
    excl = np.concatenate(([0], c))
    cum_s = c - excl[starts[:-1]].repeat(counts)
    return ChainBlock(
        heads, arena, header, starts, addr_s, pos_s, klen_s, vlen_s,
        flags_s, costs_s, cum_s, blocked,
    )


def materialize_chains(heap, heads, kind: str = "generic") -> ChainBlock:
    """Bulk-parse the resident chain prefixes starting at ``heads``.

    ``kind`` selects the entry layout (``"generic"`` for the basic and
    combining methods, ``"key"`` for multi-valued key entries); the walk
    itself is layout-agnostic.  This is the only chain parser: every
    reader of resident chains outside the scalar oracle loops goes through
    the block it returns.

    ``heads`` is any iterable of start addresses, duplicates and ``NULL``
    dropped here -- or an int64 array, which is the resolver's
    (:func:`_chains_of` made it distinct and ``NULL``-free) and is taken
    as it is.
    """
    if kind not in ("generic", "key"):
        raise ValueError(f"unknown chain kind {kind!r}")
    layout = _LAYOUTS[kind]
    header = layout.header
    if not (isinstance(heads, np.ndarray) and heads.dtype == np.int64):
        heads = np.array(
            [h for h in dict.fromkeys(map(int, heads)) if h != NULL],
            dtype=np.int64,
        )
    cols, counts, blocked = walk_resident(heap, heads, kind)
    return _assemble(heads, heap.pool.arena, header, *cols, counts, blocked)


def walk_resident(heap, heads, kind: str):
    """:func:`_walk` through the GPU arena under the residency map, one
    walk per head (``"value"`` heads are multi-valued value lists); a walk
    blocks where its chain leaves the resident segments."""
    ps = heap.page_size
    slot = heap.resident_slot_map()
    # per segment: slot * page_size - seg * page_size, the sentinel if absent
    offset = np.where(
        slot < 0, _ABSENT, (slot - np.arange(len(slot))) * ps
    )
    return _walk(heap.pool.arena, heads, _LAYOUTS[kind], offset, ps)


def walk_cpu_image(image: np.ndarray, heads, kind: str):
    """Walk chains through the flat CPU-side image
    (:meth:`repro.memalloc.heap.GpuHeap.cpu_image`), where a CPU address
    is the byte offset and nothing is ever non-resident.

    ``kind`` is ``"generic"``, ``"key"`` or ``"value"`` (a multi-valued
    key's value list).  Returns chain-major ``(pos, klen, vlen, flags)``
    columns and the per-head node counts; the gathers are unchecked, so
    the image must come from a heap this process built or verified.
    """
    cols, counts, _ = _walk(image, heads, _LAYOUTS[kind], None, 0)
    return cols[1:], counts


def _as_words(mat: np.ndarray) -> np.ndarray:
    """A uint8 matrix as uint64 words, rows zero-padded to 8 bytes."""
    n, w = mat.shape
    out = np.zeros((n, -(-w // 8) * 8), dtype=np.uint8)
    out[:, :w] = mat
    return out.view(np.uint64)


class KeyResolve(NamedTuple):
    """What a scalar walk would find for each of G keys: (G,) arrays.

    A walk that misses visits ``n_resident`` entries and is charged
    ``walk_bytes``; one that hits stops at walk position ``hit`` (0 is the
    chain head) -- the newest same-key entry, *live or dead* -- having
    been charged ``hit_bytes``.  Keys whose chain is empty, non-resident
    at the head, or simply does not hold them have ``hit == -1`` and
    ``hit_pos == hit_addr == NULL``; ``blocked`` then tells a proven
    absence from a miss against a chain that runs on into evicted memory.
    """

    n_resident: np.ndarray  # resident prefix length of the key's chain
    walk_bytes: np.ndarray  # charge of walking that whole prefix
    hit: np.ndarray  # walk position of the newest same-key entry, or -1
    hit_bytes: np.ndarray  # charge of the walk that stops there
    hit_pos: np.ndarray  # arena byte position of the hit entry
    hit_addr: np.ndarray  # its cpu address
    hit_flags: np.ndarray  # its raw mutation-flag bits (0 without a hit)
    hit_vlen: np.ndarray  # its value length (0 without a hit)
    blocked: np.ndarray  # bool: the resident prefix ends at evicted memory


def _chains_of(heads):
    """``(live, uniq, chain)``: the keys whose bucket is not empty, the
    distinct chain heads among them, and each live key's index into those
    (many keys share a chain)."""
    live = (heads != NULL).nonzero()[0]
    h = heads[live]
    order = np.argsort(h)
    hs = h[order]
    first = np.ones(len(hs), dtype=bool)
    np.not_equal(hs[1:], hs[:-1], out=first[1:])
    chain = np.empty(len(h), dtype=np.int64)
    chain[order] = first.cumsum() - 1
    return live, hs[first], chain


def _match_keys(block, first_row, npairs, keys, key_lens):
    """The one key matcher: every (key, entry) pair with equal key bytes.

    Key ``k`` is compared with the ``npairs[k]`` entries of ``block``
    starting at row ``first_row[k]`` (its chain, in walk order).  Pairs
    are expanded :data:`_RESOLVE_PAIRS` at a time and narrowed on key
    length first -- what the scalar walk compares first, so embedded and
    trailing NULs cannot alias a shorter key -- then one 8-byte word at a
    time, the entry's read where it lies: word ``c`` of row ``r``'s key is
    ``arena`` word ``(pos[r] + header >> 3) + c`` (entries and headers
    are 8-aligned).  A key's last word comes first and is cut past the
    key's length on the entry's side (the bytes behind a key are its
    value): keys that share their leading words are common, keys that
    share their trailing ones are not, so the whole words in front are
    read for little more than the true matches.  Returns
    ``(k, within, row)`` of the matching pairs, ordered by key and then
    walk position: a key's first pair is its newest same-key entry (what
    :func:`resolve_keys` keeps), all of them are what a lookup reads.
    """
    # the batch side: zeroed past each key's length and packed into words
    qkeys = keys.copy()
    qkeys[np.arange(keys.shape[1]) >= key_lens[:, None]] = 0
    qwords = _as_words(qkeys)
    # the entry side: word ``c`` of row ``r``'s key is ``ewords[wbase[r] + c]``
    ewords = block.arena.view(np.uint64)
    wbase = (block.pos + block.header) >> 3
    cp = npairs.cumsum()
    found: list[tuple] = []
    lo = 0
    while lo < len(npairs):
        budget = (cp[lo - 1] if lo else 0) + _RESOLVE_PAIRS
        hi = max(lo + 1, int(np.searchsorted(cp, budget, side="right")))
        cnt = npairs[lo:hi]
        # pair p = (key rep[p], walk position within[p])
        rep = np.arange(lo, hi).repeat(cnt)
        within = np.arange(int(cnt.sum())) - np.repeat(
            np.cumsum(cnt) - cnt, cnt
        )
        row = first_row[rep] + within

        def narrow(cand, last, act, col, cut):
            """Drop the pairs of ``cand[act]`` whose word ``col`` differs."""
            a = cand[act]
            ok = np.ones(len(cand), dtype=bool)
            ok[act] = (ewords[wbase[row[a]] + col] & cut) == qwords[rep[a], col]
            return cand[ok], last[ok]

        cand = (block.klens[row] == key_lens[rep]).nonzero()[0]
        n = key_lens[rep[cand]]
        last = (n - 1) >> 3  # a key's last word; -1: empty, equal on length
        act = last >= 0
        tail = last[act]
        cut = _ALL_ONES >> ((((tail + 1) << 3) - n[act]) << 3).astype(np.uint64)
        cand, last = narrow(cand, last, act, tail, cut)
        for c in range(int(last.max(initial=0))):
            cand, last = narrow(cand, last, last > c, c, _ALL_ONES)
        found.append((rep[cand], within[cand], row[cand]))
        lo = hi
    if len(found) == 1:
        return found[0]
    if not found:
        return (np.zeros(0, dtype=np.int64),) * 3
    return tuple(np.concatenate(col) for col in zip(*found))


class ChainMatches(NamedTuple):
    """Every same-key entry of G keys' chains.

    Per key: ``n_chain`` entries were visited (the chain's resident
    prefix, or all of it through the CPU-side image), walking all of them
    is charged ``chain_bytes``, and the walk left residency at
    ``(blocked_seg, blocked_addr)`` -- ``(-1, NULL)`` when the chain ended
    first.  The remaining columns are per matching entry, ordered by key
    and then walk position (newest first).
    """

    n_chain: np.ndarray
    chain_bytes: np.ndarray
    blocked_seg: np.ndarray
    blocked_addr: np.ndarray
    key: np.ndarray  # index of the key the entry matches
    at: np.ndarray  # its walk position in the key's chain
    cum: np.ndarray  # charge of the walk up to and including it
    pos: np.ndarray  # its byte position in the arena / image
    addr: np.ndarray  # its cpu address
    vpos: np.ndarray  # byte position of a generic entry's value
    vlen: np.ndarray
    flags: np.ndarray


def newest_matches(key: np.ndarray) -> np.ndarray:
    """Index of every key's first (newest) entry in a
    :attr:`ChainMatches.key` column, or any filtered subset of one."""
    first = np.ones(len(key), dtype=bool)
    np.not_equal(key[1:], key[:-1], out=first[1:])
    return first.nonzero()[0]


def _match_chains(parse, header, heads, keys, key_lens) -> ChainMatches:
    """The one resolver: ``parse`` every distinct chain among ``heads``
    once into a :class:`ChainBlock`, then :func:`_match_keys`."""
    heads = np.asarray(heads, dtype=np.int64)
    key_lens = np.asarray(key_lens, dtype=np.int64)
    G = len(heads)
    n_chain = np.zeros(G, dtype=np.int64)
    chain_bytes = np.zeros(G, dtype=np.int64)
    blocked_seg = np.full(G, -1, dtype=np.int64)
    blocked_addr = np.full(G, NULL, dtype=np.int64)
    live, uniq, chain = _chains_of(heads)
    sel = live
    if len(live):
        block = parse(uniq)
        n_chain[live] = np.diff(block.starts)[chain]
        blocked_seg[live] = block.blocked_seg[chain]
        blocked_addr[live] = block.blocked_addr[chain]
        walkable = n_chain[live] > 0
        sel = live[walkable]  # keys with something to walk, ascending
    if not len(sel):
        none = np.zeros(0, dtype=np.int64)
        return ChainMatches(
            n_chain, chain_bytes, blocked_seg, blocked_addr, *(none,) * 8
        )
    first_row = block.starts[chain[walkable]]
    npairs = n_chain[sel]
    chain_bytes[sel] = block.cum[first_row + npairs - 1]
    k, within, row = _match_keys(
        block, first_row, npairs, keys[sel], key_lens[sel]
    )
    pos = block.pos[row]
    return ChainMatches(
        n_chain, chain_bytes, blocked_seg, blocked_addr, sel[k], within,
        block.cum[row], pos, block.addrs[row],
        pos + header + block.klens[row], block.vlens[row], block.flags[row],
    )


def match_resident_chains(heap, heads, kind, keys, key_lens) -> ChainMatches:
    """All-match resolve of a batch of keys against resident chains.

    ``heads[g]`` is where key ``g``'s walk starts (``NULL`` for an empty
    bucket; many keys may share one), ``keys`` the zero-padded (G, width)
    key matrix and ``key_lens`` the exact lengths.  Every distinct chain
    is parsed once by :func:`materialize_chains`.  With nothing resident
    -- a call after a boundary that evicted everything -- every walk
    blocks at its head and nothing is parsed.
    """
    if not heap.resident_bytes:
        heads = np.asarray(heads, dtype=np.int64)
        live = heads != NULL
        none = np.zeros(0, dtype=np.int64)
        return ChainMatches(
            np.zeros(len(heads), dtype=np.int64),
            np.zeros(len(heads), dtype=np.int64),
            np.where(live, heads // heap.page_size, -1),
            np.where(live, heads, NULL), *(none,) * 8,
        )
    return _match_chains(
        lambda uniq: materialize_chains(heap, uniq, kind),
        _LAYOUTS[kind].header, heads, keys, key_lens,
    )


def resolve_keys(heap, heads, kind, keys, key_lens) -> KeyResolve:
    """First-match resolve: each key's newest same-key entry among
    :func:`match_resident_chains`' (same arguments)."""
    cm = match_resident_chains(heap, heads, kind, keys, key_lens)
    G = len(cm.n_chain)
    # per key: hit, hit_bytes, hit_pos, hit_addr, hit_flags, hit_vlen
    cols = np.zeros((6, G), dtype=np.int64)
    cols[0] = -1
    cols[2:4] = NULL
    if len(cm.key):
        newest = newest_matches(cm.key)
        cols[:, cm.key[newest]] = (
            cm.at[newest], cm.cum[newest], cm.pos[newest], cm.addr[newest],
            cm.flags[newest], cm.vlen[newest],
        )
    return KeyResolve(
        cm.n_chain, cm.chain_bytes, *cols, cm.blocked_seg >= 0,
    )


def match_cpu_chains(image, heads, kind, keys, key_lens) -> ChainMatches:
    """All-match resolve of a batch of keys against whole chains, read
    through the flat CPU-side image (see :func:`walk_cpu_image`): what an
    in-stream lookup of each key visits, evicted entries included.
    Arguments as for :func:`match_resident_chains`.
    """
    layout = _LAYOUTS[kind]

    def parse(uniq):
        cols, counts, blocked = _walk(image, uniq, layout, None, 0)
        return _assemble(uniq, image, layout.header, *cols, counts, blocked)

    return _match_chains(parse, layout.header, heads, keys, key_lens)


class ChainViewStore:
    """Cache of :class:`ChainSoA` views, invalidated by heap epochs.

    The stamp pairs ``residency_epoch`` (pages moved) with
    ``write_epoch`` (in-place entry writes); either advancing drops every
    cached view.  No reader in the library goes through it: the write
    kernels write between batches, and a lookup that postpones pages
    segments in between passes -- every ``page_in`` bumps
    ``residency_epoch`` -- so neither could ever be served a cached view
    and both parse fresh.  What remains is the sanitizer's cross-check of
    whatever a caller put here (``_check_chain_views``) and the trace
    point the benchmark of record names.
    """

    def __init__(self, heap):
        self.heap = heap
        self._views: dict[tuple[str, int], ChainSoA] = {}
        self._stamp: tuple[int, int] | None = None

    def get_many(self, heads, kind: str = "generic") -> dict[int, ChainSoA]:
        heap = self.heap
        stamp = (heap.residency_epoch, heap.write_epoch)
        if stamp != self._stamp:
            self._views.clear()
            self._stamp = stamp
        heads = [int(h) for h in heads if h != NULL]
        missing = [h for h in heads if (kind, h) not in self._views]
        if missing:
            for h, v in materialize_chains(heap, missing, kind).items():
                self._views[(kind, h)] = v
        return {h: self._views[(kind, h)] for h in heads}
