"""Struct-of-arrays chain views: materializer parity, cache invalidation.

The :class:`~repro.core.chainview.ChainViewStore` keeps the parsed chain
views a caller fetches through it, stamped against
``(heap.residency_epoch, heap.write_epoch)`` (no reader in the library
does: a lookup pass parses fresh).  These tests pin down the
invalidation contract -- any in-place write or residency change must
retire every cached view -- and the stale-view detector the paranoid
sanitizer runs (bulk vs scalar vs cached, field by field).
"""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BasicOrganization,
    CombiningOrganization,
    GpuHashTable,
    MultiValuedOrganization,
    MutationBatch,
    OP_DELETE,
    OP_INSERT,
    OP_UPDATE,
    RecordBatch,
    SepoDriver,
    SUM_I64,
)
from repro.core import chainview, entries as E
from repro.core.chainview import (
    ChainViewStore,
    match_cpu_chains,
    match_resident_chains,
    materialize_chains,
    resolve_keys,
)
from repro.core.lookup import LookupDriver
from repro.core.records import pack_byte_rows
from repro.gpusim import CostLedger, GTX_780TI, KernelModel, PCIeBus
from repro.memalloc import GpuHeap
from repro.memalloc.address import NULL
from repro.sanitize import SanitizerError, check_table
from tests.core.conftest import replaced


def build(org=None, heap_bytes=1 << 16, page_size=4096, n_buckets=16):
    ledger = CostLedger()
    heap = GpuHeap(heap_bytes, page_size)
    table = GpuHashTable(
        n_buckets, org or BasicOrganization(), heap, group_size=8,
        ledger=ledger,
    )
    kernel = KernelModel(GTX_780TI, ledger)
    bus = PCIeBus(ledger)
    return table, SepoDriver(table, kernel, bus), LookupDriver(table, kernel, bus)


def insert(table, driver, pairs):
    driver.run([RecordBatch.from_pairs(pairs)])


def page_in_all(table):
    """Bring every evicted segment back (SepoDriver evicts at end of run)."""
    for seg in list(table.heap._store):
        assert table.heap.page_in(seg) is not None


KEYS = [b"cv-key-%03d" % i for i in range(40)]
PAIRS = [(k, b"val-%03d" % i) for i, k in enumerate(KEYS)]

#: resident keys a zero-padded row compare could confuse: a prefix of other
#: keys, the empty key, embedded and trailing NULs
EDGE_KEYS = [b"cv-key", b"", b"nul", b"nul\x00", b"nul\x00\x00", b"nul\x00mid"]
EDGE_PAIRS = [(k, b"edge-%d" % i) for i, k in enumerate(EDGE_KEYS)]
#: absent keys: a prefix of resident keys, a resident key plus a byte, equal
#: length but different bytes, and one longer than every resident key (the
#: batch key matrix is then wider than the resident one)
ABSENT_KEYS = [
    b"cv-key-00", b"cv-key-0000", b"nul\x00mie", b"\x00", b"nul\x00\x00\x00",
    b"longer-than-every-resident-key",
]


def scalar_resolve(heap, kind, header, heads, queries):
    """What :func:`resolve_keys` must return, from per-entry walks."""
    arena = heap.pool.arena
    rows = []
    for h, q in zip(heads, queries):
        if h == NULL:
            rows.append((0, 0, -1, 0, NULL, NULL, 0, 0, False))
            continue
        v = chainview._materialize_scalar(heap, h, kind, header, arena)
        w = next((w for w in range(v.n) if v.key_bytes(w) == q), -1)
        rows.append((
            v.n, int(v.cum[-1]) if v.n else 0, w,
            *((int(v.cum[w]), int(v.pos[w]), int(v.addrs[w]),
               int(v.flags[w]), int(v.vlens[w])) if w >= 0
              else (0, NULL, NULL, 0, 0)),
            v.blocked is not None,
        ))
    return rows


# ----------------------------------------------------------------------
# materializer parity: bulk level-sync gathers vs per-entry scalar walk
# ----------------------------------------------------------------------
#: the walker's two halves forced in turn -- every node in a round, every
#: node in the tail -- beside the default cut-over (rounds while enough
#: walks are live, then the tail) the plain tests run
FORCED = {"all-rounds": 1, "all-tail": 10**9}
CUT_OVERS = {**FORCED, "default": chainview._ROUND_MIN_LIVE}

#: enough keys that 64 buckets hold more chains than the default cut-over
MORE_KEYS = [b"cv-more-%03d" % i for i in range(90)]


def scalar_value_walk(heap, vhead):
    """A value list's resident prefix, node by node: ``(addr, pos, vlen)``
    per node and where the walk left residency (``None`` if it did not)."""
    page_size = heap.page_size
    nodes, addr = [], vhead
    while addr != NULL:
        seg, off = divmod(addr, page_size)
        page = heap.resident_page(seg)
        if page is None:
            return nodes, (seg, addr)
        buf = heap.pool.slot_view(page.slot)
        _, nxt, vlen = E.read_value_node_header(buf, off)
        nodes.append((addr, page.slot * page_size + off, vlen))
        addr = nxt
    return nodes, None


def bulk_vs_scalar(org_kind, monkeypatch):
    """Every chain of a part-evicted table parsed in bulk and entry by
    entry, field by field; then first-match resolves against the per-entry
    walks, and (multi-valued) every resident key entry's value list."""
    if org_kind == "combining":
        org, kind, header = (
            CombiningOrganization(SUM_I64), "generic", E.ENTRY_HEADER
        )
        table, driver, _ = build(org, page_size=512, n_buckets=64)
        stream = (KEYS + EDGE_KEYS + MORE_KEYS) * 3
        driver.run([RecordBatch.from_numeric(
            stream, np.ones(len(stream), dtype=np.int64)
        )])
    else:
        kind, header = (
            ("key", E.KEY_ENTRY_HEADER) if org_kind == "multi-valued"
            else ("generic", E.ENTRY_HEADER)
        )
        org = (
            MultiValuedOrganization() if org_kind == "multi-valued"
            else BasicOrganization()
        )
        table, driver, _ = build(org, page_size=512, n_buckets=64)
        more = [(k, b"more-%03d" % i) for i, k in enumerate(MORE_KEYS)]
        # a second value per key in the same batch: multi-valued lists
        # two nodes long
        again = [(k, v + b"+") for k, v in PAIRS]
        insert(table, driver, PAIRS + EDGE_PAIRS + more + again)
    # every segment paged back in, newest first: each returns to the slot
    # it was built in, so an evicted page's slot still holds its bytes at
    # the page's own addresses -- what a walk that fails to block reads
    for seg in sorted(table.heap._store, reverse=True):
        assert table.heap.page_in(seg).slot == seg
    heads = table.buckets.head_cpu
    heads = [int(h) for h in heads[heads != NULL]]
    assert len(heads) > 32, "the default cut-over must run rounds"
    # evict pages again until some chain is empty, blocked at its head, and
    # some other one blocks after a resident prefix
    for seg in sorted(table.heap._resident):
        table.heap.evict([table.heap._resident[seg]])
        bulk = materialize_chains(table.heap, heads, kind)
        if any(v.n == 0 and v.blocked for v in bulk.values()) and any(
            v.n and v.blocked for v in bulk.values()
        ):
            break
    else:
        raise AssertionError("no walk blocked both at and below its head")
    assert any(v.n > 1 for v in bulk.values())
    arena = table.heap.pool.arena
    for h in heads:
        want = chainview._materialize_scalar(table.heap, h, kind, header, arena)
        got = bulk[h]
        assert got.n == want.n and got.blocked == want.blocked
        for name in ("addrs", "pos", "klens", "vlens", "flags", "costs", "cum"):
            np.testing.assert_array_equal(
                getattr(got, name), getattr(want, name), err_msg=name
            )
        for w in range(want.n):
            assert got.key_bytes(w) == want.key_bytes(w)

    if kind == "key":
        vheads = arena.view(np.int64)[(bulk.pos >> 3) + 3]
        assert (vheads != NULL).all()
        # and one value page evicted: the lists that start in it block
        heap = table.heap
        heap.evict([heap._resident[int(vheads[-1]) // heap.page_size]])
        (addr, pos, _, vlens, _), counts, (bseg, baddr) = (
            chainview.walk_resident(table.heap, vheads, "value")
        )
        ends = np.cumsum(counts)
        lists = [
            list(zip(*(c[e - n:e].tolist() for c in (addr, pos, vlens))))
            for e, n in zip(ends, counts)
        ]
        want = [scalar_value_walk(table.heap, v) for v in vheads.tolist()]
        assert lists == [nodes for nodes, _ in want]
        assert [
            (s, a) if s >= 0 else None
            for s, a in zip(bseg.tolist(), baddr.tolist())
        ] == [b for _, b in want]
        assert max(counts) > 1 and any(b for _, b in want)

    # first-match resolve: every query against every chain (and an empty
    # bucket), with the batch key matrix wider and narrower than the
    # resident one, whole and with the pair expansion cut into slices
    queries = KEYS + EDGE_KEYS + ABSENT_KEYS
    for qs in (queries, [q for q in queries if len(q) <= 4]):
        qheads = [h for h in heads + [NULL] for _ in qs]
        qkeys = qs * (len(heads) + 1)
        want_rows = scalar_resolve(table.heap, kind, header, qheads, qkeys)
        if qs is queries:
            assert any(r[2] > 0 for r in want_rows), "no hit below a head"
        kmat, klens = pack_byte_rows(qkeys)
        for pairs in (chainview._RESOLVE_PAIRS, 2):
            monkeypatch.setattr(chainview, "_RESOLVE_PAIRS", pairs)
            got_cols = resolve_keys(
                table.heap, np.array(qheads), kind, kmat, klens
            )
            assert list(zip(*(c.tolist() for c in got_cols))) == want_rows


ORG_KINDS = ["basic", "combining", "multi-valued"]


@pytest.mark.parametrize("org_kind", ORG_KINDS)
def test_bulk_matches_scalar_materializer(org_kind, monkeypatch):
    bulk_vs_scalar(org_kind, monkeypatch)


@pytest.mark.parametrize("forced", FORCED)
@pytest.mark.parametrize("org_kind", ORG_KINDS)
def test_bulk_matches_scalar_materializer_with_the_cut_over_forced(
    org_kind, forced, monkeypatch
):
    monkeypatch.setattr(chainview, "_ROUND_MIN_LIVE", FORCED[forced])
    bulk_vs_scalar(org_kind, monkeypatch)


#: ``walk_resident``'s offset table as it stands, and without the sentinel
#: that marks a segment absent: a walk that must block reads whatever the
#: arena holds at the address instead (a stale slot)
NO_SENTINEL = ("slot < 0, _ABSENT,", "slot < 0, 0,")


@pytest.mark.parametrize("cut_over", CUT_OVERS)
def test_bulk_parity_catches_a_walk_that_does_not_block(cut_over, monkeypatch):
    sound, faulty = NO_SENTINEL
    source = inspect.getsource(chainview.walk_resident)
    assert source.count(sound) == 1, "walk_resident no longer reads this way"
    scope: dict = {}
    exec(source.replace(sound, faulty), vars(chainview), scope)
    monkeypatch.setattr(chainview, "walk_resident", scope["walk_resident"])
    monkeypatch.setattr(chainview, "_ROUND_MIN_LIVE", CUT_OVERS[cut_over])
    with pytest.raises(AssertionError):
        bulk_vs_scalar("basic", monkeypatch)


def test_match_cpu_chains_matches_a_full_chain_walk(monkeypatch):
    """The all-match read behind in-stream lookups: every same-key entry
    of a key's *whole* chain -- evicted segments included, tombstones and
    shadows as flagged -- with the walk charge up to each, against a
    per-entry walk through ``segment_view``."""
    cpu_chains_vs_a_full_chain_walk(monkeypatch)


@pytest.mark.parametrize("forced", FORCED)
def test_match_cpu_chains_with_the_cut_over_forced(forced, monkeypatch):
    monkeypatch.setattr(chainview, "_ROUND_MIN_LIVE", FORCED[forced])
    cpu_chains_vs_a_full_chain_walk(monkeypatch)


def cpu_chains_vs_a_full_chain_walk(monkeypatch):
    table, driver, _ = build(heap_bytes=2 * 512, page_size=512, n_buckets=4)
    val = lambda i: b"val-%03d" % i
    for r in range(3):  # three iterations: duplicates across segments
        ops = [(OP_INSERT, k, val(r)) for k in KEYS[:24] + EDGE_KEYS]
        ops += [(OP_DELETE, k, b"") for k in KEYS[r:24:5]]
        ops += [(OP_UPDATE, k, val(90 + r)) for k in KEYS[r + 1:24:7]]
        driver.run([MutationBatch.from_ops(ops)])
    heap = table.heap
    assert len(heap._store) > 2, "chains were expected to cross segments"
    queries = KEYS[:30] + EDGE_KEYS + ABSENT_KEYS
    heads = [
        int(table.buckets.head_cpu[b]) for b in
        MutationBatch.from_ops([(OP_INSERT, q, b"") for q in queries])
        .cache.bucket_ids(table.buckets)
    ] + [NULL]
    queries = queries + [b"empty-bucket"]
    want_n, want_bytes, want = [], [], []
    for k, (head, q) in enumerate(zip(heads, queries)):
        addr, at, cum = head, 0, 0
        while addr != NULL:
            seg, off = divmod(addr, heap.page_size)
            buf = heap.segment_view(seg)
            _, nxt, klen, vlen = E.read_entry_header(buf, off)
            cum += E.ENTRY_HEADER + klen
            if E.entry_key(buf, off, klen) == q:
                want.append((
                    k, at, cum, E.entry_value(buf, off, klen, vlen),
                    E.entry_flags(buf, off),
                ))
            addr, at = nxt, at + 1
        want_n.append(at)
        want_bytes.append(cum)
    assert any(f & E.GFLAG_TOMBSTONE for *_, f in want)
    assert any(f & E.GFLAG_SHADOW for *_, f in want)
    blob = heap.cpu_image()
    image = np.frombuffer(blob, dtype=np.uint8)
    kmat, klens = pack_byte_rows(queries)
    for pairs in (chainview._RESOLVE_PAIRS, 3):
        monkeypatch.setattr(chainview, "_RESOLVE_PAIRS", pairs)
        cm = match_cpu_chains(image, np.array(heads), "generic", kmat, klens)
        assert cm.n_chain.tolist() == want_n
        assert cm.chain_bytes.tolist() == want_bytes
        got = [
            (k, at, cum, blob[vp:vp + vl], fl) for k, at, cum, vp, vl, fl in
            zip(*(c.tolist() for c in (
                cm.key, cm.at, cm.cum, cm.vpos, cm.vlen, cm.flags
            )))
        ]
        assert got == want
        assert (cm.blocked_seg == -1).all()  # the image never blocks
        assert cm.pos.tolist() == cm.addr.tolist()  # address == offset


def test_match_cpu_chains_reads_key_entries():
    """``kind="key"``: the same all-match read over multi-valued key
    entries -- flags from the flag word (``PENDING`` included), no value
    columns -- against a per-entry walk."""
    table, driver, _ = build(
        MultiValuedOrganization(), heap_bytes=3 * 512, page_size=512,
        n_buckets=4,
    )
    for r in range(3):
        ops = [(OP_INSERT, k, b"val-%03d" % r) for k in KEYS[:20] + EDGE_KEYS]
        ops += [(OP_DELETE, k, b"") for k in KEYS[r:20:5]]
        ops += [(OP_UPDATE, k, b"upd-%03d" % r) for k in KEYS[r + 1:20:7]]
        driver.run([MutationBatch.from_ops(replaced(ops))])
    # and one pass left unfinished: some key entry is still PENDING
    table.mutate_batch(MutationBatch.from_ops(
        [(OP_INSERT, k, b"x" * 200) for k in KEYS[20:40]]
    ))
    heap = table.heap
    queries = KEYS + EDGE_KEYS + ABSENT_KEYS
    heads = [
        int(table.buckets.head_cpu[b]) for b in
        MutationBatch.from_ops([(OP_INSERT, q, b"") for q in queries])
        .cache.bucket_ids(table.buckets)
    ]
    want_n, want_bytes, want = [], [], []
    for k, (head, q) in enumerate(zip(heads, queries)):
        addr, at, cum = head, 0, 0
        while addr != NULL:
            seg, off = divmod(addr, heap.page_size)
            buf = heap.segment_view(seg)
            hdr = E.read_key_entry_header(buf, off)
            cum += E.KEY_ENTRY_HEADER + hdr[4]
            if E.key_entry_key(buf, off, hdr[4]) == q:
                want.append((k, at, cum, addr, hdr[5]))
            addr, at = hdr[1], at + 1
        want_n.append(at)
        want_bytes.append(cum)
    for flag in (E.FLAG_PENDING, E.FLAG_TOMBSTONE):
        assert any(f & flag for *_, f in want)
    image = np.frombuffer(heap.cpu_image(), dtype=np.uint8)
    kmat, klens = pack_byte_rows(queries)
    cm = match_cpu_chains(image, np.array(heads), "key", kmat, klens)
    assert cm.n_chain.tolist() == want_n
    assert cm.chain_bytes.tolist() == want_bytes
    assert list(zip(*(c.tolist() for c in (
        cm.key, cm.at, cm.cum, cm.pos, cm.flags
    )))) == want
    assert not cm.vlen.any()


# ----------------------------------------------------------------------
# the key matcher: words read where the keys lie vs a bytes compare
# ----------------------------------------------------------------------
#: lengths on both sides of every word boundary, one key a prefix of the
#: next, pairs that differ in their last byte only, embedded and trailing
#: NULs (and the 0xff the values below start with)
WORD_EDGE_KEYS = [
    b"", b"a" * 7, b"a" * 8, b"a" * 9, b"a" * 16, b"a" * 15 + b"b",
    b"a" * 8 + b"b", b"a" * 7 + b"b", b"a" * 6 + b"\x00", b"a\x00b", b"a\x00",
    b"a\x00\x00", b"a" * 7 + b"\xff", b"a" * 23 + b"\x00", b"a" * 24,
]
_key_bytes = st.lists(
    st.sampled_from([0, 0, 1, 97, 97, 98, 255]), max_size=24
).map(bytes)


def bytes_compare(table, queries):
    """(query, walk position) of every same-key entry of each query's
    whole chain, by a per-entry ``bytes`` compare."""
    heap = table.heap
    buckets = RecordBatch.from_pairs(
        [(q, b"") for q in queries]
    ).cache.bucket_ids(table.buckets)
    heads = table.buckets.head_cpu[buckets]
    want = []
    for k, (head, q) in enumerate(zip(heads.tolist(), queries)):
        addr, at = head, 0
        while addr != NULL:
            seg, off = divmod(addr, heap.page_size)
            buf = heap.segment_view(seg)
            _, nxt, klen, _ = E.read_entry_header(buf, off)
            if E.entry_key(buf, off, klen) == q:
                want.append((k, at))
            addr, at = nxt, at + 1
    return heads, want


@settings(max_examples=40, deadline=None)
@given(
    extra=st.lists(_key_bytes, max_size=12),
    absent=st.lists(_key_bytes, max_size=12),
)
def test_match_keys_agrees_with_a_per_entry_bytes_compare(extra, absent):
    """Key lengths 0-24 with 0, 7, 8, 9 and 16 always there; every stored
    key is followed directly by non-zero value bytes, which the cut of the
    last word must keep out of the compare.  Through the resident read and
    the CPU-image read."""
    stored = WORD_EDGE_KEYS + extra
    pairs = [(k, b"\xff\xfe" + b"%d" % i) for i, k in enumerate(stored)]
    near = [k[:-1] for k in stored if k] + [k + b"\x00" for k in stored]
    near += [k[:-1] + b"\xff" for k in stored if k]
    queries = stored + absent + near
    kmat, klens = pack_byte_rows(queries)
    heap = GpuHeap(40 * 512, 512)
    table = GpuHashTable(2, BasicOrganization(), heap, group_size=1)
    assert table.insert_batch(RecordBatch.from_pairs(pairs)).success.all()
    heads, want = bytes_compare(table, queries)
    assert {k for k, _ in want} >= set(range(len(stored)))
    cm = match_resident_chains(heap, heads, "generic", kmat, klens)
    assert list(zip(cm.key.tolist(), cm.at.tolist())) == want
    image = np.frombuffer(heap.cpu_image(), dtype=np.uint8)
    cm = match_cpu_chains(image, heads, "generic", kmat, klens)
    assert list(zip(cm.key.tolist(), cm.at.tolist())) == want


def test_empty_and_single_entry_chains():
    table, driver, _ = build()
    insert(table, driver, PAIRS[:1])
    page_in_all(table)
    heads = table.buckets.head_cpu
    live = [int(h) for h in heads[heads != NULL]]
    assert len(live) == 1
    views = materialize_chains(table.heap, live, "generic")
    (view,) = views.values()
    assert view.n == 1
    assert view.key_bytes(0) == KEYS[0]
    vo = int(view.pos[0]) + E.ENTRY_HEADER + int(view.klens[0])
    assert view.arena[vo:vo + int(view.vlens[0])].tobytes() == PAIRS[0][1]
    assert int(view.cum[0]) == int(view.costs[0])


# ----------------------------------------------------------------------
# store caching + invalidation stamps
# ----------------------------------------------------------------------
def test_store_reuses_views_until_write_epoch_bumps():
    table, driver, lookups = build()
    insert(table, driver, PAIRS)
    lookups.lookup(KEYS[:8])
    heads = table.buckets.head_cpu
    live = [int(h) for h in heads[heads != NULL]]
    first = table.chain_views.get_many(live, "generic")
    again = table.chain_views.get_many(live, "generic")
    for h in live:
        assert again[h] is first[h], "same stamp must reuse cached views"
    table.heap.note_write(0)  # any in-place write retires every view
    fresh = table.chain_views.get_many(live, "generic")
    for h in live:
        assert fresh[h] is not first[h]


def test_store_invalidated_on_residency_change():
    table, driver, _ = build()
    insert(table, driver, PAIRS)
    page_in_all(table)
    heads = table.buckets.head_cpu
    live = [int(h) for h in heads[heads != NULL]]
    first = table.chain_views.get_many(live, "generic")
    assert not any(v.blocked for v in first.values())
    table.heap.evict_all()
    after = table.chain_views.get_many(live, "generic")
    for h in live:
        assert after[h] is not first[h]
        # evicted chains parse to a blocked stub at the head
        assert after[h].blocked is not None and after[h].n == 0


def test_lookup_sees_delete_and_update_through_cache():
    """End to end: cached views must never serve pre-mutation state."""
    table, driver, lookups = build()
    insert(table, driver, PAIRS)
    res = lookups.lookup(KEYS)
    assert res.values == [v for _, v in PAIRS]
    dead, changed = KEYS[3], KEYS[7]
    driver.run([MutationBatch.from_ops(
        [(OP_DELETE, dead, b""), (OP_UPDATE, changed, b"NEW")],
    )])
    res = lookups.lookup([dead, changed, KEYS[0]])
    assert res.values[0] is None
    assert res.values[1] == b"NEW"
    assert res.values[2] == PAIRS[0][1]


# ----------------------------------------------------------------------
# sanitizer: stale / corrupt cached views are flagged
# ----------------------------------------------------------------------
def fill_store(table):
    """No reader in the library goes through the store (a lookup pass
    parses fresh): fill it the way a caller would."""
    heads = table.buckets.head_cpu
    return table.chain_views.get_many(heads[heads != NULL], "generic")


def test_sanitizer_passes_on_clean_cached_views():
    table, driver, lookups = build()
    insert(table, driver, PAIRS)
    lookups.lookup(KEYS)
    assert fill_store(table)
    assert check_table(table).ok


def test_sanitizer_flags_stale_cached_view():
    """Simulate a missed invalidation: mutate a cached view in place while
    its stamp still claims validity -- paranoid check must flag it."""
    table, driver, lookups = build()
    insert(table, driver, PAIRS)
    lookups.lookup(KEYS)
    fill_store(table)
    store = table.chain_views
    (kind, head), view = next(
        item for item in store._views.items() if item[1].n > 0
    )
    view.klens = view.klens.copy()
    view.klens[0] += 1  # stale length: as if a write skipped note_write
    with pytest.raises(SanitizerError) as err:
        check_table(table)
    assert any(v.kind == "chain-view-mismatch" for v in err.value.violations)
