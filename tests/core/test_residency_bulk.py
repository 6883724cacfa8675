"""The residency transitions in bulk against their per-entry / per-page
forms.

A multi-valued iteration boundary relinks the GPU chains over what stayed
resident (``MultiValuedOrganization._splice_chains``): under
``impl="vectorized"`` that is one walk of the CPU-side image and two
scatters (``kernel_splice._splice_resident``), under ``slow_reference``
the per-entry loop (``oracle.splice_chains``).  A lookup's rearrangement
pages its demand list in through ``GpuHeap.page_in_many``, which must do
per page what a ``page_in`` loop did.  Both pairs are held together here,
byte for byte.
"""

import inspect
import sys

import numpy as np
import pytest

from repro.core import (
    BasicOrganization,
    GpuHashTable,
    LookupDriver,
    MultiValuedOrganization,
    MutationBatch,
    OP_DELETE,
    OP_INSERT,
    OP_LOOKUP,
    OP_UPDATE,
    RecordBatch,
    entries as E,
)
from repro.core.chainview import walk_cpu_image
from repro.core.hashing import fnv1a_batch
from repro.core.organizations import policy
from repro.core.records import pack_byte_rows
from repro.gpusim import CostLedger, GTX_780TI, KernelModel, PCIeBus
from repro.integrity import CorruptionError
from repro.memalloc import GpuHeap, NULL
from repro.memalloc.pages import Page, PagePool
from tests.core.conftest import multivalued_org, replaced

PAGE = 256


# ----------------------------------------------------------------------
# the splice
# ----------------------------------------------------------------------
def _stream(seed, n=140, n_distinct=40):
    rng = np.random.default_rng([seed, 21])
    ops = rng.choice(
        [OP_INSERT, OP_UPDATE, OP_DELETE, OP_LOOKUP], size=n,
        p=[0.5, 0.25, 0.2, 0.05],
    )
    keys = [b"k%03d" % i for i in rng.integers(0, n_distinct, size=n)]
    return [(int(o), k, b"v%d" % i) for i, (o, k) in enumerate(zip(ops, keys))]


def _boundary(table, impl):
    """One ``end_iteration`` with the splice run by ``impl`` -- the other
    form patched to raise -- and everything it leaves behind."""
    heap, org = table.heap, table.org
    notes: list[int] = []
    heads_before = table.buckets.resident_buckets()

    def wrong_form(*args):
        raise AssertionError(f"impl={impl!r} ran the other splice")

    other = "splice_chains" if impl == "vectorized" else "_splice_resident"
    sound = getattr(policy, other)
    setattr(policy, other, wrong_form)
    heap.note_write = lambda seg: (notes.append(seg), GpuHeap.note_write(heap, seg))[1]
    org.impl, keep = impl, org.impl
    try:
        report = table.end_iteration()
    finally:
        org.impl = keep
        del heap.note_write
        setattr(policy, other, sound)
    head_gpu = table.buckets.head_gpu
    return dict(
        report=vars(report), notes=set(notes),
        arena=heap.pool.arena.tobytes(), head_gpu=head_gpu.tolist(),
        head_cpu=table.buckets.head_cpu.tolist(),
        pins=dict(org._pin_counts),
        pinned=sorted(p.segment for p in heap.resident_pages if p.pinned),
        resident={p.segment: p.slot for p in heap.resident_pages},
        emptied=int((head_gpu[heads_before] == NULL).sum()),
    )


def _run(streams, updates, limit, heap_pages, page_size=PAGE,
         splice="vectorized", n_buckets=16, group_size=4):
    """Mixed-op batches (one per list of triples in ``streams``; with
    ``updates="replace"`` each update a DELETE then an INSERT) run to
    completion on a small heap; returns the table and what every boundary
    left."""
    table = GpuHashTable(
        n_buckets, multivalued_org(limit),
        GpuHeap(heap_pages * page_size, page_size), group_size=group_size,
    )
    seen = []
    for triples in streams:
        if updates == "replace":
            triples = replaced(triples)
        batch = MutationBatch.from_ops(triples)
        pending = np.arange(len(batch))
        for _ in range(200):
            if not len(pending):
                break
            res = table.mutate_batch(batch, pending)
            pending = pending[~res.success]
            seen.append(_boundary(table, splice))
        else:
            raise AssertionError("stream does not converge")
    return table, seen


def _seeded(seed):
    return [_stream(seed * 10 + b) for b in range(3)]


def _retained_entry_kinds(table):
    """``(tombstoned, unborn)`` counts among the resident key entries."""
    heap = table.heap
    heads = table.buckets.head_cpu[table.buckets.occupied_buckets()]
    image = np.frombuffer(heap.cpu_image(), dtype=np.uint8)
    (pos, _, _, flags), _ = walk_cpu_image(image, heads, "key")
    here = heap.resident_slot_map()[pos // heap.page_size] >= 0
    vhead = image.view(np.int64)[(pos >> 3) + 3]
    unborn = ((flags & E.FLAG_PENDING) != 0) & (vhead == NULL)
    return (
        int((((flags & E.FLAG_TOMBSTONE) != 0) & here).sum()),
        int((unborn & here).sum()),
    )


#: name -> (pin retention limit, heap pages)
SHAPES = {
    "partial retention": (1.0, 6),
    "forced full eviction": (0.05, 6),
}


def _differences(got, want):
    assert len(got) == len(want)
    return [
        (n, name) for n, (x, y) in enumerate(zip(got, want))
        for name in y if x[name] != y[name]
    ]


def _splice_differences(shape, updates, seeds=range(4)):
    """Boundaries where the bulk splice and the loop left different
    things, and what the runs covered."""
    limit, heap_pages = SHAPES[shape]
    differing = []
    covered = dict(partial=0, forced=0, emptied=0, spliced=0)
    for seed in seeds:
        _, got = _run(_seeded(seed), updates, limit, heap_pages)
        _, want = _run(
            _seeded(seed), updates, limit, heap_pages, splice="slow_reference"
        )
        differing += [(seed, *d) for d in _differences(got, want)]
        for y in want:
            r = y["report"]
            covered["partial"] += bool(r["pages_retained"] and r["pages_evicted"])
            covered["forced"] += r["forced_full_eviction"]
            covered["spliced"] += r["entries_spliced"]
            if r["pages_retained"]:
                covered["emptied"] += y["emptied"]
    return differing, covered


@pytest.mark.parametrize("updates", ["append", "replace"])
@pytest.mark.parametrize("shape", SHAPES)
def test_bulk_splice_leaves_what_the_loop_leaves(shape, updates):
    """Arena bytes, ``head_gpu``, the ``EvictionReport`` (``entries_spliced``
    and ``maintenance_cycles`` included), the segments ``note_write`` saw
    and the pin map, after every boundary."""
    differing, covered = _splice_differences(shape, updates)
    assert differing == []
    if shape == "partial retention":
        assert covered["partial"] and not covered["forced"]
        assert covered["spliced"] > 100
        assert covered["emptied"], "no chain lost its every resident entry"
    else:
        assert covered["forced"]


def test_bulk_splice_through_a_deadlock_avoidance_eviction():
    """Two pages, two groups.  ``b1`` fills the value page; ``b2``'s key
    entry fits beside ``b1``'s but its value does not: ``PENDING``, the
    key page stays.  Next pass ``a`` takes the one free page for its key
    entry and is refused a value page too: every resident page is pinned,
    and the boundary evicts them all."""
    probe = GpuHashTable(2, MultiValuedOrganization(), GpuHeap(PAGE, PAGE),
                         group_size=1)
    cands = [b"key-%d" % i for i in range(40)]
    home = probe.buckets.bucket_of_hash(fnv1a_batch(*pack_byte_rows(cands)))
    a = cands[int(np.flatnonzero(home == 0)[0])]
    b1, b2 = (cands[int(i)] for i in np.flatnonzero(home == 1)[:2])
    triples = [(OP_INSERT, b1, b"x" * 200), (OP_INSERT, a, b"y" * 16),
               (OP_INSERT, b2, b"z" * 16)]
    shape = dict(limit=1.0, heap_pages=2, n_buckets=2, group_size=1)
    table, got = _run([triples], "append", **shape)
    _, want = _run([triples], "append", splice="slow_reference", **shape)
    assert _differences(got, want) == []
    reports = [y["report"] for y in want]
    assert [r["forced_full_eviction"] for r in reports[:2]] == [False, True]
    assert reports[0]["pages_retained"] == 1 and want[0]["pins"]
    assert reports[1]["pages_evicted"] == 2 and not want[1]["pins"]
    assert table.result() == {b1: [b"x" * 200], a: [b"y" * 16], b2: [b"z" * 16]}


def test_bulk_splice_cases_hold_every_entry_kind():
    """Retained pages do host tombstoned and empty ``PENDING`` entries
    (the first boundary of each partial-retention run, looked at while
    what it spliced is still resident)."""
    tombstoned = unborn = 0
    limit, heap_pages = SHAPES["partial retention"]
    for updates in ("append", "replace"):
        for seed in range(4):
            table = GpuHashTable(
                16, multivalued_org(limit),
                GpuHeap(heap_pages * PAGE, PAGE), group_size=4,
            )
            stream = _stream(seed * 10)
            table.mutate_batch(MutationBatch.from_ops(
                replaced(stream) if updates == "replace" else stream
            ))
            _boundary(table, "vectorized")
            kinds = _retained_entry_kinds(table)
            tombstoned += kinds[0]
            unborn += kinds[1]
    assert tombstoned and unborn


#: one-line edits of ``_splice_resident``'s source, (the line as it
#: stands, the line with the fault)
SPLICE_FAULTS = {
    "drop the vhead_gpu scatter": (
        "w64[(gpu >> 3) + 2] = NULL", "pass",
    ),
    "link across chains at a chain boundary": (
        "np.where(first[1:], NULL, gpu[1:])", "gpu[1:]",
    ),
}


@pytest.mark.parametrize("fault", SPLICE_FAULTS)
def test_splice_cases_catch_planted_faults(fault, monkeypatch):
    sound, faulty = SPLICE_FAULTS[fault]
    kernel = policy._splice_resident  # where the dispatch reads it
    source = inspect.getsource(kernel)
    assert source.count(sound) == 1, "the kernel no longer reads this way"
    scope: dict = {}
    home = sys.modules[kernel.__module__]  # the globals its body reads
    exec(source.replace(sound, faulty), vars(home), scope)
    monkeypatch.setattr(policy, kernel.__name__, scope[kernel.__name__])
    differing, _ = _splice_differences("partial retention", "append")
    assert differing, f"{fault}: every boundary still agrees"


# ----------------------------------------------------------------------
# page_in_many
# ----------------------------------------------------------------------
def _page_in_loop(heap, segment):
    """``GpuHeap.page_in`` as it stood before ``page_in_many``: the oracle."""
    if segment in heap._resident:
        return heap._resident[segment]
    if segment not in heap._store:
        raise KeyError(f"segment {segment} was never evicted")
    if heap.integrity is not None:
        heap.integrity.check_page_in(heap, segment)
    slot = heap.pool.take()
    if slot is None:
        return None
    kind, group, used = heap._store_meta[segment]
    heap.pool.slot_view(slot)[:] = heap._store.pop(segment)
    del heap._store_meta[segment]
    if heap.integrity is not None:
        heap.integrity.on_page_in(segment)
    page = Page(
        slot=slot, segment=segment, kind=kind, group=group,
        page_size=heap.page_size, used=used,
    )
    heap._resident[segment] = page
    heap.residency_epoch += 1
    return page


def _rearrange_loop(driver, demanded):
    """``LookupDriver._rearrange`` over :func:`_page_in_loop`: the same
    page-ins, then one ``bus.bulk`` of the pages that moved."""
    heap = driver.table.heap
    paged = moved = 0
    for seg in demanded:
        stored = seg in heap._store
        page = _page_in_loop(heap, seg)
        if page is None:
            if paged == 0:
                heap.evict_all()
                driver.table.buckets.reset_gpu_heads()
                page = _page_in_loop(heap, seg)
                if page is None:
                    raise RuntimeError(
                        "heap cannot hold a single page for lookups"
                    )
            else:
                break
        moved += stored
        paged += 1
    if moved:
        driver.bus.bulk(moved * heap.page_size)
    return paged


def _lookup_fixture(integrity=None, slots=4):
    """A basic table of a dozen segments on a ``slots``-page heap, the
    last iteration's pages still resident."""
    ledger = CostLedger()
    heap = GpuHeap(slots * PAGE, PAGE)
    table = GpuHashTable(
        8, BasicOrganization(), heap, group_size=8, ledger=ledger,
        integrity=integrity,
    )
    for lo in range(0, 120, 12):
        pairs = [
            (b"key%03d" % i, b"v" * 16 + b"%03d" % i) for i in range(lo, lo + 12)
        ]
        res = table.insert_batch(RecordBatch.from_pairs(pairs))
        assert res.success.all()
        if lo < 108:
            table.end_iteration()
    assert len(heap._store) >= 8 and heap.resident_pages
    driver = LookupDriver(
        table, KernelModel(GTX_780TI, ledger), PCIeBus(ledger)
    )
    return table, driver


def _state(table, driver):
    heap = table.heap
    slot_map = heap.resident_slot_map()
    resident = {p.segment: (p.slot, p.kind, p.group, p.used, p.pinned)
                for p in heap.resident_pages}
    # the cached array form of the residency map is not stale
    assert {s: int(slot_map[s]) for s in resident} == {
        s: v[0] for s, v in resident.items()}
    assert int((slot_map >= 0).sum()) == len(resident)
    integ = heap.integrity
    return dict(
        resident=resident,
        live=[heap.pool.slot_view(v[0]).tobytes() for v in resident.values()],
        stored={s: b.tobytes() for s, b in heap._store.items()},
        meta=dict(heap._store_meta), free=list(heap.pool._free_slots),
        head_gpu=table.buckets.head_gpu.tolist(),
        ledger=table.ledger.breakdown(), ops=driver.bus.transfer_ops,
        moved=driver.bus.bytes_moved, evicted=heap.bytes_evicted,
        integrity=None if integ is None else (
            integ.verifies, integ.pending_crc_bytes, dict(integ.store_crc),
            dict(integ.resident_clean),
        ),
    )


def _deny_below(n_free):
    def install(table):
        pool = table.heap.pool
        pool.take = lambda: PagePool.take(pool) if pool.n_free > n_free else None
    return install


def _fill_pool(table):
    heap = table.heap
    for seg in sorted(heap._store, reverse=True)[:heap.pool.n_free]:
        assert heap.page_in(seg) is not None
    assert heap.pool.n_free == 0


def _stored(table, picks):
    stored = sorted(table.heap._store)
    return [stored[i] for i in picks]


#: name -> (demand list from the fixture's table, set-up or None)
REARRANGEMENTS = {
    "the pool fills mid-list": (
        lambda t: (t.heap.evict_all(), _stored(t, range(7)))[1], None),
    "nothing fits: evict all, once": (
        lambda t: (_fill_pool(t), _stored(t, [5, 1, 3, 0, 6, 2]))[1], None),
    "an already-resident segment in the list": (
        lambda t: (
            t.heap.evict(t.heap.resident_pages[:2]),
            [_stored(t, [2])[0], t.heap.resident_pages[0].segment,
             *_stored(t, [0, 4])],
        )[1], None),
    "an injected denied take": (
        lambda t: (t.heap.evict_all(), _stored(t, range(6)))[1], _deny_below(2)),
    "no demand": (lambda t: [], None),
}


@pytest.mark.parametrize("integrity", [None, "verify"])
@pytest.mark.parametrize("case", REARRANGEMENTS)
def test_page_in_many_is_a_page_in_loop(case, integrity):
    demand_of, set_up = REARRANGEMENTS[case]
    seen = {}
    for form in ("bulk", "loop"):
        table, driver = _lookup_fixture(integrity)
        demand = demand_of(table)
        if set_up:
            set_up(table)
        before = table.heap.residency_epoch
        if form == "bulk":
            paged = driver._rearrange(demand)
        else:
            paged = _rearrange_loop(driver, demand)
        seen[form] = dict(_state(table, driver), paged=paged)
        if paged:
            assert table.heap.residency_epoch > before
    assert seen["bulk"] == seen["loop"]
    # (segments resident now, pages that crossed the bus)
    assert (seen["loop"]["paged"], seen["loop"]["moved"] // PAGE) == {
        "the pool fills mid-list": (4, 4), "nothing fits: evict all, once": (4, 4),
        "an already-resident segment in the list": (4, 3),
        "an injected denied take": (2, 2), "no demand": (0, 0),
    }[case]


def test_page_in_many_sees_every_take():
    """A fault injector's ``take`` is called once per page (and for the
    denied one), not bypassed by the unzeroed fast path."""
    table, _ = _lookup_fixture()
    heap = table.heap
    heap.evict_all()
    calls = []
    pool = heap.pool
    pool.take = lambda: (calls.append(pool.n_free), PagePool.take(pool))[1]
    assert heap.page_in_many(sorted(heap._store)[:6]) == 4
    assert calls == [4, 3, 2, 1, 0]


def test_page_in_many_stops_at_a_corrupt_segment_with_a_sound_map():
    """The third segment of the list fails its CRC: the two in front are
    resident, nothing behind it moved, and the slot-map cache knows."""
    table, driver = _lookup_fixture("verify")
    heap = table.heap
    heap.evict_all()
    heap.resident_slot_map()  # cached at this epoch
    demand = sorted(heap._store)[:4]
    buf = heap._store[demand[2]].copy()
    buf[7] ^= 0x10
    heap._store[demand[2]] = buf
    with pytest.raises(CorruptionError):
        heap.page_in_many(demand)
    assert sorted(p.segment for p in heap.resident_pages) == demand[:2]
    _state(table, driver)  # asserts the slot map matches
    with pytest.raises(KeyError):
        heap.page_in_many([10_000])
