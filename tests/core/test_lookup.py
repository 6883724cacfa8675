"""SEPO lookups (the Section IV-C 'mental exercise' extension)."""

import struct
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest

from repro.core import (
    OP_DELETE,
    OP_INSERT,
    OP_LOOKUP,
    OP_UPDATE,
    BasicOrganization,
    CallbackCombiner,
    CombiningOrganization,
    GpuHashTable,
    MultiValuedOrganization,
    MutationBatch,
    RecordBatch,
    SepoDriver,
    SUM_F64,
    SUM_I64,
)
from repro.core import combiners, entries as E, lookup as lookup_mod
from repro.core.chainview import walk_cpu_image
from repro.core.hashing import fnv1a_batch
from repro.core.lookup import LookupDriver
from repro.core.records import pack_byte_rows
from repro.gpusim import CostCategory, CostLedger, GTX_780TI, KernelModel, PCIeBus
from repro.gpusim.pcie import TransferError
from repro.memalloc import GpuHeap
from repro.memalloc.address import NULL
from tests.core.conftest import replaced
from repro.sanitize.faults import TransientTransferFault


def build_table(heap_bytes=2048, page_size=512, org=None):
    ledger = CostLedger()
    heap = GpuHeap(heap_bytes, page_size)
    table = GpuHashTable(
        64, org or CombiningOrganization(SUM_I64), heap, group_size=16,
        ledger=ledger,
    )
    kernel = KernelModel(GTX_780TI, ledger)
    bus = PCIeBus(ledger)
    return table, SepoDriver(table, kernel, bus), LookupDriver(table, kernel, bus)


def populate(table, driver, n_keys=120, dupes=3):
    keys = [f"key-{i:04d}".encode() for i in range(n_keys)]
    stream = keys * dupes
    batch = RecordBatch.from_numeric(
        stream, np.ones(len(stream), dtype=np.int64)
    )
    report = driver.run([batch])
    return keys, report


def test_lookup_resident_table_single_iteration():
    table, driver, lookups = build_table(heap_bytes=1 << 16, page_size=4096)
    keys, report = populate(table, driver, n_keys=20)
    # Page everything back in first: a warm lookup needs one iteration...
    # actually the table was evicted at end of run; expect paging.
    res = lookups.lookup(keys[:5])
    assert res.values == [3] * 5


def test_lookup_after_eviction_postpones_then_succeeds():
    table, driver, lookups = build_table()
    keys, report = populate(table, driver)
    assert report.iterations > 1  # table exceeded the heap
    res = lookups.lookup(keys)
    assert res.postponed_total > 0
    assert res.segments_paged_in > 0
    assert res.values == [3] * len(keys)


def test_lookup_matches_finalized_result_exactly():
    """Combining residue across segments must be combined by lookups."""
    table, driver, lookups = build_table()
    keys, _ = populate(table, driver, n_keys=150, dupes=2)
    truth = table.result()
    res = lookups.lookup(keys)
    for k, v in zip(keys, res.values):
        assert v == truth[k]


def test_lookup_miss_returns_none():
    table, driver, lookups = build_table(heap_bytes=1 << 14, page_size=2048)
    keys, _ = populate(table, driver, n_keys=30)
    res = lookups.lookup([b"absent-key", keys[0]])
    assert res.values[0] is None
    assert res.values[1] == 3


def test_lookup_charges_time_and_pcie():
    table, driver, lookups = build_table()
    keys, _ = populate(table, driver)
    before_pcie = table.ledger.spent(CostCategory.PCIE)
    res = lookups.lookup(keys[:50])
    assert res.elapsed_seconds > 0
    assert table.ledger.spent(CostCategory.PCIE) > before_pcie


def test_lookup_basic_method_returns_newest():
    table, driver, lookups = build_table(
        heap_bytes=1 << 14, page_size=2048, org=BasicOrganization()
    )
    batch = RecordBatch.from_pairs([(b"k", b"old"), (b"k", b"new")])
    driver.run([batch])
    res = lookups.lookup([b"k", b"missing"])
    assert res.values == [b"new", None]


def build_mv_table(heap_bytes=2048, page_size=512, group_size=4):
    ledger = CostLedger()
    heap = GpuHeap(heap_bytes, page_size)
    table = GpuHashTable(
        16, MultiValuedOrganization(), heap, group_size=group_size,
        ledger=ledger,
    )
    kernel = KernelModel(GTX_780TI, ledger)
    bus = PCIeBus(ledger)
    return table, SepoDriver(table, kernel, bus), LookupDriver(table, kernel, bus)


def test_lookup_multivalued_collects_all_values():
    table, driver, lookups = build_mv_table()
    pairs = [(f"link{i % 10}".encode(), f"page{i:02d}".encode())
             for i in range(60)]
    report = driver.run([RecordBatch.from_pairs(pairs)])
    assert report.iterations > 1  # values spilled across segments
    truth = table.result()
    res = lookups.lookup([f"link{i}".encode() for i in range(10)]
                         + [b"missing"])
    for i in range(10):
        assert sorted(res.values[i]) == sorted(truth[f"link{i}".encode()])
    assert res.values[10] is None
    assert res.postponed_total > 0


def test_lookup_multivalued_resident():
    table, driver, lookups = build_mv_table(heap_bytes=1 << 14, page_size=2048)
    driver.run([RecordBatch.from_pairs([(b"k", b"v1"), (b"k", b"v2")])])
    res = lookups.lookup([b"k"])
    assert sorted(res.values[0]) == [b"v1", b"v2"]


def _spilled_mv_table():
    """A multi-valued table of 60 values over 10 keys, spilled across
    segments, and the lookups to read it with."""
    table, driver, lookups = build_mv_table()
    pairs = [(f"link{i % 10}".encode(), f"page{i:02d}".encode())
             for i in range(60)]
    assert driver.run([RecordBatch.from_pairs(pairs)]).iterations > 1
    return table, lookups, [f"link{i}".encode() for i in range(10)]


def test_a_failed_page_in_copy_leaves_the_table_sane():
    """A rearrangement's DMA that keeps failing raises out of the lookup
    after its pages are in: the page-in rule still reaches them, so no
    paged-in key page keeps a stale ``vhead_gpu``."""
    table, lookups, keys = _spilled_mv_table()
    bus = lookups.bus
    TransientTransferFault(schedule={bus.transfer_ops: 99}).install(table, lookups)
    with pytest.raises(TransferError):
        lookups.lookup(keys)
    table.check_invariants()
    bus.set_fault_injector(None)
    truth = table.result()
    assert [v[::-1] for v in lookups.lookup(keys).values] == [truth[k] for k in keys]


def test_a_retried_page_in_copy_costs_one_attempt_and_changes_nothing():
    """One failed attempt of a rearrangement's DMA is charged to RETRY as
    that copy's wire time plus the base backoff; the lookup answers, passes
    and pages in as a fault-free one does."""
    seen = {}
    for run in ("clean", "faulty"):
        table, lookups, keys = _spilled_mv_table()
        bus, ledger = lookups.bus, table.ledger
        first, bulks, bulk = bus.transfer_ops, [], bus.bulk
        bus.bulk = lambda nbytes: (bulks.append(nbytes), bulk(nbytes))[1]
        if run == "faulty":
            TransientTransferFault(schedule={first: 1}).install(table, lookups)
        retry = ledger.spent(CostCategory.RETRY)
        res = lookups.lookup(keys)
        seen[run] = (res.values, res.iteration_paged_in, bulks)
        retry = ledger.spent(CostCategory.RETRY) - retry
    assert seen["faulty"] == seen["clean"]
    assert bus.retries == 1 and len(bulks) > 1
    assert retry == bus.transfer_time(bulks[0]) + bus.retry_backoff


def _run_lookup(impl, org_factory, make_batch, queries,
                heap_bytes=2048, page_size=512, n_buckets=64, group_size=16):
    """Build a fresh table deterministically and run one batched lookup."""
    ledger = CostLedger()
    heap = GpuHeap(heap_bytes, page_size)
    table = GpuHashTable(
        n_buckets, org_factory(), heap, group_size=group_size, ledger=ledger,
    )
    kernel = KernelModel(GTX_780TI, ledger)
    bus = PCIeBus(ledger)
    SepoDriver(table, kernel, bus).run([make_batch()])
    before = ledger.elapsed
    table.org.impl = impl
    res = LookupDriver(table, kernel, bus).lookup(queries)
    return res, ledger.elapsed - before


@pytest.mark.parametrize("dupes", [1, 3])
def test_lookup_vectorized_matches_scalar_combining(dupes):
    """Bit-identical results and charges across the two probe impls,
    including postponement/page-in behaviour on an evicted table."""
    keys = [f"key-{i:04d}".encode() for i in range(120)]

    def make_batch():
        stream = keys * dupes
        return RecordBatch.from_numeric(
            stream, np.ones(len(stream), dtype=np.int64)
        )

    queries = keys + [b"absent-1", b"absent-2"]
    ref, ref_dt = _run_lookup(
        "slow_reference", lambda: CombiningOrganization(SUM_I64),
        make_batch, queries,
    )
    vec, vec_dt = _run_lookup(
        "vectorized", lambda: CombiningOrganization(SUM_I64),
        make_batch, queries,
    )
    assert vec.values == ref.values
    assert vec.iterations == ref.iterations
    assert vec.postponed_total == ref.postponed_total
    assert vec.segments_paged_in == ref.segments_paged_in
    assert vec.iteration_postponed == ref.iteration_postponed
    assert vec_dt == ref_dt  # simulated clock, not wall time


def test_lookup_vectorized_matches_scalar_basic():
    pairs = [(f"k{i % 25}".encode(), f"v{i:03d}".encode())
             for i in range(100)]
    queries = [f"k{i}".encode() for i in range(25)] + [b"missing"]
    ref, ref_dt = _run_lookup(
        "slow_reference", BasicOrganization,
        lambda: RecordBatch.from_pairs(pairs), queries,
        heap_bytes=1 << 14, page_size=2048,
    )
    vec, vec_dt = _run_lookup(
        "vectorized", BasicOrganization,
        lambda: RecordBatch.from_pairs(pairs), queries,
        heap_bytes=1 << 14, page_size=2048,
    )
    assert vec.values == ref.values
    assert vec.iterations == ref.iterations
    assert vec.postponed_total == ref.postponed_total
    assert vec_dt == ref_dt


def test_lookup_duplicate_queries_share_one_chain_walk():
    """Many queries for one hot key still complete in one pass with the
    same per-query charges as the scalar walk."""
    keys = [b"hot"] * 8 + [b"cold"]
    batch = RecordBatch.from_numeric(
        [b"hot", b"cold"], np.array([5, 7], dtype=np.int64)
    )
    ref, ref_dt = _run_lookup(
        "slow_reference", lambda: CombiningOrganization(SUM_I64),
        lambda: batch, keys, heap_bytes=1 << 14, page_size=2048,
    )
    batch2 = RecordBatch.from_numeric(
        [b"hot", b"cold"], np.array([5, 7], dtype=np.int64)
    )
    vec, vec_dt = _run_lookup(
        "vectorized", lambda: CombiningOrganization(SUM_I64),
        lambda: batch2, keys, heap_bytes=1 << 14, page_size=2048,
    )
    assert vec.values == ref.values == [5] * 8 + [7]
    assert vec_dt == ref_dt


def test_lookup_unknown_org_rejected():
    class WeirdOrg(MultiValuedOrganization.__bases__[0]):  # Organization
        kind = "weird"

    ledger = CostLedger()
    table = GpuHashTable(
        16, WeirdOrg(), GpuHeap(2048, 512), group_size=4, ledger=ledger,
    )
    with pytest.raises(NotImplementedError):
        LookupDriver(table, KernelModel(GTX_780TI, ledger), PCIeBus(ledger))


def test_page_in_roundtrip():
    """Heap page-in restores bytes and metadata after eviction."""
    from repro.memalloc.pages import PageKind

    heap = GpuHeap(1024, 256)
    p = heap.alloc_page(PageKind.KEY, group=3)
    p.alloc(100)
    heap.pool.slot_view(p.slot)[:4] = [9, 8, 7, 6]
    heap.evict([p])
    q = heap.page_in(p.segment)
    assert q is not None
    assert q.kind is PageKind.KEY
    assert q.group == 3
    assert q.used == 100
    assert list(heap.pool.slot_view(q.slot)[:4]) == [9, 8, 7, 6]
    assert heap.is_resident(p.segment)


def test_page_in_pool_exhausted_returns_none():
    from repro.memalloc.pages import PageKind

    heap = GpuHeap(512, 256)
    a = heap.alloc_page(PageKind.GENERIC, 0)
    heap.alloc_page(PageKind.GENERIC, 0)
    heap.evict([a])
    heap.alloc_page(PageKind.GENERIC, 0)  # refill the slot
    assert heap.page_in(a.segment) is None


def test_page_in_unknown_segment():
    heap = GpuHeap(512, 256)
    with pytest.raises(KeyError):
        heap.page_in(99)


# ----------------------------------------------------------------------
# differential matrix: the batched pass against the per-entry oracle
# ----------------------------------------------------------------------
#: non-commutative and bounded: tells fold orders apart, never overflows
MOD_CALLBACK = CallbackCombiner(
    lambda a, b: (3 * a - b) % 1_000_003, scalar="i64", name="3a-b mod p"
)
CASES = {
    "basic": ("basic", None),
    "sum-i64": ("combining", SUM_I64),
    "sum-f64": ("combining", SUM_F64),
    "callback": ("combining", MOD_CALLBACK),
    "multi-valued": ("multi-valued", None),
}
#: keys the byte compare must keep apart: empty, embedded / trailing NULs,
#: a key that is another key plus ``\0``
NUL_KEYS = [b"", b"nul", b"nul\x00", b"nul\x00\x00", b"nul\x00mid", b"k0007\x00"]
NEVER_WRITTEN = [b"k9999", b"\x00", b"nul\x00\x00\x00", b"k000", b"k00070",
                 b"longer-than-every-key-in-the-table"]
MATRIX_PAGE = 256
#: enough buckets that some stay empty, so a few queries start at a NULL
#: head (a walk closed before its first step)
MATRIX_BUCKETS = 64


def _stream(case, seed, n=260):
    """Seeded mixed-op triples over 90 keys plus :data:`NUL_KEYS`."""
    kind, comb = CASES[case]
    rng = np.random.default_rng([seed, 77])
    ops = rng.choice([OP_INSERT, OP_UPDATE, OP_DELETE], size=n, p=[.5, .3, .2])
    pool = [b"k%04d" % i for i in range(90)] + NUL_KEYS
    keys = [pool[i] for i in rng.integers(0, len(pool), size=n)]
    if kind != "combining":
        return [(int(o), k, b"v%d" % i) for i, (o, k) in enumerate(zip(ops, keys))]
    if comb is SUM_F64:  # mixed magnitudes: the sum depends on the order
        vals = [(i + 0.1) * 10.0 ** (i % 17 - 8) for i in range(n)]
    else:
        vals = rng.integers(-50, 50, size=n).tolist()
    return [(int(o), k, v) for o, k, v in zip(ops, keys, vals)]


def _org(case):
    kind, comb = CASES[case]
    return {
        "basic": BasicOrganization,
        "combining": lambda: CombiningOrganization(comb),
        "multi-valued": MultiValuedOrganization,
    }[kind]()


def _batch(case, seed, replace=False):
    """Seed ``seed``'s batch; ``replace``: each update of a multi-valued
    stream a DELETE then an INSERT of its key."""
    kind, comb = CASES[case]
    stream = _stream(case, seed)
    if replace and kind == "multi-valued":
        stream = replaced(stream)
    return MutationBatch.from_ops(
        stream, numeric_dtype=comb.dtype if comb else None,
    )


def _build(case, heap_bytes, impl):
    """A table loaded by three seeded mixed-op batches (multi-valued: the
    second with every update a replace) run to completion, then a fourth
    (replaces too) applied *once*: its postponed ops stay unacknowledged,
    which for the multi-valued method leaves empty PENDING key entries at
    chain heads."""
    ledger = CostLedger()
    table = GpuHashTable(
        MATRIX_BUCKETS, _org(case), GpuHeap(heap_bytes, MATRIX_PAGE),
        group_size=8, ledger=ledger, sanitize="paranoid",
    )
    kernel, bus = KernelModel(GTX_780TI, ledger), PCIeBus(ledger)
    for seed in range(4):
        batch = _batch(case, seed, replace=seed % 2 == 1)
        if seed < 3:
            SepoDriver(table, kernel, bus).run([batch])
        else:
            table.mutate_batch(batch)
            table.end_iteration()
    table.org.impl = impl
    return table, kernel, bus, LookupDriver(table, kernel, bus)


@lru_cache(maxsize=None)
def _heap_bytes(case, over):
    """A heap the finished table is ``over`` times as large as."""
    roomy = _build(case, 1 << 20, "vectorized")[0]
    pages = -(-roomy.heap.total_table_bytes // MATRIX_PAGE)
    return max(4, -(-pages // over) + (2 if over == 1 else 0)) * MATRIX_PAGE


def _bucket(keys):
    return (fnv1a_batch(*pack_byte_rows(keys)) % np.uint64(MATRIX_BUCKETS)).tolist()


def _queries(case):
    written = sorted({k for s in range(4) for _, k, _ in _stream(case, s)})
    rng = np.random.default_rng(5)
    dup = [written[i] for i in rng.integers(0, len(written), size=120)]
    # never-written keys no written key shares a bucket with
    taken = set(_bucket(written))
    absent = [b"absent-%d" % i for i in range(64)]
    empty = [k for k, b in zip(absent, _bucket(absent)) if b not in taken][:3]
    return written + NEVER_WRITTEN + empty + dup + NUL_KEYS


def _observe(case, heap_bytes, impl):
    """Everything two lookups show -- one of the evicted table, one of
    what the first left resident (several residues of a key in one pass):
    answers, per-pass counters, every ``BatchStats`` handed to the kernel
    model, every ``bus.bulk`` call, every ledger category."""
    table, kernel, bus, driver = _build(case, heap_bytes, impl)
    passes, bulks = [], []
    charge, bulk = kernel.charge, bus.bulk
    kernel.charge = lambda stats: (passes.append(vars(stats).copy()), charge(stats))[1]
    bus.bulk = lambda nbytes: (bulks.append(nbytes), bulk(nbytes))[1]
    table.check_invariants()
    heads = table.buckets.head_cpu[_bucket(_queries(case))]
    seen = {"null heads": int((heads == NULL).sum())}
    for run in ("cold", "warm"):
        before = table.ledger.breakdown()
        res = driver.lookup(_queries(case))
        values = res.values
        if CASES[case][1] is SUM_F64:
            values = [v if v is None else struct.pack("<d", v) for v in values]
        seen.update({f"{run} {name}": value for name, value in {
            "values": values, "iterations": res.iterations,
            "postponed_total": res.postponed_total,
            "iteration_postponed": res.iteration_postponed,
            "iteration_answered": res.iteration_answered,
            "iteration_paged_in": res.iteration_paged_in,
            "segments_paged_in": res.segments_paged_in,
            "elapsed": res.elapsed_seconds,
            "passes": passes.copy(), "bulks": bulks.copy(),
            "ledger": {
                k: v - before.get(k, 0.0)
                for k, v in table.ledger.breakdown().items()
            },
        }.items()})
    table.check_invariants()
    return seen, table


def _differences(case, over):
    heap_bytes = _heap_bytes(case, over)
    want, table = _observe(case, heap_bytes, "slow_reference")
    got, _ = _observe(case, heap_bytes, "vectorized")
    # the oracle itself against the finished table's CPU-side read (a
    # ``slow_reference`` table: merged entry by entry)
    truth = table.result()
    assert want["cold values"] == want["warm values"]
    for key, value in zip(_queries(case), want["cold values"]):
        expect = truth.get(key)
        if CASES[case][0] == "basic" and expect is not None:
            expect = expect[0]  # result() reads newest first
        if CASES[case][0] == "multi-valued" and expect is not None:
            expect = expect[::-1]  # lookups answer oldest first
        if CASES[case][1] is SUM_F64 and expect is not None:
            expect = struct.pack("<d", expect)
        assert value == expect, (key, value, expect)
    assert sum(want["cold iteration_answered"]) == len(want["cold values"])
    assert want["cold iteration_postponed"][-1] == 0
    return [name for name in want if want[name] != got[name]], want


@pytest.fixture(params=[0, lookup_mod._BATCH_MIN_WALKS],
                ids=["batched-always", "shipped-cut-over"])
def cut_over(request, monkeypatch):
    monkeypatch.setattr(lookup_mod, "_BATCH_MIN_WALKS", request.param)


@pytest.mark.parametrize("over", [1, 2, 6], ids=["fits", "2x", "6x"])
@pytest.mark.parametrize("case", CASES)
def test_lookup_matrix_default_is_bit_identical_to_slow_reference(
    case, over, cut_over
):
    differing, want = _differences(case, over)
    assert differing == []
    assert want["null heads"] > 0  # queries whose walk is closed at once
    # only a heap the table does not fit pages a segment in twice
    slots = _heap_bytes(case, over) // MATRIX_PAGE
    assert (want["cold segments_paged_in"] > slots) == (over > 1)
    assert want["cold iterations"] > 2  # chains thread through segments
    assert (want["warm iterations"] == 1) == (over == 1)
    assert any(v is not None for v in want["cold values"])
    assert any(v is None for v in want["cold values"])


def test_lookup_matrix_tables_hold_every_entry_kind():
    """The streams do produce what the matrix claims to cover."""
    for case, (kind, _) in CASES.items():
        table = _build(case, _heap_bytes(case, 6), "vectorized")[0]
        heads = table.buckets.head_cpu[table.buckets.occupied_buckets()]
        image = np.frombuffer(table.heap.cpu_image(), dtype=np.uint8)
        layout = "key" if kind == "multi-valued" else "generic"
        (pos, klens, _, flags), _ = walk_cpu_image(image, heads, layout)
        header = E.KEY_ENTRY_HEADER if layout == "key" else E.ENTRY_HEADER
        keys = [image[p + header:p + header + n].tobytes()
                for p, n in zip(pos.tolist(), klens.tolist())]
        segments = Counter()
        for key, seg in {(k, p // MATRIX_PAGE) for k, p in zip(keys, pos.tolist())}:
            segments[key] += 1
        assert max(segments.values()) >= 3, "no multi-segment residue"
        if kind != "multi-valued":
            assert (flags & E.GFLAG_TOMBSTONE).any()
            assert (flags & E.GFLAG_SHADOW).any() == (kind == "basic")
            continue
        vhead = image.view(np.int64)[(pos >> 3) + 3]
        unborn = ((flags & E.FLAG_PENDING) != 0) & (vhead == NULL)
        assert (flags & E.FLAG_TOMBSTONE).any()
        assert unborn.any(), "no empty PENDING key entry"
        # several value lists to one query: per key, newest first, the
        # admissible entries (born: a non-empty value list, or a tombstone)
        # a key walk records before a tombstone closes it
        lists, closed = Counter(), set()
        for key, fl, vh in zip(keys, flags.tolist(), vhead.tolist()):
            if key in closed or E.key_entry_unborn(fl, vh):
                continue
            if fl & E.FLAG_TOMBSTONE:
                closed.add(key)
            else:
                lists[key] += 1
        assert max(lists[key] for key in set(_queries(case))) >= 2


# --- the bar: planted faults the matrix must catch ----------------------
def _tamper_matches(monkeypatch, kind, edit):
    real = lookup_mod.match_resident_chains

    def faulty(heap, heads, k, keys, key_lens):
        cm = real(heap, heads, k, keys, key_lens)
        return edit(cm) if k == kind else cm

    monkeypatch.setattr(lookup_mod, "match_resident_chains", faulty)


def _fold_oldest_first(monkeypatch):
    real = combiners.Combiner.fold_segments

    def faulty(self, values, starts, seeds=None, seeded=None, acc_right=False):
        ends = np.r_[starts[1:], len(values)]
        flipped = np.concatenate([values[:0]] + [
            values[a:b][::-1] for a, b in zip(starts.tolist(), ends.tolist())
        ])
        return real(self, flipped, starts, seeds, seeded, acc_right)

    monkeypatch.setattr(combiners.Combiner, "fold_segments", faulty)


def _number_lists_backwards(monkeypatch):
    """The batched key step numbers the value lists it records last to
    first, so a query's lists are assembled out of match order."""
    key_walks = LookupDriver._key_walks

    def faulty(self, rows, st, q, stats):
        n = len(q.lists["ord"])
        seg = key_walks(self, rows, st, q, stats)
        q.lists["ord"][n:] = q.lists["ord"][n:][::-1].copy()
        return seg

    monkeypatch.setattr(LookupDriver, "_key_walks", faulty)


FAULTS = {
    "charge the whole prefix on a basic hit": ("basic", lambda mp: _tamper_matches(
        mp, "generic", lambda cm: cm._replace(cum=cm.chain_bytes[cm.key]))),
    "fold SUM_F64 residue in the wrong order": ("sum-f64", _fold_oldest_first),
    # (an entry without a value list counts unless it is a tombstone)
    "count an empty PENDING entry as a match": ("multi-valued", lambda mp: _tamper_matches(
        mp, "key", lambda cm: cm._replace(flags=np.where(
            cm.flags & E.FLAG_PENDING, cm.flags | E.FLAG_TOMBSTONE, cm.flags)))),
    "assemble a query's value lists out of match order": (
        "multi-valued", _number_lists_backwards),
    "keep folding past a tombstone": ("sum-i64", lambda mp: _tamper_matches(
        mp, "generic", lambda cm: cm._replace(flags=cm.flags & ~E.GFLAG_TOMBSTONE))),
}


@pytest.mark.parametrize("fault", FAULTS)
def test_lookup_matrix_catches_planted_faults(fault, monkeypatch):
    case, plant = FAULTS[fault]
    monkeypatch.setattr(lookup_mod, "_BATCH_MIN_WALKS", 0)
    assert [_differences(case, over)[0] for over in (1, 2, 6)] == [[], [], []]
    plant(monkeypatch)
    caught = [_differences(case, over)[0] for over in (1, 2, 6)]
    assert any(caught), f"{fault}: no cell of the matrix differs"


@pytest.mark.parametrize("impl", ["slow_reference", "vectorized"])
@pytest.mark.parametrize("case", ["basic", "sum-i64", "multi-valued"])
def test_lookup_of_no_queries(case, impl):
    table, _, _, driver = _build(case, _heap_bytes(case, 2), impl)
    before = table.ledger.breakdown()
    res = driver.lookup([])
    assert (res.values, res.iterations, res.postponed_total) == ([], 0, 0)
    assert res.iteration_postponed == res.iteration_answered == []
    assert res.iteration_paged_in == [] and res.segments_paged_in == 0
    assert table.ledger.breakdown() == before  # no launch, no transfer


@pytest.mark.parametrize("case", ["basic", "sum-i64", "multi-valued"])
def test_lookups_follow_the_tables_impl(case, monkeypatch):
    """``table.org.impl`` is the one selector, read when a lookup runs: a
    ``slow_reference`` table's lookups -- through ``LookupDriver`` and
    through ``ShardedExecutor`` -- never reach the batched matcher, even
    with the cut-over at 0, and flipping the tables to ``vectorized``
    after the drivers were built sends them there."""
    from repro.core import chainview
    from repro.shard import ShardedExecutor

    heap_bytes = _heap_bytes(case, 2)
    table, _, _, driver = _build(case, heap_bytes, "slow_reference")
    ex = ShardedExecutor(
        2, lambda: _org(case), n_buckets=32, heap_bytes=heap_bytes // 2,
        page_size=MATRIX_PAGE, group_size=8,
    )
    ex.run([_batch(case, seed) for seed in range(3)])
    tables = [table, *ex.tables]
    for t in tables:
        t.org.impl = "slow_reference"
    assert all(t.heap._store for t in tables), "nothing for a lookup to page in"

    def batched(*args):
        raise AssertionError("the batched matcher ran")

    monkeypatch.setattr(lookup_mod, "_BATCH_MIN_WALKS", 0)
    monkeypatch.setattr(chainview, "match_resident_chains", batched)
    # the name the lookup module reads
    monkeypatch.setattr(lookup_mod, "match_resident_chains", batched)
    queries = _queries(case)
    assert any(v is not None for v in driver.lookup(queries).values)
    assert any(v is not None for v in ex.lookup(queries))
    for t in tables:
        t.org.impl = "vectorized"
    for read in (driver.lookup, ex.lookup):
        with pytest.raises(AssertionError, match="the batched matcher ran"):
            read(queries)


@pytest.mark.parametrize("impl", ["slow_reference", "vectorized"])
def test_lookup_pages_in_newest_first_whatever_the_demand(impl, monkeypatch):
    """Three evicted key segments blocking 3, 2 and 1 queries, the
    least-demanded the newest: every rearrangement hands
    ``heap.page_in_many`` the key segments in strictly descending ids,
    then the value segments in strictly descending ids, and the page-in
    rule is applied to exactly the segments that were paged in."""
    from repro.memalloc.pages import PageKind

    table, driver, lookups = build_mv_table(heap_bytes=2 * 512, group_size=8)
    table.org.impl = impl
    cands = [b"sweep-%d" % i for i in range(60)]
    buckets = table.buckets.bucket_of_hash(
        fnv1a_batch(*pack_byte_rows(cands))
    ).tolist()
    # one bucket group, one key a bucket: a walk blocks at its own entry
    keys = [cands[buckets.index(b)] for b in range(6)]
    for lo, hi in ((0, 3), (3, 5), (5, 6)):  # a key page + a value page each
        driver.run([RecordBatch.from_pairs([(k, b"v") for k in keys[lo:hi]])])
    assert table.heap._next_segment == 6 and not table.heap._resident

    calls, readmitted = [], []
    page_in = table.heap.page_in_many

    def spy(segs):
        kinds = [table.heap._store_meta[s][0] for s in segs]
        calls.append((list(segs), page_in(segs), kinds))
        return calls[-1][1]

    table.heap.page_in_many = spy
    monkeypatch.setattr(
        lookup_mod, "_readmit_key_pages",
        lambda table, segs: readmitted.extend(segs),
    )
    res = lookups.lookup(keys)
    assert res.values == [[b"v"]] * 6
    first = calls[0][0]
    assert first == [4, 2, 0]  # demand 1, 2, 3: the count order reversed
    for segs, _, kinds in calls:
        n_key = kinds.count(PageKind.KEY)
        assert kinds == [PageKind.KEY] * n_key + [PageKind.VALUE] * (len(segs) - n_key)
        for part in (segs[:n_key], segs[n_key:]):
            assert all(a > b for a, b in zip(part, part[1:])), segs
    paged = {seg for segs, done, _ in calls for seg in segs[:done]}
    assert paged == set(range(6)) and readmitted == sorted(paged)
    assert res.segments_paged_in == sum(done for _, done, _ in calls) == 6


# ----------------------------------------------------------------------
# the counted gate: page-ins and passes of the sweep, no wall-clock
# ----------------------------------------------------------------------
GATE_KINDS = {
    "basic": BasicOrganization,
    "combining": lambda: CombiningOrganization(SUM_I64),
    "multi-valued": MultiValuedOrganization,
}


def _gate_counts(kind, impl):
    """One lookup of a ``kv_mixed``-shaped table (the benchmark of
    record's shape: 24,576 mixed ops over 4,096 keys in 2,048-op batches,
    1,024 buckets, a 256 KiB heap of 4 KiB pages, 4,096 queries half of
    them absent): ``(segments, pool slots, page-ins, passes)`` and what
    crossed the bus, ``(DMAs, bytes, passes that paged in, page size)``."""
    rng = np.random.default_rng([0, 1])
    ops = rng.choice(
        [OP_INSERT, OP_UPDATE, OP_DELETE, OP_LOOKUP], size=24_576,
        p=[0.45, 0.20, 0.15, 0.20],
    )
    ranks = rng.integers(0, 4_096, size=24_576)
    numeric = kind == "combining"
    triples = [
        (int(op), b"key-%08d" % r, i if numeric else b"value-%016d" % i)
        for i, (op, r) in enumerate(zip(ops, ranks))
    ]
    queries = [b"key-%08d" % r for r in rng.integers(0, 8_192, size=4_096)]
    ledger = CostLedger()
    kernel, bus = KernelModel(GTX_780TI, ledger), PCIeBus(ledger)
    table = GpuHashTable(
        1_024, GATE_KINDS[kind](), GpuHeap(256 << 10, 4 << 10),
        group_size=64, ledger=ledger,
    )
    SepoDriver(table, kernel, bus).run([
        MutationBatch.from_ops(
            triples[lo:lo + 2_048], numeric_dtype=np.int64 if numeric else None
        )
        for lo in range(0, len(triples), 2_048)
    ])
    table.org.impl = impl
    ops, moved = bus.transfer_ops, bus.bytes_moved
    res = LookupDriver(table, kernel, bus).lookup(queries)
    assert sum(v is None for v in res.values) > 1_500  # the absent half
    heap = table.heap
    return (
        (heap._next_segment, heap.pool.n_slots, res.segments_paged_in, res.iterations),
        (bus.transfer_ops - ops, bus.bytes_moved - moved,
         sum(map(bool, res.iteration_paged_in)), heap.page_size),
    )


def _within_gate(kind, counts):
    segments, slots, paged, passes = counts
    # multi-valued: a key sweep, then a value sweep, every rearrangement;
    # a few key segments come back once more (26 of 409 here)
    share = 1.10 if kind == "multi-valued" else 1.05
    return paged <= share * segments and passes <= -(-segments // slots) + 2


def _one_dma_a_rearrangement(counts, dma):
    """Every rearrangement that pages in is one DMA of exactly the pages
    it moved (no demanded segment was resident)."""
    paged, passes = counts[2:]
    dmas, moved, paging_passes, page_size = dma
    return dmas == paging_passes <= passes and moved == page_size * paged


@pytest.mark.parametrize("impl", ["slow_reference", "vectorized"])
@pytest.mark.parametrize("kind", GATE_KINDS)
def test_lookup_sweep_gate(kind, impl):
    counts, dma = _gate_counts(kind, impl)
    assert counts[0] > 1.3 * counts[1], "the table was expected to outgrow the heap"
    assert _within_gate(kind, counts), counts
    assert _one_dma_a_rearrangement(counts, dma), (counts, dma)


def test_lookup_sweep_gate_catches_a_dma_per_page(monkeypatch):
    """The charge the one-DMA rearrangement replaced -- a ``bus.bulk`` of
    a page per demanded segment -- fails the gate."""
    def dma_per_page(self, demanded):
        heap = self.table.heap
        paged = heap.page_in_many(demanded)
        if demanded and not paged:
            heap.evict_all()
            self.table.buckets.reset_gpu_heads()
            self.table.alloc.drop_stale_pages()
            paged = heap.page_in_many(demanded)
        for _ in range(paged):
            self.bus.bulk(heap.page_size)
        return paged

    monkeypatch.setattr(LookupDriver, "_rearrange", dma_per_page)
    counts, dma = _gate_counts("basic", "vectorized")
    assert _within_gate("basic", counts)
    assert not _one_dma_a_rearrangement(counts, dma)


def test_lookup_sweep_gate_catches_the_count_ranking(monkeypatch):
    """The ranking the sweep replaced -- most-demanded segment first, ties
    to the one that blocked the earlier query -- fails the gate."""
    def by_count(blocked):
        uniq, first, count = np.unique(
            blocked, return_index=True, return_counts=True
        )
        return uniq[np.lexsort((first, -count))].tolist()

    monkeypatch.setattr(lookup_mod, "_page_in_order", by_count)
    assert not _within_gate("multi-valued", _gate_counts("multi-valued", "vectorized")[0])


def test_lookup_sweep_gate_catches_one_sweep_over_both_kinds(monkeypatch):
    """Key and value demand ranked together, newest first -- one sweep
    over both kinds of segment instead of the key sweep, then the value
    sweep -- fails the gate."""
    one_pass = LookupDriver._pass_mv

    def together(self, st, q, stats):
        still, demand = one_pass(self, st, q, stats)
        return still, sorted(demand, reverse=True)

    monkeypatch.setattr(LookupDriver, "_pass_mv", together)
    assert not _within_gate("multi-valued", _gate_counts("multi-valued", "vectorized")[0])
