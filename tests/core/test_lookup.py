"""SEPO lookups (the Section IV-C 'mental exercise' extension)."""

import numpy as np
import pytest

from repro.core import (
    BasicOrganization,
    CombiningOrganization,
    GpuHashTable,
    MultiValuedOrganization,
    RecordBatch,
    SepoDriver,
    SUM_I64,
)
from repro.core.lookup import LookupDriver
from repro.gpusim import CostCategory, CostLedger, GTX_780TI, KernelModel, PCIeBus
from repro.memalloc import GpuHeap


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


def build_mv_table(heap_bytes=2048, page_size=512):
    ledger = CostLedger()
    heap = GpuHeap(heap_bytes, page_size)
    table = GpuHashTable(
        16, MultiValuedOrganization(), heap, group_size=4, ledger=ledger,
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
    res = LookupDriver(table, kernel, bus, impl=impl).lookup(queries)
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


def test_lookup_rejects_unknown_impl():
    table, driver, lookups = build_table()
    for impl in ("gpu", "compiled"):  # the numba backend is gone for good
        with pytest.raises(ValueError):
            LookupDriver(table, lookups.kernel, lookups.bus, impl=impl)


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
