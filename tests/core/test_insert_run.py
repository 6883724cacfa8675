"""One organization call for a run of insert chunks, split back per chunk.

:meth:`GpuHashTable.apply_batch` inserts consecutive pure-insert chunks
with one :meth:`Organization.insert_indices` call and returns one
:class:`InsertResult` per chunk.  Each must be what the chunk's own
:meth:`insert_batch` returns on a twin table fed the chunks one at a time
(by the scalar loop, the oracle of the kernels too):
success mask, :class:`InsertTally`, :class:`BatchStats`, and after the run
the table bytes, pins, allocator state and totals.  The seeded runs below
must also go through the places where a run differs from a chunk -- the
pool running dry mid-run, a key split across chunks, a denied key asking
again in a later chunk, multi-valued ``PENDING`` flipping across chunks --
and a fault must still fire at its chunk inside a run.
"""

from collections import Counter

import numpy as np
import pytest

from repro.bigkernel.pipeline import BigKernelPipeline
from repro.core import GpuHashTable, RecordBatch, SepoDriver
from repro.gpusim import CostLedger, GTX_780TI, KernelModel, PCIeBus
from repro.memalloc import GpuHeap
from repro.sanitize import MidIterationEviction, PoolExhaustion
from tests.core.test_differential_vectorized import make_batch, make_org

KINDS = ("basic", "combining", "combining-f64", "multi-valued")
IMPLS = ("vectorized", "slow_reference")
SEEDS = 24


def twin(kind, impl, pages, page, n_buckets, group_size):
    return GpuHashTable(
        n_buckets, make_org(kind, impl), GpuHeap(pages * page, page),
        group_size=group_size,
    )


def state(table):
    """Everything a chunk leaves behind in the table."""
    return dict(
        image=table.heap.cpu_image(),
        pins=dict(getattr(table.org, "_pin_counts", {})),
        pinned=sorted(p.segment for p in table.heap.resident_pages if p.pinned),
        stats=vars(table.alloc.stats).copy(),
        failed=table.alloc.failed_groups.tolist(),
        n_free=table.heap.pool.n_free,
        totals=(table.total_inserted, table.total_postponed),
    )


def assert_same(got, want):
    assert len(got) == len(want)
    for n, (g, w) in enumerate(zip(got, want)):
        assert g.success.tolist() == w.success.tolist(), f"chunk {n}: mask"
        assert g.tally == w.tally, f"chunk {n}: tally"
        assert g.stats == w.stats, f"chunk {n}: stats"


def chunks(kind, rng):
    """Three to six chunks over a few dozen keys, values spread over
    sizes so a smaller record may fit where a bigger one was denied."""
    n_keys = int(rng.integers(4, 48))
    spread = int(rng.choice([1, 24, 72]))
    out = []
    for c in range(int(rng.integers(3, 7))):
        n = int(rng.integers(8, 90))
        keys = [b"key-%02d" % k for k in rng.integers(0, n_keys, size=n)]
        values = [b"v" * int(rng.integers(0, spread)) + b"%d.%d" % (c, i)
                  for i in range(n)]
        out.append(make_batch(kind, keys, values))
    return out


def observe(table, facts, parts):
    """Insert ``parts`` one call a chunk, noting what the run goes
    through: a pool that ran dry in an earlier chunk, a key postponed in
    one chunk and asked for again in a later one, ``PENDING`` set in one
    chunk and cleared in a later one."""
    org = table.org
    flips: list[tuple[int, bool]] = []
    if hasattr(org, "_count_pending"):
        count = org._count_pending
        org._count_pending = lambda heap, seg, pin: (
            flips.append((len(results), pin)), count(heap, seg, pin))
    results, denied = [], set()
    for n, (batch, idx) in enumerate(parts):
        dry = table.heap.pool.n_free == 0
        res = table.insert_batch(batch, idx)
        rows = np.arange(len(batch)) if idx is None else idx
        keys = batch.key_bytes_list()
        asked = {keys[i] for i in rows.tolist()}
        facts["dry mid-run"] += n > 0 and dry and not res.success.all()
        facts["denied key asks again"] += bool(asked & denied)
        denied |= {keys[i] for i in rows[~res.success].tolist()}
        results.append(res)
    keys_per_chunk = [
        {b.key_bytes_list()[i] for i in
         (range(len(b)) if i is None else i.tolist())} for b, i in parts]
    facts["key split across chunks"] += any(
        a & b for n, a in enumerate(keys_per_chunk) for b in keys_per_chunk[n + 1:])
    set_at = [c for c, pin in flips if pin]
    facts["PENDING flips across chunks"] += any(
        not pin and set_at and c > set_at[0] for c, pin in flips)
    if hasattr(org, "_count_pending"):
        del org._count_pending
    return results


@pytest.mark.parametrize("impl", IMPLS)
@pytest.mark.parametrize("kind", KINDS)
def test_a_fused_run_splits_into_what_each_chunk_returns_alone(kind, impl):
    facts = Counter()
    for seed in range(SEEDS):
        rng = np.random.default_rng([39, seed])
        n_buckets = int(rng.choice([1, 4, 16]))
        shape = dict(
            pages=int(rng.integers(3, 9)), page=int(rng.choice([256, 512])),
            n_buckets=n_buckets,
            group_size=int(rng.choice([g for g in (1, 2, 8) if g <= n_buckets])),
        )
        # the chunk-at-a-time twin runs the scalar loop: the oracle of both
        # the split and the kernel
        fused, alone = twin(kind, impl, **shape), twin(kind, "slow_reference", **shape)
        if impl == "vectorized":  # the run must stay on the kernel
            fused.org._scalar_loop = None
        batches = chunks(kind, rng)
        pending = [None] * len(batches)
        for _ in range(4):  # the reissues of later passes are runs too
            live = [c for c, p in enumerate(pending) if p is None or len(p)]
            if not live:
                break
            parts = [(batches[c], pending[c]) for c in live]
            got = fused.apply_batch(parts)
            want = observe(alone, facts, parts)
            assert_same(got, want)
            assert state(fused) == state(alone), f"seed {seed}"
            for c, res in zip(live, got):
                rows = np.arange(len(batches[c])) if pending[c] is None else pending[c]
                pending[c] = rows[~res.success]
            fused.end_iteration()
            alone.end_iteration()
        assert fused.result() == alone.result() or kind == "combining-f64"
    if kind == "multi-valued":
        assert facts["PENDING flips across chunks"] >= 3, facts
    assert facts["dry mid-run"] >= 3, facts
    assert facts["key split across chunks"] >= SEEDS // 2, facts
    if kind != "basic":  # a basic record asks once
        assert facts["denied key asks again"] >= 3, facts


def test_an_oversize_record_refuses_the_whole_run():
    """A value node larger than a page in the last chunk of a run: the
    call raises the allocator's error, as that chunk alone would, before
    any op runs -- no kernel is entered and the chunks ahead of it store
    nothing, so the table is the one it was before the call."""
    page = 256
    fine = [make_batch("multi-valued", [b"a%d" % i for i in range(12)],
                       [b"x" * 20] * 12) for _ in range(2)]
    big = make_batch("multi-valued", [b"b0", b"b1"], [b"y" * 10, b"z" * page])
    parts = [(fine[0], None), (fine[1], None), (big, None)]
    fused = twin("multi-valued", "vectorized", 8, page, 4, 2)
    alone = twin("multi-valued", "vectorized", 8, page, 4, 2)
    before = state(fused)
    kernel_runs = []
    run = fused.org._insert_kernel_run
    fused.org._insert_kernel_run = lambda *a: kernel_runs.append(
        len(a[2])) or run(*a)
    with pytest.raises(ValueError) as fused_error:
        fused.apply_batch(parts)
    with pytest.raises(ValueError) as alone_error:
        alone.insert_batch(big)
    assert str(fused_error.value) == str(alone_error.value)
    assert kernel_runs == []
    assert state(fused) == state(alone) == before


# ----------------------------------------------------------------------
# faults count chunks, not calls
# ----------------------------------------------------------------------
def six_chunks():
    rng = np.random.default_rng(6)
    return [
        RecordBatch.from_numeric(
            [b"key-%03d" % k for k in rng.integers(0, 400, size=64)],
            np.arange(64, dtype=np.int64),
        )
        for _ in range(6)
    ]


def denied_in_chunks_2_and_3(table, results):
    assert [r.success.all() for r in results] == [True, True, False, False, True, True]


def evicted_once(table, results):
    assert table.iterations_completed == 1
    assert table.eviction_reports[0].pages_evicted


@pytest.mark.parametrize("fault, fired", [
    (lambda: PoolExhaustion(after_batches=2, deny_batches=2),
     denied_in_chunks_2_and_3),
    (lambda: MidIterationEviction(at_batch=3), evicted_once),
], ids=["pool-exhaustion", "mid-iteration-eviction"])
def test_a_fault_fires_at_its_chunk_inside_a_fused_pass(fault, fired):
    """A SEPO pass over six combining chunks makes one table call; the
    fault cuts it at its chunk.  A twin fed the six chunks through
    ``insert_batch`` one at a time, charged as the driver charges them,
    ends with the same masks, tallies and ledger."""
    def table():
        return GpuHashTable(64, make_org("combining", "vectorized"),
                            GpuHeap(48 * 512, 512), group_size=8,
                            ledger=CostLedger())

    fused, alone = table(), table()
    fault().install(fused)
    fault().install(alone)
    calls, got = [], []
    apply = fused.apply_batch
    fused.apply_batch = lambda parts: (
        calls.append(len(parts)) or got.extend(apply(parts)) or got[-len(parts):])
    driver = SepoDriver(fused, KernelModel(GTX_780TI, fused.ledger),
                        PCIeBus(fused.ledger))
    batches = six_chunks()
    driver.run_pass(batches, driver.begin(batches))
    assert calls == [6]
    fired(fused, got)

    kernel = KernelModel(GTX_780TI, alone.ledger)
    pipeline = BigKernelPipeline(PCIeBus(alone.ledger))
    pipeline.begin_pass()
    want = []
    for batch in batches:
        res = alone.insert_batch(batch)
        before = alone.ledger.elapsed
        kernel.charge(res.stats)
        pipeline.account(batch.input_bytes, alone.ledger.elapsed - before)
        want.append(res)
    assert_same(got, want)
    assert fused.ledger.breakdown() == alone.ledger.breakdown()
    assert state(fused) == state(alone)
