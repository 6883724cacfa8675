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

from repro.core import (
    OP_DELETE,
    OP_INSERT,
    OP_LOOKUP,
    OP_UPDATE,
    GpuHashTable,
    MutationBatch,
    RecordBatch,
    SepoDriver,
)
from repro.core import hashtable
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
def six_chunks(mixed):
    """Six combining chunks of 64 records; ``mixed``: of 64 mixed ops,
    mostly inserts, over keys the earlier chunks wrote too."""
    rng = np.random.default_rng(6)
    chunks = []
    for _ in range(6):
        keys = [b"key-%03d" % k for k in rng.integers(0, 400, size=64)]
        if not mixed:
            chunks.append(RecordBatch.from_numeric(
                keys, np.arange(64, dtype=np.int64)))
            continue
        ops = rng.choice([OP_INSERT, OP_UPDATE, OP_DELETE, OP_LOOKUP],
                         size=64, p=[0.55, 0.15, 0.15, 0.15])
        chunks.append(MutationBatch.from_ops(
            [(int(op), k, i) for i, (op, k) in enumerate(zip(ops, keys))],
            numeric_dtype=np.int64))
    return chunks


def every_group_failed_in_chunk_3(table, results):
    """Chunks 2 and 3 fail every group: the gate refuses 4 and 5."""
    assert [r.success.all() for r in results] == [True, True, False, False]
    assert table.alloc.failed_fraction == 1


def denied_in_chunks_2_and_3(table, results):
    assert [r.success.all() for r in results] == [True, True, False, False, True, True]


def evicted_once(table, results):
    assert table.iterations_completed == 1
    assert table.eviction_reports[0].pages_evicted


def pool_exhaustion():
    return PoolExhaustion(after_batches=2, deny_batches=2)


def mid_iteration_eviction():
    return MidIterationEviction(at_batch=3)


@pytest.mark.parametrize("fault, fired, mixed", [
    (pool_exhaustion, denied_in_chunks_2_and_3, False),
    (mid_iteration_eviction, evicted_once, False),
    (pool_exhaustion, every_group_failed_in_chunk_3, True),
    (mid_iteration_eviction, evicted_once, True),
], ids=["pool-exhaustion", "mid-iteration-eviction", "pool-exhaustion-mixed",
        "mid-iteration-eviction-mixed"])
def test_a_fault_fires_at_its_chunk_inside_a_fused_pass(
        fault, fired, mixed, monkeypatch):
    """A SEPO pass over six combining chunks makes one table call; the
    fault cuts it at its chunk.  A twin whose driver makes one call a
    chunk ends with the same masks, tallies and ledger: the chunks it
    applies are charged as the driver charges them.  Mixed, the denied
    pages fail every group, so the gate refuses the chunks after that."""
    def table():
        t = GpuHashTable(64, make_org("combining", "vectorized"),
                         GpuHeap(48 * 512, 512), group_size=8,
                         ledger=CostLedger())
        fault().install(t)
        return t

    def one_pass(t):
        calls, got = [], []
        apply = t.apply_batch
        t.apply_batch = lambda parts: (
            calls.append(len(parts)) or got.extend(apply(parts))
            or got[-len(parts):])
        driver = SepoDriver(t, KernelModel(GTX_780TI, t.ledger),
                            PCIeBus(t.ledger))
        batches = six_chunks(mixed)
        driver.run_pass(batches, driver.begin(batches))
        return calls, got, batches

    fused, alone = table(), table()
    calls, got, batches = one_pass(fused)
    assert calls == [6]
    fired(fused, got)
    with monkeypatch.context() as m:
        m.setattr(hashtable, "RUN_RECORDS", 0)  # one call a chunk
        calls, want, alone_batches = one_pass(alone)
    assert calls == [1] * len(want)
    assert_same(got, want)
    assert fused.ledger.breakdown() == alone.ledger.breakdown()
    assert state(fused) == state(alone)
    assert fused.mutations == alone.mutations
    assert fused.iterations_completed == alone.iterations_completed
    assert [vars(r) for r in fused.eviction_reports] == [
        vars(r) for r in alone.eviction_reports]
    assert [getattr(b, "lookup_results", None) for b in batches] == [
        getattr(b, "lookup_results", None) for b in alone_batches]
