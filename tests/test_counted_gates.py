"""Perf gates that count instead of time, in lines of :mod:`repro` run
or in calls made.

Each gate compares two counts taken on one interpreter by :func:`flat`,
:func:`per_op` or :func:`fraction`, or bounds one by :func:`capped`,
each bound at least 2x from what was
measured (the table in docs/testing.md), and :data:`GATES` pairs it with a
planted fault -- the loop run where the batched path should -- that must
fail it.
"""

import numpy as np
import pytest

import repro.core.lookup as lookup_mod
from repro.apps import ALL_APPS
from repro.core import GpuHashTable, RecordBatch, SepoDriver
from repro.core import hashtable, sepo
from repro.core.hashtable import merge_chain_items
from repro.core.lookup import LookupDriver
from repro.core.mutations import OP_LOOKUP
from repro.core.organizations import oracle, policy
from repro.core.suffixes import SuffixCache
from repro.gpusim import CostLedger, GTX_780TI, KernelModel, PCIeBus
from repro.integrity.checksums import _crc
from repro.memalloc import BucketGroupAllocator, GpuHeap
from repro.memalloc.pages import PageKind
from tests.core.test_differential_vectorized import make_batch, make_org
from tests.core.test_mutations import mut_batch, seeded_ops
from tests.counting import counted

KINDS = ("basic", "combining", "multi-valued")
PAGE = 4 << 10  # the page of the benchmark of record's kv_mixed tables


class GateFailed(AssertionError):
    """A counted gate's relation does not hold."""


def flat(small: int, big: int, what: str) -> None:
    """The count does not grow with the batch: 8x the input, under 2x."""
    if not big < 2 * small:
        raise GateFailed(f"{what}: {small:,} -> {big:,} for 8x the input")


def per_op(small: int, big: int, added: int, k: int, what: str) -> None:
    """The ``added`` inputs between two counts add at most ``k`` each."""
    if not big - small <= k * added:
        raise GateFailed(
            f"{what}: {small:,} -> {big:,}, over {k} per added input")


def capped(count: int, cap: int, what: str) -> None:
    """The count stays under a fixed cap."""
    if not count <= cap:
        raise GateFailed(f"{what}: {count:,}, over the cap of {cap:,}")


def fraction(batched: int, loop: int, k: int, what: str) -> None:
    """The batched path runs at most ``1/k`` of the loop's lines."""
    if not k * batched <= loop:
        raise GateFailed(f"{what}: {batched:,} lines, over 1/{k} of {loop:,}")


def lines(call) -> int:
    return counted(call).lines


def kernel_vs_loop(measure, k: int, what: str) -> None:
    """:func:`fraction` of ``measure(impl)`` on both implementations."""
    fraction(measure("vectorized"), measure("slow_reference"), k, what)


def table(kind, impl="vectorized", pages=768, page=64 << 10, buckets=4096,
          **kwargs):
    """By default room for every record: 48 MB of 64 KB pages."""
    heap = GpuHeap(pages * page, page)
    return GpuHashTable(buckets, make_org(kind, impl), heap, group_size=64,
                        **kwargs)


def records(kind, n, dist="uniform", seed=42):
    """``n`` records over ``n`` keys, or zipf(1.05) over ``n/8`` of them."""
    rng = np.random.default_rng(seed)
    p = 1.0 / np.arange(1, n // 8 + 1) ** 1.05
    ranks = (rng.integers(0, n, size=n) if dist == "uniform"
             else rng.choice(n // 8, size=n, p=p / p.sum()))
    keys = [b"key-%08d" % r for r in ranks]
    return make_batch(kind, keys, [b"value-%016d" % i for i in range(n)])


def loaded(kind, pages, n_ops):
    """1,024 buckets over ``pages`` 4 KB pages, loaded by ``n_ops`` mixed
    ops run through SEPO: a CPU side several times the heap."""
    ledger = CostLedger()
    t = table(kind, pages=pages, page=PAGE, buckets=1024, ledger=ledger)
    kernel, bus = KernelModel(GTX_780TI, ledger), PCIeBus(ledger)
    ops = seeded_ops(3, n_ops, 4096, kind)
    SepoDriver(t, kernel, bus).run(
        [mut_batch(kind, ops[i:i + 2048]) for i in range(0, n_ops, 2048)])
    return t, kernel, bus


# -- the gates ----------------------------------------------------------
def insert_gate(kind):
    """A fresh-table insert, uniform and zipf."""
    for dist in ("uniform", "zipf"):
        def insert(impl, n=1024):
            batch, t = records(kind, n, dist), table(kind, impl)
            return lines(lambda: t.insert_batch(batch))

        what = f"{kind}/{dist}"
        kernel_vs_loop(insert, 10, what)
        flat(insert("vectorized"), insert("vectorized", 8192), what)


def insert_pass_gate():
    """A SEPO run of k combining chunks of 512 records inserts them with
    one ``insert_indices`` call per ``RUN_RECORDS`` records, not one a
    chunk: 4 and 32 chunks (2,048 and 16,384 records)."""
    for k in (4, 32):
        batches = [records("combining", 512, seed=s) for s in range(k)]
        t = table("combining", ledger=CostLedger())
        driver = SepoDriver(t, KernelModel(GTX_780TI, t.ledger),
                            PCIeBus(t.ledger))
        run = counted(lambda: driver.run(batches),
                      calls={"insert": policy.Organization.insert_indices})
        assert run.value.iterations == 1
        want = -(-k * 512 // hashtable.RUN_RECORDS)
        if run.calls["insert"] != want:
            raise GateFailed(f"{k} chunks: {run.calls['insert']} insert "
                             f"calls, not {want}")


def mixed_pass_gate():
    """A SEPO run of k combining chunks of 512 mixed ops that never fail
    a group applies them with one ``mutate_indices`` call per
    ``RUN_RECORDS`` ops, not one a chunk: 4 and 32 chunks."""
    for k in (4, 32):
        batches = [mut_batch("combining", seeded_ops(s, 512, 4096, "combining"))
                   for s in range(k)]
        t = table("combining", ledger=CostLedger())
        driver = SepoDriver(t, KernelModel(GTX_780TI, t.ledger),
                            PCIeBus(t.ledger))
        run = counted(lambda: driver.run(batches),
                      calls={"mutate": policy.Organization.mutate_indices})
        assert run.value.iterations == 1 and not t.alloc.has_failures
        want = -(-k * 512 // hashtable.RUN_RECORDS)
        if run.calls["mutate"] != want:
            raise GateFailed(f"{k} chunks: {run.calls['mutate']} mutate "
                             f"calls, not {want}")


#: per organization, what a 64-op mixed-op call on a shard-sized table
#: may make in Python and C calls, and what each further 64-op part of the
#: same call may add (2x the counts in docs/testing.md)
MIXED_CALL_CAP = {"basic": 1600, "combining": 1800, "multi-valued": 2000}
MIXED_CALL_PER_PART = 190


def shard_table(kind, pages=256):
    """``kv_sharded``'s shard shape -- 256 buckets in groups of 64, 4 KB
    pages -- with room for 4,096 more ops, loaded by 2,048 mixed ops and
    evicted whole: the state a router flush finds its shard in."""
    t = table(kind, pages=pages, page=PAGE, buckets=256)
    t.mutate_batch(mut_batch(kind, seeded_ops(3, 2048, 4096, kind)))
    t.end_iteration()
    return t


def mixed_call_gate():
    """One mixed-op call (``apply_batch``) on a shard-sized table, its
    in-stream lookups included: at 64 ops in one part its Python and C
    calls stay under a cap, and 64 parts of 64 ops add no more than a
    per-part term (docs/cost_model.md, "A mixed-op call's fixed cost")."""
    for kind in KINDS:
        def made(n_parts):
            t = shard_table(kind)
            parts = [(mut_batch(kind, seeded_ops(10 + p, 64, 4096, kind)), None)
                     for p in range(n_parts)]
            return counted(lambda: t.apply_batch(parts)).made

        one = made(1)
        capped(one, MIXED_CALL_CAP[kind], f"{kind}: calls of a 64-op call")
        per_op(one, made(64), 63, MIXED_CALL_PER_PART, f"{kind}: calls")


def one_plan_gate():
    """A mixed-op kernel call plans its request stream once: the cut and
    the allocation read the same ``BucketGroupAllocator.plan``, with room
    to spare and through a pool that runs dry mid-call."""
    for kind in KINDS:
        for pages in (256, 8):
            t = shard_table(kind, pages)
            batch = mut_batch(kind, seeded_ops(5, 512, 4096, kind))
            run = counted(lambda: t.mutate_batch(batch),
                          calls={"plan": BucketGroupAllocator.plan})
            if run.calls["plan"] != 1:
                raise GateFailed(f"{kind}, {pages} pages: "
                                 f"{run.calls['plan']} plans, not 1")


def result_gate():
    """``result()`` of one two-iteration table, bulk against per entry."""
    for kind, k in zip(KINDS, (3, 10, 4)):
        t, batch = table(kind), records(kind, 10_384)
        for half in np.split(np.arange(10_384), 2):
            assert t.insert_batch(batch.take(half)).success.all()
            t.end_iteration()

        def read(impl):
            t.org.impl = impl
            return lines(t.result)

        kernel_vs_loop(read, k, kind)


def mixed_gate():
    """A mixed-op batch on a fresh table, its in-stream lookups included
    (docs/cost_model.md, "What a count found in the kernel")."""
    for kind in KINDS:
        def mutate(n):
            batch = mut_batch(kind, seeded_ops(42, n, n // 8, kind))
            t = table(kind)
            return lines(lambda: t.mutate_batch(batch))

        per_op(mutate(1024), mutate(8192), 7168, 1, kind)


def lookup_gate():
    """1,024 queries, half never written, on tables several times the heap."""
    rng = np.random.default_rng(5)
    queries = [b"k%04d" % r for r in rng.integers(0, 8192, size=1024)]
    for kind, pages, k in zip(KINDS, (24, 14, 32), (5, 10, 3)):
        def lookup(impl):
            t, kernel, bus = loaded(kind, pages, 8192)
            t.org.impl = impl
            run = counted(lambda: LookupDriver(t, kernel, bus).lookup(queries))
            assert run.value.iterations > 2 and run.value.segments_paged_in
            return run.lines

        kernel_vs_loop(lookup, k, kind)


def warm_lookup_gate():
    """Two mixed-op calls with the same in-stream lookups and nothing
    stored in between: the second parses the resident prefixes, not the
    stored chains behind them, so its nodes parsed stay flat as the
    chains grow 8x (1,024 against 8,192 ops loaded)."""
    for kind in KINDS:
        def parsed(n_ops):
            t = loaded(kind, 24, n_ops)[0]
            t.mutate_batch(mut_batch(kind, seeded_ops(8, 256, 4096, kind)))
            looks = mut_batch(kind, [(OP_LOOKUP, k, v) for _, k, v in
                                     seeded_ops(9, 512, 4096, kind)])
            t.mutate_batch(looks)
            before = t.suffixes.parsed
            t.mutate_batch(looks)
            return t.suffixes.parsed - before

        flat(parsed(1024), parsed(8192), f"{kind}: nodes parsed")


def dry_pool_gate():
    """A multi-valued insert that enters a dry pool (not flat: behind a
    denied page the allocator retries request by request)."""
    def insert(impl):
        t = table("multi-valued", impl, pages=20, page=PAGE, buckets=1024)
        t.insert_batch(records("multi-valued", 2048))
        batch = records("multi-valued", 2048, seed=43)
        run = counted(lambda: t.insert_batch(batch))
        assert t.heap.pool.n_free == 0 and not run.value.success.any()
        return run.lines

    kernel_vs_loop(insert, 5, "dry pool")


def splice_gate():
    """A multi-valued boundary keeping some pages of a table 4.4x the heap."""
    def boundary(impl):
        t = loaded("multi-valued", 48, 16_384)[0]
        last = seeded_ops(11, 2048, 4096, "multi-valued")
        t.mutate_batch(mut_batch("multi-valued", last))
        t.org.impl = impl
        run = counted(t.end_iteration)
        assert run.value.pages_retained and not run.value.forced_full_eviction
        return run.lines

    kernel_vs_loop(boundary, 10, "splice")


def allocate_one_by_one(alloc, groups, sizes):
    for g, size in zip(groups.tolist(), sizes.tolist()):
        alloc.allocate(g, size)


def allocator_gate():
    """``allocate_many`` against one ``allocate`` a request, pool not dry."""
    for n, n_groups, k in ((16_384, 1024, 5), (64, 16, 2)):
        rng = np.random.default_rng(n)
        groups = rng.integers(0, n_groups, size=n)
        sizes = rng.integers(4, 33, size=n) * 8
        marks = rng.integers(0, PAGE // 8, size=n_groups) * 8
        heap_bytes = (2 * n_groups + int(sizes.sum()) // PAGE) * PAGE
        bulk, loop = (BucketGroupAllocator(GpuHeap(heap_bytes, PAGE), n_groups)
                      for _ in range(2))
        for alloc in (bulk, loop):
            for g in np.flatnonzero(marks):
                alloc.allocate(int(g), int(marks[g]))
        fraction(lines(lambda: bulk.allocate_many(groups, sizes)),
                 lines(lambda: allocate_one_by_one(loop, groups, sizes)),
                 k, f"{n} x {n_groups}")
        assert vars(bulk.stats) == vars(loop.stats)


def integrity_gate():
    """A multi-valued boundary verifies each stored segment once, not once
    per key entry on it: its CRC calls do not grow with the records."""
    for mode in ("verify", "scrub"):
        def crcs(n):
            t = table("multi-valued", integrity=mode, scrub_budget=8)
            assert t.insert_batch(records("multi-valued", n)).success.all()
            run = counted(lambda: (t.end_iteration(), t.maybe_scrub()),
                          calls={"crc": _crc})
            return run.calls["crc"]

        flat(crcs(1024), crcs(8192), f"integrity={mode} CRCs")


def span_parser_gate():
    """Every app's ``parse_chunk``, a 64 KB chunk against a 512 KB one."""
    for app in (cls() for cls in ALL_APPS):
        data = app.generate_input(600 << 10, seed=0)
        small, big = (app.partition(data, size)[0]
                      for size in (64 << 10, 512 << 10))
        flat(lines(lambda: app.parse_chunk(small)),
             lines(lambda: app.parse_chunk(big)), app.name)


# -- the planted faults: the loop where the batched path should run ----
def _patch(owner, name, value):
    return lambda mp: mp.setattr(owner, name, value)


def _kernels_decline(mp):
    for name in ("_insert_basic", "_insert_combining", "_insert_multivalued"):
        mp.setattr(policy, name, lambda *args: None)


def _merge_per_entry(t):
    return merge_chain_items(
        t.cpu_items(), t.org.kind, getattr(t.org, "combiner", None))


_from_spans = RecordBatch.from_spans


def _bytes_per_record(*args, **kwargs):
    """``from_spans`` that also cuts every key out as its own ``bytes``."""
    batch = _from_spans(*args, **kwargs)
    batch.key_bytes_list()
    return batch


def _plan_again(mp):
    """``allocate_many`` that plans the requests it is handed again."""
    real = BucketGroupAllocator.allocate_many

    def allocate_many(self, groups, sizes, kind=PageKind.GENERIC, kinds=None,
                      plan=None):
        if plan is not None:
            kind, kinds = plan.kind, plan.codes
        return real(self, groups, sizes, kind, kinds)

    mp.setattr(BucketGroupAllocator, "allocate_many", allocate_many)


_sync = SuffixCache.sync


def _forget_every_suffix(self):
    """``sync`` that drops every cached suffix: the cache disabled."""
    _sync(self)
    self._forget(np.arange(len(self.start)))


_per_entry_splice = _patch(policy, "_splice_resident", oracle.splice_chains)

#: gate -> (the gate, the planted fault that must fail it)
GATES = {
    **{f"insert-{k}": (lambda k=k: insert_gate(k), _kernels_decline)
       for k in (*KINDS, "combining-f64")},
    "insert-pass": (insert_pass_gate, _patch(hashtable, "RUN_RECORDS", 1)),
    "mixed-pass": (mixed_pass_gate, _patch(
        sepo, "run_fits", lambda head, records, batch, n:
        batch.pure_insert and hashtable.run_fits(head, records, batch, n))),
    "result": (result_gate, _patch(
        GpuHashTable, "_result_bulk", _merge_per_entry)),
    "mixed-ops": (mixed_gate, _patch(policy, "MIXED_KERNEL_MIN_OPS", 1 << 62)),
    "mixed-call": (mixed_call_gate,
                   _patch(policy, "MIXED_KERNEL_MIN_OPS", 1 << 62)),
    "one-plan": (one_plan_gate, _plan_again),
    "lookup": (lookup_gate, _patch(lookup_mod, "_BATCH_MIN_WALKS", 1 << 62)),
    "warm-lookup": (warm_lookup_gate, _patch(
        SuffixCache, "sync", _forget_every_suffix)),
    "dry-pool": (dry_pool_gate, _kernels_decline),
    "splice": (splice_gate, _per_entry_splice),
    "allocator": (allocator_gate, _patch(
        BucketGroupAllocator, "allocate_many", allocate_one_by_one)),
    "integrity": (integrity_gate, _per_entry_splice),
    "span-parsers": (span_parser_gate, _patch(
        RecordBatch, "from_spans", staticmethod(_bytes_per_record))),
}


@pytest.mark.parametrize("gate", GATES)
def test_counted_gate(gate):
    GATES[gate][0]()


@pytest.mark.parametrize("gate", GATES)
def test_a_planted_fault_fails_its_gate(gate, monkeypatch):
    run, plant = GATES[gate]
    plant(monkeypatch)
    with pytest.raises(GateFailed):
        run()
