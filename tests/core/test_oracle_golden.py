"""Golden digests of the scalar loops where nothing else pins them.

``impl="vectorized"`` hands a batch to the organization's per-record loop
whenever its kernels have no closed form: an access trace is attached, two
keys of the batch collide on the 64-bit hash, the combiner is a callback,
pure inserts meet a table holding tombstones, a fault-injected pool denies
takes ``n_free`` promised.  In those regimes ``vectorized`` and
``slow_reference`` run the *same* loop, so the differential suites compare
it with itself, and the dict-model checks see ``result()`` but not the
probe steps, touched bytes, cycles or ``on_access`` order the cost model
is fed from.

Each cell here drives one small table through a SEPO-shaped run -- pure
insert batches, mixed-op batches and an all-insert ``MutationBatch``, on a
heap that postpones and evicts -- and digests everything a call leaves
behind.  The digests in :data:`GOLDEN` were recorded by running this
module's own :func:`digest` at the commit *before* the per-organization
insert and mutate loops were merged (``python tests/core/test_oracle_golden.py``
prints the table), so a loop that charges, links, traces or postpones
differently fails here.
"""

import hashlib
import random
from dataclasses import astuple

import numpy as np
import pytest

from repro.core import (
    OP_DELETE,
    OP_INSERT,
    OP_LOOKUP,
    OP_UPDATE,
    SUM_I64,
    BasicOrganization,
    CallbackCombiner,
    CombiningOrganization,
    GpuHashTable,
    MultiValuedOrganization,
    MutationBatch,
    RecordBatch,
)
from repro.core import entries as E
from repro.memalloc import GpuHeap
from repro.memalloc.pages import PagePool

KINDS = ("basic", "combining", "multi-valued")
REGIMES = ("traced", "collision", "callback", "tombstones", "faulty-pool")
IMPLS = ("vectorized", "slow_reference")

#: a*1 + b*2: order-sensitive, and small enough never to overflow i64
CALLBACK = CallbackCombiner(
    lambda a, b: a + 2 * b, scalar="i64", name="a+2b", cycles=2.5
)

#: the two keys the collision regime gives one 64-bit hash
TWIN, OTHER = b"key-03", b"key-17xxxxxx"


class AccessLog:
    """The ``trace`` a table reports every access to, in order."""

    def __init__(self):
        self.events = []

    def on_access(self, cpu_addr, nbytes):
        self.events.append((int(cpu_addr), int(nbytes)))


def make_table(kind, regime, impl):
    if kind == "basic":
        org = BasicOrganization(impl=impl)
    elif kind == "combining":
        comb = CALLBACK if regime == "callback" else SUM_I64
        org = CombiningOrganization(comb, impl=impl)
    else:
        org = MultiValuedOrganization(impl=impl)
    table = GpuHashTable(
        16, org, GpuHeap(6 * 256, 256), group_size=4, sanitize="off",
        trace=AccessLog() if regime == "traced" else None,
    )
    if regime == "faulty-pool":
        pool = table.heap.pool
        # the last two slots are never handed out
        pool.take = lambda: PagePool.take(pool) if pool.n_free > 2 else None
    return table


def make_batches(kind, regime, seed):
    """Three rounds of batches, each round run to completion before the
    next: a mixed-op batch (which leaves tombstones behind), then two pure
    insert batches beside a second mixed one, then an all-insert
    ``MutationBatch`` beside a pure insert batch."""
    rng = random.Random(seed)
    numeric = kind == "combining"

    def key():
        k = rng.randrange(40)
        return b"key-%02d" % k + b"x" * (k % 3 * 3)

    def value():
        v = rng.randrange(90)
        return v - 40 if numeric else b"v%d" % v + b"y" * (v % 4 * 2)

    def mixed(n, ops):
        triples = [(rng.choice(ops), key(), value()) for _ in range(n)]
        return MutationBatch.from_ops(
            triples, numeric_dtype=np.int64 if numeric else None,
        )

    def inserts(n):
        pairs = [(key(), value()) for _ in range(n)]
        if numeric:
            return RecordBatch.from_numeric(
                [k for k, _ in pairs],
                np.array([v for _, v in pairs], dtype=np.int64),
            )
        return RecordBatch.from_pairs(pairs)

    every = (OP_INSERT, OP_INSERT, OP_UPDATE, OP_DELETE, OP_LOOKUP)
    rounds = [
        [mixed(90, every)],
        [inserts(110), mixed(70, every), inserts(50)],
        [mixed(60, (OP_INSERT,)), inserts(40)],
    ]
    if regime == "collision":
        for batch in (b for todo in rounds for b in todo):
            keys = batch.key_bytes_list()
            hashes = batch.cache.hashes().copy()
            if TWIN in keys and OTHER in keys:
                twin = hashes[keys.index(TWIN)]
                hashes[[k == OTHER for k in keys]] = twin
            batch.cache._hashes = hashes
    return rounds


def digest(kind, regime, impl, seeds=(0, 1)):
    """Run one cell, a fresh table per seed; returns ``(sha256 of
    everything observed, facts)`` where ``facts`` says what the runs went
    through."""
    seen = []
    facts = dict(postponed=0, tombstones=0, evictions=0, collisions=0)
    for seed in seeds:
        _run(make_table(kind, regime, impl), make_batches(kind, regime, seed),
             seen, facts)
    return hashlib.sha256(repr(seen).encode()).hexdigest()[:16], facts


def _run(table, rounds, seen, facts):
    org, alloc, heap = table.org, table.alloc, table.heap

    def state():
        return (
            hashlib.sha256(heap.cpu_image()).hexdigest(),
            sorted(getattr(org, "_pin_counts", {}).items()),
            sorted(p.segment for p in heap.resident_pages if p.pinned),
            sorted(alloc.stats.__dict__.items()),
            alloc.failed_groups.tolist(),
            heap.pool.n_free,
            table.mutations.snapshot(),
            (table.total_inserted, table.total_mutated, table.total_postponed),
            list(table.trace.events) if table.trace is not None else None,
        )

    for todo in rounds:
        pending = [np.arange(len(b)) for b in todo]
        for _ in range(64):
            for n, batch in enumerate(todo):
                if not len(pending[n]):
                    continue
                if table.trace is None:
                    facts["collisions"] += batch.cache.grouping(
                        table.buckets).has_collision
                res, = table.apply_batch([(batch, pending[n])])
                t = res.tally
                seen.append((
                    "apply", res.success.tolist(),
                    (t.attempted, t.succeeded, t.postponed, t.probe_steps,
                     t.bytes_touched, repr(t.table_cycles)),
                    t.alloc_groups.as_array().tolist(),
                    res.stats.hottest_alloc,
                    sorted(getattr(batch, "lookup_results", {}).items()),
                    state(),
                ))
                pending[n] = pending[n][~res.success]
                facts["postponed"] += int((~res.success).sum())
            seen.append(("end", astuple(table.end_iteration()), state()))
            facts["evictions"] += 1
            if not any(len(p) for p in pending):
                break
        else:
            raise AssertionError("workload does not converge")
    facts["tombstones"] += alloc.stats.entries_tombstoned
    seen.append(("result", sorted(
        (k, sorted(v) if isinstance(v, list) else v)
        for k, v in table.result().items()
    )))


def cells():
    return [
        (kind, regime) for kind in KINDS for regime in REGIMES
        if regime != "callback" or kind == "combining"
    ]


#: recorded at the commit before the loops were merged (see module docstring)
GOLDEN = {
    ("basic", "traced"): "2fa3031555218d79",
    ("basic", "collision"): "6a2f48acddbf9367",
    ("basic", "tombstones"): "d1c90e38ce0abf61",
    ("basic", "faulty-pool"): "f41682e4c12c93c6",
    # recorded after the loops were merged, with the one fix that moved it:
    # a hit's in-place combine is traced at the hit entry (not the head)
    ("combining", "traced"): "1b06304c2873c2ab",
    ("combining", "collision"): "6583a93449e979f7",
    ("combining", "callback"): "2ac398f7ccf8be74",
    ("combining", "tombstones"): "107ed59ca48cac4a",
    ("combining", "faulty-pool"): "e7d44aed97012c2a",
    # re-recorded when the multi-valued replace policy was removed: the
    # odd seeds updated under it, and now append as the even ones do
    ("multi-valued", "traced"): "526c627af360bcf2",
    ("multi-valued", "collision"): "c51b217985944d52",
    ("multi-valued", "tombstones"): "e88985c08d6a76e2",
    ("multi-valued", "faulty-pool"): "45aee6a76e948512",
}


@pytest.mark.parametrize("kind,regime", cells())
def test_loop_only_regimes_reproduce_the_recorded_digests(kind, regime):
    got = {}
    for impl in IMPLS:
        got[impl], facts = digest(kind, regime, impl)
    assert facts["postponed"] > 40, "the heap was expected to postpone"
    assert facts["tombstones"] > 5, "the mixed batches were expected to delete"
    if regime == "collision":
        assert facts["collisions"] > 3, "forged hashes were expected to collide"
    assert got["vectorized"] == got["slow_reference"]
    assert got["vectorized"] == GOLDEN[kind, regime]


def test_traced_combine_is_reported_at_the_hit_entry():
    """A hit's in-place read-modify-write is an access to the hit entry's
    page, wherever in the chain the entry sits -- not to the bucket head."""
    table = GpuHashTable(
        1, CombiningOrganization(SUM_I64), GpuHeap(4 * 256, 256),
        group_size=1, sanitize="off", trace=AccessLog(),
    )
    ones = np.ones(2, dtype=np.int64)
    table.insert_batch(RecordBatch.from_numeric([b"older", b"newer"], ones))
    head = int(table.buckets.head_cpu[0])
    older = E.read_entry_header(table.heap.pool.slot_view(0), 0)
    assert head > 0 and older[2] == len(b"older")  # "older" sits at address 0
    del table.trace.events[:]
    table.insert_batch(RecordBatch.from_numeric([b"older"], ones[:1]))
    # the walk reads both headers, then combines where it matched
    assert table.trace.events[-1] == (0, SUM_I64.value_size)
    assert [addr for addr, _ in table.trace.events] == [head, 0, 0]


if __name__ == "__main__":
    for kind, regime in cells():
        sha, facts = digest(kind, regime, "vectorized")
        assert sha == digest(kind, regime, "slow_reference")[0], (kind, regime)
        print(f"    ({kind!r}, {regime!r}): {sha!r},  # {facts}".replace("'", '"'))
