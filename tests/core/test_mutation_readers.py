"""Reader-path semantics over mutated tables.

Every CPU-side read path shares one newest-first merge automaton: a
tombstone closes its key (older copies are dead), a shadow entry yields its
own payload then closes the key, and a PENDING multi-valued key entry --
allocated for a postponed op but never acknowledged -- is invisible.  This
module pins that automaton across :class:`LookupDriver` (both impls),
checkpoint round-trips (:func:`save_table`/:func:`load_table`), and the
live table's ``cpu_items``/``result`` -- the latter twice over: the bulk
reader an ``impl="vectorized"`` table uses, and the per-entry merge it must
agree with on the very same bytes.
"""

import numpy as np
import pytest

from repro.core import (
    BasicOrganization,
    CallbackCombiner,
    CombiningOrganization,
    GpuHashTable,
    LookupDriver,
    MultiValuedOrganization,
    MutationBatch,
    OP_DELETE,
    OP_INSERT,
    OP_LOOKUP,
    OP_UPDATE,
    SUM_I64,
    SepoDriver,
    load_table,
    model_for_ops,
    save_table,
)
from repro.gpusim import CostLedger, GTX_780TI, KernelModel, PCIeBus
from repro.memalloc import GpuHeap
from tests.core.conftest import replaced

ORGS = ["basic", "combining", "multi-valued"]


def make_org(kind, impl="vectorized"):
    if kind == "basic":
        return BasicOrganization(impl=impl)
    if kind == "combining":
        return CombiningOrganization(SUM_I64, impl=impl)
    return MultiValuedOrganization(impl=impl)


def mutated_table(kind):
    """alpha: inserted, updated; beta: deleted; gamma: never touched live."""
    heap = GpuHeap(1 << 16, 1 << 12)
    table = GpuHashTable(32, make_org(kind), heap, group_size=8)
    val = (lambda v: v) if kind == "combining" else (lambda v: b"v%d" % v)
    triples = [
        (OP_INSERT, b"alpha", val(1)),
        (OP_INSERT, b"beta", val(2)),
        (OP_UPDATE, b"alpha", val(3)),
        (OP_INSERT, b"gamma", val(4)),
        (OP_DELETE, b"beta", val(0)),
        (OP_DELETE, b"missing", val(0)),
    ]
    batch = MutationBatch.from_ops(
        triples,
        numeric_dtype=np.int64 if kind == "combining" else None,
    )
    res = table.mutate_batch(batch)
    assert res.success.all()
    table.end_iteration()
    return table


def both_readers(table):
    """``result()`` through the bulk reader and through the per-entry
    oracle, over the same table bytes; asserts they agree (dict equality,
    so value-list order too) and returns the mapping."""
    assert table.org.impl == "vectorized"
    bulk = table.result()
    table.org.impl = "slow_reference"
    try:
        oracle = table.result()
    finally:
        table.org.impl = "vectorized"
    assert bulk == oracle
    assert list(bulk) == list(oracle)  # same first-occurrence key order
    return bulk


EXPECT = {
    # key -> (basic newest value, combining scalar, multi-valued list)
    b"alpha": (b"v3", 4, [b"v1", b"v3"]),
    b"beta": (None, None, None),
    b"gamma": (b"v4", 4, [b"v4"]),
    b"missing": (None, None, None),
}

#: FrozenTable.get keeps the basic method's full kept-value list
GET_EXPECT = {
    b"alpha": ([b"v3"], 4, [b"v1", b"v3"]),
    b"beta": (None, None, None),
    b"gamma": ([b"v4"], 4, [b"v4"]),
    b"missing": (None, None, None),
}


@pytest.mark.parametrize("kind", ORGS)
@pytest.mark.parametrize("impl", ["vectorized", "slow_reference"])
def test_lookup_driver_resolves_tombstones_and_shadows(kind, impl):
    table = mutated_table(kind)
    table.org.impl = impl
    ledger = CostLedger()
    driver = LookupDriver(table, KernelModel(GTX_780TI, ledger), PCIeBus(ledger))
    keys = list(EXPECT)
    result = driver.lookup(keys)
    col = ORGS.index(kind)
    assert result.values == [EXPECT[k][col] for k in keys]


@pytest.mark.parametrize("impl", ["vectorized", "slow_reference"])
def test_lookup_driver_folds_residue_in_the_result_order(impl):
    """A combining key split across iterations has one entry per
    iteration; every reader must fold the older residue in from the left
    (``combine(older, acc)``).  ``3a - b`` tells the orders apart: three
    separate runs leave k = 1, 2, 3 as three entries, for which the dict
    model, ``result()`` and the in-stream lookup all say 0 -- and folding
    the other way round says 20."""
    comb = CallbackCombiner(lambda a, b: 3 * a - b, scalar="i64", name="3a-b")
    ledger = CostLedger()
    table = GpuHashTable(
        8, CombiningOrganization(comb, impl=impl), GpuHeap(2 * 256, 256),
        group_size=4, ledger=ledger,
    )
    kernel, bus = KernelModel(GTX_780TI, ledger), PCIeBus(ledger)
    triples = [(OP_INSERT, b"k", v) for v in (1, 2, 3)]
    for t in triples:
        SepoDriver(table, kernel, bus).run(
            [MutationBatch.from_ops([t], numeric_dtype=np.int64)]
        )
    assert sum(key == b"k" for key, _ in table.cpu_items()) == 3
    model, _ = model_for_ops(triples, kind="combining", combiner=comb)
    assert model == {b"k": 0}
    assert table.result() == model
    probe = MutationBatch.from_ops(
        [(OP_LOOKUP, b"k", 0), (OP_LOOKUP, b"absent", 0)],
        numeric_dtype=np.int64,
    )
    assert table.mutate_batch(probe).success.all()
    assert probe.lookup_results == {0: 0, 1: None}
    driver = LookupDriver(table, kernel, bus)
    assert driver.lookup([b"k", b"absent"]).values == [0, None]


@pytest.mark.parametrize("kind", ORGS)
def test_checkpoint_roundtrip_with_tombstones(kind, tmp_path):
    table = mutated_table(kind)
    path = tmp_path / "frozen.npz"
    save_table(table, path)
    frozen = load_table(path)
    assert frozen.result() == table.result()
    assert b"beta" not in frozen.result()
    col = ORGS.index(kind)
    for key, row in GET_EXPECT.items():
        assert frozen.get(key) == row[col]


@pytest.mark.parametrize("kind", ORGS)
def test_deleted_keys_absent_from_all_views(kind):
    table = mutated_table(kind)
    assert b"beta" not in table.result()
    assert b"beta" not in {k for k, _ in table.cpu_items()}
    report = table.check_invariants()
    assert not report.violations
    assert report.n_dead_entries == table.alloc.stats.entries_tombstoned > 0
    assert report.dead_bytes == table.alloc.stats.bytes_tombstoned > 0


# ----------------------------------------------------------------------
# PENDING multi-valued key entries: allocated but unacknowledged
# ----------------------------------------------------------------------
def test_mv_pending_entry_invisible_until_acknowledged():
    """A postponed MV insert leaves a PENDING key entry (no value yet); no
    reader may surface it as an empty value list."""
    table = GpuHashTable(
        16, MultiValuedOrganization(), GpuHeap(3 * 256, 256), group_size=2,
    )
    batch = MutationBatch.from_ops(
        [(OP_INSERT, b"k00", b"v0"), (OP_INSERT, b"\x00", b"v0")]
    )
    res = table.mutate_batch(batch)
    assert list(res.success) == [True, False], (
        "fixture drift: second insert was expected to postpone"
    )
    assert list(table.cpu_items()) == [(b"k00", [b"v0"])]
    assert b"\x00" not in both_readers(table)
    # acknowledge on the reissue pass; now it is data
    table.end_iteration()
    res = table.mutate_batch(batch, np.array([1]))
    assert res.success.all()
    table.end_iteration()
    assert table.result() == {b"k00": [b"v0"], b"\x00": [b"v0"]}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mv_write_lookup_write_keeps_the_arena_sane(seed):
    """Write, read back through ``LookupDriver``, write again, with the
    sanitizer on.  A forced full eviction stores key pages whose entries
    are still ``PENDING`` (and clears the pin counts), and a lookup pages
    them back in byte for byte.  The page-in rule (DESIGN.md, "Residency
    and chain maintenance") is what keeps the next batch from running
    against flags nobody counts and ``vhead_gpu`` pointers nobody spliced
    (``pin-count``, ``pin-flag``, ``gpu-cpu-divergence``)."""
    rng = np.random.default_rng(seed)
    ledger = CostLedger()
    table = GpuHashTable(
        16, MultiValuedOrganization(), GpuHeap((4 + seed) * 256, 256),
        group_size=4, ledger=ledger, sanitize="paranoid",
    )
    kernel, bus = KernelModel(GTX_780TI, ledger), PCIeBus(ledger)
    keys = [b"k%03d" % i for i in rng.integers(0, 150, size=600)]
    triples = [(OP_INSERT, k, b"v%d" % i) for i, k in enumerate(keys)]

    def write(triples):
        SepoDriver(table, kernel, bus).run([
            MutationBatch.from_ops(triples[lo:lo + 200])
            for lo in range(0, len(triples), 200)
        ])

    write(triples)
    LookupDriver(table, kernel, bus).lookup(sorted(set(keys)))
    table.check_invariants()
    again = [
        ((OP_INSERT, OP_UPDATE, OP_DELETE)[i % 3], k, b"w%d" % i)
        for i, k in enumerate(keys[:200])
    ]
    write(again)
    model, _ = model_for_ops(triples + again, kind="multi-valued")
    assert {k: sorted(v) for k, v in table.result().items()} == {
        k: sorted(v) for k, v in model.items()
    }


# ----------------------------------------------------------------------
# the bulk reader against the per-entry merge
# ----------------------------------------------------------------------
def mixed_stream(seed, n, n_distinct, kind):
    rng = np.random.default_rng(seed)
    ops = rng.choice(
        [OP_INSERT, OP_UPDATE, OP_DELETE, OP_LOOKUP], size=n,
        p=[0.45, 0.25, 0.2, 0.1],
    )
    keys = [b"k%03d" % i for i in rng.integers(0, n_distinct, size=n)]
    val = (lambda v: v) if kind == "combining" else (lambda v: b"v%d" % v)
    return [(int(o), k, val(i)) for i, (o, k) in enumerate(zip(ops, keys))]


@pytest.mark.parametrize("kind,updates", [
    ("basic", "append"), ("combining", "append"),
    ("multi-valued", "append"), ("multi-valued", "replace"),
])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bulk_reader_matches_oracle_after_mixed_ops(kind, updates, seed):
    """Tombstones, shadows and postponed PENDING appends, spread over three
    or more iterations of an 8-page heap: checked after every iteration, so
    half-applied batches (unborn key entries, pinned pages) are read too.
    ``replace`` turns each update into a DELETE then an INSERT."""
    heap = GpuHeap(2048, 256)
    table = GpuHashTable(32, make_org(kind), heap, group_size=8)
    for b in range(3):
        stream = mixed_stream(seed * 10 + b, 120, 50, kind)
        batch = MutationBatch.from_ops(
            replaced(stream) if updates == "replace" else stream,
            numeric_dtype=np.int64 if kind == "combining" else None,
        )
        pending = np.arange(len(batch))
        while len(pending):
            res = table.mutate_batch(batch, pending)
            pending = pending[~res.success]
            both_readers(table)
            table.end_iteration()
            both_readers(table)
    assert table.iterations_completed >= 3
    assert table.alloc.stats.entries_tombstoned > 0
    assert both_readers(table)


@pytest.mark.parametrize("kind", ORGS)
def test_bulk_reader_on_an_empty_table(kind):
    table = GpuHashTable(16, make_org(kind), GpuHeap(1 << 12, 256))
    assert both_readers(table) == {}
    table.end_iteration()
    assert both_readers(table) == {}


@pytest.mark.parametrize("kind", ORGS)
def test_bulk_reader_past_the_round_cut_over(kind):
    """40 chains of uneven length: the walker runs level-synchronous rounds
    while 32 are live, then finishes the long ones (a 300-fold hot key: one
    basic chain, one value list) node by node.  Two iterations, so every
    key is split across entries and the combining fold merges them."""
    from repro.core import RecordBatch
    from repro.core.chainview import _ROUND_MIN_LIVE

    table = GpuHashTable(40, make_org(kind), GpuHeap(1 << 20, 1 << 12),
                         group_size=8)
    rng = np.random.default_rng(3)
    want: dict = {}
    for it in range(2):
        keys = [b"key%04d" % i for i in rng.integers(0, 900, size=1500)]
        keys += [b"hot"] * 300
        if kind == "combining":
            vals = np.arange(len(keys), dtype=np.int64) + it
            batch = RecordBatch.from_numeric(keys, vals)
            for k, v in zip(keys, vals.tolist()):
                want[k] = want.get(k, 0) + v
        else:
            vals = [b"v%d-%d" % (it, i) for i in range(len(keys))]
            batch = RecordBatch.from_pairs(list(zip(keys, vals)))
            for k, v in zip(keys, vals):
                want.setdefault(k, []).append(v)
        assert table.insert_batch(batch).success.all()
        table.end_iteration()
    assert len(table.buckets.occupied_buckets()) > _ROUND_MIN_LIVE
    got = both_readers(table)
    if kind == "combining":
        assert got == want
    else:
        assert {k: sorted(v) for k, v in got.items()} == {
            k: sorted(v) for k, v in want.items()
        }
