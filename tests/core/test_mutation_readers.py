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

import inspect
import sys

import numpy as np
import pytest

from repro.core import entries as E, hashtable, records
from repro.core.chainview import walk_cpu_image
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
    RecordBatch,
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


# ----------------------------------------------------------------------
# the grouped bulk reader: mutated tables, many entries a key
# ----------------------------------------------------------------------
#: order-sensitive and bounded, so forty folds of a key never overflow
MOD_CALLBACK = CallbackCombiner(
    lambda a, b: (3 * a - b) % 1009, scalar="i64", name="3a-b mod 1009")

GROUPED_KINDS = ORGS + ["combining-callback"]


def grouped_org(kind):
    if kind == "combining-callback":
        return CombiningOrganization(MOD_CALLBACK)
    return make_org(kind)


def unborn_entries(table) -> int:
    """Multi-valued key entries allocated for a postponed op and not yet
    acknowledged: walked, never shown."""
    heads = table.buckets.head_cpu[table.buckets.occupied_buckets()]
    if not len(heads):
        return 0
    image = np.frombuffer(table.heap.cpu_image(), dtype=np.uint8)
    (pos, _, _, flags), _ = walk_cpu_image(image, heads, "key")
    vhead = image.view(np.int64)[(pos >> 3) + 3]
    return int(E.key_entry_unborn(flags, vhead).sum())


def run_mutated(kind, seed, check):
    """Three 160-op batches over 12 keys (~40 entries a key) through an
    8-page heap, the last one without deletes, ``check(table)`` after
    every call and every iteration boundary: tombstones, basic shadows,
    keys split across iterations and (multi-valued) unborn key entries of
    postponed ops.  Returns what the run went through."""
    table = GpuHashTable(32, grouped_org(kind), GpuHeap(2048, 256),
                         group_size=8)
    numeric = kind.startswith("combining")
    facts = {"unborn": 0, "split keys": 0}
    for b in range(3):
        stream = mixed_stream(seed * 10 + b, 160, 12,
                              "combining" if numeric else kind)
        if b == 2:  # no deletes: older iterations' entries stay live
            stream = [(OP_UPDATE if op == OP_DELETE else op, k, v)
                      for op, k, v in stream]
        batch = MutationBatch.from_ops(
            stream, numeric_dtype=np.int64 if numeric else None)
        pending = np.arange(len(batch))
        while len(pending):
            res = table.mutate_batch(batch, pending)
            pending = pending[~res.success]
            if kind == "multi-valued":
                facts["unborn"] = max(facts["unborn"], unborn_entries(table))
            check(table)
            table.end_iteration()
            check(table)
            entries = [key for key, _ in table.cpu_items()]
            facts["split keys"] = max(facts["split keys"],
                                      len(entries) - len(set(entries)))
    facts["tombstones"] = table.alloc.stats.entries_tombstoned
    facts["shadows"] = table.mutations.updates_entries
    facts["iterations"] = table.iterations_completed
    return facts


@pytest.mark.parametrize("kind", GROUPED_KINDS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_grouped_reader_matches_oracle_on_mutated_tables(
        kind, seed, grouped_calls):
    """The grouped path against the per-entry merge, key order and list
    order included, at every point of a seeded mixed-op run."""
    facts = run_mutated(kind, seed, both_readers)
    assert facts["iterations"] >= 3 and facts["tombstones"] > 0, facts
    assert facts["split keys"] > 0, facts
    if kind == "basic":
        assert facts["shadows"] > 0, facts
    if kind == "multi-valued":
        assert facts["unborn"] > 0, facts
    assert grouped_calls["grouped"] > 0 and not grouped_calls["fallback"]


@pytest.mark.parametrize("kind", GROUPED_KINDS)
def test_a_table_whose_every_key_is_deleted_reads_empty(kind, grouped_calls):
    table = GpuHashTable(8, grouped_org(kind), GpuHeap(1 << 14, 1 << 12))
    numeric = kind.startswith("combining")
    keys = [b"k%d" % i for i in range(3)]
    for op in (OP_INSERT, OP_DELETE):  # the deletes in a later iteration
        batch = MutationBatch.from_ops(
            [(op, k, 1 if numeric else b"v") for k in keys],
            numeric_dtype=np.int64 if numeric else None)
        assert table.mutate_batch(batch).success.all()
        table.end_iteration()
    assert both_readers(table) == {}
    assert grouped_calls == {"grouped": 1, "fallback": 0}


#: the two keys the forged hash gives one 64-bit hash
TWIN, OTHER = b"k003", b"k007"


def forge_twin_hashes(monkeypatch):
    """The reader hashes ``OTHER`` as ``TWIN``: a 64-bit collision."""
    real = hashtable.fnv1a_batch

    def forged(keys, key_lens):
        h = real(keys, key_lens)
        rows = [k[:n].tobytes() for k, n in zip(keys, key_lens.tolist())]
        if TWIN in rows:
            h[[r == OTHER for r in rows]] = h[rows.index(TWIN)]
        return h

    monkeypatch.setattr(hashtable, "fnv1a_batch", forged)


def collided_table(kind):
    """One bucket chain holding both twins live, beside a tombstone."""
    table = GpuHashTable(1, grouped_org(kind), GpuHeap(1 << 14, 1 << 12))
    val = (lambda v: v) if kind.startswith("combining") else (
        lambda v: b"v%d" % v)
    triples = [(OP_INSERT, k, val(i))
               for i, k in enumerate([TWIN, OTHER, b"k001", TWIN, OTHER])]
    triples += [(OP_DELETE, b"k001", val(0)), (OP_UPDATE, OTHER, val(9)),
                (OP_INSERT, TWIN, val(8))]
    for lo in (0, 4):  # two iterations: split keys
        batch = MutationBatch.from_ops(
            triples[lo:lo + 4],
            numeric_dtype=np.int64 if kind.startswith("combining") else None)
        assert table.mutate_batch(batch).success.all()
        table.end_iteration()
    return table


@pytest.mark.parametrize("kind", GROUPED_KINDS)
def test_a_forged_hash_collision_takes_the_dict_and_still_matches(
        kind, monkeypatch, grouped_calls):
    table = collided_table(kind)
    forge_twin_hashes(monkeypatch)
    labelled = []
    real = hashtable._key_groups
    monkeypatch.setattr(hashtable, "_key_groups",
                        lambda keys: labelled.append(len(keys)) or real(keys))
    got = both_readers(table)
    assert grouped_calls == {"grouped": 0, "fallback": 1}
    assert labelled, "the collision never reached the dict labels"
    assert TWIN in got and OTHER in got and b"k001" not in got


def planted(monkeypatch, fn, sound, faulty, where):
    """Run ``fn`` with one line of its source edited, as ``where`` (the
    module that reads the name) sees it."""
    source = inspect.getsource(fn)
    assert source.count(sound) == 1, f"{fn.__name__} no longer reads this way"
    scope: dict = {}
    exec(source.replace(sound, faulty), vars(sys.modules[fn.__module__]), scope)
    monkeypatch.setattr(where, fn.__name__, scope[fn.__name__])


def readers_disagree(table) -> bool:
    try:
        both_readers(table)
    except AssertionError:
        return True
    return False


@pytest.mark.parametrize("kind", GROUPED_KINDS)
def test_grouping_on_the_hash_alone_is_caught(kind, monkeypatch):
    """Planted fault: the grouping skips the byte compare, so the forged
    twins read as one key."""
    table = collided_table(kind)
    forge_twin_hashes(monkeypatch)
    planted(monkeypatch, records.hash_groups, "if len(cand):", "if False:",
            hashtable)
    assert readers_disagree(table)


@pytest.mark.parametrize("kind", GROUPED_KINDS)
def test_a_grouped_path_without_the_newest_first_mask_is_caught(
        kind, monkeypatch):
    """Planted fault: every entry that is not itself a tombstone shows."""
    planted(monkeypatch, hashtable._live_groups,
            "_visible(label, closing, dead, order)[order]", "~dead[order]",
            hashtable)
    seen = []
    run_mutated(kind, 0, lambda table: seen.append(readers_disagree(table)))
    assert any(seen)


@pytest.mark.parametrize("kind", GROUPED_KINDS)
def test_an_insert_only_table_never_takes_the_grouped_path(
        kind, monkeypatch):
    """No flag, no grouping: an all-insert mixed-op batch, then a plain
    insert batch in a later iteration (keys split across entries), read
    through the dict path."""
    def never(*args):
        raise AssertionError("an insert-only table took the grouped path")

    monkeypatch.setattr(hashtable, "_live_groups", never)
    table = GpuHashTable(32, grouped_org(kind), GpuHeap(2048, 256),
                         group_size=8)
    numeric = kind.startswith("combining")
    for b in range(2):
        pairs = [(k, v) for _, k, v in
                 mixed_stream(b, 160, 12, "combining" if numeric else kind)]
        if b == 0:
            batch = MutationBatch.from_ops(
                [(OP_INSERT, k, v) for k, v in pairs],
                numeric_dtype=np.int64 if numeric else None)
            apply = table.mutate_batch
        else:
            batch = RecordBatch.from_numeric(
                [k for k, _ in pairs],
                np.array([v for _, v in pairs], dtype=np.int64),
            ) if numeric else RecordBatch.from_pairs(pairs)
            apply = table.insert_batch
        pending = np.arange(len(batch))
        while len(pending):
            pending = pending[~apply(batch, pending).success]
            table.end_iteration()
    assert table.iterations_completed >= 2
    assert both_readers(table)
