"""Differential mutation suite: mixed-op batches vs the scalar reference.

Drives identical interleaved insert/update/delete/lookup streams through
``impl="vectorized"`` and ``impl="slow_reference"`` on all three
organizations -- across postponement and eviction boundaries -- and asserts
success masks, :class:`InsertTally` fields, :class:`BatchStats`, lookup
results, mutation counters, the tombstone census, and final ``result()``
mappings are *identical*, with the dict model from
:func:`repro.core.model_for_ops` as ground truth.

Also pins which batches the batched mixed-op kernels
(``kernel_mixed._mutate_generic`` / ``_mutate_multivalued``) take once
the op-count cut-over lets them: ufunc combiners with any op mix --
deletes and lookups included, the in-batch duplicates folded in arrival
order -- and multi-valued batches with updates that append and with
replaces (DELETE then INSERT), but never a callback combiner, which
combines one value at a time in the scalar loop.
Either way the tallies match the scalar reference bit for bit.

Every batch here is smaller than the shipped cut-over, so as written the
differential cases hold the *dispatch* to the oracle;
``test_mutation_kernel.py`` re-collects this module with the cut-over
patched to 0 and adds the cases that need the kernel's failure paths.
"""

import numpy as np
import pytest

from repro.core import (
    BITOR_U64,
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
    SUM_F64,
    SUM_I64,
    SepoDriver,
    model_for_ops,
)
from repro.core.organizations import policy as org_policy
from repro.gpusim import CostLedger, GTX_780TI, KernelModel, PCIeBus
from repro.memalloc import GpuHeap
from tests.core.conftest import replaced
from tests.counting import counted

ORGS = ["basic", "combining", "multi-valued"]
IMPLS = ["vectorized", "slow_reference"]


def make_org(kind, impl, combiner=SUM_I64):
    if kind == "basic":
        return BasicOrganization(impl=impl)
    if kind == "combining":
        return CombiningOrganization(combiner, impl=impl)
    return MultiValuedOrganization(impl=impl)


def mut_batch(kind, triples, combiner=SUM_I64):
    return MutationBatch.from_ops(
        triples,
        numeric_dtype=combiner.dtype if kind == "combining" else None,
    )


def seeded_ops(seed, n, n_distinct, kind):
    """Mixed op stream; values rendered for the organization's mode."""
    rng = np.random.default_rng(seed)
    codes = rng.choice(
        [OP_INSERT, OP_UPDATE, OP_DELETE, OP_LOOKUP],
        size=n, p=[0.4, 0.2, 0.2, 0.2],
    )
    keys = [b"k%04d" % i for i in rng.integers(0, n_distinct, size=n)]
    vals = rng.integers(-50, 50, size=n)
    if kind == "combining":
        return [(int(o), k, int(v)) for o, k, v in zip(codes, keys, vals)]
    return [(int(o), k, b"v%d" % v) for o, k, v in zip(codes, keys, vals)]


def run_mutations(kind, impl, op_batches, heap_bytes=2048, page_size=256,
                  n_buckets=32, group_size=8, combiner=SUM_I64):
    """Drive mutation batches to completion; return every observable."""
    heap = GpuHeap(heap_bytes, page_size)
    table = GpuHashTable(
        n_buckets, make_org(kind, impl, combiner), heap,
        group_size=group_size,
    )
    masks, tallies, stats, lookups = [], [], [], []
    for triples in op_batches:
        batch = mut_batch(kind, triples, combiner)
        pending = np.arange(len(batch))
        guard = 0
        while len(pending):
            guard += 1
            assert guard < 64, "workload does not converge"
            res = table.mutate_batch(batch, pending)
            masks.append(res.success.copy())
            tallies.append(res.tally)
            stats.append(res.stats)
            pending = pending[~res.success]
            if len(pending):
                table.end_iteration()
        lookups.append(dict(batch.lookup_results))
        table.end_iteration()
    return {
        "table": table,
        "masks": masks,
        "tallies": tallies,
        "stats": stats,
        "lookups": lookups,
        "census": table.check_invariants(),
    }


def assert_mut_identical(a, b):
    assert len(a["masks"]) == len(b["masks"])
    for ma, mb in zip(a["masks"], b["masks"]):
        np.testing.assert_array_equal(ma, mb)
    for ta, tb in zip(a["tallies"], b["tallies"]):
        assert ta.attempted == tb.attempted
        assert ta.succeeded == tb.succeeded
        assert ta.postponed == tb.postponed
        assert ta.probe_steps == tb.probe_steps
        assert ta.bytes_touched == tb.bytes_touched
        assert ta.table_cycles == tb.table_cycles  # bit-identical floats
        assert ta.alloc_groups == tb.alloc_groups
    for sa, sb in zip(a["stats"], b["stats"]):
        assert sa.n_records == sb.n_records
        assert sa.cycles_per_record == sb.cycles_per_record
        assert sa.bytes_touched == sb.bytes_touched
        assert sa.hottest_bucket == sb.hottest_bucket
        assert sa.hottest_alloc == sb.hottest_alloc
    assert a["lookups"] == b["lookups"]
    ta, tb = a["table"], b["table"]
    assert ta.mutations.snapshot() == tb.mutations.snapshot()
    assert ta.total_mutated == tb.total_mutated
    assert ta.alloc.stats.entries_tombstoned == tb.alloc.stats.entries_tombstoned
    assert ta.alloc.stats.bytes_tombstoned == tb.alloc.stats.bytes_tombstoned
    assert a["census"].n_dead_entries == b["census"].n_dead_entries
    assert a["census"].dead_bytes == b["census"].dead_bytes
    assert list(ta.cpu_items()) == list(tb.cpu_items())
    assert ta.result() == tb.result()
    # "table bytes do not depend on the choice": GPU-side pointers, flag
    # words and pad bytes included, and what pins a page
    assert ta.heap.cpu_image() == tb.heap.cpu_image()
    pins = lambda t: (
        getattr(t.org, "_pin_counts", {}),
        {p.segment for p in t.heap.resident_pages if p.pinned},
    )
    assert pins(ta) == pins(tb)


def model_reference(op_batches, kind):
    flat = [t for triples in op_batches for t in triples]
    model, _ = model_for_ops(
        flat, kind=kind, combiner=SUM_I64 if kind == "combining" else None,
    )
    return model


def assert_matches_model(table, op_batches, kind):
    model = model_reference(op_batches, kind)
    if kind == "combining":
        assert table.result() == model
    else:
        assert {k: sorted(v) for k, v in table.result().items()} == {
            k: sorted(v) for k, v in model.items()
        }


# ----------------------------------------------------------------------
# differential: vectorized vs slow_reference, model as ground truth
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", ORGS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mutation_differential_with_evictions(kind, seed):
    """Small heap: postponed deletes/updates replay across iterations."""
    spec = [seeded_ops(seed * 10 + i, 120, 60, kind) for i in range(2)]
    a = run_mutations(kind, "vectorized", spec)
    b = run_mutations(kind, "slow_reference", spec)
    assert any(len(m) and not m.all() for m in a["masks"]), (
        "workload was expected to exercise postponement"
    )
    assert_mut_identical(a, b)
    assert_matches_model(a["table"], spec, kind)


@pytest.mark.parametrize("kind", ORGS)
def test_mutation_differential_no_pressure(kind):
    spec = [seeded_ops(7, 200, 50, kind)]
    a = run_mutations(kind, "vectorized", spec, heap_bytes=1 << 16,
                      page_size=1 << 12)
    b = run_mutations(kind, "slow_reference", spec, heap_bytes=1 << 16,
                      page_size=1 << 12)
    assert all(m.all() for m in a["masks"])
    assert_mut_identical(a, b)
    assert_matches_model(a["table"], spec, kind)


@pytest.mark.parametrize("seed", [0, 1])
def test_multivalued_replace_policy_differential(seed):
    """A replace is a DELETE then an INSERT of its key in one batch: on a
    heap small enough that the gate postpones, the key's list is the
    model's ``[value]`` under both impls."""
    spec = [replaced(seeded_ops(seed + 70, 120, 40, "multi-valued"))]
    a = run_mutations("multi-valued", "vectorized", spec)
    b = run_mutations("multi-valued", "slow_reference", spec)
    assert any(not m.all() for m in a["masks"]), "nothing postponed"
    assert_mut_identical(a, b)
    assert_matches_model(a["table"], spec, "multi-valued")
    # a key whose last writes are a replace holds that one value
    tail = {}
    for op, key, value in spec[0]:
        if op != OP_LOOKUP:
            tail[key] = tail.get(key, [])[-1:] + [(op, value)]
    ends = {k: t[1][1] for k, t in tail.items()
            if [op for op, _ in t] == [OP_DELETE, OP_INSERT]}
    result = a["table"].result()
    assert ends and all(result[k] == [v] for k, v in ends.items())


def test_mixed_ops_through_sepo_driver():
    """A single SEPO run interleaves all four ops via apply_batch."""
    kind = "basic"
    spec = [seeded_ops(90 + i, 100, 50, kind) for i in range(2)]
    results = {}
    for impl in IMPLS:
        ledger = CostLedger()
        heap = GpuHeap(8 * 256, 256)
        table = GpuHashTable(
            32, make_org(kind, impl), heap, group_size=8, ledger=ledger,
        )
        driver = SepoDriver(
            table, KernelModel(GTX_780TI, ledger), PCIeBus(ledger),
            max_iterations=500,
        )
        batches = [mut_batch(kind, t) for t in spec]
        report = driver.run(batches)
        results[impl] = (
            report.elapsed_seconds,
            dict(table.result()),
            [dict(b.lookup_results) for b in batches],
            table.mutations.snapshot(),
        )
    assert results["vectorized"] == results["slow_reference"]
    assert_matches_model(table, spec, kind)


# ----------------------------------------------------------------------
# kernel gating: which batches the batched mixed-op kernel takes
# ----------------------------------------------------------------------
@pytest.fixture
def kernel_calls(monkeypatch):
    """Cut-over at 0, and a count of the batched kernels' entries --
    patched in ``organizations.policy``, where the dispatch reads both."""
    calls = {"n": 0}

    def counting(original):
        def kernel(*a, **kw):
            calls["n"] += 1
            return original(*a, **kw)
        return kernel

    monkeypatch.setattr(org_policy, "MIXED_KERNEL_MIN_OPS", 0)
    for name in ("_mutate_generic", "_mutate_multivalued"):
        monkeypatch.setattr(
            org_policy, name, counting(getattr(org_policy, name))
        )
    return calls


def _count_preagg(org):
    """Instrument an organization instance's insert kernel."""
    calls = {"n": 0}
    original = org._insert_kernel

    def counting(*a, **kw):
        calls["n"] += 1
        return original(*a, **kw)

    org._insert_kernel = counting
    return calls


def _run_combining(combiner, triples, impl="vectorized"):
    heap = GpuHeap(1 << 16, 1 << 12)
    table = GpuHashTable(
        16, CombiningOrganization(combiner, impl=impl), heap, group_size=4,
    )
    batch = MutationBatch.from_ops(triples, numeric_dtype=combiner.dtype)
    res = table.mutate_batch(batch)
    assert res.success.all()
    return table, res, batch


UPDATE_TRIPLES = [
    (OP_INSERT, b"alpha", 3), (OP_UPDATE, b"alpha", 4),
    (OP_INSERT, b"beta", 5), (OP_UPDATE, b"beta", 6),
    (OP_UPDATE, b"gamma", 7),
]


@pytest.mark.parametrize("combiner", [
    CallbackCombiner(lambda a, b: a + b, scalar="i64", name="cb-sum"),
], ids=["callback"])
def test_non_vector_reduce_updates_take_replay_walk(combiner, kernel_calls):
    """Callbacks have no ufunc to fold with: they stay on the scalar loop,
    even for an insert/update-only batch past the cut-over."""
    assert not combiner.supports_vector_reduce
    table, res, _ = _run_combining(combiner, UPDATE_TRIPLES)
    assert kernel_calls["n"] == 0, "scalar loop expected, batched kernel ran"
    # and the loop stays bit-identical to the scalar reference
    ref_table, ref, _ = _run_combining(
        combiner, UPDATE_TRIPLES, impl="slow_reference"
    )
    assert res.tally.probe_steps == ref.tally.probe_steps
    assert res.tally.bytes_touched == ref.tally.bytes_touched
    assert res.tally.table_cycles == ref.tally.table_cycles
    assert table.result() == ref_table.result()


def test_f64_reduce_insert_update_batch_uses_preagg(kernel_calls):
    """Float rounding is association-sensitive, and the order-exact fold
    keeps the scalar loop's association: an f64 insert/update-only batch
    pre-aggregates inside the batched kernel, twice over the same keys so
    the second batch folds onto stored scalars, and lands on the scalar
    reference's bits."""
    triples = [
        (op, key, v * 10.0 ** (3 * (i % 5) - 6))
        for i, (op, key, v) in enumerate(UPDATE_TRIPLES * 3)
    ]
    assert SUM_F64.supports_vector_reduce
    tables = {}
    for impl in ("vectorized", "slow_reference"):
        before = kernel_calls["n"]
        table, res, _ = _run_combining(SUM_F64, triples, impl=impl)
        batch = MutationBatch.from_ops(triples, numeric_dtype=np.float64)
        res2 = table.mutate_batch(batch)
        assert res2.success.all()
        assert kernel_calls["n"] - before == (2 if impl == "vectorized" else 0)
        tables[impl] = (table, res, res2)
    (ta, a1, a2), (tb, b1, b2) = tables["vectorized"], tables["slow_reference"]
    for a, b in ((a1, b1), (a2, b2)):
        assert a.tally == b.tally
    pack = SUM_F64.pack
    assert {k: pack(v) for k, v in ta.result().items()} == {
        k: pack(v) for k, v in tb.result().items()
    }


def test_integer_reduce_insert_update_batch_uses_preagg(kernel_calls):
    """BitOr-style integer reduction: the batched kernel collapses the
    in-batch duplicates of an insert/update-only batch with one fold."""
    triples = [
        (OP_INSERT, b"alpha", 1), (OP_UPDATE, b"alpha", 2),
        (OP_INSERT, b"beta", 4), (OP_UPDATE, b"beta", 8),
    ]
    assert BITOR_U64.supports_vector_reduce
    table, res, _ = _run_combining(BITOR_U64, triples)
    assert kernel_calls["n"] == 1, "integer-reduce upsert batch should fold"
    ref_table, ref, _ = _run_combining(
        BITOR_U64, triples, impl="slow_reference"
    )
    assert kernel_calls["n"] == 1, "slow_reference must stay on the loop"
    assert res.tally.probe_steps == ref.tally.probe_steps
    assert res.tally.bytes_touched == ref.tally.bytes_touched
    assert res.tally.table_cycles == ref.tally.table_cycles
    assert table.result() == ref_table.result() == {b"alpha": 3, b"beta": 12}


@pytest.mark.parametrize("op", [OP_DELETE, OP_LOOKUP],
                         ids=["delete", "lookup"])
def test_delete_or_lookup_in_batch_runs_kernel(op, kernel_calls):
    """The kernel expresses all four ops: a delete or a lookup in the
    batch no longer sends it down the scalar loop, and the lookup reads
    the folds of the ops before it."""
    triples = UPDATE_TRIPLES + [(op, b"alpha", 0)]
    table, res, batch = _run_combining(SUM_I64, triples)
    assert kernel_calls["n"] == 1, "mixed batch must run the batched kernel"
    _, ref, ref_batch = _run_combining(SUM_I64, triples, impl="slow_reference")
    assert res.tally == ref.tally
    assert batch.lookup_results == ref_batch.lookup_results
    if op == OP_LOOKUP:
        assert batch.lookup_results[len(triples) - 1] == 7
    else:
        assert b"alpha" not in table.result()


@pytest.mark.parametrize("updates", ["append", "replace"])
def test_multivalued_mixed_batch_runs_its_kernel(updates, kernel_calls):
    """The third organization's mixed-op batches have a batched form too,
    with updates that append and with replaces (DELETE then INSERT);
    ``slow_reference`` stays on the loop."""
    spec = [seeded_ops(5, 200, 40, "multi-valued")]
    if updates == "replace":
        spec = [replaced(spec[0])]
    a = run_mutations("multi-valued", "vectorized", spec)
    assert kernel_calls["n"] == len(a["masks"]) > 1
    b = run_mutations("multi-valued", "slow_reference", spec)
    assert kernel_calls["n"] == len(a["masks"])
    assert_mut_identical(a, b)


def test_batches_under_the_cut_over_stay_on_the_loop(monkeypatch):
    """Below the cut-over the loop is the kernel -- the batched kernel's
    fixed cost loses on a handful of ops -- and at it the kernel runs."""
    triples = UPDATE_TRIPLES + [(OP_LOOKUP, b"alpha", 0)]

    def kernel_calls():
        run = counted(lambda: _run_combining(SUM_I64, triples),
                      calls={"kernel": org_policy._mutate_generic})
        return run.calls["kernel"]

    monkeypatch.setattr(org_policy, "MIXED_KERNEL_MIN_OPS", len(triples) + 1)
    assert kernel_calls() == 0, "batched kernel ran under the cut-over"
    monkeypatch.setattr(org_policy, "MIXED_KERNEL_MIN_OPS", len(triples))
    assert kernel_calls() == 1


def test_tombstones_gate_insert_preagg():
    """A tombstone anywhere in the table disables the closed-form insert
    kernel: its probe accounting assumes insert-only chains."""
    heap = GpuHeap(1 << 16, 1 << 12)
    table = GpuHashTable(
        16, CombiningOrganization(SUM_I64), heap, group_size=4,
    )
    table.mutate_batch(MutationBatch.from_ops(
        [(OP_INSERT, b"alpha", 1), (OP_DELETE, b"alpha", 0)],
        numeric_dtype=np.int64,
    ))
    assert table.alloc.stats.entries_tombstoned == 1
    calls = _count_preagg(table.org)
    from repro.core import RecordBatch

    res = table.insert_batch(RecordBatch.from_numeric(
        [b"alpha", b"beta"], np.array([5, 6], dtype=np.int64)
    ))
    assert res.success.all()
    assert calls["n"] == 0, "tombstoned table must use the replay walk"
    assert table.result() == {b"alpha": 5, b"beta": 6}
    # the instrument does count: the same batch on a table without
    # tombstones runs the kernel
    clean = GpuHashTable(
        16, CombiningOrganization(SUM_I64), GpuHeap(1 << 16, 1 << 12),
    )
    calls = _count_preagg(clean.org)
    clean.insert_batch(RecordBatch.from_numeric(
        [b"alpha", b"beta"], np.array([5, 6], dtype=np.int64)
    ))
    assert calls["n"] == 1
