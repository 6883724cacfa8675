"""A SEPO pass skips the mutation chunks the gate would refuse whole.

Once every bucket group has failed in an iteration, the sticky-group gate
postpones every op of a gated (mixed-op) batch before it touches anything.
:meth:`SepoDriver.run_pass` therefore asks
:meth:`GpuHashTable.gate_refuses` first and leaves such a chunk pending
without streaming or launching it, and a call over a run of mixed-op
chunks stops after the chunk that fails the last group, leaving the rest of
the run as the gate would.  These tests count what that saves on a
``kv_mixed``-shaped multi-valued table (24,576 mixed ops over 4,096 keys in
2,048-op batches, 1,024 buckets, a 256 KiB heap of 4 KiB pages) and pin
that nothing else moves: table bytes, answers, iterations, per-iteration
successes and PCIe time equal those of the loop without the rule, and
pure-insert chunks are never skipped.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.core import (
    OP_DELETE,
    OP_INSERT,
    OP_LOOKUP,
    OP_UPDATE,
    CombiningOrganization,
    GpuHashTable,
    MultiValuedOrganization,
    MutationBatch,
    RecordBatch,
    SepoDriver,
    SUM_I64,
)
from repro.core import hashtable
from repro.gpusim import CostLedger, GTX_780TI, KernelModel, PCIeBus
from repro.memalloc import GpuHeap
from repro.resilience import ResilientDriver
from repro.shard import ShardedExecutor

IMPLS = ("vectorized", "slow_reference")
LAUNCH_S = GTX_780TI.launch_s
SHAPE = dict(n_buckets=1_024, heap_bytes=256 << 10, page_size=4 << 10,
             group_size=64)


def parent_rule(m):
    """The loop before the rule: every chunk is applied, one call a chunk
    (joined, a run would still stop where the gate closes)."""
    m.setattr(GpuHashTable, "gate_refuses", lambda self, batch: False)
    m.setattr(hashtable, "RUN_RECORDS", 0)


def kv_batches():
    """The ``kv_mixed`` multi-valued stream, fresh (batches carry answers)."""
    rng = np.random.default_rng([0, 1])
    ops = rng.choice(
        [OP_INSERT, OP_UPDATE, OP_DELETE, OP_LOOKUP], size=24_576,
        p=[0.45, 0.20, 0.15, 0.20],
    )
    ranks = rng.integers(0, 4_096, size=24_576)
    triples = [
        (int(op), b"key-%08d" % r, b"value-%016d" % i)
        for i, (op, r) in enumerate(zip(ops, ranks))
    ]
    return [
        MutationBatch.from_ops(triples[lo:lo + 2_048])
        for lo in range(0, len(triples), 2_048)
    ]


def build(org, n_buckets, heap_bytes, page_size, group_size):
    ledger = CostLedger()
    table = GpuHashTable(
        n_buckets, org, GpuHeap(heap_bytes, page_size),
        group_size=group_size, ledger=ledger,
    )
    return table, SepoDriver(table, KernelModel(GTX_780TI, ledger), PCIeBus(ledger))


def watch(table, batches):
    """Record every chunk an ``apply_batch`` call applies as ``(chunk,
    gated, all groups failed as the call began)`` and every chunk the rule
    skips as ``(iteration, chunk)``: those the gate refuses, and those a
    run stopped before without halting the pass."""
    calls, skipped = [], []
    chunk = {id(b): i for i, b in enumerate(batches)}
    apply, refuses = table.apply_batch, table.gate_refuses

    def watched_apply(parts):
        shut = table.alloc.failed_fraction == 1
        results = apply(parts)
        calls.extend(
            (chunk[id(batch)], not batch.pure_insert, shut)
            for batch, _ in parts[:len(results)]
        )
        if not table.should_halt():
            skipped.extend(
                (table.iterations_completed, chunk[id(batch)])
                for batch, _ in parts[len(results):]
            )
        return results

    def watched_refuses(batch):
        if refuses(batch):
            skipped.append((table.iterations_completed, chunk[id(batch)]))
            return True
        return False

    table.apply_batch = watched_apply
    table.gate_refuses = watched_refuses
    return calls, skipped


def refused_calls(calls) -> int:
    """Calls on a gated chunk that started with every group failed."""
    return sum(gated and shut for _, gated, shut in calls)


@dataclass
class Run:
    table: GpuHashTable
    batches: list
    log: list
    calls: list
    skipped: list

    @property
    def breakdown(self):
        return self.table.ledger.breakdown()

    def outcome(self):
        """Everything the rule must leave alone."""
        return (
            self.table.heap.cpu_image(), self.table.result(),
            [b.lookup_results for b in self.batches],
            len(self.log), [r.succeeded for r in self.log],
            self.breakdown["pcie"],
        )


def sepo_run(impl="vectorized", limit=None) -> Run:
    table, driver = build(MultiValuedOrganization(impl=impl), **SHAPE)
    batches = kv_batches()
    calls, skipped = watch(table, batches)
    state = driver.begin(batches)
    while state.bitmap.any_pending():
        driver.step(batches, state, limit=limit)
    return Run(table, batches, state.log, calls, skipped)


def assert_saves_launches_only(ours: Run, parent: Run):
    """``ours`` skipped what ``parent`` applied into a closed gate, and
    differs from it by those launches alone."""
    assert refused_calls(ours.calls) == 0
    assert len(ours.skipped) == refused_calls(parent.calls) > 0
    assert len(parent.calls) - len(ours.calls) == len(ours.skipped)
    assert ours.outcome() == parent.outcome()
    saved = parent.breakdown["launch"] - ours.breakdown["launch"]
    assert saved == pytest.approx(LAUNCH_S * len(ours.skipped), rel=1e-9)


# ----------------------------------------------------------------------
# the counted gate
# ----------------------------------------------------------------------
@pytest.mark.parametrize("impl", IMPLS)
def test_a_chunk_the_gate_refuses_costs_no_launch(impl, monkeypatch):
    ours = sepo_run(impl)
    # one launch per chunk applied, and none into a closed gate
    assert round(ours.breakdown["launch"] / LAUNCH_S) == len(ours.calls)
    with monkeypatch.context() as m:
        parent_rule(m)
        parent = sepo_run(impl)
    # the planted fault: the loop without the rule fails the count
    assert refused_calls(parent.calls) > 0
    assert round(parent.breakdown["launch"] / LAUNCH_S) == len(parent.calls)
    assert_saves_launches_only(ours, parent)


def test_both_impls_skip_the_same_chunks():
    fast, slow = sepo_run("vectorized"), sepo_run("slow_reference")
    assert fast.skipped and fast.skipped == slow.skipped
    assert fast.log == slow.log
    assert fast.breakdown == slow.breakdown
    assert fast.outcome() == slow.outcome()


def test_a_shrunk_chunk_and_a_skipped_chunk_compose(monkeypatch):
    """Under the degradation ladder's ``limit`` an applied chunk attempts a
    capped prefix and a refused one attempts nothing and stays whole."""
    ours = sepo_run(limit=512)
    with monkeypatch.context() as m:
        parent_rule(m)
        parent = sepo_run(limit=512)
    assert_saves_launches_only(ours, parent)
    assert ours.skipped != sepo_run().skipped  # the cap moved the passes


# ----------------------------------------------------------------------
# where the rule must not fire
# ----------------------------------------------------------------------
def pure_insert_chunks(as_mutation: bool):
    """A first chunk that fails both bucket groups of a small combining
    table, then a pure-insert chunk of keys the first one stored: their
    combines land in place and need no page."""
    keys = [b"key-%04d" % i for i in range(200)]
    again = keys[:8] * 2
    if as_mutation:
        second = MutationBatch.from_ops(
            [(OP_INSERT, k, 5) for k in again], numeric_dtype=np.int64
        )
        assert second.pure_insert
    else:
        second = RecordBatch.from_numeric(again, np.full(len(again), 5, np.int64))
    first = RecordBatch.from_numeric(keys, np.ones(len(keys), np.int64))
    return [first, second], again


@pytest.mark.parametrize("as_mutation", [False, True], ids=["records", "ops"])
@pytest.mark.parametrize("rule", ["ours", "planted"])
def test_a_pure_insert_chunk_after_every_group_failed_is_applied(
    as_mutation, rule, monkeypatch
):
    if rule == "planted":
        # the fault: skip on every-group-failed alone, pure inserts too
        monkeypatch.setattr(
            GpuHashTable, "gate_refuses",
            lambda self, batch: self.alloc.failed_fraction == 1,
        )
    # one call a chunk: the second chunk meets the gate after the first
    # failed every group (joined into one call, it would be asked before)
    monkeypatch.setattr(hashtable, "RUN_RECORDS", 0)
    table, driver = build(
        CombiningOrganization(SUM_I64), n_buckets=16, heap_bytes=1024,
        page_size=512, group_size=8,
    )
    batches, again = pure_insert_chunks(as_mutation)
    calls, _ = watch(table, batches)
    state = driver.begin(batches)
    rec = driver.run_pass(batches, state)
    assert table.alloc.failed_fraction == 1
    assert not rec.halted_early
    lo = int(state.starts[1])
    applied = (1, False, True) in calls
    landed = state.bitmap.pending_in(lo, lo + len(again)).size == 0
    if rule == "planted":
        assert not applied and not landed
        return
    # applied with every group failed, and every combine landed in place
    assert applied and landed
    assert rec.succeeded >= len(again)
    while state.bitmap.any_pending():
        driver.step(batches, state)
    want = {k: 1 for k in (b"key-%04d" % i for i in range(200))}
    for k in again:
        want[k] += 5
    assert table.result() == want


# ----------------------------------------------------------------------
# every loop inherits the rule through step
# ----------------------------------------------------------------------
def test_a_journaled_resilient_run_skips_alike_and_resumes_across_it(
    tmp_path, monkeypatch
):
    """At ``checkpoint_every=1`` a resilient run quiesces every
    iteration, so it skips its own chunks: fewer launches than the loop
    without the rule and nothing else, and a run resumed from its first
    journal skips what the uninterrupted one skips from there on."""
    journal = tmp_path / "j.npz"

    def resilient(resume=False, stop_at=None):
        table, driver = build(MultiValuedOrganization(), **SHAPE)
        batches = kv_batches()
        calls, skipped = watch(table, batches)
        r = ResilientDriver(driver, journal_path=journal, checkpoint_every=1)
        state = r.begin(batches, resume)
        while state.bitmap.any_pending() and state.iteration != stop_at:
            r.step(batches, state)
        return Run(table, batches, state.log, calls, skipped)

    ours = resilient()
    with monkeypatch.context() as m:
        parent_rule(m)
        parent = resilient()
    assert_saves_launches_only(ours, parent)
    assert ours.skipped != sepo_run().skipped  # the quiesce moved the passes

    resilient(stop_at=2)  # "killed" once the second journal landed
    resumed = resilient(resume=True)
    assert resumed.skipped == [s for s in ours.skipped if s[0] >= 2]
    assert resumed.table.ledger.breakdown() == ours.breakdown
    assert resumed.table.heap.cpu_image() == ours.table.heap.cpu_image()
    assert resumed.log == ours.log


def test_a_resilient_run_without_a_journal_skips_what_sepo_skips():
    table, driver = build(MultiValuedOrganization(), **SHAPE)
    batches = kv_batches()
    calls, skipped = watch(table, batches)
    report = ResilientDriver(driver).run(batches)
    plain = sepo_run()
    assert skipped and skipped == plain.skipped
    assert table.ledger.breakdown() == plain.breakdown
    assert table.heap.cpu_image() == plain.table.heap.cpu_image()
    assert report.sepo.iteration_log == plain.log


def sharded():
    """A 2-shard executor whose shards' calls and skips are watched from
    the partition it makes on."""
    ex = ShardedExecutor(2, MultiValuedOrganization, **SHAPE)
    watched = []
    partition = ex.partition

    def watching_partition(batches):
        per_shard, maps = partition(batches)
        watched[:] = [watch(t, per_shard[s]) for s, t in enumerate(ex.tables)]
        return per_shard, maps

    ex.partition = watching_partition
    return ex, watched


def test_each_shard_skips_what_its_own_sepo_run_skips(monkeypatch):
    ex, watched = sharded()
    ex.run(kv_batches())
    # each shard alone: its SepoDriver run to the end over its own chunks
    solo, solo_watched = sharded()
    for driver, chunks in zip(solo.drivers, solo.partition(kv_batches())[0]):
        driver.run(chunks)
    with monkeypatch.context() as m:
        parent_rule(m)
        parent, parent_watched = sharded()
        parent.run(kv_batches())
    assert ex.result() == parent.result() == solo.result()
    for s in range(ex.n_shards):
        ours, alone, before = ex.tables[s], solo.tables[s], parent.tables[s]
        skipped = watched[s][1]
        assert skipped == solo_watched[s][1]
        assert ours.ledger.breakdown() == alone.ledger.breakdown()
        assert ours.heap.cpu_image() == alone.heap.cpu_image()
        assert len(skipped) == refused_calls(parent_watched[s][0]) > 0
        assert refused_calls(watched[s][0]) == 0
        saved = before.ledger.breakdown()["launch"] - ours.ledger.breakdown()["launch"]
        assert saved == pytest.approx(LAUNCH_S * len(skipped), rel=1e-9)
        assert ours.heap.cpu_image() == before.heap.cpu_image()
