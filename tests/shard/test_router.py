"""ShardRouter: coalescing into one batch per flush, backpressure,
submission-order answers, failure semantics."""

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
from repro.core.mutations import (
    OP_DELETE,
    OP_INSERT,
    OP_LOOKUP,
    OP_UPDATE,
    MutationBatch,
    apply_op_to_model,
)
from repro.core.sepo import NoProgressError
from repro.gpusim.pcie import TransferError
from repro.sanitize.conformance import _normalize
from repro.sanitize.workloads import (
    make_mutation_batches,
    make_op_workload,
    mutation_oracle,
)
from repro.shard import ShardRouter, ShardedExecutor

N_BUCKETS = 64
PAGE = 512
HEAP = 400 * PAGE
#: per-shard heap the router matrix's flushes overflow: postponement,
#: eviction and reissue inside one merged batch
TIGHT_HEAP = 24 * PAGE

ORGS = {
    "basic": BasicOrganization,
    "combining": lambda: CombiningOrganization(SUM_I64),
    "multi-valued": MultiValuedOrganization,
}


def make_executor(n_shards=4, mode="basic", heap_bytes=HEAP, **kw):
    return ShardedExecutor(
        n_shards,
        ORGS[mode],
        n_buckets=N_BUCKETS,
        heap_bytes=heap_bytes,
        page_size=PAGE,
        group_size=16,
        **kw,
    )


def test_constructor_validation():
    ex = make_executor(1)
    with pytest.raises(ValueError):
        ShardRouter(ex, chunk_records=0)
    with pytest.raises(ValueError):
        ShardRouter(ex, chunk_records=128, max_pending_records=64)


def test_interleaved_streams_match_mutation_oracle():
    """Many tiny client batches through the router == the dict model."""
    workload = make_op_workload("mixed-uniform", 1200, seed=5)
    batch_size = 48
    batches = make_mutation_batches(workload, "basic", batch_size=batch_size)
    want_map, want_lookups = mutation_oracle(workload, "basic")

    ex = make_executor(4)
    router = ShardRouter(ex, chunk_records=256, max_pending_records=512)
    tickets = [router.submit(b) for b in batches]
    results = router.drain()

    assert all(t.done for t in tickets)
    assert [t.seq for t in tickets] == list(range(len(batches)))
    # results come back in submission order, keyed by batch-local rows
    got_lookups = {
        b * batch_size + j: v
        for b, res in enumerate(results)
        for j, v in res.items()
    }
    assert got_lookups == want_lookups
    assert _normalize(ex.result(), "basic") == want_map
    ex.check_shards()
    assert router.stats["submitted_batches"] == len(batches)
    assert router.stats["submitted_records"] == len(workload)
    assert router.stats["flushed_chunks_records"] == len(workload)


def test_coalescing_defers_until_chunk_records():
    """Sub-chunk submissions queue; the flush fires only once a shard
    holds a SEPO-sized chunk -- the launch-amortization contract."""
    workload = make_op_workload("mixed-uniform", 90, seed=1)
    batches = make_mutation_batches(workload, "basic", batch_size=30)
    ex = make_executor(1)  # one shard: queue growth is deterministic
    router = ShardRouter(ex, chunk_records=64, max_pending_records=1024)

    router.submit(batches[0])
    router.submit(batches[1])
    assert router.pending_records == 60  # below the chunk: nothing ran
    assert router.stats["chunk_flushes"] == 0
    assert ex.total_records == 0

    router.submit(batches[2])  # 90 >= 64: the shard flushes
    assert router.stats["chunk_flushes"] == 1
    assert router.pending_records == 0
    assert ex.total_records == 90
    assert router.drain() is not None
    assert router.stats["drain_flushes"] == 0  # nothing left to drain


def test_backpressure_bounds_pending_records():
    workload = make_op_workload("mixed-uniform", 400, seed=2)
    batches = make_mutation_batches(workload, "basic", batch_size=40)
    ex = make_executor(1)
    # chunk == cap: queues can never reach the chunk threshold before the
    # backpressure bound kicks in, so only backpressure can flush
    router = ShardRouter(ex, chunk_records=100, max_pending_records=100)
    for b in batches:
        router.submit(b)
        assert router.pending_records <= 100
    assert router.stats["backpressure_flushes"] >= 1
    router.drain()
    assert router.pending_records == 0
    assert ex.total_records == len(workload)


def test_drain_flushes_leftovers_and_preserves_order():
    workload = make_op_workload("delete-then-reinsert", 300, seed=4)
    batches = make_mutation_batches(workload, "basic", batch_size=25)
    want_map, want_lookups = mutation_oracle(workload, "basic")
    ex = make_executor(2)
    router = ShardRouter(ex, chunk_records=128, max_pending_records=256)
    for b in batches:
        router.submit(b)
    assert router.pending_records > 0  # tail below the chunk threshold
    results = router.drain()
    assert router.stats["drain_flushes"] >= 1
    assert len(results) == len(batches)
    got = {
        b * 25 + j: v for b, res in enumerate(results) for j, v in res.items()
    }
    assert got == want_lookups
    assert _normalize(ex.result(), "basic") == want_map


def test_empty_batch_submission_is_harmless():
    workload = make_op_workload("mixed-uniform", 30, seed=6)
    (batch,) = make_mutation_batches(workload, "basic", batch_size=30)
    ex = make_executor(2)
    router = ShardRouter(ex, chunk_records=8)
    empty = make_mutation_batches(
        make_op_workload("mixed-uniform", 1, seed=6), "basic", batch_size=1
    )[0]
    # a zero-record client batch must produce a done ticket, no queueing
    empty_slice = empty.__class__.from_ops([])
    t = router.submit(empty_slice)
    assert t.done and t.n_records == 0
    router.submit(batch)
    results = router.drain()
    assert results[0] == {}


# ----------------------------------------------------------------------
# the merge: one batch per run of compatible slices
# ----------------------------------------------------------------------
@pytest.mark.parametrize("batch_size", [7, 48, 200])
@pytest.mark.parametrize("heap_bytes", [HEAP, TIGHT_HEAP], ids=["roomy", "tight"])
@pytest.mark.parametrize("mode", sorted(ORGS))
def test_routed_traffic_matches_mutation_oracle(mode, heap_bytes, batch_size):
    """Every organization, with and without postponement inside the merged
    batch, client batches smaller and larger than a shard's share of a
    chunk: table and every ticket's answers equal the dict model."""
    workload = make_op_workload("mixed-uniform", 4000, seed=batch_size)
    batches = make_mutation_batches(workload, mode, batch_size=batch_size)
    want_map, want_lookups = mutation_oracle(workload, mode)

    ex = make_executor(4, mode, heap_bytes, sanitize="paranoid")
    router = ShardRouter(ex, chunk_records=768, max_pending_records=4096)
    tickets = [router.submit(b) for b in batches]
    results = router.drain()

    assert all(t.done and t.error is None for t in tickets)
    got_lookups = {
        b * batch_size + j: v
        for b, res in enumerate(results)
        for j, v in res.items()
    }
    assert got_lookups == want_lookups
    assert _normalize(ex.result(), mode) == want_map
    ex.check_shards()
    if heap_bytes == TIGHT_HEAP:
        assert sum(t.iterations_completed for t in ex.tables) > sum(
            router.stats[c]
            for c in ("chunk_flushes", "backpressure_flushes", "drain_flushes")
        ), "the tight heap was meant to force reissue passes"


@pytest.mark.parametrize("mode", sorted(ORGS))
def test_lookup_sees_a_write_from_an_earlier_ticket_of_the_same_flush(mode):
    """Tickets A and B land in one merged batch; B's lookup must read A's
    write, and A's own earlier lookup must not."""
    numeric = np.int64 if mode == "combining" else None
    one, two = (1, 2) if numeric else (b"one", b"two")
    a = MutationBatch.from_ops(
        [(OP_LOOKUP, b"k", one), (OP_INSERT, b"k", one), (OP_INSERT, b"gone", one)],
        numeric_dtype=numeric,
    )
    b = MutationBatch.from_ops(
        [(OP_LOOKUP, b"k", one), (OP_UPDATE, b"k", two), (OP_DELETE, b"gone", one)],
        numeric_dtype=numeric,
    )
    c = MutationBatch.from_ops(
        [(OP_LOOKUP, b"k", one), (OP_LOOKUP, b"gone", one)], numeric_dtype=numeric
    )
    ex = make_executor(1, mode)
    router = ShardRouter(ex, chunk_records=64)
    for batch in (a, b, c):
        router.submit(batch)
    assert ex.total_records == 0  # all three still queued: one flush
    res_a, res_b, res_c = router.drain()
    assert router.stats["drain_flushes"] == 1

    model: dict = {}
    want = []
    for batch in (a, b, c):
        keys, vals = batch.key_bytes_list(), (
            batch.numeric_values.tolist() if numeric else batch.value_bytes_list()
        )
        want.append({})
        for row, (op, key, val) in enumerate(zip(batch.ops.tolist(), keys, vals)):
            out = apply_op_to_model(
                model, op, key, val, kind=mode, combiner=SUM_I64 if numeric else None
            )
            if op == OP_LOOKUP:
                want[-1][row] = out
    assert [res_a, res_b, res_c] == want
    assert res_b[0] and res_c[0] != res_b[0] and not res_c[1]


@pytest.mark.parametrize("mode", sorted(ORGS))
def test_a_client_may_reuse_its_batch_once_submit_returns(mode):
    """The router queues rows of its own copy of a batch: a client that
    overwrites its arrays after ``submit`` (they come back writeable)
    changes neither the flushed table nor the routed answers.  A client
    batch that already carries hashes and lookup results of its own gets
    both back untouched: its arrays, their (frozen) flags, its
    ``lookup_results``."""
    workload = make_op_workload("mixed-uniform", 600, seed=9)
    batches = make_mutation_batches(workload, mode, batch_size=50)
    want_map, want_lookups = mutation_oracle(workload, mode)

    def arrays(batch):
        return [a for a in (batch.keys, batch.key_lens, batch.ops,
                            batch.values, batch.val_lens, batch.numeric_values)
                if a is not None]

    kept = {}  # batch number -> (its arrays' bytes and flags, its answers)
    for b in range(0, len(batches), 2):
        batch = batches[b]
        batch.cache.hashes()  # freezes the arrays
        batch.lookup_results = {0: f"the client's own answer {b}"}
        kept[b] = ([(a.tobytes(), a.flags.writeable) for a in arrays(batch)],
                   dict(batch.lookup_results), batch.lookup_results)

    ex = make_executor(4, mode)
    router = ShardRouter(ex, chunk_records=256, max_pending_records=1024)
    for b, batch in enumerate(batches):
        router.submit(batch)
        if b not in kept:
            for a in arrays(batch):
                assert a.flags.writeable
                a[...] = 0
    results = router.drain()

    for b, (state, answers, same) in kept.items():
        batch = batches[b]
        assert [(a.tobytes(), a.flags.writeable)
                for a in arrays(batch)] == state
        assert batch.lookup_results is same and same == answers

    got_lookups = {
        b * 50 + j: v for b, res in enumerate(results) for j, v in res.items()
    }
    assert got_lookups == want_lookups
    assert _normalize(ex.result(), mode) == want_map
    ex.check_shards()


def test_runs_split_exactly_at_incompatible_neighbours():
    """A queue of plain slices and mutation slices at two parse costs
    merges per maximal compatible run, never across one, never out of
    order."""
    plain = lambda *keys: RecordBatch.from_pairs([(k, b"p-" + k) for k in keys])
    muts = lambda cost, *keys: MutationBatch.from_ops(
        [(OP_UPDATE, k, b"%d-%s" % (cost, k)) for k in keys],
        parse_cycles=float(cost),
    )
    submitted = [
        plain(b"a", b"b"),
        plain(b"c"),
        muts(50, b"a", b"d"),
        muts(50, b"b"),
        muts(80, b"a", b"c"),
        plain(b"a"),
        plain(b"e", b"d"),
    ]
    ex = make_executor(1, "multi-valued", sanitize="paranoid")
    seen = []
    run = ex.drivers[0].run
    ex.drivers[0].run = lambda batches: seen.append(list(batches)) or run(batches)
    router = ShardRouter(ex, chunk_records=64)
    for batch in submitted:
        router.submit(batch)
    router.drain()

    (merged,) = seen  # one flush, one driver run
    assert [(type(b), len(b)) for b in merged] == [
        (RecordBatch, 3), (MutationBatch, 3), (MutationBatch, 2), (RecordBatch, 3),
    ]
    assert [b.parse_cycles for b in merged[1:3]] == [50.0, 80.0]
    assert [k for b in merged for k in b.key_bytes_list()] == [
        k for b in submitted for k in b.key_bytes_list()
    ]
    assert {k: sorted(v) for k, v in ex.result().items()} == {
        b"a": [b"50-a", b"80-a", b"p-a", b"p-a"],
        b"b": [b"50-b", b"p-b"],
        b"c": [b"80-c", b"p-c"],
        b"d": [b"50-d", b"p-d"],
        b"e": [b"p-e"],
    }


@pytest.mark.parametrize("heap_bytes", [HEAP, TIGHT_HEAP], ids=["roomy", "tight"])
def test_homogeneous_traffic_is_one_launch_per_flush_per_pass(monkeypatch, heap_bytes):
    """The docs' promise as an assertion: tiny client batches never reach a
    device as tiny launches -- a flush is one ``apply_batch`` per SEPO pass."""
    workload = make_op_workload("mixed-uniform", 3000, seed=9)
    batches = make_mutation_batches(workload, "combining", batch_size=16)
    launches, passes = [], []
    apply_batch, run = GpuHashTable.apply_batch, SepoDriver.run
    monkeypatch.setattr(
        GpuHashTable, "apply_batch",
        lambda self, parts: launches.extend(len(i) for _, i in parts)
        or apply_batch(self, parts),
    )

    def counted_run(self, merged):
        report = run(self, merged)
        passes.append(report.iterations)
        return report

    monkeypatch.setattr(SepoDriver, "run", counted_run)
    ex = make_executor(1, "combining", heap_bytes)
    router = ShardRouter(ex, chunk_records=1000)
    for b in batches:
        router.submit(b)
    router.drain()

    flushes = router.stats["chunk_flushes"] + router.stats["drain_flushes"]
    assert len(passes) == flushes == 3  # 63 x 16 ops twice, then the tail
    assert len(launches) == sum(passes)
    if heap_bytes == HEAP:
        assert launches == [1008, 1008, 984]
    else:
        assert sum(passes) > flushes  # reissues are launches too, one a pass


# ----------------------------------------------------------------------
# a shard that raises
# ----------------------------------------------------------------------
def _stuck(ex):
    """A real NoProgressError before anything is applied."""
    ex.drivers[0].max_iterations = 0
    return NoProgressError


def _torn(ex):
    """A transfer fault at the first rearrangement: pass 1 is applied."""

    def end_iteration(pcie_bus=None):
        raise TransferError("injected: link down during eviction")

    ex.tables[0].end_iteration = end_iteration
    return TransferError


@pytest.mark.parametrize("inject", [_stuck, _torn])
def test_failed_flush_marks_its_tickets_and_spares_the_other_shards(inject):
    workload = make_op_workload("mixed-uniform", 240, seed=3)
    batches = make_mutation_batches(workload, "combining", batch_size=40)
    ex = make_executor(2, "combining")
    router = ShardRouter(ex, chunk_records=1024)
    tickets = [router.submit(b) for b in batches]
    queued = list(router._queued_records)
    assert all(queued) and not any(t.results for t in tickets)

    error = inject(ex)
    with pytest.raises(error) as raised:
        router.drain()
    # the exception propagated out of shard 0's flush; every ticket with a
    # slice there carries it and stays unresolved; nothing went back on
    # the queue, and shard 1 has not been touched yet
    assert all(t.error is raised.value and not t.done for t in tickets)
    assert router._queued_records == [0, queued[1]]
    assert ex.total_records == 0
    applied = ex.tables[0].result()

    results = router.drain()  # second drain: the healthy shard flushes
    assert router.pending_records == 0
    assert ex.total_records == queued[1]
    assert ex.tables[0].result() == applied  # no replay of the failed flush
    assert all(t.error is raised.value and not t.done for t in tickets)
    # shard 1's half of the stream is complete and answered
    want_map, want_lookups = mutation_oracle(workload, "combining")
    shard_of = ex.shard_map.shard_of_key
    assert ex.tables[1].result() == {
        k: v for k, v in want_map.items() if shard_of(k) == 1
    }
    got = {b * 40 + j: v for b, res in enumerate(results) for j, v in res.items()}
    assert got == {
        i: v for i, v in want_lookups.items() if shard_of(workload.ops[i][1]) == 1
    }
