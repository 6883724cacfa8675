"""ShardedExecutor: bit-identity vs unsharded, placement check, reports.

The headline invariant of the sharded executor is *transparency*: because
shards partition the key space, a sharded run must be observationally
identical to an unsharded run of the same stream -- same merged
``result()``, same ``lookup()`` answers, same per-batch
``lookup_results`` on mutation streams.  These tests pin that down for
all three organizations, then exercise the cross-shard placement
sanitizer (positive and forced-violation) and the ShardReport shape.
"""

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
from repro.core.sepo import NoProgressError
from repro.gpusim import CostLedger, GTX_780TI, KernelModel, PCIeBus
from repro.memalloc import GpuHeap
from repro.sanitize import SanitizerError
from repro.sanitize.workloads import (
    make_batches,
    make_mutation_batches,
    make_op_workload,
    make_workload,
)
from repro.shard import ShardedExecutor

N_BUCKETS = 64
PAGE = 512
SHARD_HEAP = 400 * PAGE  # generous: the bar here is identity, not eviction
GROUP = 16

ORGS = {
    "basic": (lambda: BasicOrganization(), "basic"),
    "combining": (lambda: CombiningOrganization(SUM_I64), "combining"),
    "multivalued": (lambda: MultiValuedOrganization(), "multi-valued"),
}


def make_executor(n_shards, org_factory, **kw):
    return ShardedExecutor(
        n_shards,
        org_factory,
        n_buckets=N_BUCKETS,
        heap_bytes=SHARD_HEAP,
        page_size=PAGE,
        group_size=GROUP,
        **kw,
    )


def unsharded(org_factory):
    """One single-device stack with a heap as large as all shards'."""
    ledger = CostLedger()
    heap = GpuHeap(SHARD_HEAP * 8, PAGE)
    table = GpuHashTable(
        N_BUCKETS, org_factory(), heap, group_size=GROUP, ledger=ledger
    )
    kernel = KernelModel(GTX_780TI, ledger)
    bus = PCIeBus(ledger)
    return table, SepoDriver(table, kernel, bus), LookupDriver(
        table, kernel, bus
    )


@pytest.mark.parametrize("org_name", sorted(ORGS))
@pytest.mark.parametrize("n_shards", [2, 4])
def test_sharded_matches_unsharded_bit_identical(org_name, n_shards):
    org_factory, mode = ORGS[org_name]
    workload = make_workload("zipf", 600, seed=7)

    ex = make_executor(n_shards, org_factory)
    report = ex.run(make_batches(workload, mode, batch_size=96))

    table, driver, lookups = unsharded(org_factory)
    driver.run(make_batches(workload, mode, batch_size=96))

    # structural + placement check runs before any lookups: lookups page
    # evicted key pages back in, where eviction deliberately left stale
    # vhead_gpu words (the lookup path reads only vhead_cpu), so the
    # GPU-divergence check is only meaningful pre-page-in -- same order
    # the conformance runner uses.
    assert ex.check_shards() == len(set(workload.keys))
    assert ex.result() == table.result()
    probe = sorted(set(workload.keys)) + [b"never-inserted-1", b"zz-miss"]
    assert ex.lookup(probe) == lookups.lookup(probe).values
    assert report.total_records == len(workload)


@pytest.mark.parametrize("org_name", sorted(ORGS))
def test_mutation_stream_lookup_results_match_unsharded(org_name):
    """Per-batch lookup_results re-keyed by the merge map must equal the
    unsharded driver's answers row for row, and ``ex.lookup`` the
    unsharded ``LookupDriver``'s."""
    org_factory, mode = ORGS[org_name]
    workload = make_op_workload("mixed-uniform", 800, seed=3)

    sharded_batches = make_mutation_batches(workload, mode, batch_size=64)
    plain_batches = make_mutation_batches(workload, mode, batch_size=64)

    ex = make_executor(4, org_factory)
    ex.run(sharded_batches)

    table, driver, lookups = unsharded(org_factory)
    driver.run(plain_batches)

    ex.check_shards()
    assert ex.result() == table.result()
    for sb, pb in zip(sharded_batches, plain_batches):
        assert sb.lookup_results == pb.lookup_results
    # ... and so must the cross-shard SEPO lookups of the finished tables
    # (tombstones, shadows, keys asked twice, keys never written)
    written = sorted({key for _, key, _ in workload.ops})
    probe = written * 2 + [b"never-inserted-1", b"zz-miss"]
    answers = lookups.lookup(probe).values
    assert ex.lookup(probe) == answers
    assert any(a is None for a in answers[:-2]), "no deleted key probed"


def test_lookup_empty_and_misses():
    ex = make_executor(2, ORGS["basic"][0])
    assert ex.lookup([]) == []
    assert ex.lookup([b"nothing-here"]) == [None]


def test_report_shape_and_schedule_accounting():
    ex = make_executor(4, ORGS["basic"][0])
    workload = make_workload("uniform", 500, seed=1)
    report = ex.run(make_batches(workload, "basic", batch_size=125))
    assert report.total_records == 500
    assert len(report.shard_reports) == 4
    assert all(r.total_records > 0 for r in report.shard_reports)
    assert sum(r.total_records for r in report.shard_reports) == 500
    sched = report.schedule
    assert sched["n_shards"] == 4
    # shards run concurrently: the makespan is one clock, not the sum
    assert 0 < sched["makespan_seconds"] <= sched["busy_seconds"]
    assert sched["makespan_seconds"] == pytest.approx(
        max(sched["per_shard_seconds"])
    )
    assert 0.0 <= sched["overlap_efficiency"] <= 1.0
    assert sched["parallel_speedup"] >= 1.0
    assert report.records_per_second > 0


def test_runs_accumulate_total_records():
    ex = make_executor(2, ORGS["basic"][0])
    w = make_workload("uniform", 200, seed=2)
    ex.run(make_batches(w, "basic", batch_size=50))
    ex.run(make_batches(w, "basic", batch_size=50))
    assert ex.total_records == 400


# ----------------------------------------------------------------------
# liveness: the executor's rounds run SepoDriver.step, rules included
# ----------------------------------------------------------------------
def test_two_stuck_passes_on_one_shard_raise_and_name_it():
    ex = make_executor(2, ORGS["combining"][0])
    # Drain shard 1's pool for good: no rearrangement can free a page.
    while ex.tables[1].heap.pool.take() is not None:
        pass
    workload = make_workload("uniform", 100, seed=4)
    with pytest.raises(NoProgressError, match="shard 1: two consecutive"):
        ex.run(make_batches(workload, "combining", batch_size=50))
    # round 1 finished shard 0 and rearranged both; round 2 only visited
    # the stuck shard, which gave up before its second rearrangement
    assert [t.iterations_completed for t in ex.tables] == [1, 1]
    assert ex.total_records == 0  # a failed run reports nothing


def test_max_iterations_exceeded_raises_and_names_the_shard():
    ex = make_executor(2, ORGS["basic"][0], max_iterations=0)
    workload = make_workload("uniform", 40, seed=4)
    with pytest.raises(NoProgressError, match="shard 0: exceeded 0 SEPO iterations"):
        ex.run(make_batches(workload, "basic", batch_size=40))
    assert ex.run([]).total_records == 0  # nothing pending never iterates


# ----------------------------------------------------------------------
# cross-shard placement sanitizer
# ----------------------------------------------------------------------
def _key_for_shard(shard_map, want):
    for i in range(10_000):
        k = b"probe-%05d" % i
        if shard_map.shard_of_key(k) == want:
            return k
    raise AssertionError("no key found for shard")


def test_check_shards_flags_misplaced_key():
    ex = make_executor(2, ORGS["basic"][0])
    key = _key_for_shard(ex.shard_map, 0)
    # bypass the partitioner: drive the record into the wrong shard
    ex.drivers[1].run([RecordBatch.from_pairs([(key, b"v")])])
    with pytest.raises(SanitizerError, match="shard-misplaced"):
        ex.check_shards()


def test_check_shards_flags_duplicate_key():
    ex = make_executor(2, ORGS["basic"][0])
    key = _key_for_shard(ex.shard_map, 0)
    batch = [(key, b"v")]
    ex.drivers[0].run([RecordBatch.from_pairs(batch)])
    ex.drivers[1].run([RecordBatch.from_pairs(batch)])
    with pytest.raises(SanitizerError, match="shard-duplicate"):
        ex.check_shards()
