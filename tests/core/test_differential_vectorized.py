"""Differential suite: vectorized kernels vs the scalar slow reference.

Every organization carries two insert implementations (``impl="vectorized"``
and ``impl="slow_reference"``); this suite drives identical workloads through
both -- across multiple SEPO iterations, postponement, and eviction
boundaries -- and asserts that success masks, :class:`InsertTally` fields,
:class:`BatchStats`, ledger charges, access traces, per-bucket chain
contents, and final ``result()`` mappings are *identical*, not just close
(f64 payloads are compared by their ``struct.pack`` bytes).
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.trace import AccessTrace
from repro.core import (
    BasicOrganization,
    CombiningOrganization,
    GpuHashTable,
    MultiValuedOrganization,
    RecordBatch,
    SUM_F64,
    SUM_I64,
)
from repro.memalloc import GpuHeap

ORGS = ["basic", "combining", "combining-f64", "multi-valued"]


def make_org(kind: str, impl: str):
    if kind == "basic":
        return BasicOrganization(impl=impl)
    if kind == "combining":
        return CombiningOrganization(SUM_I64, impl=impl)
    if kind == "combining-f64":
        return CombiningOrganization(SUM_F64, impl=impl)
    return MultiValuedOrganization(impl=impl)


def f64_values(n: int) -> np.ndarray:
    """Sums whose rounding depends on association: 16 orders of magnitude,
    both signs, and a sprinkling of the values float code forgets."""
    rng = np.random.default_rng(n)
    vals = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, size=n)
    special = [np.nan, np.inf, -np.inf, -0.0, np.inf]
    for j, v in enumerate(special[: n // 8]):
        vals[(j * 37 + 5) % n] = v
    return vals


def make_batch(kind: str, keys: list[bytes], values: list[bytes]):
    if kind == "combining":
        return RecordBatch.from_numeric(
            keys, np.arange(1, len(keys) + 1, dtype=np.int64)
        )
    if kind == "combining-f64":
        return RecordBatch.from_numeric(keys, f64_values(len(keys)))
    return RecordBatch.from_pairs(list(zip(keys, values)))


def exact(payload):
    """A payload as something ``==`` compares bit for bit.  NaNs compare
    as NaN and no further: which payload survives ``nan + nan`` depends on
    operand order in ways CPython itself does not keep stable."""
    if not isinstance(payload, float):
        return payload
    return struct.pack("<d", payload) if payload == payload else "nan"


def exact_items(table):
    return [(k, exact(v)) for k, v in table.cpu_items()]


def exact_result(table):
    return {k: exact(v) for k, v in table.result().items()}


def run_workload(kind: str, impl: str, batches_spec, heap_bytes, page_size,
                 n_buckets=32, group_size=8, with_trace=True):
    """Drive batches to completion; return every observable artefact."""
    trace = AccessTrace() if with_trace else None
    heap = GpuHeap(heap_bytes, page_size)
    table = GpuHashTable(
        n_buckets, make_org(kind, impl), heap, group_size=group_size,
        trace=trace,
    )
    masks, tallies, stats, reports = [], [], [], []
    for keys, values in batches_spec:
        batch = make_batch(kind, keys, values)
        pending = np.arange(len(batch))
        guard = 0
        while len(pending):
            guard += 1
            assert guard < 64, "workload does not converge"
            res = table.insert_batch(batch, pending)
            masks.append(res.success.copy())
            tallies.append(res.tally)
            stats.append(res.stats)
            pending = pending[~res.success]
            if len(pending):
                reports.append(table.end_iteration())
        reports.append(table.end_iteration())
    return {
        "table": table,
        "masks": masks,
        "tallies": tallies,
        "stats": stats,
        "reports": reports,
        "trace": trace,
        "ledger": table.ledger,
    }


def assert_identical(a, b):
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
    for ra, rb in zip(a["reports"], b["reports"]):
        assert ra.bytes_evicted == rb.bytes_evicted
        assert ra.pages_evicted == rb.pages_evicted
        assert ra.pages_retained == rb.pages_retained
        assert ra.entries_spliced == rb.entries_spliced
        assert ra.maintenance_cycles == rb.maintenance_cycles
    assert a["ledger"].breakdown() == b["ledger"].breakdown()
    if a["trace"] is not None:
        np.testing.assert_array_equal(
            a["trace"].addresses(), b["trace"].addresses()
        )
        np.testing.assert_array_equal(a["trace"].sizes(), b["trace"].sizes())
    # chain contents: cpu_items walks every bucket's CPU chain in order
    assert exact_items(a["table"]) == exact_items(b["table"])
    assert exact_result(a["table"]) == exact_result(b["table"])


def seeded_workload(seed: int, n_records: int, n_distinct: int):
    rng = np.random.default_rng(seed)
    keys = [b"k%04d" % i for i in rng.integers(0, n_distinct, size=n_records)]
    values = [
        b"v" * int(rng.integers(0, 24)) + b"%d" % i
        for i, _ in enumerate(keys)
    ]
    return keys, values


@pytest.mark.parametrize("kind", ORGS)
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_differential_with_evictions(kind, seed):
    """Small heap: several SEPO iterations with postponement + eviction."""
    # enough *distinct* keys that even the combining method (which merges
    # duplicates in place) overflows the 8-page heap and must postpone
    spec = [seeded_workload(seed * 10 + i, 160, 120) for i in range(2)]
    a = run_workload(kind, "vectorized", spec, heap_bytes=2048, page_size=256)
    b = run_workload(
        kind, "slow_reference", spec, heap_bytes=2048, page_size=256
    )
    assert any(len(m) and not m.all() for m in a["masks"]), (
        "workload was expected to exercise postponement"
    )
    assert_identical(a, b)


@pytest.mark.parametrize("kind", ORGS)
def test_differential_no_pressure(kind):
    """Roomy heap: single-iteration pure-throughput path."""
    spec = [seeded_workload(7, 300, 80)]
    a = run_workload(kind, "vectorized", spec, heap_bytes=1 << 16,
                     page_size=1 << 12)
    b = run_workload(kind, "slow_reference", spec, heap_bytes=1 << 16,
                     page_size=1 << 12)
    assert all(m.all() for m in a["masks"])
    assert_identical(a, b)


@pytest.mark.parametrize("kind", ORGS)
def test_differential_reissued_subsets(kind):
    """Pending subsets reissued out of arrival order hash identically."""
    keys, values = seeded_workload(11, 120, 30)
    batch = make_batch(kind, keys, values)
    results = {}
    for impl in ("vectorized", "slow_reference"):
        heap = GpuHeap(1 << 16, 1 << 12)
        table = GpuHashTable(16, make_org(kind, impl), heap, group_size=4)
        # deliberately scrambled, duplicated-bucket index subsets
        subsets = [
            np.arange(0, 120, 3),
            np.arange(1, 120, 3)[::-1].copy(),
            np.arange(2, 120, 3),
        ]
        masks = [table.insert_batch(batch, s).success.copy() for s in subsets]
        results[impl] = (masks, exact_result(table))
        batch.invalidate_cache()
    for ma, mb in zip(results["vectorized"][0], results["slow_reference"][0]):
        np.testing.assert_array_equal(ma, mb)
    assert results["vectorized"][1] == results["slow_reference"][1]


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(ORGS),
    pairs=st.lists(
        st.tuples(
            st.binary(min_size=0, max_size=12),
            st.binary(min_size=0, max_size=16),
        ),
        min_size=1,
        max_size=60,
    ),
    page_size=st.sampled_from([256, 512]),
    n_pages=st.integers(min_value=2, max_value=6),
)
def test_differential_property(kind, pairs, page_size, n_pages):
    """Property: arbitrary byte workloads behave identically in both
    implementations, whatever the heap pressure."""
    keys = [k for k, _ in pairs]
    values = [v for _, v in pairs]
    spec = [(keys, values)]
    heap_bytes = n_pages * page_size
    a = run_workload(kind, "vectorized", spec, heap_bytes, page_size,
                     n_buckets=8, group_size=4, with_trace=False)
    b = run_workload(kind, "slow_reference", spec, heap_bytes, page_size,
                     n_buckets=8, group_size=4, with_trace=False)
    assert_identical(a, b)


def run_sepo(kind, impl, batches_spec, make_fault=None, heap_pages=8,
             page_size=256):
    """Drive a full SEPO run (optionally fault-injected) to completion."""
    from repro.core import SepoDriver
    from repro.gpusim import CostLedger, GTX_780TI, KernelModel, PCIeBus

    ledger = CostLedger()
    heap = GpuHeap(heap_pages * page_size, page_size)
    table = GpuHashTable(
        32, make_org(kind, impl), heap, group_size=8, ledger=ledger,
    )
    driver = SepoDriver(
        table, KernelModel(GTX_780TI, ledger), PCIeBus(ledger),
        max_iterations=500,
    )
    if make_fault is not None:
        make_fault().install(table, driver)
    report = driver.run([make_batch(kind, k, v) for k, v in batches_spec])
    return table, report, ledger


def assert_sepo_identical(kind, batches_spec, make_fault=None, **kw):
    """Full-run differential: vectorized vs scalar, same fault injected."""
    ta, ra, la = run_sepo(kind, "vectorized", batches_spec, make_fault, **kw)
    tb, rb, lb = run_sepo(kind, "slow_reference", batches_spec, make_fault,
                          **kw)
    assert ra.iterations == rb.iterations
    for ia, ib in zip(ra.iteration_log, rb.iteration_log):
        assert (ia.attempted, ia.succeeded, ia.postponed) == (
            ib.attempted, ib.succeeded, ib.postponed
        )
        assert ia.evicted_bytes == ib.evicted_bytes
        assert ia.pages_retained == ib.pages_retained
    assert ra.elapsed_seconds == rb.elapsed_seconds  # simulated, bit-equal
    assert la.breakdown() == lb.breakdown()
    assert exact_items(ta) == exact_items(tb)
    assert exact_result(ta) == exact_result(tb)
    return ra


@pytest.mark.parametrize("kind", ORGS)
def test_differential_postponement_restart_preagg(kind):
    """No trace attached: the pre-aggregating kernels are live, and the
    postponed subsets reissued across SEPO iterations must regroup to the
    same outcome as the scalar walk."""
    spec = [seeded_workload(21 + i, 160, 120) for i in range(2)]
    report = assert_sepo_identical(kind, spec)
    assert report.iterations > 1, "expected postponement restarts"


@pytest.mark.parametrize("kind", ORGS)
@pytest.mark.parametrize("at_batch", [1, 2])
def test_differential_mid_iteration_eviction_fault(kind, at_batch):
    """A forced rearrangement between batches of one iteration leaves both
    impls inserting over evicted chain prefixes -- identically."""
    from repro.sanitize.faults import MidIterationEviction

    spec = [seeded_workload(31 + i, 120, 90) for i in range(3)]
    assert_sepo_identical(
        kind, spec, lambda: MidIterationEviction(at_batch=at_batch)
    )


@pytest.mark.parametrize("kind", ORGS)
def test_differential_pool_exhaustion_fault(kind):
    from repro.sanitize.faults import PoolExhaustion

    spec = [seeded_workload(41 + i, 120, 90) for i in range(2)]
    assert_sepo_identical(
        kind, spec, lambda: PoolExhaustion(after_batches=1, deny_batches=1)
    )


@pytest.mark.parametrize("kind", ORGS)
@pytest.mark.parametrize("n_distinct", [1, 3, 40])
def test_differential_heavy_duplication_preagg(kind, n_distinct):
    """All-duplicates / near-all-duplicates: whole batches collapse into
    a handful of folds, one chain probe per distinct key.  With 40 keys a
    120-fold hot key rides along, so one fold runs both its rounds and its
    accumulate tail; the second batch folds onto stored scalars."""
    rng = np.random.default_rng(5)
    keys = [b"dup%02d" % i for i in rng.integers(0, n_distinct, size=200)]
    if n_distinct == 40:
        for j in rng.choice(200, size=120, replace=False):
            keys[j] = b"hot"
    values = [b"pv%03d" % i for i in range(200)]
    assert_sepo_identical(kind, [(keys, values)] * 2, heap_pages=16)


def test_impl_validation():
    with pytest.raises(ValueError):
        BasicOrganization(impl="warp-speed")
    with pytest.raises(ValueError):
        CombiningOrganization(SUM_I64, impl="")
    with pytest.raises(ValueError):
        MultiValuedOrganization(impl="scalar")
