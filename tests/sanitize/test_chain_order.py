"""Chains run downward in CPU address, whatever the table went through.

The lookup's newest-first page-in sweep (:mod:`repro.core.lookup`) rests
on one structural fact: a hop along ``next_cpu`` or ``vnext_cpu`` always
leads to a lower CPU address.  The sanitizer checks it on every chain
(``chain-order``); here arbitrary sequences of inserts, mixed-op batches,
iteration boundaries, lookups and page-ins try to break it on all three
organizations -- including the two moves that put old pages next to new
ones: a forced full eviction, and a ``page_in`` whose pages are still
resident when the next insert pass allocates.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (
    OP_DELETE,
    OP_INSERT,
    OP_LOOKUP,
    OP_UPDATE,
    BasicOrganization,
    CombiningOrganization,
    GpuHashTable,
    MutationBatch,
    RecordBatch,
    SUM_I64,
)
from repro.core.lookup import LookupDriver
from repro.core.organizations.kernel_splice import _readmit_key_pages
from repro.gpusim import CostLedger, GTX_780TI, KernelModel, PCIeBus
from repro.memalloc import GpuHeap
from repro.sanitize import check_table
from tests.core.conftest import multivalued_org

KINDS = {
    "basic": BasicOrganization,
    "combining": lambda: CombiningOrganization(SUM_I64),
    # retain almost nothing: pending keys force full evictions
    "multi-valued": lambda: multivalued_org(0.05),
}
KEY = st.sampled_from([b"k%02d" % i for i in range(24)])
PAIRS = st.lists(st.tuples(KEY, st.integers(0, 60)), min_size=1, max_size=40)
STEP = st.one_of(
    st.tuples(st.just("insert"), PAIRS),
    st.tuples(st.just("mutate"), st.lists(
        st.tuples(
            st.sampled_from([OP_INSERT, OP_UPDATE, OP_DELETE, OP_LOOKUP]),
            KEY, st.integers(0, 60),
        ), min_size=1, max_size=40,
    )),
    st.tuples(st.just("end_iteration"), st.none()),
    st.tuples(st.just("lookup"), st.lists(KEY, min_size=1, max_size=12)),
    # page stored segments in behind the table's back, oldest or newest
    st.tuples(st.just("page_in"), st.lists(st.integers(-3, 2), max_size=3)),
)


def run_sequence(kind, heap_pages, impl, steps):
    """Apply ``steps`` with a full sanitize pass after each; returns what
    the sequence exercised."""
    ledger = CostLedger()
    table = GpuHashTable(
        8, KINDS[kind](), GpuHeap(heap_pages * 256, 256), group_size=2,
        ledger=ledger,
    )
    table.org.impl = impl
    lookups = LookupDriver(table, KernelModel(GTX_780TI, ledger), PCIeBus(ledger))
    numeric = kind == "combining"

    def value(v):
        return v if numeric else b"v%d" % v + b"y" * (v % 4 * 8)

    facts = {"forced": 0, "paged_in_at_insert": 0, "evicted_chains": 0}
    paged_in: set[int] = set()
    for what, arg in steps:
        if what in ("insert", "mutate"):
            facts["paged_in_at_insert"] += any(
                table.heap.resident_page(seg) is not None for seg in paged_in
            )
        if what == "insert":
            if numeric:
                batch = RecordBatch.from_numeric(
                    [k for k, _ in arg],
                    np.array([v for _, v in arg], dtype=np.int64),
                )
            else:
                batch = RecordBatch.from_pairs([(k, value(v)) for k, v in arg])
            table.insert_batch(batch)
        elif what == "mutate":
            table.mutate_batch(MutationBatch.from_ops(
                [(op, k, value(v)) for op, k, v in arg],
                numeric_dtype=np.int64 if numeric else None,
            ))
        elif what == "end_iteration":
            facts["forced"] += table.end_iteration().forced_full_eviction
            paged_in.clear()
        elif what == "lookup":
            before = set(table.heap._store)
            lookups.lookup(arg)
            paged_in |= before - set(table.heap._store)
        else:
            stored = sorted(table.heap._store)
            moved = [
                stored[i] for i in arg if -len(stored) <= i < len(stored)
                and table.heap.page_in(stored[i]) is not None
            ]
            # the page-in rule (DESIGN.md), which a lookup applies itself
            _readmit_key_pages(table, moved)
            paged_in.update(moved)
        report = check_table(table)  # raises on any violation
        facts["evicted_chains"] += bool(table.heap._store) and report.n_entries > 0
    return facts


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(sorted(KINDS)),
    heap_pages=st.integers(3, 8),
    impl=st.sampled_from(["vectorized", "slow_reference"]),
    steps=st.lists(STEP, min_size=3, max_size=14),
)
# found by this property: a lookup's evict-all left the allocator filling
# the pages it had just evicted
@example(kind="combining", heap_pages=3, impl="vectorized", steps=[
    ("insert", [(b"k00", 0)]), ("end_iteration", None),
    ("mutate", [(OP_INSERT, b"k00", 0), (OP_INSERT, b"k01", 0), (OP_INSERT, b"k03", 0)]),
    ("lookup", [b"k00"]), ("insert", [(b"k00", 0)]),
])
def test_chains_stay_in_age_order_through_any_sequence(kind, heap_pages, impl, steps):
    run_sequence(kind, heap_pages, impl, steps)


def test_the_sequences_reach_forced_evictions_and_stale_resident_pages():
    """The two moves the property is there for do occur: a written-down
    sequence per organization, checked like the generated ones."""
    keys = [b"k%02d" % i for i in range(24)]
    load = [(k, i) for i, k in enumerate(keys * 2)]
    ops = [(op, k, 7) for k in keys[:12] for op in (OP_UPDATE, OP_DELETE, OP_INSERT)]
    steps = [
        ("insert", load), ("end_iteration", None), ("insert", load[::-1]),
        ("end_iteration", None), ("lookup", keys[:8]), ("mutate", ops),
        ("page_in", [0, -1]), ("insert", load), ("end_iteration", None),
        ("lookup", keys), ("insert", load), ("mutate", ops),
    ]
    for kind in KINDS:
        for impl in ("vectorized", "slow_reference"):
            facts = run_sequence(kind, 4, impl, steps)
            assert facts["paged_in_at_insert"] >= 3, (kind, facts)
            assert facts["evicted_chains"] >= 8, (kind, facts)
            assert (facts["forced"] > 0) == (kind == "multi-valued"), (kind, facts)
