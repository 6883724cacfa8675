#!/usr/bin/env python3
"""SEPO lookups -- the paper's 'mental exercise' (Section IV-C), solved.

After a larger-than-memory table is built, later phases want to *query* it.
Resident keys answer immediately; keys whose chains lead into evicted
segments are POSTPONEd, the lookup driver pages the blocking segments back
in newest first (chains only run from newer segments to older ones), and
reissues -- the same postpone/rearrange/reissue cycle as inserts, now in
the read direction.  A multi-valued table is read the same way, as a walk
down each key's chain plus one walk down each value list it matched.

Run:  python examples/sepo_lookups.py
"""

import numpy as np

from repro.core import (
    CombiningOrganization,
    GpuHashTable,
    RecordBatch,
    SepoDriver,
    SUM_I64,
)
from repro.core.lookup import LookupDriver
from repro.gpusim import CostLedger, GTX_780TI, KernelModel, PCIeBus
from repro.memalloc import GpuHeap

# Build a table 4x larger than the heap.
rng = np.random.default_rng(9)
keys = [f"sensor-{i:05d}".encode() for i in range(3000)]
stream = [keys[i] for i in rng.integers(0, len(keys), size=20_000)]

ledger = CostLedger()
heap = GpuHeap(heap_bytes=48 << 10, page_size=4 << 10)
table = GpuHashTable(1 << 10, CombiningOrganization(SUM_I64), heap,
                     group_size=64, ledger=ledger)
driver = SepoDriver(table, KernelModel(GTX_780TI, ledger), PCIeBus(ledger))
report = driver.run(
    [RecordBatch.from_numeric(stream, np.ones(len(stream), dtype=np.int64))]
)
print(f"table built in {report.iterations} SEPO iterations; "
      f"{table.heap.stored_bytes // 1024} KB evicted to CPU memory")

# Query 1,500 random keys (plus some misses) against the cold table.
queries = [keys[i] for i in rng.integers(0, len(keys), size=1_400)]
queries += [b"sensor-99999", b"nope"] * 50

lookups = LookupDriver(table, KernelModel(GTX_780TI, ledger), PCIeBus(ledger))
result = lookups.lookup(queries)

print(f"\nlookup iterations : {result.iterations}")
print(f"postponed lookups : {result.postponed_total:,} "
      "(chains led into non-resident segments)")
print(f"segments paged in : {result.segments_paged_in}")
hits = sum(1 for v in result.values if v is not None)
print(f"hits / misses     : {hits:,} / {len(queries) - hits:,}")

# Every pass is one batched resolve of the still-open queries; what ran off
# the resident chains is postponed, and the segments that blocked it are
# paged back in newest first before the next pass.
print("\n pass   open  answered  postponed  paged in")
open_queries = len(queries)
for n, (answered, postponed, paged_in) in enumerate(zip(
    result.iteration_answered, result.iteration_postponed,
    result.iteration_paged_in,
), 1):
    print(f"{n:5d}  {open_queries:5,}  {answered:8,}  {postponed:9,}  {paged_in:8,}")
    open_queries = postponed

# Verify against the CPU-side view of the same table.
truth = table.result()
for q, v in zip(queries, result.values):
    assert v == truth.get(q), (q, v, truth.get(q))
print("\nall lookup results verified against the CPU-side table view")
