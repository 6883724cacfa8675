"""What the in-stream lookups of a mixed-op stream read from host memory.

An in-stream lookup walks its key's whole CPU chain -- evicted segments
included -- and is charged every entry at device-memory speed (ROADMAP,
the first open item).  This counts, under the scalar loop, the entry and
value-node reads of those walks and how many land in a segment that is not
resident as the read happens: the number a charge for host reads would be
built on.  Nothing here is charged; the counts are pinned per organization
on a small seeded stream, and are the same whether a pass applies its
mixed-op chunks one call a chunk or joined, because residency changes only
at the iteration boundary.
"""

import numpy as np
import pytest

from repro.core import (
    OP_DELETE,
    OP_INSERT,
    OP_LOOKUP,
    OP_UPDATE,
    GpuHashTable,
    SepoDriver,
)
from repro.core import hashtable
from repro.core.organizations import oracle
from repro.gpusim import CostLedger, GTX_780TI, KernelModel, PCIeBus
from repro.memalloc import GpuHeap
from tests.core.test_mutations import make_org, mut_batch

#: (entry and value-node reads, of which from non-resident segments)
PINNED = {
    "basic": (6_505, 4_717),
    "combining": (6_453, 4_481),
    "multi-valued": (8_568, 6_360),
}


def stream(kind):
    """6,144 ops over 1,024 keys in 512-op chunks, the ``kv_mixed`` mix."""
    rng = np.random.default_rng(7)
    n = 6_144
    ops = rng.choice([OP_INSERT, OP_UPDATE, OP_DELETE, OP_LOOKUP], size=n,
                     p=[0.45, 0.20, 0.15, 0.20])
    keys = [b"key-%06d" % r for r in rng.integers(0, 1_024, size=n)]
    if kind == "combining":
        values = [int(v) for v in rng.integers(-50, 50, size=n)]
    else:
        values = [b"value-%08d" % i for i in range(n)]
    triples = [(int(o), k, v) for o, k, v in zip(ops, keys, values)]
    return [mut_batch(kind, triples[lo:lo + 512]) for lo in range(0, n, 512)]


def reads_of_stream_lookups(kind, monkeypatch):
    """Run the stream to completion under the scalar loop on a table of
    256 buckets over a 32 KiB heap of 4 KiB pages (several times the
    heap); returns the reads of its in-stream lookups and how many were
    not resident."""
    counts = [0, 0]
    table = GpuHashTable(
        256, make_org(kind, "slow_reference"), GpuHeap(32 << 10, 4 << 10),
        group_size=32, ledger=CostLedger())
    heap = table.heap
    segment_view = heap.segment_view

    def counted_view(segment):
        counts[0] += 1
        counts[1] += heap.resident_page(segment) is None
        return segment_view(segment)

    def counting(walk):
        def walked(t, b, key, tally):
            heap.segment_view = counted_view
            try:
                return walk(t, b, key, tally)
            finally:
                del heap.segment_view

        return walked

    for name in ("_lookup_generic", "_lookup_mv"):
        monkeypatch.setattr(oracle, name, counting(getattr(oracle, name)))
    SepoDriver(table, KernelModel(GTX_780TI, table.ledger),
               PCIeBus(table.ledger)).run(stream(kind))
    assert table.iterations_completed > 2
    return tuple(counts)


@pytest.mark.parametrize("kind", list(PINNED))
def test_stream_lookups_read_host_memory_joined_or_not(kind, monkeypatch):
    joined = reads_of_stream_lookups(kind, monkeypatch)
    with monkeypatch.context() as m:
        m.setattr(hashtable, "RUN_RECORDS", 0)  # one call a chunk
        alone = reads_of_stream_lookups(kind, monkeypatch)
    assert joined == alone
    assert joined == PINNED[kind]
