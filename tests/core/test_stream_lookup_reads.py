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

The same walks read through :meth:`GpuHeap.cpu_image`, which verifies
every stored segment before a pointer is read out of it: with integrity on,
a lookup over a segment ``StaleSegmentFault`` damaged raises
``CorruptionError`` instead of reading the damage as a table.
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
from repro.integrity import CorruptionError
from repro.memalloc import GpuHeap
from repro.sanitize import faults as F
from tests.core.test_mutations import make_org, mut_batch, seeded_ops

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


def run_batch(table, kind, seed, n=512):
    """One mixed-op batch of the batched kernel to completion (postponed
    ops retried after a boundary), then a boundary."""
    batch = mut_batch(kind, seeded_ops(seed, n, 256, kind))
    pending = np.arange(len(batch))
    for _ in range(64):
        pending = pending[~table.mutate_batch(batch, pending).success]
        table.end_iteration()
        if not len(pending):
            return
    raise AssertionError("the batch does not converge")


def _unchecked_cpu_image(monkeypatch):
    """The planted fault: ``cpu_image`` joins the store unverified."""
    real = GpuHeap.cpu_image

    def cpu_image(self):
        integrity, self.integrity = self.integrity, None
        try:
            return real(self)
        finally:
            self.integrity = integrity

    monkeypatch.setattr(GpuHeap, "cpu_image", cpu_image)


def _stale_caught(kind) -> bool:
    """Whether integrity catches the damage: four batches with integrity
    on over 64 buckets and 24 pages of 512 bytes (each spills to the
    store), the lowest stored segment overwritten with the next one's
    bytes, then a batch whose in-stream lookups read it."""
    table = GpuHashTable(64, make_org(kind, "vectorized"),
                         GpuHeap(24 * 512, 512), group_size=8,
                         ledger=CostLedger(), integrity="verify")
    for seed in range(4):
        run_batch(table, kind, seed)
    F.StaleSegmentFault()._corrupt(table.heap)
    try:
        run_batch(table, kind, 4)
    except CorruptionError:
        return True
    except Exception:  # the damage read as a table: anything may break
        return False
    return False


@pytest.mark.parametrize("kind", list(PINNED))
def test_a_stale_segment_under_a_stream_lookup_is_caught(kind, monkeypatch):
    assert _stale_caught(kind)
    _unchecked_cpu_image(monkeypatch)
    assert not _stale_caught(kind)
