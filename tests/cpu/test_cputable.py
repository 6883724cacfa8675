import numpy as np
import pytest

from repro.core import CombiningOrganization, MultiValuedOrganization, SUM_I64
from repro.core.records import RecordBatch
from repro.cpu import CpuHashTable
from repro.gpusim import XEON_E5_QUAD


def batch(pairs):
    keys = [k for k, _ in pairs]
    vals = np.array([v for _, v in pairs], dtype=np.int64)
    return RecordBatch.from_numeric(keys, vals)


def test_cpu_table_combines():
    t = CpuHashTable(64, CombiningOrganization(SUM_I64), group_size=8,
                     device=XEON_E5_QUAD.scaled(1024))
    report = t.run([batch([(b"a", 1), (b"a", 2), (b"b", 5)])])
    assert t.result() == {b"a": 3, b"b": 5}
    assert report.total_records == 3
    assert report.elapsed_seconds > 0


def test_cpu_never_postpones_on_real_workload():
    t = CpuHashTable(1 << 10, CombiningOrganization(SUM_I64),
                     device=XEON_E5_QUAD.scaled(64))
    pairs = [(f"k{i}".encode(), 1) for i in range(5000)]
    report = t.run([batch(pairs)])
    assert report.total_records == 5000
    assert len(t.result()) == 5000


def test_cpu_no_pcie_costs():
    t = CpuHashTable(64, CombiningOrganization(SUM_I64),
                     device=XEON_E5_QUAD.scaled(1024))
    report = t.run([batch([(b"a", 1)] * 100)])
    assert report.breakdown["pcie"] == 0.0


def test_cpu_heap_capped():
    t = CpuHashTable(64, CombiningOrganization(SUM_I64),
                     max_heap_bytes=1 << 20)
    assert t.table.heap.pool.n_slots * t.table.heap.page_size <= 1 << 20


def test_cpu_multivalued_grouping():
    t = CpuHashTable(64, MultiValuedOrganization(), group_size=8,
                     device=XEON_E5_QUAD.scaled(1024))
    b = RecordBatch.from_pairs([(b"k", b"v1"), (b"k", b"v2")])
    t.run([b])
    assert sorted(t.result()[b"k"]) == [b"v1", b"v2"]


def test_cpu_raises_when_genuinely_full():
    tiny = XEON_E5_QUAD.scaled(1 << 21)  # ~8 KB of "CPU memory", 4 KB heap
    t = CpuHashTable(8, CombiningOrganization(SUM_I64), group_size=8,
                     device=tiny, page_size=1024)
    pairs = [(f"key-{i:05d}".encode(), 1) for i in range(200)]
    with pytest.raises(MemoryError):
        t.run([batch(pairs)])


def test_cpu_slower_per_record_than_gpu_compute():
    """Sanity on the calibration: CPU elapsed scales with record count."""
    t1 = CpuHashTable(256, CombiningOrganization(SUM_I64),
                      device=XEON_E5_QUAD.scaled(1024))
    t2 = CpuHashTable(256, CombiningOrganization(SUM_I64),
                      device=XEON_E5_QUAD.scaled(1024))
    small = t1.run([batch([(f"x{i}".encode(), 1) for i in range(500)])])
    large = t2.run([batch([(f"x{i}".encode(), 1) for i in range(5000)])])
    assert large.elapsed_seconds > 5 * small.elapsed_seconds
