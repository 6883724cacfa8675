import numpy as np
import pytest

from repro.gpusim import DeviceMemory, GTX_780TI
from repro.memalloc import GpuHeap, NULL, PageKind, decode


@pytest.fixture
def heap():
    return GpuHeap(heap_bytes=1024, page_size=256)


def test_heap_rejects_a_page_size_off_the_word_grid():
    with pytest.raises(ValueError, match="positive multiple of 8"):
        GpuHeap(16 * 300, 300)


def test_alloc_page_assigns_fresh_segments(heap):
    p0 = heap.alloc_page(PageKind.GENERIC, group=0)
    p1 = heap.alloc_page(PageKind.GENERIC, group=1)
    assert p0.segment != p1.segment
    assert heap.is_resident(p0.segment)


def test_pool_exhaustion_returns_none(heap):
    for _ in range(4):
        assert heap.alloc_page(PageKind.GENERIC, 0) is not None
    assert heap.alloc_page(PageKind.GENERIC, 0) is None


def test_evict_moves_bytes_to_store(heap):
    p = heap.alloc_page(PageKind.GENERIC, 0)
    view = heap.pool.slot_view(p.slot)
    view[:4] = [1, 2, 3, 4]
    moved = heap.evict([p])
    assert moved == 256
    assert not heap.is_resident(p.segment)
    stored = heap.segment_view(p.segment)
    assert list(stored[:4]) == [1, 2, 3, 4]


def test_eviction_snapshot_isolated_from_slot_reuse(heap):
    p = heap.alloc_page(PageKind.GENERIC, 0)
    heap.pool.slot_view(p.slot)[:] = 7
    heap.evict([p])
    q = heap.alloc_page(PageKind.GENERIC, 0)
    heap.pool.slot_view(q.slot)[:] = 9  # overwrite the recycled slot
    assert heap.segment_view(p.segment)[0] == 7


def test_double_evict_rejected(heap):
    p = heap.alloc_page(PageKind.GENERIC, 0)
    heap.evict([p])
    with pytest.raises(ValueError):
        heap.evict([p])


def test_addressing_roundtrip(heap):
    p = heap.alloc_page(PageKind.GENERIC, 0)
    cpu = heap.cpu_addr(p, 40)
    seg, off = decode(cpu, 256)
    assert (seg, off) == (p.segment, 40)
    assert heap.resident_page(seg) is p
    gpu = heap.gpu_addr(cpu)
    assert gpu == p.slot * 256 + 40
    heap.evict([p])
    assert heap.gpu_addr(cpu) == NULL
    assert heap.resident_page(seg) is None


def test_gpu_addr_of_null(heap):
    assert heap.gpu_addr(NULL) == NULL


def test_resolve_resident_and_evicted(heap):
    p = heap.alloc_page(PageKind.GENERIC, 0)
    addr = heap.cpu_addr(p, 10)
    buf, off = heap.resolve(addr)
    buf[off] = 99
    heap.evict([p])
    buf2, off2 = heap.resolve(addr)
    assert buf2[off2] == 99


def test_resolve_unknown_segment_raises(heap):
    with pytest.raises(KeyError):
        heap.resolve(999 * 256)


def test_fragmentation_accounting(heap):
    p = heap.alloc_page(PageKind.GENERIC, 0)
    p.alloc(100)
    heap.evict([p])
    assert heap.fragmented_bytes == 156


def test_footprint_counters(heap):
    p = heap.alloc_page(PageKind.GENERIC, 0)
    heap.alloc_page(PageKind.GENERIC, 0)
    assert heap.resident_bytes == 512
    heap.evict([p])
    assert heap.resident_bytes == 256
    assert heap.stored_bytes == 256
    assert heap.total_table_bytes == 512
    assert heap.bytes_evicted == 256


def test_from_remaining_reserves_all_free():
    mem = DeviceMemory(GTX_780TI.scaled(1 << 20))  # 3 KiB
    mem.reserve("buckets", 1000)
    heap = GpuHeap.from_remaining(mem, page_size=256)
    assert mem.free < 256
    assert heap.pool.n_slots == (3 * 1024 - 1000) // 256


def test_segments_never_reused(heap):
    seen = set()
    for _ in range(3):
        pages = [heap.alloc_page(PageKind.GENERIC, 0) for _ in range(4)]
        for p in pages:
            assert p.segment not in seen
            seen.add(p.segment)
        heap.evict(pages)
    assert len(seen) == 12


def test_store_copy_dtype(heap):
    p = heap.alloc_page(PageKind.GENERIC, 0)
    heap.evict([p])
    assert heap.segment_view(p.segment).dtype == np.uint8
