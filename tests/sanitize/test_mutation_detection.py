"""Mutation tests: deliberately corrupt a live arena, the sanitizer must
catch each corruption *and* pinpoint it (ISSUE acceptance criteria)."""

import numpy as np
import pytest

from repro.core import (
    BasicOrganization,
    CombiningOrganization,
    GpuHashTable,
    MultiValuedOrganization,
    RecordBatch,
    SUM_I64,
)
from repro.core import entries as E
from repro.memalloc import GpuHeap, NULL
from repro.memalloc.pages import PageKind
from repro.sanitize import SanitizerError, check_table


def make_table(org, heap_bytes=4096, page_size=512):
    return GpuHashTable(
        n_buckets=64, organization=org, heap=GpuHeap(heap_bytes, page_size),
        group_size=16,
    )


def filled_table(org_factory, numeric):
    table = make_table(org_factory())
    pairs = [(b"key%02d" % i, i) for i in range(30)]
    if numeric:
        batch = RecordBatch.from_numeric(
            [k for k, _ in pairs],
            np.array([v for _, v in pairs], dtype=np.int64),
        )
    else:
        batch = RecordBatch.from_pairs([(k, b"v%d" % v) for k, v in pairs])
    result = table.insert_batch(batch)
    assert result.success.all(), "test table must be large enough"
    assert check_table(table).ok
    return table


def first_occupied_bucket(table):
    heads = table.buckets.head_cpu
    return int(np.flatnonzero(heads != NULL)[0])


def head_entry(table):
    """(buffer, offset, cpu address) of the first bucket head entry."""
    b = first_occupied_bucket(table)
    addr = int(table.buckets.head_cpu[b])
    seg, off = divmod(addr, table.heap.page_size)
    return table.heap.segment_view(seg), off, addr


def violations_of(table):
    with pytest.raises(SanitizerError) as exc:
        check_table(table)
    return exc.value.violations, str(exc.value)


# ----------------------------------------------------------------------
# the three mutations named by the acceptance criteria
# ----------------------------------------------------------------------
def test_corrupted_chain_offset_is_caught():
    table = filled_table(lambda: CombiningOrganization(SUM_I64), numeric=True)
    buf, off, addr = head_entry(table)
    next_gpu, next_cpu, _, _ = E.read_entry_header(buf, off)
    # Point the chain into untouched tail space of the same page: the
    # "entry" there lies beyond the bump watermark.
    seg = addr // table.heap.page_size
    corrupt = seg * table.heap.page_size + (table.heap.page_size - 8)
    E.set_next_ptrs(buf, off, next_gpu, corrupt)

    violations, message = violations_of(table)
    kinds = {v.kind for v in violations}
    assert kinds & {"extent-beyond-watermark", "header-overrun"}
    # pinpointing: the message names the corrupt chain address
    assert str(corrupt) in message


def test_leaked_page_is_caught():
    table = filled_table(lambda: CombiningOrganization(SUM_I64), numeric=True)
    # Take a page behind the allocator's back and drop it on the floor.
    page = table.heap.alloc_page(PageKind.GENERIC, 0)
    assert page is not None

    violations, message = violations_of(table)
    assert any(v.kind == "page-leak" for v in violations)
    leak = next(v for v in violations if v.kind == "page-leak")
    assert f"segment {page.segment}" in leak.message


def test_dropped_postponed_record_is_caught():
    table = filled_table(lambda: BasicOrganization(), numeric=False)
    # Claim one more success than the arena holds -- exactly what a buggy
    # insert path that acknowledges a record without writing it looks like.
    table.total_inserted += 1

    violations, message = violations_of(table)
    tally = [v for v in violations if v.kind == "tally"]
    assert tally, message
    assert "silently dropped" in tally[0].message


# ----------------------------------------------------------------------
# further corruption classes
# ----------------------------------------------------------------------
def test_chain_cycle_is_caught():
    table = filled_table(lambda: CombiningOrganization(SUM_I64), numeric=True)
    buf, off, addr = head_entry(table)
    next_gpu, _, _, _ = E.read_entry_header(buf, off)
    E.set_next_ptrs(buf, off, next_gpu, addr)  # head -> head

    violations, _ = violations_of(table)
    assert any(v.kind == "chain-cycle" for v in violations)


def test_dangling_segment_pointer_is_caught():
    table = filled_table(lambda: CombiningOrganization(SUM_I64), numeric=True)
    buf, off, _ = head_entry(table)
    next_gpu, _, _, _ = E.read_entry_header(buf, off)
    bogus_segment = 7_777
    E.set_next_ptrs(buf, off, next_gpu, bogus_segment * table.heap.page_size)

    violations, message = violations_of(table)
    assert any(v.kind == "dangling-pointer" for v in violations)
    assert "7777" in message


def test_phantom_success_is_caught():
    table = filled_table(lambda: CombiningOrganization(SUM_I64), numeric=True)
    table.total_inserted -= 2  # more entries reachable than acknowledged

    violations, _ = violations_of(table)
    assert any(v.kind == "tally" for v in violations)


def test_gpu_chain_divergence_is_caught():
    table = filled_table(lambda: CombiningOrganization(SUM_I64), numeric=True)
    b = first_occupied_bucket(table)
    # GPU head keeps pointing at a slot after its page is gone: simulate a
    # missed splice by evicting while leaving head_gpu untouched.
    stale = int(table.buckets.head_gpu[b])
    assert stale != NULL
    table.end_iteration()  # rewrites heads; chains now live in CPU store
    table.buckets.head_gpu[b] = stale

    violations, _ = violations_of(table)
    assert {"gpu-dangling", "gpu-head-orphan", "gpu-cpu-divergence"} & {
        v.kind for v in violations
    }


def test_value_list_corruption_is_caught():
    table = filled_table(lambda: MultiValuedOrganization(), numeric=False)
    b = first_occupied_bucket(table)
    addr = int(table.buckets.head_cpu[b])
    seg, off = divmod(addr, table.heap.page_size)
    buf = table.heap.segment_view(seg)
    hdr = E.read_key_entry_header(buf, off)
    vhead_gpu = hdr[2]
    # Value head points into a segment that was never issued.
    E.set_vhead(buf, off, vhead_gpu, 9_999 * table.heap.page_size)

    violations, _ = violations_of(table)
    kinds = {v.kind for v in violations}
    assert "dangling-pointer" in kinds
    # dropping the value list also breaks the value-node tally
    assert "tally" in kinds


def test_pool_slot_leak_is_caught():
    table = filled_table(lambda: CombiningOrganization(SUM_I64), numeric=True)
    slot = table.heap.pool.take()  # vanish a slot: neither free nor resident
    assert slot is not None

    violations, _ = violations_of(table)
    assert any(v.kind == "slot-leak" for v in violations)


def test_chain_linked_against_age_is_caught():
    """A bucket head relinked behind the entry it used to point at: every
    entry is still reachable exactly once and the GPU chain still mirrors
    the CPU chain, but a hop now leads to a *newer* address -- the order
    the lookup's newest-first page-in sweep relies on is gone."""
    table = filled_table(lambda: CombiningOrganization(SUM_I64), numeric=True)
    more = RecordBatch.from_numeric(
        [b"more%02d" % i for i in range(30)], np.ones(30, dtype=np.int64)
    )
    assert table.insert_batch(more).success.all()
    buckets, page_size = table.buckets, table.heap.page_size
    for b in np.flatnonzero(buckets.head_cpu != NULL).tolist():
        head = int(buckets.head_cpu[b])
        buf, off = table.heap.segment_view(head // page_size), head % page_size
        second_gpu, second, _, _ = E.read_entry_header(buf, off)
        if second != NULL:
            break
    else:
        pytest.fail("no bucket holds two entries")
    buf2, off2 = table.heap.segment_view(second // page_size), second % page_size
    rest_gpu, rest, _, _ = E.read_entry_header(buf2, off2)
    # head -> second -> rest   becomes   second -> head -> rest
    E.set_next_ptrs(buf2, off2, int(buckets.head_gpu[b]), head)
    E.set_next_ptrs(buf, off, rest_gpu, rest)
    buckets.head_cpu[b], buckets.head_gpu[b] = second, second_gpu

    violations, message = violations_of(table)
    assert {v.kind for v in violations} == {"chain-order"}, message
    assert f"bucket {b} " in message and str(head) in message


def test_entry_off_the_word_grid_is_caught():
    """The newest entry of a page moved 4 bytes up, with the watermark and
    both head pointers moved along: every extent still lies inside its
    page and is reached exactly once, the chain still runs downward and
    the GPU chain still mirrors the CPU one -- but the entry now starts
    between two words, where the word-view readers cannot read it."""
    table = filled_table(BasicOrganization, numeric=False)
    heap, buckets = table.heap, table.buckets
    for b in np.flatnonzero(buckets.head_cpu != NULL).tolist():
        head = int(buckets.head_cpu[b])
        seg, off = divmod(head, heap.page_size)
        page = heap.resident_page(seg)
        buf = heap.pool.slot_view(page.slot)
        _, _, klen, vlen = E.read_entry_header(buf, off)
        size = E.entry_size(klen, vlen)
        if off + size == page.used and page.used + 4 <= page.page_size:
            break
    else:
        pytest.fail("no bucket head is the newest entry of a roomy page")
    buf[off + 4 : off + 4 + size] = buf[off : off + size].copy()
    page.used += 4
    buckets.head_cpu[b] += 4
    buckets.head_gpu[b] += 4

    violations, message = violations_of(table)
    assert {v.kind for v in violations} == {"entry-misaligned"}, message
    assert f"bucket {b} chain entry at address {head + 4}" in message
