"""The integrity layer: seals, scrub, quarantine-and-repair, accounting.

Unit tests drive :class:`~repro.integrity.PageIntegrity` through a tiny
table, corrupting heap state directly (no fault injectors) so each
detection path -- read, page-in, scrub, transfer-verify -- is exercised
in isolation.  Integration tests assert the two load-bearing contracts:
``integrity="off"`` is bit-identical to the pre-integrity code path, and
checkpoint/resume with integrity on stays byte-identical to the
uninterrupted run (the journaled integrity meta carries epoch, cursor,
and pending charges across the crash).
"""

import numpy as np
import pytest
import zlib

from repro.core import (
    CombiningOrganization,
    GpuHashTable,
    SepoDriver,
    SUM_I64,
)
from repro.gpusim import CostLedger, GTX_780TI, KernelModel, PCIeBus
from repro.integrity import (
    CorruptionError,
    INTEGRITY_MODES,
    PageIntegrity,
    resolve_integrity,
)
from repro.memalloc import GpuHeap
from tests.core.conftest import numeric_batch


def make_int_table(
    mode="scrub",
    scrub_budget=4,
    heap_bytes=4096,
    page_size=512,
    n_buckets=64,
    group_size=16,
    sanitize=None,
):
    ledger = CostLedger()
    heap = GpuHeap(heap_bytes, page_size)
    table = GpuHashTable(
        n_buckets=n_buckets,
        organization=CombiningOrganization(SUM_I64),
        heap=heap,
        group_size=group_size,
        ledger=ledger,
        sanitize=sanitize,
        integrity=mode,
        scrub_budget=scrub_budget,
    )
    return table, heap, ledger


def fill_and_evict(table, n=40):
    """Insert ``n`` distinct keys and quiesce, leaving stored segments."""
    pairs = [(f"key{i:03d}".encode(), i) for i in range(n)]
    table.insert_batch(numeric_batch(pairs))
    table.end_iteration()
    return {k: v for k, v in pairs}


# ----------------------------------------------------------------------
# knob resolution
# ----------------------------------------------------------------------
def test_resolve_integrity_modes(monkeypatch):
    for mode in INTEGRITY_MODES:
        assert resolve_integrity(mode) == mode
    monkeypatch.delenv("REPRO_INTEGRITY", raising=False)
    assert resolve_integrity(None) == "off"
    monkeypatch.setenv("REPRO_INTEGRITY", "verify")
    assert resolve_integrity(None) == "verify"
    with pytest.raises(ValueError, match="integrity"):
        resolve_integrity("paranoid")


def test_off_mode_installs_nothing():
    table, heap, _ = make_int_table(mode="off")
    assert heap.integrity is None  # the pre-integrity code path, exactly


# ----------------------------------------------------------------------
# seals and transfers
# ----------------------------------------------------------------------
def test_eviction_seals_stored_segments():
    table, heap, _ = make_int_table()
    fill_and_evict(table)
    integ = heap.integrity
    assert heap._store, "workload too small to evict"
    assert set(integ.store_crc) == set(heap._store)
    for seg, buf in heap._store.items():
        assert integ.store_crc[seg] == zlib.crc32(buf)
    assert integ.seals >= len(heap._store)
    assert integ.detected == 0


def test_clean_reads_and_result_are_false_positive_free():
    table, heap, _ = make_int_table(sanitize="paranoid")
    want = fill_and_evict(table)
    assert table.result() == want  # reads verify every stored segment
    assert heap.integrity.detected == 0
    assert heap.integrity.verifies > 0


@pytest.mark.parametrize("kind", ["basic", "combining", "multi-valued"])
def test_result_verifies_each_stored_segment_exactly_once(kind):
    """The bulk reader takes every stored segment through ``segment_view``
    once, while building the flat image -- not once per entry read out of
    it, which is what made multi-valued verify reads cost 8x."""
    from repro.core import BasicOrganization, MultiValuedOrganization
    from tests.core.conftest import byte_batch

    org = {
        "basic": BasicOrganization,
        "combining": lambda: CombiningOrganization(SUM_I64),
        "multi-valued": MultiValuedOrganization,
    }[kind]()
    heap = GpuHeap(4096, 512)
    table = GpuHashTable(64, org, heap, group_size=16, integrity="verify")
    for round_ in range(2):
        pairs = [(b"key%03d" % (i % 25), i) for i in range(40)]
        if kind == "combining":
            table.insert_batch(numeric_batch(pairs))
        else:
            table.insert_batch(byte_batch([(k, b"v%d" % v) for k, v in pairs]))
        table.end_iteration()
    integ = heap.integrity
    assert len(heap._store) > 2 and not heap.resident_pages
    before = integ.verifies
    assert len(table.result()) == 25
    assert integ.verifies - before == len(heap._store)
    assert integ.detected == 0
    # and one flipped bit anywhere in the store still stops the read
    corrupt_stored(heap, which=len(heap._store) - 1)
    with pytest.raises(CorruptionError):
        table.result()


def _multivalued_mid_run(impl):
    """A multi-valued table two boundaries in, a third batch applied:
    key segments in the store, chains of resident buckets running through
    them, the next ``end_iteration`` about to splice."""
    from repro.memalloc.pages import PageKind
    from tests.core.conftest import byte_batch, multivalued_org

    heap = GpuHeap(6 * 512, 512)
    table = GpuHashTable(
        16, multivalued_org(1.0, impl),
        heap, group_size=4, integrity="verify",
    )
    for round_ in range(3):
        table.insert_batch(byte_batch(
            [(b"key%03d" % (i % 30), b"v%03d-%d" % (i, round_)) for i in range(60)]
        ))
        if round_ < 2:
            table.end_iteration()
    stored_keys = [
        s for s, meta in heap._store_meta.items() if meta[0] is PageKind.KEY
    ]
    assert stored_keys and len(table.buckets.resident_buckets())
    return table, heap, stored_keys


def test_end_iteration_verifies_each_stored_segment_exactly_once():
    """The bulk splice walks the chains through one image of the CPU side:
    a stored segment is re-CRCed once per boundary, not once per key entry
    read out of it (what made multi-valued verify runs cost 8x)."""
    table, heap, _ = _multivalued_mid_run("vectorized")
    integ = heap.integrity
    before = integ.verifies
    report = table.end_iteration()
    assert report.pages_retained and report.entries_spliced > len(heap._store)
    # each eviction's transfer is verified on arrival, then every stored
    # segment once while the image is built
    assert integ.verifies - before == report.pages_evicted + len(heap._store)
    assert integ.detected == 0


def test_corrupt_stored_key_segment_stops_the_splice_before_it_writes():
    """One flipped bit in a *stored* key segment: ``end_iteration`` raises
    before the bulk splice has written a single arena word or GPU head
    (the per-entry loop notices only when its walk gets there)."""
    table, heap, stored_keys = _multivalued_mid_run("vectorized")
    buf = heap._store[stored_keys[-1]].copy()
    buf[40] ^= 0x04
    heap._store[stored_keys[-1]] = buf
    arena = heap.pool.arena.tobytes()
    head_gpu = table.buckets.head_gpu.copy()
    with pytest.raises(CorruptionError) as exc_info:
        table.end_iteration()
    assert exc_info.value.event.segment == stored_keys[-1]
    assert heap.pool.arena.tobytes() == arena
    assert (table.buckets.head_gpu == head_gpu).all()


def test_torn_transfer_retried_and_charged():
    table, heap, ledger = make_int_table()
    integ = heap.integrity
    fired = []

    def corrupt_once(op_index, attempt):
        if not fired and attempt == 0:
            fired.append(op_index)
            return True
        return False

    integ.transfer_corruptor = corrupt_once
    bus = PCIeBus(ledger)
    pairs = [(f"key{i:03d}".encode(), i) for i in range(40)]
    table.insert_batch(numeric_batch(pairs))
    table.end_iteration(pcie_bus=bus)
    assert fired, "no eviction transfer happened"
    assert integ.detected == 1 and integ.repaired == 1
    assert all(ev.repaired for ev in integ.events)
    assert table.result() == dict(pairs)  # the re-copy healed the tear
    # the wasted attempt was drained into the RETRY cost category
    assert bus.retries > 0
    assert ledger.breakdown().get("retry", 0.0) > 0.0
    assert not integ.pending_retries


def test_persistent_torn_transfer_is_unrepairable():
    table, heap, _ = make_int_table()
    heap.integrity.transfer_corruptor = lambda op, attempt: True
    with pytest.raises(CorruptionError) as exc_info:
        fill_and_evict(table)
    assert exc_info.value.event.kind == "transfer"
    assert heap.integrity.detected > heap.integrity.max_transfer_retries


# ----------------------------------------------------------------------
# detection, quarantine, repair
# ----------------------------------------------------------------------
def corrupt_stored(heap, which=0):
    seg = sorted(heap._store)[which]
    original = bytes(heap._store[seg])
    buf = heap._store[seg].copy()
    buf[len(original) // 2] ^= 0x40
    heap._store[seg] = buf
    return seg, original


def test_read_detects_and_quarantines_without_repair_source():
    table, heap, _ = make_int_table()
    fill_and_evict(table)
    seg, _ = corrupt_stored(heap)
    with pytest.raises(CorruptionError) as exc_info:
        table.result()
    assert exc_info.value.event.segment == seg
    assert seg in heap.integrity.quarantined
    # a quarantined segment never serves garbage, it keeps refusing
    with pytest.raises(CorruptionError):
        heap.segment_view(seg)


def test_read_repairs_from_exact_source():
    table, heap, _ = make_int_table()
    want = fill_and_evict(table)
    seg, original = corrupt_stored(heap)
    heap.integrity.repair_source = (
        lambda s: original if s == seg else None
    )
    assert table.result() == want  # detected, repaired, then served
    integ = heap.integrity
    assert integ.detected == 1 and integ.repaired == 1
    assert bytes(heap._store[seg]) == original
    assert seg not in integ.quarantined
    assert all(ev.repaired for ev in integ.events)


def test_stale_repair_source_rejected_by_crc_gate():
    table, heap, _ = make_int_table()
    fill_and_evict(table)
    seg, original = corrupt_stored(heap)
    stale = bytes(bytearray(original)[::-1])  # wrong generation
    heap.integrity.repair_source = lambda s: stale
    with pytest.raises(CorruptionError):
        table.result()
    assert seg in heap.integrity.quarantined


def test_page_in_verifies_before_arena_entry():
    table, heap, _ = make_int_table()
    fill_and_evict(table)
    seg, _ = corrupt_stored(heap)
    with pytest.raises(CorruptionError) as exc_info:
        heap.page_in(seg)
    assert exc_info.value.event.detected_by in ("page-in", "read")


def test_stale_segment_swap_detected():
    table, heap, _ = make_int_table()
    fill_and_evict(table, n=60)
    segs = sorted(heap._store)
    assert len(segs) >= 2
    # valid bytes of the wrong page: only a per-page seal catches this
    heap._store[segs[0]] = heap._store[segs[1]].copy()
    with pytest.raises(CorruptionError):
        table.result()


# ----------------------------------------------------------------------
# the background scrubber
# ----------------------------------------------------------------------
def test_scrub_covers_all_pages_despite_budget():
    table, heap, _ = make_int_table(scrub_budget=2)
    fill_and_evict(table, n=60)
    integ = heap.integrity
    targets = set(heap._store) | set(heap._resident)
    seen = set()
    orig_stored = integ._verify_stored
    orig_resident = integ._scrub_resident

    def spy_stored(heap_, seg, buf, detected_by):
        seen.add(seg)
        return orig_stored(heap_, seg, buf, detected_by)

    def spy_resident(heap_, page):
        seen.add(page.segment)
        return orig_resident(heap_, page)

    integ._verify_stored = spy_stored
    integ._scrub_resident = spy_resident
    for _ in range(len(targets)):
        integ.scrub(heap)
    assert seen == targets, "cursor rotation missed pages"


def test_scrub_charges_bytes_to_scrub_category():
    table, heap, ledger = make_int_table(scrub_budget=4)
    fill_and_evict(table)
    before = ledger.breakdown().get("scrub", 0.0)
    swept = table.maybe_scrub()
    assert swept > 0
    assert ledger.breakdown().get("scrub", 0.0) > before


def test_scrub_budget_zero_sweeps_nothing():
    table, heap, _ = make_int_table(scrub_budget=0)
    fill_and_evict(table)
    assert heap.integrity.scrub(heap) == 0


def test_scrub_detects_stored_corruption():
    table, heap, _ = make_int_table(scrub_budget=64)
    fill_and_evict(table)
    seg, _ = corrupt_stored(heap)
    with pytest.raises(CorruptionError):
        heap.integrity.scrub(heap)
    assert seg in heap.integrity.quarantined


def test_resident_seal_invalidated_by_note_write():
    table, heap, _ = make_int_table(scrub_budget=64)
    pairs = [(b"aa", 1), (b"bb", 2)]
    table.insert_batch(numeric_batch(pairs))
    integ = heap.integrity
    integ.scrub(heap)  # seals the resident pages
    sealed = dict(integ.resident_clean)
    assert sealed, "no resident page was sealed"
    # a legitimate in-place write must not become a false positive
    table.insert_batch(numeric_batch([(b"aa", 5)]))  # in-place combine
    integ.scrub(heap)
    integ.scrub(heap)
    assert integ.detected == 0


def test_resident_corruption_repaired_in_place_and_slot_retired():
    """Repeated CRC failures retire the physical slot; the page's entries
    relocate through the next evict/page-in cycle, all under the paranoid
    sanitizer (quarantined slots must not read as leaks)."""
    table, heap, _ = make_int_table(scrub_budget=64, sanitize="paranoid")
    pairs = [(b"aa", 1), (b"bb", 2)]
    table.insert_batch(numeric_batch(pairs))
    integ = heap.integrity
    integ.scrub(heap)
    page = next(iter(heap._resident.values()))
    slot = page.slot
    good = bytes(heap.pool.slot_view(slot))
    integ.repair_source = lambda s: good if s == page.segment else None
    for strike in range(integ.strike_limit):
        view = heap.pool.slot_view(slot)
        view[3] ^= 0x80  # flip behind the integrity layer's back
        integ.scrub(heap)
        assert bytes(heap.pool.slot_view(slot)) == good, "not repaired"
    assert integ.repaired == integ.strike_limit
    # the slot is flagged; eviction releases it into quarantine and the
    # segment's bytes survive the relocation
    table.end_iteration()
    assert slot in heap.pool.quarantined
    relocated = heap.page_in(page.segment)
    assert relocated is not None and relocated.slot != slot
    assert table.result() == {b"aa": 1, b"bb": 2}
    table.check_invariants()  # paranoid sweep: no slot-leak false positive


# ----------------------------------------------------------------------
# checkpoint / resume metadata
# ----------------------------------------------------------------------
def test_snapshot_restore_meta_roundtrip():
    integ = PageIntegrity(mode="scrub", scrub_budget=3)
    integ.epoch = 7
    integ.scrub_cursor = 5
    integ.pending_crc_bytes = 1024
    integ.pending_retries = [(512, 2)]
    integ.transfer_ops = 9
    meta = integ.snapshot_meta()
    fresh = PageIntegrity(mode="scrub", scrub_budget=3)
    fresh.restore_meta(meta)
    assert fresh.epoch == 7
    assert fresh.scrub_cursor == 5
    assert fresh.pending_crc_bytes == 1024
    assert fresh.pending_retries == [(512, 2)]
    assert fresh.transfer_ops == 9


def test_reseal_after_restore_recomputes_store_crcs():
    table, heap, _ = make_int_table()
    fill_and_evict(table)
    integ = heap.integrity
    want = {seg: zlib.crc32(buf) for seg, buf in heap._store.items()}
    integ.store_crc = {}
    integ.reseal_after_restore(heap)
    assert integ.store_crc == want
