"""Table persistence: save/load round-trips for every organization."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BasicOrganization,
    CallbackCombiner,
    CombiningOrganization,
    MultiValuedOrganization,
    RecordBatch,
    SUM_F64,
    SUM_I64,
)
from repro.core.checkpoint import (
    CheckpointError,
    FrozenTable,
    load_table,
    save_table,
)
from tests.core.conftest import byte_batch, make_table, numeric_batch


def roundtrip(table, tmp_path):
    path = tmp_path / "table.npz"
    save_table(table, path)
    return load_table(path)


def test_combining_roundtrip(tmp_path):
    t = make_table(CombiningOrganization(SUM_I64))
    t.insert_batch(numeric_batch([(b"a", 1), (b"b", 2), (b"a", 3)]))
    t.end_iteration()
    frozen = roundtrip(t, tmp_path)
    assert frozen.result() == t.result() == {b"a": 4, b"b": 2}
    assert frozen.get(b"a") == 4
    assert frozen.get(b"missing") is None


def test_save_with_resident_pages(tmp_path):
    """Saving snapshots resident pages too, without mutating the table."""
    t = make_table(CombiningOrganization(SUM_I64))
    t.insert_batch(numeric_batch([(b"live", 7)]))
    frozen = roundtrip(t, tmp_path)
    assert frozen.result() == {b"live": 7}
    assert t.heap.resident_pages  # untouched


def test_cross_iteration_residue_survives(tmp_path):
    t = make_table(CombiningOrganization(SUM_I64), heap_bytes=512,
                   page_size=256, n_buckets=16, group_size=8)
    got = t.insert_batch(
        numeric_batch([(f"k{i:03d}".encode(), 1) for i in range(60)])
    )
    t.end_iteration()
    key = f"k{int(np.flatnonzero(got.success)[0]):03d}".encode()
    t.insert_batch(numeric_batch([(key, 10)]))
    t.end_iteration()
    frozen = roundtrip(t, tmp_path)
    assert frozen.get(key) == 11


def residue_table(combiner, dtype, rounds=3):
    """Twelve keys, each split over ``rounds`` iterations (one entry per
    iteration), values of mixed magnitude."""
    t = make_table(CombiningOrganization(combiner), heap_bytes=1024,
                   page_size=256, n_buckets=16, group_size=8)
    keys = [b"k%02d" % i for i in range(12)]
    rng = np.random.default_rng(0)
    for _ in range(rounds):
        vals = rng.standard_normal(12) * 10.0 ** rng.integers(0, 9, 12)
        batch = RecordBatch.from_numeric(keys, vals.astype(dtype))
        assert t.insert_batch(batch).success.all()
        t.end_iteration()
    assert sum(k == b"k00" for k, _ in t.cpu_items()) == rounds
    return t


def test_f64_residue_survives_bit_for_bit(tmp_path):
    """A save/load round trip may not move the last bit of an f64 sum
    whose key was split over three iterations."""
    t = residue_table(SUM_F64, np.float64)
    frozen = roundtrip(t, tmp_path)
    live = {k: struct.pack("<d", v) for k, v in t.result().items()}
    assert {k: struct.pack("<d", v) for k, v in frozen.result().items()} == live
    assert {k: struct.pack("<d", frozen.get(k)) for k in live} == live


def test_frozen_table_folds_residue_in_the_live_tables_order():
    """``FrozenTable`` folds ``combine(older, acc)`` exactly as the live
    table does.  Addition hides the operand order, a non-commutative
    reduction shows it (callbacks cannot be saved, so the frozen view is
    built over the live table's segments directly)."""
    comb = CallbackCombiner(lambda a, b: 3 * a - b, name="3a-b")
    t = residue_table(comb, np.int64)
    heap = t.heap
    frozen = FrozenTable(
        "combining", comb, heap.page_size, t.buckets.head_cpu.copy(),
        {s: heap.segment_view(s).copy() for s in range(heap._next_segment)},
    )
    live = t.result()
    assert frozen.result() == live
    assert {k: frozen.get(k) for k in live} == live


def test_basic_roundtrip(tmp_path):
    t = make_table(BasicOrganization())
    t.insert_batch(byte_batch([(b"k", b"v1"), (b"k", b"v2"), (b"j", b"")]))
    t.end_iteration()
    frozen = roundtrip(t, tmp_path)
    assert sorted(frozen.get(b"k")) == [b"v1", b"v2"]
    assert frozen.result() == t.result()


def test_multivalued_roundtrip(tmp_path):
    t = make_table(MultiValuedOrganization())
    t.insert_batch(byte_batch([(b"link", b"p1"), (b"link", b"p2"),
                               (b"other", b"p3")]))
    t.end_iteration()
    frozen = roundtrip(t, tmp_path)
    assert sorted(frozen.get(b"link")) == [b"p1", b"p2"]
    assert frozen.result() == {
        k: v for k, v in t.result().items()
    }


def test_callback_combiner_refuses_to_save(tmp_path):
    comb = CallbackCombiner(lambda a, b: a * b)
    t = make_table(CombiningOrganization(comb))
    t.insert(b"k", 2)
    with pytest.raises(CheckpointError):
        save_table(t, tmp_path / "x.npz")


def test_corrupt_archive_rejected(tmp_path):
    path = tmp_path / "bad.npz"
    np.savez(path, nonsense=np.zeros(3))
    with pytest.raises(CheckpointError):
        load_table(path)


def rewrite_archive(path, edit_meta=None, edit_arrays=None):
    """Rewrite a saved table's members in place: a valid zip, any
    member changed, the stored checksum left as it was."""
    import json

    with np.load(path) as a:
        meta = json.loads(bytes(a["meta"]).decode())
        arrays = {k: a[k] for k in a.files if k != "meta"}
    if edit_meta is not None:
        edit_meta(meta)
    if edit_arrays is not None:
        edit_arrays(arrays)
    np.savez(
        path,
        meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        **arrays,
    )


def saved(tmp_path):
    t = make_table(CombiningOrganization(SUM_I64))
    t.insert(b"k", 1)
    path = tmp_path / "t.npz"
    save_table(t, path)
    return t, path


def test_version_checked(tmp_path):
    """A saved table has one version, the archive's: a file relabelled
    with another is refused."""
    _, path = saved(tmp_path)
    rewrite_archive(path, lambda meta: meta.update(journal_version=1))
    with pytest.raises(CheckpointError, match="version 1"):
        load_table(path)


def test_tampered_segment_bytes_fail_the_checksum(tmp_path):
    """A segment rewritten inside a valid zip is refused, not read."""
    _, path = saved(tmp_path)

    def flip(arrays):
        arrays["table_segment_data"] = arrays["table_segment_data"] ^ 0xFF

    rewrite_archive(path, edit_arrays=flip)
    with pytest.raises(CheckpointError, match="checksum"):
        load_table(path)


def test_save_that_dies_before_the_rename_keeps_the_old_file(
    tmp_path, monkeypatch,
):
    import os

    t, path = saved(tmp_path)
    t.insert(b"k", 41)

    def die(src, dst):
        raise OSError("killed before the rename")

    monkeypatch.setattr(os, "replace", die)
    with pytest.raises(OSError, match="killed"):
        save_table(t, path)
    assert load_table(path).result() == {b"k": 1}


def test_frozen_table_validates_combiner():
    with pytest.raises(CheckpointError):
        FrozenTable("combining", None, 256, np.array([-1]), {})


@settings(max_examples=15, deadline=None)
@given(st.lists(st.tuples(st.binary(min_size=1, max_size=10),
                          st.integers(-100, 100)),
                min_size=1, max_size=40))
def test_roundtrip_property(tmp_path_factory, pairs):
    t = make_table(CombiningOrganization(SUM_I64), heap_bytes=2048,
                   page_size=256, n_buckets=16, group_size=4)
    from repro.core import GpuHashTable, SepoDriver
    from repro.gpusim import CostLedger, GTX_780TI, KernelModel, PCIeBus

    driver = SepoDriver(
        t, KernelModel(GTX_780TI, t.ledger), PCIeBus(t.ledger)
    )
    driver.run([numeric_batch(pairs)])
    path = tmp_path_factory.mktemp("ckpt") / "t.npz"
    save_table(t, path)
    frozen = load_table(path)
    assert frozen.result() == t.result()


# ----------------------------------------------------------------------
# corrupt-file handling
# ----------------------------------------------------------------------
def test_truncated_file_rejected(tmp_path):
    t = make_table(CombiningOrganization(SUM_I64))
    t.insert(b"k", 1)
    path = tmp_path / "t.npz"
    save_table(t, path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(CheckpointError):
        load_table(path)


def test_garbage_file_rejected(tmp_path):
    path = tmp_path / "t.npz"
    path.write_bytes(b"definitely not a zip archive")
    with pytest.raises(CheckpointError, match="unreadable"):
        load_table(path)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(CheckpointError):
        load_table(tmp_path / "absent.npz")


def test_unknown_combiner_rejected(tmp_path):
    _, path = saved(tmp_path)

    def rename(meta):  # not a library combiner
        meta["table"]["combiner"]["name"] = "xor"

    rewrite_archive(path, rename)
    with pytest.raises(CheckpointError, match="unknown combiner"):
        load_table(path)


def test_bitor_combiner_roundtrips_scalar(tmp_path):
    """The bitor factory must honour the stored scalar, not discard it."""
    from repro.core.combiners import BitOrCombiner

    t = make_table(CombiningOrganization(BitOrCombiner()))
    t.insert(b"flags", 0b0101)
    t.insert(b"flags", 0b0011)
    t.end_iteration()
    frozen = roundtrip(t, tmp_path)
    assert frozen.result() == {b"flags": 0b0111}
    assert frozen.combiner.name == "bitor"
    assert frozen.combiner.scalar == t.org.combiner.scalar


def test_bitor_combiner_rejects_float():
    from repro.core.combiners import BitOrCombiner

    with pytest.raises(ValueError):
        BitOrCombiner("f64")


# ----------------------------------------------------------------------
# in-progress snapshot/restore (the resilience layer's building blocks)
# ----------------------------------------------------------------------
def make_pair(**kw):
    """Two identically-configured tables: one to run, one to restore into."""
    return (make_table(CombiningOrganization(SUM_I64), **kw),
            make_table(CombiningOrganization(SUM_I64), **kw))


def test_snapshot_requires_quiesced_table():
    from repro.core.checkpoint import snapshot_table

    t = make_table(CombiningOrganization(SUM_I64))
    t.insert(b"k", 1)  # page now resident
    with pytest.raises(CheckpointError, match="quiesce"):
        snapshot_table(t)


def test_quiesce_snapshot_restore_roundtrip():
    from repro.core.checkpoint import (
        quiesce_table,
        restore_table,
        snapshot_table,
    )

    src, dst = make_pair()
    src.insert_batch(numeric_batch([(b"a", 1), (b"b", 2)]))
    src.end_iteration()
    src.insert_batch(numeric_batch([(b"a", 10), (b"c", 3)]))  # resident state
    quiesce_table(src)
    restore_table(dst, *snapshot_table(src))
    assert dst.result() == src.result() == {b"a": 11, b"b": 2, b"c": 3}
    assert dst.total_inserted == src.total_inserted
    assert dst.heap.pool._free_slots == src.heap.pool._free_slots
    # the restored table keeps working
    dst.insert_batch(numeric_batch([(b"a", 100)]))
    dst.end_iteration()
    assert dst.result()[b"a"] == 111


def test_restore_rejects_config_mismatch():
    from repro.core.checkpoint import quiesce_table, restore_table, snapshot_table

    src = make_table(CombiningOrganization(SUM_I64))
    src.insert(b"k", 1)
    quiesce_table(src)
    payload = snapshot_table(src)
    wrong = make_table(CombiningOrganization(SUM_I64), n_buckets=32)
    with pytest.raises(CheckpointError, match="n_buckets"):
        restore_table(wrong, *payload)


def test_restore_rejects_dirty_target():
    from repro.core.checkpoint import quiesce_table, restore_table, snapshot_table

    src, dst = make_pair()
    src.insert(b"k", 1)
    quiesce_table(src)
    payload = snapshot_table(src)
    dst.insert(b"already", 1)  # not fresh
    with pytest.raises(CheckpointError, match="fresh"):
        restore_table(dst, *payload)


def test_quiesce_evicts_pinned_pages():
    from repro.core.checkpoint import quiesce_table

    t = make_table(MultiValuedOrganization())
    t.insert_batch(byte_batch([(b"k", b"v1"), (b"k", b"v2")]))
    assert t.heap.resident_pages
    moved = quiesce_table(t)
    assert moved > 0
    assert not t.heap.resident_pages
    assert sorted(t.result()[b"k"]) == [b"v1", b"v2"]


def test_clock_snapshot_restore():
    from repro.core.checkpoint import restore_clock
    from repro.gpusim.clock import CostCategory, CostLedger

    src = CostLedger()
    src.charge(CostCategory.PCIE, 1.5)
    src.charge(CostCategory.ATOMIC, 0.25)
    dst = CostLedger()
    dst.charge(CostCategory.HOST, 9.0)  # must be wiped by restore
    restore_clock(dst, src.breakdown())
    assert dst.breakdown() == src.breakdown()
    assert dst.elapsed == pytest.approx(src.elapsed)


def test_clock_restore_rejects_unknown_category():
    from repro.core.checkpoint import restore_clock
    from repro.gpusim.clock import CostLedger

    with pytest.raises(CheckpointError, match="category"):
        restore_clock(CostLedger(), {"warp-drive": 1.0})
