"""Edge cases and failure injection for the bucket organizations."""

import numpy as np
import pytest

from repro.core import (
    OP_INSERT,
    OP_UPDATE,
    BasicOrganization,
    CombiningOrganization,
    MultiValuedOrganization,
    MutationBatch,
    RecordBatch,
    SUM_I64,
)
from tests.core.conftest import (
    byte_batch,
    make_table,
    multivalued_org,
    numeric_batch,
)


def test_empty_key_is_storable(combining_table):
    t = combining_table
    res = t.insert_batch(numeric_batch([(b"", 5), (b"", 2)]))
    assert res.success.all()
    t.end_iteration()
    assert t.result() == {b"": 7}


def test_key_larger_than_page_raises():
    t = make_table(CombiningOrganization(SUM_I64), heap_bytes=1024,
                   page_size=256)
    with pytest.raises(ValueError):
        t.insert_batch(numeric_batch([(b"x" * 300, 1)]))


def _oversize_call(kind, call):
    """A call whose last record does not fit a 256-byte page, and the
    records it follows: a key (combining) or value (basic, multi-valued)
    of 300 bytes.  ``insert``: a pure-insert batch of two; ``mutate``: a
    ``MutationBatch`` of 300 inserts -- at the mixed-op kernel's cut-over
    -- ending in an update."""
    numeric = kind == "combining"
    big_key, big_val = (b"b" * 300, 1) if numeric else (b"b1", b"x" * 300)
    if call == "insert":
        pairs = [(b"b0", 2 if numeric else b"x" * 10), (big_key, big_val)]
        if numeric:
            return numeric_batch(pairs)
        return byte_batch(pairs)
    triples = [(OP_INSERT, b"k%03d" % i, i if numeric else b"v%d" % i)
               for i in range(299)] + [(OP_UPDATE, big_key, big_val)]
    return MutationBatch.from_ops(
        triples, numeric_dtype=np.int64 if numeric else None)


@pytest.mark.parametrize("call", ["insert", "mutate"])
@pytest.mark.parametrize("impl", ["vectorized", "slow_reference"])
@pytest.mark.parametrize("kind", ["basic", "combining", "multi-valued"])
def test_a_record_too_big_for_a_page_is_refused_before_any_op_runs(
    kind, impl, call
):
    """The call raises the allocator's ``ValueError`` and leaves the table
    as it found it: nothing stored, counted or allocated, invariants
    intact -- not the records ahead of the big one stored and booked."""
    org = {
        "basic": lambda: BasicOrganization(impl=impl),
        "combining": lambda: CombiningOrganization(SUM_I64, impl=impl),
        "multi-valued": lambda: MultiValuedOrganization(impl=impl),
    }[kind]()
    t = make_table(org, heap_bytes=64 * 256, page_size=256)
    first = (numeric_batch if kind == "combining" else byte_batch)(
        [(b"old", 7 if kind == "combining" else b"v")])
    assert t.insert_batch(first).success.all()

    def state():
        return (t.result(), t.total_inserted, t.total_mutated,
                t.mutations.snapshot(), t.alloc.stats)

    before = state()
    batch = _oversize_call(kind, call)
    apply = t.insert_batch if call == "insert" else t.mutate_batch
    with pytest.raises(ValueError, match="exceeds the page size"):
        apply(batch)
    t.check_invariants()
    assert state() == before


def test_value_exactly_filling_page():
    t = make_table(BasicOrganization(), heap_bytes=1024, page_size=256)
    # entry_size(1, v) == 256  =>  24 + 1 + v aligned to 256
    value = b"v" * (256 - 24 - 1 - 7)
    res = t.insert_batch(byte_batch([(b"k", value)]))
    assert res.success.all()
    t.end_iteration()
    assert t.result()[b"k"] == [value]


def test_negative_and_zero_values_combine(combining_table):
    t = combining_table
    t.insert_batch(numeric_batch([(b"k", -5), (b"k", 0), (b"k", 3)]))
    t.end_iteration()
    assert t.result() == {b"k": -2}


def test_binary_keys_with_nul_bytes(combining_table):
    t = combining_table
    k1, k2 = b"\x00\x01\x02", b"\x00\x01\x03"
    t.insert_batch(numeric_batch([(k1, 1), (k2, 2), (k1, 1)]))
    t.end_iteration()
    assert t.result() == {k1: 2, k2: 2}


def test_keys_that_prefix_each_other(combining_table):
    t = combining_table
    t.insert_batch(numeric_batch([(b"ab", 1), (b"abc", 10), (b"a", 100)]))
    t.end_iteration()
    assert t.result() == {b"ab": 1, b"abc": 10, b"a": 100}


def test_forced_full_eviction_flag():
    t = make_table(MultiValuedOrganization(), heap_bytes=512, page_size=256,
                   n_buckets=8, group_size=8)
    big = b"v" * 200
    t.insert_batch(byte_batch([(b"key", big)]))
    t.insert_batch(byte_batch([(b"key", big)]))  # pins the key page
    report = t.end_iteration()
    # Both pages end up victims: value page normally, key page either
    # retained (below limit) or flushed (above limit).
    assert report.pages_evicted >= 1


def test_pin_retention_limit_forces_flush():
    org = multivalued_org(0.01)
    t = make_table(org, heap_bytes=1024, page_size=256, n_buckets=8,
                   group_size=8)
    big = b"v" * 150
    t.insert_batch(byte_batch([(b"key", big)] * 4))
    # Force at least one pending pin.
    t.insert_batch(byte_batch([(b"key", big)] * 4))
    report = t.end_iteration()
    assert not any(p.pinned for p in t.heap.resident_pages)


def test_combining_f64_special_values():
    from repro.core import SUM_F64

    t = make_table(CombiningOrganization(SUM_F64))
    batch = RecordBatch.from_numeric(
        [b"k", b"k"], np.array([1e308, 1e308], dtype=np.float64)
    )
    t.insert_batch(batch)
    t.end_iteration()
    assert t.result()[b"k"] == float("inf")  # overflow behaves like IEEE


def test_duplicate_within_single_batch_counts_once_per_key(basic_table):
    res = basic_table.insert_batch(byte_batch([(b"k", b"v")] * 5))
    assert res.n_success == 5
    assert basic_table.total_inserted == 5


def test_insert_after_many_evictions_is_consistent(combining_table):
    t = combining_table
    for round_ in range(5):
        t.insert_batch(numeric_batch([(b"persistent", 1)]))
        t.end_iteration()
    assert t.result()[b"persistent"] == 5
    # Five residue entries exist in the CPU chain, merged on read.
    entries = [k for k, _ in t.cpu_items() if k == b"persistent"]
    assert len(entries) == 5


def test_hashtable_rejects_unknown_org_string():
    from repro.apps.base import Application

    class Bad(Application):
        organization = "weird"

    with pytest.raises(ValueError):
        Bad().make_organization()


def test_compiled_impl_no_longer_exists():
    from repro.core.organizations import IMPLS

    assert IMPLS == ("vectorized", "slow_reference")
    for make in (
        BasicOrganization,
        MultiValuedOrganization,
        lambda impl: CombiningOrganization(SUM_I64, impl=impl),
    ):
        with pytest.raises(ValueError, match="impl must be one of"):
            make(impl="compiled")


def test_slices_cuts_bytes_and_lists_alike():
    """The one slicing helper of the bulk readers and the in-stream
    lookups: empty ranges, list input and NUL bytes are sliced as Python
    slices them."""
    from repro.core.organizations.kernel_front import _slices

    blob = b"ab\x00cd\x00\x00ef"
    lo, hi = np.array([0, 2, 3, 5, 9, 4]), np.array([2, 3, 3, 9, 9, 1])
    want = [blob[a:b] for a, b in zip(lo.tolist(), hi.tolist())]
    assert _slices(blob, lo, hi) == want == [
        b"ab", b"\x00", b"", b"\x00\x00ef", b"", b""]
    items = list(blob)
    assert _slices(items, lo, hi) == [list(w) for w in want]
    assert _slices(blob, lo[:0], hi[:0]) == []
