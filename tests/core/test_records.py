import numpy as np
import pytest

from repro.core import RecordBatch, fnv1a_batch
from repro.core.records import gather_spans, pack_byte_rows, pack_str_keys


def test_pack_byte_rows_roundtrip():
    rows = [b"abc", b"", b"dddddd"]
    mat, lens = pack_byte_rows(rows)
    assert mat.shape == (3, 6)
    assert list(lens) == [3, 0, 6]
    assert mat[0, :3].tobytes() == b"abc"
    assert mat[2].tobytes() == b"dddddd"


def test_pack_empty_list():
    mat, lens = pack_byte_rows([])
    assert mat.shape == (0, 1)
    assert lens.shape == (0,)


def _pack_by_scatter(rows):
    """``pack_byte_rows`` as it was before it became one ``S<width>`` array:
    join the rows, scatter the bytes to their row base + column."""
    n = len(rows)
    lens = np.fromiter(map(len, rows), dtype=np.int32, count=n)
    width = int(lens.max()) if n else 0
    mat = np.zeros((n, max(width, 1)), dtype=np.uint8)
    total = int(lens.sum())
    if total:
        flat = np.frombuffer(b"".join(rows), dtype=np.uint8)
        starts = np.cumsum(lens, dtype=np.int64) - lens
        within = np.arange(total, dtype=np.int64) - np.repeat(starts, lens)
        dest = np.repeat(np.arange(n, dtype=np.int64) * mat.shape[1], lens)
        mat.reshape(-1)[dest + within] = flat
    return mat, lens


@pytest.mark.parametrize(
    "rows",
    [
        [],
        [b""],
        [b"", b"", b""],
        [b"abc", b"", b"dddddd"],
        [b"a\x00", b"\x00", b"\x00\x00b\x00\x00", b""],  # NULs are payload
        [b"\xff" * 40, b"x"],
        [bytes(range(256)), b"", bytes(range(255, -1, -1))],
    ],
)
def test_pack_byte_rows_equals_the_scatter_it_replaced(rows):
    mat, lens = pack_byte_rows(rows)
    want_mat, want_lens = _pack_by_scatter(rows)
    assert mat.dtype == np.uint8 and lens.dtype == np.int32
    assert mat.flags.c_contiguous and mat.flags.writeable
    np.testing.assert_array_equal(mat, want_mat)
    np.testing.assert_array_equal(lens, want_lens)


# ----------------------------------------------------------------------
# gather_spans / from_spans (the offset-based sibling the parsers use)
# ----------------------------------------------------------------------
BUF = b"alpha beta\x00gamma!"


def test_gather_spans_builds_the_matrix_pack_byte_rows_builds():
    starts, lens = [0, 6, 6, 11, 16, 3], [5, 4, 5, 5, 1, 0]
    mat, out_lens = gather_spans(BUF, starts, lens)
    want, want_lens = pack_byte_rows([BUF[s : s + n] for s, n in zip(starts, lens)])
    assert mat.dtype == np.uint8 and out_lens.dtype == np.int32
    assert mat.flags.c_contiguous and mat.flags.writeable
    np.testing.assert_array_equal(mat, want)
    np.testing.assert_array_equal(out_lens, want_lens)


def test_gather_spans_zero_length_spans_only():
    mat, lens = gather_spans(BUF, [0, len(BUF), 7], [0, 0, 0])
    assert mat.shape == (3, 1) and not mat.any()
    assert lens.tolist() == [0, 0, 0]


def test_gather_spans_span_ending_at_the_last_byte():
    # the short span's full-width window would run past the buffer
    mat, lens = gather_spans(BUF, [0, len(BUF) - 2], [8, 2])
    assert mat[1].tobytes() == b"a!" + bytes(6)
    assert mat[0].tobytes() == b"alpha be"


def test_gather_spans_no_spans():
    for buf in (BUF, b""):
        mat, lens = gather_spans(buf, [], [])
        assert mat.shape == (0, 1) and mat.dtype == np.uint8
        assert lens.shape == (0,) and lens.dtype == np.int32


def test_gather_spans_accepts_a_uint8_vector():
    view = np.frombuffer(BUF, dtype=np.uint8)
    mat, _ = gather_spans(view, np.array([6]), np.array([4]))
    assert mat.tobytes() == b"beta"
    with pytest.raises(ValueError, match="uint8"):
        gather_spans(view.astype(np.int64), [0], [1])


@pytest.mark.parametrize(
    "starts, lens",
    [([0], [len(BUF) + 1]), ([len(BUF)], [1]), ([-1], [1]), ([3], [-1]), ([0, 1], [1])],
)
def test_gather_spans_rejects_spans_outside_the_buffer(starts, lens):
    with pytest.raises(ValueError):
        gather_spans(BUF, starts, lens)


def test_from_spans_equals_the_list_path():
    ks, kl = np.array([0, 6, 11]), np.array([5, 4, 6])
    vs, vl = np.array([17, 0, 5]), np.array([0, 1, 2])
    by_bytes = RecordBatch.from_spans(BUF, ks, kl, vs, vl)
    want = RecordBatch.from_pairs(
        [(BUF[a : a + b], BUF[c : c + d]) for a, b, c, d in zip(ks, kl, vs, vl)]
    )
    for name in ("keys", "key_lens", "values", "val_lens"):
        np.testing.assert_array_equal(getattr(by_bytes, name), getattr(want, name))
    assert by_bytes.input_bytes == want.input_bytes

    numeric = RecordBatch.from_spans(
        BUF, ks, kl, numeric_values=np.array([1.5, 2.5, 3.5])
    )
    want = RecordBatch.from_numeric(
        [BUF[a : a + b] for a, b in zip(ks, kl)], np.array([1.5, 2.5, 3.5])
    )
    np.testing.assert_array_equal(numeric.keys, want.keys)
    assert numeric.numeric_values.dtype == np.float64 and numeric.values is None


def test_from_spans_wants_exactly_one_value_kind():
    with pytest.raises(ValueError, match="exactly one"):
        RecordBatch.from_spans(BUF, [0], [1])
    with pytest.raises(ValueError, match="exactly one"):
        RecordBatch.from_spans(BUF, [0], [1], [0], [1], numeric_values=np.ones(1))


def test_pack_str_keys_utf8():
    mat, lens = pack_str_keys(["héllo"])
    assert lens[0] == len("héllo".encode())


def test_from_pairs_accessors():
    b = RecordBatch.from_pairs([(b"k1", b"v1"), (b"key2", b"value2")])
    assert len(b) == 2
    assert b.key_bytes(1) == b"key2"
    assert b.value_bytes(0) == b"v1"


def test_from_numeric_accessors():
    b = RecordBatch.from_numeric([b"a", b"bb"], np.array([1, 2], dtype=np.int64))
    assert b.numeric_values is not None
    assert b.key_bytes(1) == b"bb"
    with pytest.raises(ValueError):
        b.value_bytes(0)


def test_exactly_one_value_kind_enforced():
    mat, lens = pack_byte_rows([b"a"])
    with pytest.raises(ValueError):
        RecordBatch(keys=mat, key_lens=lens)  # neither
    with pytest.raises(ValueError):
        RecordBatch(
            keys=mat,
            key_lens=lens,
            numeric_values=np.array([1]),
            values=mat,
            val_lens=lens,
        )  # both


def test_byte_values_require_val_lens():
    mat, lens = pack_byte_rows([b"a"])
    with pytest.raises(ValueError):
        RecordBatch(keys=mat, key_lens=lens, values=mat)


def test_shape_mismatch_rejected():
    mat, lens = pack_byte_rows([b"a", b"b"])
    with pytest.raises(ValueError):
        RecordBatch(keys=mat, key_lens=lens, numeric_values=np.array([1]))


def test_staged_bytes_unpadded():
    b = RecordBatch.from_pairs([(b"abc", b"x"), (b"a", b"yy")])
    assert b.staged_bytes == 3 + 1 + 1 + 2


def test_input_bytes_defaults_to_staged():
    b = RecordBatch.from_pairs([(b"abc", b"x")])
    assert b.input_bytes == b.staged_bytes
    b2 = RecordBatch.from_pairs([(b"abc", b"x")], input_bytes=100)
    assert b2.input_bytes == 100


def test_numeric_staged_bytes_counts_scalars():
    b = RecordBatch.from_numeric([b"ab"], np.array([5], dtype=np.int64))
    assert b.staged_bytes == 2 + 8


# ----------------------------------------------------------------------
# RecordBatch.concat (the request router's merge)
# ----------------------------------------------------------------------
def test_concat_pads_to_the_widest_part_and_sums_input_bytes():
    a = RecordBatch.from_pairs([(b"k", b"long-value"), (b"kk", b"v")], input_bytes=40)
    b = RecordBatch.from_pairs([(b"a-much-longer-key", b"")])
    c = RecordBatch.from_pairs([(b"mid-key", b"vv")], input_bytes=7)
    merged = RecordBatch.concat([a, b, c])

    assert type(merged) is RecordBatch and len(merged) == 4
    assert merged.keys.shape == (4, len(b"a-much-longer-key"))
    assert merged.values.shape == (4, len(b"long-value"))
    assert merged.key_bytes_list() == [b"k", b"kk", b"a-much-longer-key", b"mid-key"]
    assert merged.value_bytes_list() == [b"long-value", b"v", b"", b"vv"]
    # padding is zeros: the grouping pass compares whole rows
    assert not merged.keys[0, 1:].any() and not merged.values[2].any()
    assert merged.input_bytes == 40 + b.staged_bytes + 7
    # the parts are copied, not aliased: they stay usable and writable
    merged.cache.hashes()
    assert a.keys.flags.writeable


def test_concat_hashes_equal_the_parts_hashes():
    parts = [
        RecordBatch.from_numeric([b"x", b"yy"], np.array([1, 2], dtype=np.int64)),
        RecordBatch.from_numeric([b"a-wider-key"], np.array([3], dtype=np.int64)),
        RecordBatch.from_numeric([b"yy", b""], np.array([4, 5], dtype=np.int64)),
    ]
    merged = RecordBatch.concat(parts)
    assert merged.numeric_values.tolist() == [1, 2, 3, 4, 5]
    assert merged.numeric_values.dtype == np.int64
    want = np.concatenate([p.cache.hashes() for p in parts])
    assert np.array_equal(merged.cache.hashes(), want)


def test_concat_single_part_is_returned_as_is():
    b = RecordBatch.from_pairs([(b"k", b"v")])
    assert RecordBatch.concat([b]) is b
    with pytest.raises(ValueError, match="at least one"):
        RecordBatch.concat([])


def test_concat_rejects_incompatible_parts():
    i64 = RecordBatch.from_numeric([b"a"], np.array([1], dtype=np.int64))
    f64 = RecordBatch.from_numeric([b"a"], np.array([1.0], dtype=np.float64))
    raw = RecordBatch.from_pairs([(b"a", b"v")])
    slow = RecordBatch.from_pairs([(b"a", b"v")], parse_cycles=80.0)
    skew = RecordBatch.from_pairs([(b"a", b"v")], divergence=2.0)
    for other in (f64, raw):
        with pytest.raises(ValueError, match="incompatible"):
            RecordBatch.concat([i64, other])
    for other in (slow, skew, i64):
        with pytest.raises(ValueError, match="incompatible"):
            RecordBatch.concat([raw, other])


def test_concat_mutation_batches_carry_ops():
    from repro.core.mutations import OP_DELETE, OP_INSERT, OP_LOOKUP, MutationBatch

    a = MutationBatch.from_ops([(OP_INSERT, b"k", b"v"), (OP_LOOKUP, b"k", b"")])
    b = MutationBatch.from_ops([(OP_DELETE, b"longer", b"")])
    a.lookup_results[1] = [b"stale"]
    merged = RecordBatch.concat([a, b])
    assert type(merged) is MutationBatch
    assert merged.ops.tolist() == [OP_INSERT, OP_LOOKUP, OP_DELETE]
    assert merged.lookup_results == {}  # answers belong to the merged rows

    plain = RecordBatch.from_pairs([(b"k", b"v")])
    with pytest.raises(ValueError, match="incompatible"):
        RecordBatch.concat([a, plain])


def test_concat_of_selected_rows_gathers_them_in_order():
    """Rows taken out of parts of three widths come out with their ops,
    zero padding and hashes in the order asked."""
    from repro.core.mutations import OP_INSERT, OP_LOOKUP, MutationBatch

    rng = np.random.default_rng(4)
    parts = [
        MutationBatch.from_ops([
            (OP_LOOKUP if i % 3 else OP_INSERT, b"k%d" % i * w, b"v" * (i % w))
            for i in range(20)
        ])
        for w in (1, 3, 2)
    ]
    for part in parts:
        part.cache.hashes()
    rows = [rng.choice(20, size, replace=False) for size in (6, 1, 9)]
    merged = RecordBatch.concat(parts, rows)

    pick = lambda f: [f(p)[i] for p, r in zip(parts, rows) for i in r]
    assert merged.key_bytes_list() == pick(lambda p: p.key_bytes_list())
    assert merged.value_bytes_list() == pick(lambda p: p.value_bytes_list())
    assert merged.ops.tolist() == pick(lambda p: p.ops.tolist())
    assert merged.keys.shape[1] == max(p.keys.shape[1] for p in parts)
    for row, n in zip(merged.keys, merged.key_lens):
        assert not row[n:].any()
    assert merged.cache.hashes().tolist() == pick(lambda p: p.cache.hashes())
    assert merged.input_bytes == merged.staged_bytes


def test_copy_owns_its_arrays_and_carries_hashes_only():
    from repro.core.mutations import OP_INSERT, OP_LOOKUP, MutationBatch

    batch = MutationBatch.from_ops(
        [(OP_INSERT, b"key", b"value"), (OP_LOOKUP, b"k", b"")],
        input_bytes=99, parse_cycles=80.0,
    )
    batch.cache.hashes()
    batch.lookup_results[1] = [b"the client's"]
    own = batch.copy()
    assert type(own) is MutationBatch and own.concat_key == batch.concat_key
    assert own.input_bytes == 99
    for name in ("keys", "key_lens", "values", "val_lens", "ops"):
        mine, theirs = getattr(own, name), getattr(batch, name)
        assert np.array_equal(mine, theirs) and not np.shares_memory(mine, theirs)
    assert own.lookup_results == {} and batch.lookup_results == {1: [b"the client's"]}
    assert own.__dict__["_cache"]._hashes.tolist() == batch.cache.hashes().tolist()
    assert not np.shares_memory(own.cache.hashes(), batch.cache.hashes())
    # a batch never hashed hands nothing on, and its copy starts uncached
    cold = RecordBatch.from_pairs([(b"a", b"1")])
    assert "_cache" not in cold.copy().__dict__
    assert "_cache" not in cold.__dict__


# ----------------------------------------------------------------------
# hashes travel with their rows through take and concat
# ----------------------------------------------------------------------
def _hashed(pairs):
    batch = RecordBatch.from_pairs(pairs)
    batch.cache.hashes()
    return batch


def _fresh_hashes(batch):
    return fnv1a_batch(batch.keys, batch.key_lens)


def test_take_carries_computed_hashes():
    parent = _hashed([(b"k%d" % i * (i % 4), b"v") for i in range(12)])
    sub = parent.take(np.array([7, 0, 7, 3, 11]))
    carried = sub.__dict__["_cache"]._hashes
    assert carried is not None
    assert carried.tolist() == _fresh_hashes(sub).tolist()
    # a sub-batch of hashed rows is frozen like any cached batch
    assert not sub.keys.flags.writeable
    # a parent never hashed hands nothing on, and stays uncached
    cold = RecordBatch.from_pairs([(b"a", b"1"), (b"b", b"2")])
    assert "_cache" not in cold.take(np.array([1])).__dict__


def test_concat_carries_hashes_only_when_every_part_has_them():
    a = _hashed([(b"x", b"1"), (b"a-wider-key", b"2")])
    b = _hashed([(b"", b"3")])
    c = RecordBatch.from_pairs([(b"yy", b"4")])
    merged = RecordBatch.concat([a, b])
    assert merged.__dict__["_cache"]._hashes.tolist() == (
        _fresh_hashes(merged).tolist()
    )
    assert "_cache" not in RecordBatch.concat([a, c]).__dict__


def test_an_invalidated_mutated_sub_batch_rehashes():
    parent = _hashed([(b"one", b"1"), (b"two", b"2"), (b"six", b"6")])
    sub = parent.take(np.array([2, 0]))
    stale = sub.cache.hashes().copy()
    sub.invalidate_cache()
    sub.keys[0, :3] = np.frombuffer(b"ten", dtype=np.uint8)
    fresh = sub.cache.hashes()
    assert fresh.tolist() == _fresh_hashes(sub).tolist()
    assert fresh[0] != stale[0] and fresh[1] == stale[1]
