"""BatchCache: cross-iteration memoization with freeze-based invalidation.

The cache trades a one-time full-batch materialization (hashes, bucket ids,
byte lists) for cheap gathers on every reissue.  Correctness hinges on the
freeze protocol: payload arrays are read-only while a cache is attached, so
mutating without :meth:`RecordBatch.invalidate_cache` raises instead of
serving stale derived data.
"""

import numpy as np
import pytest

from repro.core import RecordBatch
from repro.core.buckets import BucketArray
from repro.core.hashing import fnv1a, fnv1a_batch
from repro.core.records import BatchCache


PAIRS = [(b"alpha", b"1"), (b"", b""), (b"gamma-long-key", b"22"), (b"d", b"3")]


def byte_batch():
    return RecordBatch.from_pairs(list(PAIRS))


def numeric_batch():
    return RecordBatch.from_numeric(
        [k for k, _ in PAIRS], np.arange(len(PAIRS), dtype=np.int64)
    )


def test_hashes_match_scalar_and_are_memoized():
    b = byte_batch()
    h1 = b.cache.hashes()
    np.testing.assert_array_equal(
        h1, np.array([fnv1a(k) for k, _ in PAIRS], dtype=np.uint64)
    )
    assert b.cache.hashes() is h1  # memoized, not recomputed


def test_bucket_ids_memoized_per_table_size():
    b = byte_batch()
    small, big = BucketArray(8, 4), BucketArray(64, 4)
    ids_small = b.cache.bucket_ids(small)
    ids_big = b.cache.bucket_ids(big)
    assert ids_small.dtype == np.int64
    np.testing.assert_array_equal(
        ids_small, small.bucket_of_hash(fnv1a_batch(b.keys, b.key_lens))
    )
    # distinct memo per bucket count, stable identity per count
    assert b.cache.bucket_ids(small) is ids_small
    assert b.cache.bucket_ids(big) is ids_big
    assert not np.array_equal(ids_small, ids_big)


def test_byte_lists_roundtrip_and_are_memoized():
    b = byte_batch()
    keys = b.key_bytes_list()
    values = b.value_bytes_list()
    assert keys == [k for k, _ in PAIRS]
    assert values == [v for _, v in PAIRS]
    assert b.key_bytes_list() is keys
    assert b.value_bytes_list() is values


def test_value_bytes_list_rejects_numeric_batch():
    with pytest.raises(ValueError, match="numeric"):
        numeric_batch().cache.value_bytes_list()


def test_cache_attachment_freezes_payload_arrays():
    b = byte_batch()
    assert b.keys.flags.writeable
    b.cache.hashes()
    for arr in (b.keys, b.key_lens, b.values, b.val_lens):
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        b.keys[0, 0] = 99  # numpy refuses writes to frozen arrays


def test_invalidate_restores_writability_and_recomputes():
    b = byte_batch()
    stale_keys = b.key_bytes_list()
    stale_hashes = b.cache.hashes()
    b.invalidate_cache()
    assert b.keys.flags.writeable
    b.keys[0, 0] = ord(b"z")  # mutate: first key becomes b"zlpha"
    fresh_keys = b.key_bytes_list()
    assert fresh_keys is not stale_keys
    assert fresh_keys[0] == b"zlpha"
    assert b.cache.hashes()[0] == fnv1a(b"zlpha")
    assert b.cache.hashes()[0] != stale_hashes[0]


def test_invalidate_without_cache_is_harmless():
    b = byte_batch()
    b.invalidate_cache()  # never cached: no-op
    assert b.keys.flags.writeable


def test_freeze_respects_preexisting_readonly_arrays():
    """Arrays already frozen by the caller stay frozen after invalidate."""
    b = byte_batch()
    b.keys.flags.writeable = False
    b.cache.hashes()
    b.invalidate_cache()
    assert not b.keys.flags.writeable  # caller's freeze is preserved
    assert b.key_lens.flags.writeable  # ours was undone


def test_cache_is_stable_identity_until_invalidated():
    b = byte_batch()
    c = b.cache
    assert b.cache is c
    assert isinstance(c, BatchCache)
    b.invalidate_cache()
    assert b.cache is not c


# ----------------------------------------------------------------------
# BatchGrouping: duplicate-key grouping for the pre-aggregating kernels
# ----------------------------------------------------------------------
def test_grouping_groups_duplicates_with_first_arrival_reps():
    b = RecordBatch.from_pairs([
        (b"a", b"1"), (b"b", b"2"), (b"a", b"3"),
        (b"a", b"4"), (b"c", b"5"), (b"b", b"6"),
    ])
    buckets = BucketArray(16, 4)
    g = b.cache.grouping(buckets)
    assert not g.has_collision
    assert g.n_groups == 3
    assert g.gid[0] == g.gid[2] == g.gid[3]
    assert g.gid[1] == g.gid[5]
    assert len({int(g.gid[0]), int(g.gid[1]), int(g.gid[4])}) == 3
    for gi in range(g.n_groups):
        members = np.flatnonzero(g.gid == gi)
        assert g.rep[gi] == members.min()
    # memoized per bucket count
    assert b.cache.grouping(buckets) is g
    assert b.cache.grouping(BucketArray(8, 4)) is not g


def test_grouping_subset_is_group_major_arrival_minor():
    keys = [b"k%d" % (i % 4) for i in range(20)]
    b = RecordBatch.from_pairs([(k, b"v") for k in keys])
    g = b.cache.grouping(BucketArray(16, 4))
    idx = np.array([17, 2, 9, 5, 13, 1, 6], dtype=np.int64)
    order, starts = g.subset(idx)
    sg = g.gid[idx][order]
    assert (np.diff(sg) >= 0).all(), "segments must be contiguous"
    np.testing.assert_array_equal(
        starts, np.flatnonzero(np.r_[True, sg[1:] != sg[:-1]])
    )
    # within each segment, subset *positions* keep their original order
    # (reissued SEPO subsets are ascending, so this is arrival order)
    for s, e in zip(starts, np.r_[starts[1:], len(idx)]):
        seg = order[s:e]
        assert (np.diff(seg) > 0).all()


def test_grouping_subset_empty():
    b = RecordBatch.from_pairs([(b"a", b"1")])
    g = b.cache.grouping(BucketArray(8, 4))
    order, starts = g.subset(np.empty(0, dtype=np.int64))
    assert order.size == 0 and starts.size == 0


def test_grouping_hash_collision_sets_flag():
    for x, y in (
        (b"x", b"y"),
        # equal in their first word, apart in the last byte of the second
        (b"same-8b!tail-16X", b"same-8b!tail-16Y"),
        # a key matrix 11 bytes wide: the last word is padded
        (b"eleven-keyX", b"eleven-keyY"),
    ):
        b = RecordBatch.from_pairs([(x, b"1"), (y, b"2")])
        cache = b.cache
        real = cache.hashes()
        # forge a 64-bit collision between two different keys
        cache._hashes = np.full_like(real, 12345)
        g = cache.grouping(BucketArray(16, 4))
        assert g.has_collision, (x, y)
        # colliding records must NOT be merged into one group
        assert g.n_groups == 2


@pytest.mark.parametrize("width", [5, 11, 16])
def test_grouping_equal_keys_are_no_collision(width):
    """Keys as wide as the matrix, or padded in their last word, that are
    equal group together with no collision flagged."""
    keys = [b"%0*d" % (width, i % 3) for i in range(9)]
    b = RecordBatch.from_pairs([(k, b"v") for k in keys])
    g = b.cache.grouping(BucketArray(16, 4))
    assert not g.has_collision and g.n_groups == 3


def test_grouping_empty_batch():
    b = RecordBatch.from_pairs([])
    g = b.cache.grouping(BucketArray(8, 4))
    assert g.n_groups == 0 and not g.has_collision
