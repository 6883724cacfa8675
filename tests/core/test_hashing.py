import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import fnv1a, fnv1a_batch
from repro.core.records import pack_byte_rows


def test_known_vectors():
    # Standard FNV-1a 64-bit test vectors.
    assert fnv1a(b"") == 0xCBF29CE484222325
    assert fnv1a(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a(b"foobar") == 0x85944171F73967E8


def test_batch_matches_scalar():
    keys = [b"http://a.com", b"x", b"", b"longer-key-here", b"x"]
    mat, lens = pack_byte_rows(keys)
    out = fnv1a_batch(mat, lens)
    for i, k in enumerate(keys):
        assert int(out[i]) == fnv1a(k)


def test_batch_ignores_padding():
    mat = np.zeros((2, 8), dtype=np.uint8)
    mat[0, :3] = list(b"abc")
    mat[1, :3] = list(b"abc")
    mat[1, 3:] = 0xFF  # garbage beyond the key length
    out = fnv1a_batch(mat, np.array([3, 3], dtype=np.int32))
    assert out[0] == out[1]


def test_batch_empty():
    out = fnv1a_batch(np.zeros((0, 4), dtype=np.uint8), np.zeros(0, dtype=np.int32))
    assert out.shape == (0,)


def test_batch_rejects_wrong_dtype():
    with pytest.raises(ValueError):
        fnv1a_batch(np.zeros((1, 4), dtype=np.int32), np.array([1]))


def test_batch_rejects_bad_lengths():
    with pytest.raises(ValueError):
        fnv1a_batch(np.zeros((2, 4), dtype=np.uint8), np.array([1]))
    with pytest.raises(ValueError):
        fnv1a_batch(np.zeros((1, 4), dtype=np.uint8), np.array([5]))


@given(st.lists(st.binary(min_size=0, max_size=40), min_size=1, max_size=50))
def test_batch_scalar_agreement_property(keys):
    mat, lens = pack_byte_rows(keys)
    out = fnv1a_batch(mat, lens)
    assert [int(h) for h in out] == [fnv1a(k) for k in keys]


@given(st.binary(min_size=1, max_size=64))
def test_hash_is_deterministic(key):
    assert fnv1a(key) == fnv1a(key)
    assert 0 <= fnv1a(key) < 2**64


def test_dispersion_over_buckets():
    # Sanity: hashing sequential keys should spread across buckets.
    keys = [f"key-{i}".encode() for i in range(2000)]
    mat, lens = pack_byte_rows(keys)
    buckets = fnv1a_batch(mat, lens) % np.uint64(256)
    counts = np.bincount(buckets.astype(np.int64), minlength=256)
    assert counts.max() < 4 * counts.mean()


#: ragged widths on both sides of the all-live columns, the empty key,
#: embedded, leading and trailing NULs
RAGGED_KEYS = [
    b"", b"\x00", b"a", b"a\x00", b"\x00a", b"ab\x00cd", b"abc\x00\x00",
    b"x" * 17, b"y" * 3, b"\x00" * 9, b"\xff" * 5,
]


@pytest.mark.parametrize("keys", [
    RAGGED_KEYS, RAGGED_KEYS[1:], [b"same-width"] * 3, [b""] * 4, [],
])
def test_batch_matches_scalar_on_ragged_empty_and_nul_keys(keys):
    mat, lens = pack_byte_rows(keys)
    assert fnv1a_batch(mat, lens).tolist() == [fnv1a(k) for k in keys]


def test_batch_wraps_without_a_runtime_warning():
    """uint64 wraparound is the algorithm: every column's multiply
    overflows, and none of it may warn (the suite may run under
    ``-W error``)."""
    mat, lens = pack_byte_rows(RAGGED_KEYS * 20)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fnv1a_batch(mat, lens)
        fnv1a_batch(mat[:1], lens[:1])  # a single row: still an array op
