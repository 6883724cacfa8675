import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import PendingBitmap


def test_starts_all_pending():
    bm = PendingBitmap(10)
    assert bm.pending_count == 10
    assert bm.any_pending()
    assert list(bm.pending_in(0, 10)) == list(range(10))


def test_mark_done_clears():
    bm = PendingBitmap(8)
    bm.mark_done(np.array([0, 3, 7]))
    assert bm.pending_count == 5
    assert list(bm.pending_in(0, 8)) == [1, 2, 4, 5, 6]


def test_pending_in_window():
    bm = PendingBitmap(10)
    bm.mark_done(np.array([4, 5]))
    assert list(bm.pending_in(3, 8)) == [3, 6, 7]


def test_pending_in_bad_range():
    bm = PendingBitmap(10)
    with pytest.raises(ValueError):
        bm.pending_in(5, 3)
    with pytest.raises(ValueError):
        bm.pending_in(0, 11)


def test_out_of_range_indices_rejected():
    bm = PendingBitmap(4)
    with pytest.raises(IndexError):
        bm.mark_done(np.array([4]))
    with pytest.raises(IndexError):
        bm.mark_done(np.array([-1]))


def test_empty_bitmap():
    bm = PendingBitmap(0)
    assert not bm.any_pending()
    assert bm.nbytes == 0


def test_negative_size_rejected():
    with pytest.raises(ValueError):
        PendingBitmap(-1)


def test_nbytes_is_one_bit_per_record():
    assert PendingBitmap(8).nbytes == 1
    assert PendingBitmap(9).nbytes == 2
    assert PendingBitmap(1_000_000).nbytes == 125_000


def test_mark_done_empty_indices_ok():
    bm = PendingBitmap(4)
    bm.mark_done(np.array([], dtype=np.int64))
    assert bm.pending_count == 4


@given(st.integers(1, 200), st.data())
def test_bitmap_matches_set_model(n, data):
    bm = PendingBitmap(n)
    model = set(range(n))
    for _ in range(5):
        done = data.draw(
            st.lists(st.integers(0, n - 1), max_size=n, unique=True)
        )
        bm.mark_done(np.array(done, dtype=np.int64))
        model -= set(done)
        assert bm.pending_count == len(model)
        assert set(bm.pending_in(0, n)) == model
