import pytest

from repro.memalloc import Page, PageKind, PagePool


def make_page(size=256):
    return Page(slot=0, segment=0, kind=PageKind.GENERIC, group=0, page_size=size)


def test_bump_allocation_advances():
    p = make_page()
    assert p.alloc(10) == 0
    assert p.alloc(20) == 10
    assert p.used == 30
    assert p.free == 226


def test_full_page_returns_none():
    p = make_page(64)
    assert p.alloc(64) == 0
    assert p.alloc(1) is None


def test_oversized_allocation_raises():
    p = make_page(64)
    with pytest.raises(ValueError):
        p.alloc(65)


def test_zero_allocation_rejected():
    with pytest.raises(ValueError):
        make_page().alloc(0)


def test_pool_slot_count():
    pool = PagePool(heap_bytes=1024, page_size=256)
    assert pool.n_slots == 4
    assert pool.n_free == 4


def test_pool_exhaustion():
    pool = PagePool(1024, 256)
    slots = [pool.take() for _ in range(4)]
    assert None not in slots
    assert len(set(slots)) == 4
    assert pool.take() is None


def test_pool_release_recycles():
    pool = PagePool(512, 256)
    a = pool.take()
    pool.take()
    assert pool.take() is None
    pool.release(a)
    assert pool.take() == a


def test_double_release_rejected():
    pool = PagePool(512, 256)
    s = pool.take()
    pool.release(s)
    with pytest.raises(ValueError):
        pool.release(s)


def test_release_out_of_range():
    pool = PagePool(512, 256)
    with pytest.raises(ValueError):
        pool.release(5)


def test_slot_view_is_view_not_copy():
    pool = PagePool(512, 256)
    s = pool.take()
    view = pool.slot_view(s)
    view[0] = 42
    assert pool.arena[s * 256] == 42


def test_slot_views_disjoint():
    pool = PagePool(512, 256)
    v0, v1 = pool.slot_view(0), pool.slot_view(1)
    v0[:] = 1
    v1[:] = 2
    assert v0[0] == 1 and v1[0] == 2


def test_heap_smaller_than_page_rejected():
    with pytest.raises(ValueError):
        PagePool(100, 256)


def test_page_size_off_the_word_grid_rejected():
    """Pages are whole 8-byte words: the one place page geometry enters."""
    with pytest.raises(ValueError, match="positive multiple of 8"):
        PagePool(16 * 250, 250)


def test_page_size_truncation():
    pool = PagePool(1000, 256)
    assert pool.n_slots == 3


# ----------------------------------------------------------------------
# can_take: may the insert kernel believe n_free?
# ----------------------------------------------------------------------
def test_can_take_restores_exact_lifo_order():
    pool = PagePool(4 * 256, 256)
    order_before = list(pool._free_slots)
    assert pool.can_take(3)
    assert pool._free_slots == order_before
    # subsequent takes hand out the same slots a fresh pool would
    assert pool.take() == order_before[-1]


def test_can_take_boundaries():
    pool = PagePool(4 * 256, 256)
    assert pool.can_take(0)
    assert pool.can_take(4)
    assert not pool.can_take(5)
    assert pool.n_free == 4  # nothing leaked either way


def test_can_take_observes_injected_denial():
    """n_free can lie under fault injection; can_take must not."""
    pool = PagePool(4 * 256, 256)
    original = PagePool.take
    calls = {"n": 0}

    def denying_take(self):
        calls["n"] += 1
        if calls["n"] > 2:
            return None
        return original(self)

    pool.take = denying_take.__get__(pool)
    assert pool.n_free == 4
    assert pool.can_take(2)
    assert not pool.can_take(3)


# ----------------------------------------------------------------------
# release: the per-slot free flags stay in step with the free stack
# ----------------------------------------------------------------------
def assert_in_step(pool):
    on_stack = set(pool._free_slots)
    assert len(on_stack) == len(pool._free_slots)
    assert [bool(f) for f in pool._is_free] == [
        s in on_stack for s in range(pool.n_slots)
    ]
    assert not on_stack & pool.quarantined


def test_release_errors_keep_their_precedence():
    pool = PagePool(4 * 256, 256)
    with pytest.raises(ValueError, match="out of range"):
        pool.release(4)
    with pytest.raises(ValueError, match="double-released"):
        pool.release(0)  # never taken
    pool.quarantine_slot(0)  # free: retires at once
    with pytest.raises(ValueError, match="quarantined"):
        pool.release(0)
    assert_in_step(pool)
    assert sorted(pool._free_slots) == [1, 2, 3]


def test_double_release_after_a_quarantine():
    pool = PagePool(4 * 256, 256)
    s = pool.take()
    pool.quarantine_slot(s)  # hosts a live page: pending
    assert s in pool._retire_pending and s not in pool.quarantined
    pool.release(s)  # the page leaves: the slot retires, not recycles
    assert s in pool.quarantined and not pool._retire_pending
    with pytest.raises(ValueError, match="quarantined"):
        pool.release(s)
    assert pool.n_free == 3 and s not in pool._free_slots
    assert_in_step(pool)
    assert s not in {pool.take() for _ in range(3)} and pool.take() is None


def test_release_of_a_retire_pending_slot_keeps_lifo_order():
    pool = PagePool(4 * 256, 256)
    a, b, c = pool.take(), pool.take(), pool.take()
    pool.quarantine_slot(b)
    pool.quarantine_slot(b)  # idempotent while pending
    for s in (a, b, c):
        pool.release(s)
    assert_in_step(pool)
    # b is gone; a and c come back most recently released first
    assert [pool.take(), pool.take()] == [c, a]


def test_take_release_quarantine_stay_in_step():
    pool = PagePool(8 * 256, 256)
    held = [pool.take() for _ in range(5)]
    pool.quarantine_slot(held[1])
    pool.quarantine_slot(pool._free_slots[0])
    for s in held[:3]:
        pool.release(s)
    assert_in_step(pool)
    with pytest.raises(ValueError, match="double-released"):
        pool.release(held[0])
    pool.set_free_slots([6, 2])  # what a checkpoint restore does
    assert_in_step(pool)
    assert pool.take() == 2
    with pytest.raises(ValueError, match="double-released"):
        pool.release(6)


def test_can_take_with_an_injector_holding_slots():
    """A fault injector that took every slot (PoolExhaustion's way) and a
    pool whose ``take`` is wrapped: the probe goes through real takes and
    releases, and leaves stack and flags as it found them."""
    pool = PagePool(6 * 256, 256)
    wrapped = []
    pool.take = lambda: (wrapped.append(pool.n_free), PagePool.take(pool))[1]
    held = []
    while (s := pool.take()) is not None:
        held.append(s)
    assert not pool.can_take(1) and pool.can_take(0)
    assert_in_step(pool)
    for s in held[:4]:
        pool.release(s)
    before = list(pool._free_slots)
    assert pool.can_take(4) and not pool.can_take(5)
    assert pool._free_slots == before
    assert_in_step(pool)
    for s in held[:4]:  # the probe's releases were not the injector's
        with pytest.raises(ValueError, match="double-released"):
            pool.release(s)
    for s in held[4:]:
        pool.release(s)
    assert pool.n_free == 6
    assert_in_step(pool)
