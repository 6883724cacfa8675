"""``allocate_many`` must be indistinguishable from sequential ``allocate``.

The bulk planner promises *exact* sequential semantics: the same requests
succeed, offsets/slots/segments match, fresh pages leave the pool in the
same order, and the allocator's stats, sticky failure set, and current-page
watermarks end up identical.  These tests compare a bulk call against a
request-by-request replay on a twin allocator, including pool-exhaustion
tails where only some requests fit.
"""

import numpy as np
import pytest

from repro.memalloc import BucketGroupAllocator, GpuHeap
from repro.memalloc.pages import PageKind


def make_pair(heap_bytes, page_size, n_groups):
    a = BucketGroupAllocator(GpuHeap(heap_bytes, page_size), n_groups)
    b = BucketGroupAllocator(GpuHeap(heap_bytes, page_size), n_groups)
    return a, b


def replay_scalar(alloc, groups, sizes, kind=PageKind.GENERIC):
    out = []
    for g, s in zip(groups.tolist(), sizes.tolist()):
        out.append(alloc.allocate(g, s, kind))
    return out


def assert_equivalent(bulk_alloc, bulk, scalar_alloc, scalar, sizes):
    for i, a in enumerate(scalar):
        assert bool(bulk.ok[i]) == (a is not None), f"request {i} diverges"
        if a is None:
            continue
        assert int(bulk.slot[i]) == a.page.slot
        assert int(bulk.segment[i]) == a.page.segment
        assert int(bulk.offset[i]) == a.offset
        assert int(bulk.cpu_addr[i]) == a.cpu_addr
        assert int(bulk.gpu_addr[i]) == a.gpu_addr
    assert bulk_alloc.stats.requests == scalar_alloc.stats.requests
    assert bulk_alloc.stats.postponed == scalar_alloc.stats.postponed
    assert bulk_alloc.stats.pages_taken == scalar_alloc.stats.pages_taken
    assert bulk_alloc.stats.bytes_allocated == scalar_alloc.stats.bytes_allocated
    assert bulk_alloc._failed_groups == scalar_alloc._failed_groups
    assert bulk_alloc.heap.pool.n_free == scalar_alloc.heap.pool.n_free
    # identical current-page watermarks per (group, kind)
    assert set(bulk_alloc._current) == set(scalar_alloc._current)
    for key, page in bulk_alloc._current.items():
        twin = scalar_alloc._current[key]
        assert (page.segment, page.slot, page.used) == (
            twin.segment,
            twin.slot,
            twin.used,
        )


def test_empty_request():
    a, _ = make_pair(1024, 256, 4)
    bulk = a.allocate_many(np.zeros(0, np.int64), np.zeros(0, np.int64))
    assert len(bulk.ok) == 0
    assert a.stats.requests == 0


@pytest.mark.parametrize(
    "groups, sizes, err",
    [
        ([0, 9], [8, 8], "out of range"),
        ([-1], [8], "out of range"),
        ([0], [0], "positive"),
        ([0], [-8], "positive"),
        ([0], [512], "page size"),
        ([0, 1], [8], "matching lengths"),
    ],
)
def test_validation(groups, sizes, err):
    a, _ = make_pair(1024, 256, 4)
    with pytest.raises(ValueError, match=err):
        a.allocate_many(np.array(groups), np.array(sizes))


def test_plenty_of_room_matches_scalar():
    a, b = make_pair(1 << 14, 1 << 10, 4)
    groups = np.array([0, 1, 0, 2, 1, 3, 0, 0], dtype=np.int64)
    sizes = np.array([64, 128, 32, 256, 8, 512, 1024, 16], dtype=np.int64)
    bulk = a.allocate_many(groups, sizes)
    scalar = replay_scalar(b, groups, sizes)
    assert bulk.ok.all()
    assert_equivalent(a, bulk, b, scalar, sizes)


def test_exhaustion_tail_smaller_fit():
    """After the pool dries up, a smaller later request can still squeeze
    into a group's current page -- exactly like the scalar path."""
    a, b = make_pair(512, 256, 2)  # two pages only
    groups = np.array([0, 1, 0, 0, 1, 0], dtype=np.int64)
    sizes = np.array([200, 200, 200, 40, 200, 8], dtype=np.int64)
    # request 2 (group 0, 200B) needs a 3rd page: postponed.  Requests 3
    # and 5 fit group 0's current page (200+40+8 = 248 <= 256).
    bulk = a.allocate_many(groups, sizes)
    scalar = replay_scalar(b, groups, sizes)
    np.testing.assert_array_equal(
        bulk.ok, [True, True, False, True, False, True]
    )
    assert_equivalent(a, bulk, b, scalar, sizes)


def test_fresh_pages_granted_in_request_order():
    """Interleaved groups take pages from the pool in request order, so
    segment ids match the sequential path even when the pool runs dry."""
    a, b = make_pair(3 * 128, 128, 3)  # three pages, three groups
    groups = np.array([2, 0, 1, 2, 0], dtype=np.int64)
    sizes = np.array([128, 128, 128, 128, 128], dtype=np.int64)
    bulk = a.allocate_many(groups, sizes)
    scalar = replay_scalar(b, groups, sizes)
    np.testing.assert_array_equal(bulk.ok, [True, True, True, False, False])
    # group 2 triggered first, so it owns segment 0
    assert int(bulk.segment[0]) == 0
    assert int(bulk.segment[1]) == 1
    assert int(bulk.segment[2]) == 2
    assert_equivalent(a, bulk, b, scalar, sizes)


def test_multiple_kinds_are_independent():
    a, b = make_pair(1 << 12, 256, 2)
    groups = np.array([0, 0, 1], dtype=np.int64)
    sizes = np.array([64, 32, 128], dtype=np.int64)
    for kind in (PageKind.KEY, PageKind.VALUE, PageKind.GENERIC):
        bulk = a.allocate_many(groups, sizes, kind)
        scalar = replay_scalar(b, groups, sizes, kind)
        assert bulk.ok.all()
        assert_equivalent(a, bulk, b, scalar, sizes)


@pytest.mark.parametrize("seed", range(40))
def test_fuzz_against_sequential(seed):
    """Randomized scenarios, tiny pools, optional pre-warming; every
    observable outcome must match a request-by-request replay."""
    rng = np.random.default_rng(seed)
    page_size = int(rng.choice([128, 256, 512]))
    n_pages = int(rng.integers(2, 9))
    n_groups = int(rng.integers(1, 6))
    a, b = make_pair(n_pages * page_size, page_size, n_groups)
    # pre-warm some groups so current pages start partially used
    for _ in range(int(rng.integers(0, 4))):
        g = int(rng.integers(0, n_groups))
        s = int(rng.integers(8, page_size // 2))
        a.allocate(g, s)
        b.allocate(g, s)
    n = int(rng.integers(1, 120))
    groups = rng.integers(0, n_groups, size=n).astype(np.int64)
    sizes = (rng.integers(1, page_size // 8, size=n) * 8).astype(np.int64)
    bulk = a.allocate_many(groups, sizes)
    scalar = replay_scalar(b, groups, sizes)
    assert_equivalent(a, bulk, b, scalar, sizes)


# ----------------------------------------------------------------------
# mixed-kind requests (multi-valued: KEY + VALUE pages from one pool)
# ----------------------------------------------------------------------
def replay_scalar_kinds(alloc, groups, sizes, kinds):
    return [
        alloc.allocate(g, s, k)
        for g, s, k in zip(groups.tolist(), sizes.tolist(), kinds)
    ]


def test_mixed_kinds_match_sequential():
    from repro.memalloc.pages import KIND_CODES

    a, b = make_pair(1 << 14, 512, 4)
    kinds = [PageKind.KEY, PageKind.VALUE, PageKind.VALUE,
             PageKind.KEY, PageKind.VALUE, PageKind.KEY]
    groups = np.array([0, 0, 1, 1, 0, 2], dtype=np.int64)
    sizes = np.array([48, 32, 32, 56, 40, 48], dtype=np.int64)
    codes = np.array([KIND_CODES[k] for k in kinds], dtype=np.int64)
    bulk = a.allocate_many(groups, sizes, kinds=codes)
    scalar = replay_scalar_kinds(b, groups, sizes, kinds)
    assert_equivalent(a, bulk, b, scalar, sizes)


@pytest.mark.parametrize("seed", range(4))
def test_mixed_kinds_fuzz_against_sequential(seed):
    from repro.memalloc.pages import KIND_BY_CODE, KIND_CODES

    rng = np.random.default_rng(seed)
    n = 60
    groups = rng.integers(0, 3, size=n).astype(np.int64)
    sizes = rng.integers(8, 200, size=n).astype(np.int64)
    codes = rng.integers(0, 3, size=n).astype(np.int64)
    kinds = [KIND_BY_CODE[c] for c in codes.tolist()]
    # small heap: some requests must fail, stressing the fallback tail
    a, b = make_pair(6 * 256, 256, 3)
    bulk = a.allocate_many(groups, sizes, kinds=codes)
    scalar = replay_scalar_kinds(b, groups, sizes, kinds)
    assert_equivalent(a, bulk, b, scalar, sizes)
    assert not bulk.ok.all(), "fuzz case was expected to overflow the pool"


# ----------------------------------------------------------------------
# read-only planning + arithmetic retry accounting (pre-agg kernels)
# ----------------------------------------------------------------------
def test_plan_page_takes_is_read_only_and_exact():
    a, b = make_pair(1 << 14, 512, 4)
    groups = np.array([0, 0, 1, 2, 2, 2], dtype=np.int64)
    sizes = np.array([500, 500, 100, 300, 300, 100], dtype=np.int64)
    before = (a.stats.requests, a.heap.pool.n_free, dict(a._current))
    takes = a.plan(groups, sizes).takes
    assert (a.stats.requests, a.heap.pool.n_free, dict(a._current)) == before
    assert takes.tolist() == [0, 1, 2, 3, 4]
    bulk = a.allocate_many(groups, sizes)
    assert bool(bulk.ok.all())
    assert a.stats.pages_taken == len(takes)


def test_plan_page_takes_mixed_kinds():
    from repro.memalloc.pages import KIND_CODES

    a, _ = make_pair(1 << 14, 512, 2)
    groups = np.array([0, 0, 1], dtype=np.int64)
    sizes = np.array([400, 400, 200], dtype=np.int64)
    codes = np.array([KIND_CODES[PageKind.KEY], KIND_CODES[PageKind.VALUE],
                      KIND_CODES[PageKind.VALUE]], dtype=np.int64)
    takes = a.plan(groups, sizes, kinds=codes).takes
    bulk = a.allocate_many(groups, sizes, kinds=codes)
    assert bool(bulk.ok.all())
    # distinct (group, kind) pages
    assert a.stats.pages_taken == len(takes) == 3


def test_record_denied_retries_matches_scalar_repeats():
    """A doomed duplicate re-attempt accounted arithmetically must equal
    actually re-attempting against the exhausted pool."""
    a, b = make_pair(512, 256, 2)  # 2 slots only
    for alloc in (a, b):
        assert alloc.allocate(0, 200) is not None
        assert alloc.allocate(1, 200) is not None
        assert alloc.allocate(0, 200) is None  # pool exhausted
    # scalar: three more failing attempts for group 0
    for _ in range(3):
        assert b.allocate(0, 200) is None
    # bulk-kernel bookkeeping: same outcome, no allocator walk
    a.record_denied_retries(3, np.array([0], dtype=np.int64))
    assert a.stats.requests == b.stats.requests
    assert a.stats.postponed == b.stats.postponed
    assert a._failed_groups == b._failed_groups


# ----------------------------------------------------------------------
# the page-take plan behind the mixed-op kernel's sticky cut
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_plan_page_takes_predicts_the_gated_scalar_replay(seed):
    """The plan lists the requests that take a fresh page from an
    unbounded pool; the pool grants the first ``n_free`` of them.  Cutting
    every group at its first denied take must reproduce a sequential replay
    that stops issuing a group's requests once one was denied -- the
    mutation gate -- request for request, and ``failed_groups`` must name
    the groups that were cut."""
    rng = np.random.default_rng(seed)
    a, b = make_pair(6 * 256, 256, 5)
    for alloc in (a, b):  # some groups start with a part-filled page
        alloc.allocate(0, 120)
        alloc.allocate(3, 200)
    n = 120
    groups = rng.integers(0, 5, size=n)
    sizes = rng.integers(1, 12, size=n) * 8
    before = (a.stats.requests, a.heap.pool.n_free, dict(a._current))
    takes = a.plan(groups, sizes).takes
    assert (a.stats.requests, a.heap.pool.n_free, dict(a._current)) == before
    assert (np.diff(takes) > 0).all()
    denied = takes[a.heap.pool.n_free:]
    stop = np.full(5, n)
    for t in denied[::-1].tolist():  # first denied take per group wins
        stop[groups[t]] = t
    issued = np.flatnonzero(np.arange(n) <= stop[groups])
    assert len(denied), "workload was expected to exhaust the pool"

    want = []  # the gated scalar replay
    for i, (g, s) in enumerate(zip(groups.tolist(), sizes.tolist())):
        if b.group_failed(g):
            continue
        want.append((i, b.allocate(g, s)))
    assert [i for i, _ in want] == issued.tolist()
    bulk = a.allocate_many(groups[issued], sizes[issued])
    assert_equivalent(a, bulk, b, [r for _, r in want], sizes[issued])
    np.testing.assert_array_equal(
        bulk.ok, np.arange(n)[issued] < stop[groups[issued]]
    )
    np.testing.assert_array_equal(a.failed_groups, np.unique(groups[denied]))
    after = (a.stats.requests, a.heap.pool.n_free, dict(a._current))
    a.plan(groups, sizes).takes  # still read-only after
    assert (a.stats.requests, a.heap.pool.n_free, dict(a._current)) == after


def test_note_tombstone_books_a_batch_as_two_sums():
    a, b = make_pair(1024, 256, 2)
    for nbytes in (32, 48, 40):
        b.note_tombstone(nbytes)
    a.note_tombstone(32 + 48 + 40, count=3)
    assert a.stats == b.stats
    with pytest.raises(ValueError):
        a.note_tombstone(8, count=0)
