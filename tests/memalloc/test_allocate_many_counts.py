"""What one ``allocate_many`` call costs, counted instead of timed.

Two numbers that do not depend on the hour the machine is having: how
often the call runs ``np.searchsorted`` (the planner's one array search
per step, all bucket groups together) and how many lines of
``memalloc/allocator.py`` the interpreter executes during it (every
Python-level loop iteration is at least one).  On a stock pool the first
is one search for what the runs still place on their current pages plus
one per round of fresh pages -- rounds = the most fresh pages any single
run takes, however many runs there are -- and the second grows with runs
and page spans, never with requests.
"""

from types import SimpleNamespace

import numpy as np
import pytest

import repro.memalloc.allocator as allocator_module
from repro.memalloc import BucketGroupAllocator, GpuHeap
from tests.counting import counted

PAGE = 4096


def one_call(alloc, groups, sizes):
    """One ``allocate_many``: ``searches`` and allocator.py ``lines`` run,
    with the call's ``bulk`` result and the ``pages`` and ``requests`` it
    added to the allocator's stats."""
    before = (alloc.stats.pages_taken, alloc.stats.requests)
    run = counted(
        lambda: alloc.allocate_many(groups, sizes),
        where=allocator_module, calls={"searches": np.searchsorted},
    )
    return SimpleNamespace(
        searches=run.calls["searches"], lines=run.lines, bulk=run.value,
        pages=alloc.stats.pages_taken - before[0],
        requests=alloc.stats.requests - before[1],
    )


def counted_call(n_runs, per_run, size, warm=0, pages=None):
    """:func:`one_call` on ``n_runs`` groups x ``per_run`` requests of
    ``size`` bytes (arrival order round-robin over the groups), each group
    holding a current page with ``warm`` bytes used."""
    need = -(-per_run * size // PAGE) + 1
    n_pages = pages if pages is not None else n_runs * (need + 1)
    alloc = BucketGroupAllocator(GpuHeap(n_pages * PAGE, PAGE), n_runs)
    if warm:
        for g in range(n_runs):
            alloc.allocate(g, warm)
    groups = np.tile(np.arange(n_runs, dtype=np.int64), per_run)
    return one_call(alloc, groups, np.full(len(groups), size, dtype=np.int64))


def test_searches_do_not_grow_with_the_number_of_runs():
    """Every run takes at most one fresh page: two searches, for one run
    and for 512; none of them takes any: one."""
    for warm in (0, 1024):  # no current page / a part-filled one
        for n_runs in (1, 16, 512):
            call = counted_call(n_runs, 8, 448, warm)
            assert call.bulk.ok.all() and call.pages == n_runs
            assert call.searches == 2
    for n_runs in (1, 512):
        call = counted_call(n_runs, 8, 64, warm=1024)
        assert call.bulk.ok.all() and call.pages == 0
        assert call.searches == 1


@pytest.mark.parametrize("fresh_pages", [1, 2, 3, 5, 9])
def test_one_search_per_round_of_fresh_pages(fresh_pages):
    """512 runs that all go ``fresh_pages`` deep cost what one does."""
    for n_runs in (1, 512):
        call = counted_call(n_runs, 4 * fresh_pages, 1024)  # 4 fill a page
        assert call.bulk.ok.all() and call.pages == n_runs * fresh_pages
        assert call.searches == 1 + fresh_pages


def test_the_deepest_run_sets_the_rounds():
    """One run five pages deep among 511 that take one page each."""
    alloc = BucketGroupAllocator(GpuHeap(600 * PAGE, PAGE), 512)
    groups = np.r_[np.arange(512), np.zeros(19, np.int64)]
    call = one_call(alloc, groups, np.full(len(groups), 1024))
    assert call.bulk.ok.all() and call.pages == 511 + 5
    assert call.searches == 1 + 5


def test_no_python_iteration_is_per_request():
    """Same runs and page spans, sixteen times the requests: not one more
    line of the allocator runs."""
    for n_runs in (1, 64):
        few = counted_call(n_runs, 4, 1024)
        many = counted_call(n_runs, 64, 64)
        assert few.lines == many.lines
        assert few.pages == many.pages == n_runs
        assert many.requests == 16 * few.requests
    # with a current page in use too: two spans a run either way
    few, many = counted_call(64, 8, 448, 1024), counted_call(64, 64, 56, 1024)
    assert few.lines == many.lines and few.pages == many.pages == 64


def test_python_iterations_are_per_run_and_per_span():
    """What does grow is affine in the runs (and their page spans): the
    per-run keys and current pages, the per-page grant and bookkeeping."""
    lines = {r: counted_call(r, 8, 448).lines for r in (128, 256, 512)}
    assert lines[512] - lines[256] == 2 * (lines[256] - lines[128])
    per_run = (lines[512] - lines[256]) / 256
    assert 0 < per_run <= 32, per_run  # 20 on CPython 3.11
    # a second page span per run costs less than a second run does
    deeper = counted_call(256, 8, 1024).lines  # two fresh pages a run
    assert lines[256] < deeper < lines[512]


def test_the_instrument_sees_a_per_request_loop_where_there_is_one():
    """Behind a denied take the requests are retried one by one against
    their group's current page (``_retry_exhausted``): there, and only
    there, lines grow with requests -- so the equalities above are not an
    instrument that cannot count."""
    few = counted_call(8, 8, 1024, pages=8)
    many = counted_call(8, 16, 1024, pages=8)
    assert not few.bulk.ok.all() and not many.bulk.ok.all()
    assert many.lines > few.lines
    assert many.searches == few.searches + 2  # planned on an unbounded pool
