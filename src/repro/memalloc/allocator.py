"""Bucket-group allocator (Section IV-A).

Allocation load is distributed across the heap's pages by partitioning the
hash-table buckets into *bucket groups* of ``group_size`` contiguous buckets
and serving each group from its own current page (per page kind).  Threads
inserting into different groups therefore bump different free-list pointers,
which is the paper's scalability trick; the price is fragmentation, because
a group's page can end an iteration partially full.

An allocation is *postponed* (returns ``None``) when the group's current
page cannot fit the request and the pool has no fresh page to hand out.
Failures are sticky within an iteration -- nothing frees pages until the
end-of-iteration eviction -- and the fraction of failed groups drives the
basic method's 50%-halt policy (Section IV-C).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.memalloc.heap import GpuHeap
from repro.memalloc.pages import KIND_BY_CODE, Page, PageKind

__all__ = ["AllocationStats", "BucketGroupAllocator", "BulkAllocation"]


def _stable_order(keys: np.ndarray) -> np.ndarray:
    """``argsort(kind="stable")`` of non-negative keys (bucket ids, group /
    kind composites, group ids), the fastest way there is: numpy's radix
    sort where the keys fit 16 bits (10x its int64 mergesort at 8k keys),
    else a composite quicksort key -- the arrival position fused into one
    unique int64 key, ~3x faster than mergesort, valid where ``keys * n +
    n`` cannot overflow int64.  Under 512 keys the plain call is quickest."""
    n = len(keys)
    if n < 512 or np.maximum.reduce(keys) < 1 << 16:
        small = np.uint16 if n >= 512 else keys.dtype
        return keys.astype(small, copy=False).argsort(kind="stable")
    return (keys.astype(np.int64, copy=False) * n + np.arange(n)).argsort()


def _run_bounds(keys: np.ndarray) -> np.ndarray:
    """Where each run of equal values in ``keys`` starts, then ``len(keys)``."""
    edge = np.empty(len(keys) + 1, dtype=bool)
    edge[0] = edge[-1] = True
    np.not_equal(keys[1:], keys[:-1], out=edge[1:-1])
    return edge.nonzero()[0]


@dataclass
class AllocationStats:
    """Counters over the allocator's lifetime."""

    requests: int = 0
    postponed: int = 0
    pages_taken: int = 0
    bytes_allocated: int = 0
    #: logically deleted (tombstoned) entries and their byte sizes.  The
    #: slots stay allocated -- structural reclaim would dangle the CPU
    #: pointer chains -- so this tracks the space a future compaction pass
    #: could recover; the sanitizer reconciles it against the chain census.
    entries_tombstoned: int = 0
    bytes_tombstoned: int = 0


@dataclass
class Allocation:
    """Result of a successful allocation."""

    page: Page
    offset: int
    cpu_addr: int
    gpu_addr: int


@dataclass
class BulkAllocation:
    """Result of :meth:`BucketGroupAllocator.allocate_many`.

    All arrays are aligned with the request order; ``slot``/``segment``/
    ``offset``/``cpu_addr``/``gpu_addr`` are only meaningful where ``ok``.
    """

    ok: np.ndarray  # (n,) bool
    slot: np.ndarray  # (n,) int64
    segment: np.ndarray  # (n,) int64
    offset: np.ndarray  # (n,) int64
    cpu_addr: np.ndarray  # (n,) int64
    gpu_addr: np.ndarray  # (n,) int64


class _Plan(NamedTuple):
    """Page spans of one request stream (:meth:`BucketGroupAllocator.plan`):
    span ``s`` serves the run-sorted positions ``lo[s]:hi[s]`` of run
    ``run[s]`` from a fresh page or, failing ``fresh[s]``, from the run's
    current one.  Spans are ordered by ``lo`` and tile the stream."""

    groups: np.ndarray  # the requests, as planned (validated)
    sizes: np.ndarray
    codes: np.ndarray | None
    kind: PageKind
    order: np.ndarray  # the requests run by run, arrival order in a run
    before: np.ndarray  # (n + 1,) bytes requested ahead of each position
    lo: np.ndarray
    hi: np.ndarray
    run: np.ndarray
    fresh: np.ndarray  # bool
    keys: list  # per run: (group, PageKind)
    pages: list  # per run: its current Page, or None

    @property
    def takes(self) -> np.ndarray:
        """The requests that take a fresh page: their indices, ascending."""
        return np.sort(self.order[self.lo[self.fresh]])

    def restrict(self, keep: np.ndarray) -> "_Plan":
        """The plan of the requests ``keep`` (a mask over the stream)
        holds, when those are a prefix of every run: each span cut at the
        prefix's end -- the plan the kept requests get on their own, since
        a run is planned from its own requests alone."""
        kept = keep[self.order]  # run-sorted
        at = np.concatenate(([0], np.cumsum(kept)))  # old position -> new
        lo, hi = at[self.lo], at[self.hi]
        span = lo < hi
        sizes = self.sizes[keep]
        order = (np.cumsum(keep) - 1)[self.order[kept]]
        return self._replace(
            groups=self.groups[keep], sizes=sizes,
            codes=None if self.codes is None else self.codes[keep],
            order=order,
            before=np.concatenate(([0], sizes[order].cumsum())),
            lo=lo[span], hi=hi[span], run=self.run[span],
            fresh=self.fresh[span],
        )


class BucketGroupAllocator:
    """Per-bucket-group bump allocation over heap pages."""

    def __init__(self, heap: GpuHeap, n_groups: int):
        if n_groups <= 0:
            raise ValueError(f"need at least one bucket group, got {n_groups}")
        self.heap = heap
        self.n_groups = n_groups
        self._current: dict[tuple[int, PageKind], Page] = {}
        self._failed_groups: set[int] = set()
        self.stats = AllocationStats()

    # ------------------------------------------------------------------
    def allocate(
        self, group: int, nbytes: int, kind: PageKind = PageKind.GENERIC
    ) -> Allocation | None:
        """Allocate ``nbytes`` for ``group``, or None (POSTPONE)."""
        if not 0 <= group < self.n_groups:
            raise ValueError(f"group {group} out of range [0, {self.n_groups})")
        self.stats.requests += 1
        key = (group, kind)
        page = self._current.get(key)
        offset = page.alloc(nbytes) if page is not None else None
        if offset is None:
            fresh = self.heap.alloc_page(kind, group)
            if fresh is None:
                self._failed_groups.add(group)
                self.stats.postponed += 1
                return None
            self.stats.pages_taken += 1
            self._current[key] = fresh
            page = fresh
            offset = page.alloc(nbytes)
            assert offset is not None  # nbytes <= page_size is checked by Page
        self.stats.bytes_allocated += nbytes
        # the caller writes a fresh entry into this extent; dirty the page
        # for the integrity layer before the bytes change under its seal
        self.heap.note_write(page.segment)
        return Allocation(
            page=page,
            offset=offset,
            cpu_addr=self.heap.cpu_addr(page, offset),
            gpu_addr=page.slot * self.heap.page_size + offset,
        )

    # ------------------------------------------------------------------
    def allocate_many(
        self,
        groups: np.ndarray,
        sizes: np.ndarray,
        kind: PageKind = PageKind.GENERIC,
        kinds: np.ndarray | None = None,
        plan: _Plan | None = None,
    ) -> BulkAllocation:
        """Bulk equivalent of calling :meth:`allocate` once per request.

        Requests are honoured *as if* served one at a time in array order:
        the same requests succeed, the same offsets are handed out, fresh
        pages are taken from the pool in the same order (so segment ids and
        slots match the sequential path exactly), and the allocator's stats
        and sticky failure set end up identical.  One plan (:meth:`plan`)
        cuts every bucket group's requests into page spans, all groups
        together; what is left per page is the grant itself -- one
        :meth:`~repro.memalloc.heap.GpuHeap.alloc_page` per fresh page in
        the order of the requests that trigger them, which is where fault
        injectors and traces look -- and the watermark, current-page and
        dirty-page bookkeeping of each span.  Nothing runs per request
        unless the pool denies a page: the requests behind a denied take
        are retried against their group's current page, where a smaller
        later request can still squeeze in.

        ``kinds`` optionally gives a per-request page kind as an int64 array
        of :data:`repro.memalloc.pages.KIND_CODES` codes; the multi-valued
        organization interleaves KEY and VALUE requests in one call so fresh
        pages are pulled from the shared pool in exactly the order the
        sequential walk would pull them.  When set, ``kind`` is ignored.
        ``plan`` is the plan of these requests when the caller already has
        it: a mixed-op kernel plans its request stream once, cuts it where
        the pool runs dry, and allocates the cut (:meth:`_Plan.restrict`).
        """
        if plan is None:
            plan = self.plan(groups, sizes, kind, kinds)
        groups, sizes, codes, kind = plan.groups, plan.sizes, plan.codes, plan.kind
        n = len(groups)
        page_size = self.heap.page_size
        if n == 0:
            none = np.full(0, -1, dtype=np.int64)
            return BulkAllocation(
                np.zeros(0, dtype=bool), none, none.copy(), none.copy(),
                none.copy(), none.copy(),
            )
        order, lo, hi, run = plan.order, plan.lo, plan.hi, plan.run.tolist()

        # Grant the fresh pages one take at a time, in the order of the
        # requests that trigger them, as far as the pool says it can go.
        pages = [None if f else plan.pages[r]
                 for r, f in zip(run, plan.fresh.tolist())]
        fresh = plan.fresh.nonzero()[0]
        in_turn = fresh[order[lo[fresh]].argsort()]
        for s in in_turn[: self.heap.pool.n_free].tolist():
            key = plan.keys[run[s]]
            page = self.heap.alloc_page(key[1], key[0])
            if page is None:
                # fault injection can deny a grant while n_free looks
                # healthy; every later span stays ungranted and its
                # requests are replayed one by one below
                break
            self.stats.pages_taken += 1
            pages[s] = page

        # Per span: where it sits, then the page's watermark, the run's
        # current page and the dirty note (span order is run by run, a
        # run's pages in the order it fills them).
        nbytes = plan.before[hi] - plan.before[lo]
        where = np.array(
            [(-1, -1, 0) if p is None else (p.slot, p.segment, p.used)
             for p in pages],
            dtype=np.int64,
        )
        note_write = self.heap.note_write
        for page, r, size in zip(pages, run, nbytes.tolist()):
            if page is not None:
                page.used += size
                if page is not plan.pages[r]:
                    self._current[plan.keys[r]] = page
                note_write(page.segment)

        # per request, run-sorted: its span's (slot, segment, offset); a
        # fresh span's offsets start at its page's start, not the run's
        rebase = where[:, 2] - plan.before[lo]
        where[:, 2] = rebase
        got = where[np.arange(len(lo)).repeat(hi - lo)]
        got[:, 2] += plan.before[:-1]
        slot, segment, offset = np.empty((3, n), dtype=np.int64)
        slot[order], segment[order], offset[order] = got.T
        ok = segment >= 0
        n_ok = int(np.count_nonzero(ok))
        served = sizes if n_ok == n else sizes[ok]
        self.stats.requests += n_ok
        self.stats.bytes_allocated += int(np.add.reduce(served))

        if n_ok < n:
            fallback = np.flatnonzero(~ok)
            offset[fallback] = -1
            if self.heap.pool.n_free == 0:
                self._retry_exhausted(
                    fallback, groups, sizes, codes, kind,
                    ok, slot, segment, offset,
                )
            else:
                # a page grant was denied while the pool still holds slots
                # (fault injection): replay request by request so every
                # retry re-observes the injector exactly like the
                # sequential path would
                for p in fallback.tolist():
                    k = kind if codes is None else KIND_BY_CODE[int(codes[p])]
                    a = self.allocate(int(groups[p]), int(sizes[p]), k)
                    if a is not None:
                        ok[p] = True
                        slot[p] = a.page.slot
                        segment[p] = a.page.segment
                        offset[p] = a.offset

        cpu_addr = segment * page_size + offset
        gpu_addr = slot * page_size + offset
        if n_ok < n:
            cpu_addr[~ok] = gpu_addr[~ok] = -1
        return BulkAllocation(ok, slot, segment, offset, cpu_addr, gpu_addr)

    def _retry_exhausted(
        self,
        fb: np.ndarray,
        groups: np.ndarray,
        sizes: np.ndarray,
        codes: np.ndarray | None,
        kind: PageKind,
        ok: np.ndarray,
        slot: np.ndarray,
        segment: np.ndarray,
        offset: np.ndarray,
    ) -> None:
        """One batched retry pass over the requests left after pool exhaustion.

        With ``n_free == 0`` every fresh-page attempt is a guaranteed denial,
        so a surviving request's fate depends only on its (group, kind)
        current page: it bump-fits or it postpones.  Each surviving run is
        therefore retried in one pass -- a plain-integer bump simulation in
        arrival order plus one batched result scatter per run -- instead of
        degrading the whole tail to element-at-a-time :meth:`allocate` calls.
        Stats, sticky failures, and dirty-page notes end up identical to the
        sequential replay (the counters are commutative and a denied
        :meth:`~repro.memalloc.heap.GpuHeap.alloc_page` mutates nothing).
        """
        fcodes = np.zeros(len(fb), np.int64) if codes is None else codes[fb]
        comp = groups[fb] * len(KIND_BY_CODE) + fcodes
        run_order = np.argsort(comp, kind="stable")
        sfb = fb[run_order]
        bounds = _run_bounds(comp[run_order]).tolist()
        for a, b in zip(bounds, bounds[1:]):
            run = sfb[a:b]
            g = int(groups[run[0]])
            kk = kind if codes is None else KIND_BY_CODE[int(codes[run[0]])]
            page = self._current.get((g, kk))
            free = page.free if page is not None else 0
            used = page.used if page is not None else 0
            taken_pos: list[int] = []
            taken_off: list[int] = []
            n_fail = 0
            for p, sz in zip(run.tolist(), sizes[run].tolist()):
                if sz <= free:  # a smaller later request can still fit
                    taken_pos.append(p)
                    taken_off.append(used)
                    used += sz
                    free -= sz
                else:
                    n_fail += 1
            self.stats.requests += b - a
            if n_fail:
                self.stats.postponed += n_fail
                self._failed_groups.add(g)
            if taken_pos:
                page.used = used
                tp = np.asarray(taken_pos, dtype=np.int64)
                ok[tp] = True
                slot[tp] = page.slot
                segment[tp] = page.segment
                offset[tp] = np.asarray(taken_off, dtype=np.int64)
                self.stats.bytes_allocated += int(sizes[tp].sum())
                self.heap.note_write(page.segment)

    def check_sizes(self, sizes: np.ndarray) -> None:
        """Raise ValueError unless every request size is positive and fits
        a page (a table refuses a call with one before any op runs)."""
        if len(sizes) and np.minimum.reduce(sizes) <= 0:
            raise ValueError("allocation sizes must be positive")
        if len(sizes) and np.maximum.reduce(sizes) > self.heap.page_size:
            raise ValueError(
                f"an allocation exceeds the page size {self.heap.page_size}"
            )

    def plan(
        self,
        groups: np.ndarray,
        sizes: np.ndarray,
        kind: PageKind = PageKind.GENERIC,
        kinds: np.ndarray | None = None,
    ) -> _Plan:
        """Cut every (group, kind) run of these requests into page spans,
        were the pool unbounded.  Read-only with respect to allocator and
        heap; :meth:`allocate_many` carries the plan out.

        A span is a maximal stretch of one run served by one page.  All
        runs step together, a page at a time, the way the device's bucket
        groups bump their own pages side by side: one binary search over
        the global cumulative sum of the sizes finds what every run still
        places on its current page, then each round opens a fresh page for
        every run with requests left and one more search finds where those
        pages fill.  Rounds = the most fresh pages any one run takes.  The
        pool grants :attr:`_Plan.takes` in request order: the first
        ``heap.pool.n_free`` are granted, every later one is denied.
        """
        groups = np.asarray(groups, dtype=np.int64)
        sizes = np.asarray(sizes, dtype=np.int64)
        if sizes.shape != groups.shape:
            raise ValueError("groups and sizes must have matching lengths")
        codes, composite = None, groups
        if kinds is not None:
            codes = np.asarray(kinds, dtype=np.int64)
            if codes.shape != groups.shape:
                raise ValueError("kinds must match groups in length")
            composite = groups * len(KIND_BY_CODE) + codes
        if len(groups):
            if (np.minimum.reduce(groups) < 0
                    or np.maximum.reduce(groups) >= self.n_groups):
                raise ValueError("a group index is out of range")
            self.check_sizes(sizes)
            if codes is not None and not 0 <= np.minimum.reduce(
                    codes) <= np.maximum.reduce(codes) < len(KIND_BY_CODE):
                raise ValueError("a kind code is out of range")
        page_size = self.heap.page_size
        order = _stable_order(composite)
        n = len(order)
        bounds = _run_bounds(composite[order])
        starts, ends = bounds[:-1], bounds[1:]
        before = np.zeros(n + 1, dtype=np.int64)  # bytes ahead of position i
        through = before[1:]  # ... and with request i
        through[:] = sizes[order].cumsum()
        first = order[starts]
        run_kinds = (
            [kind] * len(first) if codes is None
            else [KIND_BY_CODE[c] for c in codes[first].tolist()]
        )
        keys = list(zip(groups[first].tolist(), run_kinds))
        pages = [self._current.get(key) for key in keys]
        free = np.array([0 if p is None else p.free for p in pages], np.int64)

        def fill(at, room, end):
            # requests at..j-1 are the most that fit in ``room`` bytes
            j = np.searchsorted(through, before[at] + room, "right")
            return np.minimum(j, end)

        at = fill(starts, free, ends)
        held = (at > starts).nonzero()[0]  # runs that use their current page
        lo, hi, run = [starts[held]], [at[held]], [held]
        live = (at < ends).nonzero()[0]
        at = at[live]
        while len(live):
            end = ends[live]
            full = fill(at, page_size, end)
            lo.append(at)
            hi.append(full)
            run.append(live)
            more = full < end
            live, at = live[more], full[more]
        lo = np.concatenate(lo)
        by_lo = lo.argsort()  # run by run, each run's pages in fill order
        return _Plan(
            groups, sizes, codes, kind, order, before, lo[by_lo],
            np.concatenate(hi)[by_lo], np.concatenate(run)[by_lo],
            by_lo >= len(held), keys, pages,
        )

    def record_denied_retries(self, count: int, groups=None) -> None:
        """Account ``count`` requests a batched kernel proved would be denied.

        Within one iteration a failed allocation mutates nothing except the
        request/postpone counters and the sticky failure set: the pool never
        refills mid-iteration and a group's current page only fills further,
        so once a request of some size fails for a (group, kind), every
        later same-or-larger request there fails too.  The scalar reference
        walk issues those doomed repeat requests for real; pre-aggregated
        kernels skip the walk but must keep the allocator's counters
        identical, which this records arithmetically.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        self.stats.requests += count
        self.stats.postponed += count
        if groups is not None:
            self._failed_groups.update(int(g) for g in np.unique(groups))

    # ------------------------------------------------------------------
    def note_tombstone(self, nbytes: int, count: int = 1) -> None:
        """Record that ``count`` entries of ``nbytes`` in total were
        logically deleted.

        Tombstoned extents remain allocated (and reachable through their
        chains), so ``bytes_allocated`` is untouched; this only sizes the
        reclaimable backlog for a future compaction pass.
        """
        if nbytes <= 0 or count <= 0:
            raise ValueError("tombstoned entry size must be positive")
        self.stats.entries_tombstoned += count
        self.stats.bytes_tombstoned += nbytes

    # ------------------------------------------------------------------
    def group_failed(self, group: int) -> bool:
        """Did ``group``'s last allocation this iteration get postponed?

        Mutation batches use this as their postponement gate: an op whose
        bucket group is sticky-failed postpones up front, so a postponed
        delete/update can never be overtaken by a later same-key op (same
        key -> same bucket -> same group) before its replay.
        """
        return group in self._failed_groups

    @property
    def has_failures(self) -> bool:
        """Any bucket group sticky-failed this iteration?"""
        return bool(self._failed_groups)

    @property
    def failed_groups(self) -> np.ndarray:
        """The sticky-failed bucket groups of this iteration, ascending
        (a copy): what :meth:`group_failed` answers one group at a time."""
        return np.array(sorted(self._failed_groups), dtype=np.int64)

    @property
    def failed_fraction(self) -> float:
        """Fraction of bucket groups whose last allocation was postponed."""
        return len(self._failed_groups) / self.n_groups

    def reset_failures(self) -> None:
        """Clear sticky failures (called when eviction refills the pool)."""
        self._failed_groups.clear()

    def drop_stale_pages(self) -> None:
        """Forget current pages that were evicted out from under us."""
        self._current = {
            key: page
            for key, page in self._current.items()
            if self.heap.is_resident(page.segment)
        }
