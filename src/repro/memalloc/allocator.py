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

from dataclasses import dataclass, field

import numpy as np

from repro.memalloc.heap import GpuHeap
from repro.memalloc.pages import KIND_BY_CODE, Page, PageKind

__all__ = ["AllocationStats", "BucketGroupAllocator", "BulkAllocation"]


def _stable_order(keys: np.ndarray) -> np.ndarray:
    """``argsort(kind="stable")`` via a composite quicksort key; valid for
    small-cardinality keys (group/kind composites) where ``keys * n + n``
    cannot overflow int64."""
    n = len(keys)
    return (keys.astype(np.int64) * n + np.arange(n)).argsort()


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
        sorted_order: np.ndarray | None = None,
        kinds: np.ndarray | None = None,
    ) -> BulkAllocation:
        """Bulk equivalent of calling :meth:`allocate` once per request.

        Requests are honoured *as if* served one at a time in array order:
        the same requests succeed, the same offsets are handed out, fresh
        pages are taken from the pool in the same order (so segment ids and
        slots match the sequential path exactly), and the allocator's stats
        and sticky failure set end up identical.  The fast path plans each
        bucket group's bump allocation with one cumulative sum per page;
        only the post-pool-exhaustion tail (where a smaller later request
        can still squeeze into a group's current page) falls back to the
        scalar loop.

        ``sorted_order`` optionally passes in a precomputed **stable**
        argsort of ``groups``.  It must preserve arrival order within each
        group -- page-fill boundaries depend on it -- so an argsort by
        bucket id does *not* qualify even though it groups correctly.

        ``kinds`` optionally gives a per-request page kind as an int64 array
        of :data:`repro.memalloc.pages.KIND_CODES` codes; the multi-valued
        organization interleaves KEY and VALUE requests in one call so fresh
        pages are pulled from the shared pool in exactly the order the
        sequential walk would pull them.  When set, ``kind`` is ignored and
        ``sorted_order`` (if given) must be a stable sort of the
        (group, kind) pairs.
        """
        groups = np.asarray(groups, dtype=np.int64)
        sizes = np.asarray(sizes, dtype=np.int64)
        n = len(groups)
        if sizes.shape != (n,):
            raise ValueError("groups and sizes must have matching lengths")
        page_size = self.heap.page_size
        ok = np.zeros(n, dtype=bool)
        slot = np.full(n, -1, dtype=np.int64)
        segment = np.full(n, -1, dtype=np.int64)
        offset = np.full(n, -1, dtype=np.int64)
        if n == 0:
            addr = np.full(0, -1, dtype=np.int64)
            return BulkAllocation(ok, slot, segment, offset, addr, addr.copy())
        codes, composite = self._validate_bulk(groups, sizes, kinds)

        if sorted_order is None:
            order = _stable_order(composite)
        else:
            order = sorted_order

        # Fast path: a run whose total fits in its (group, kind) current
        # page needs no span planning at all -- every request bump-fits, no
        # fresh page is taken, so the whole run is one vectorized scatter.
        # At small batch sizes this is the common case (most runs are one
        # or two requests) and skipping the per-span binary searches in
        # _plan_spans is the difference between O(runs) searchsorted calls
        # and a handful of array ops per batch.
        sorted_comp = composite[order]
        run_starts = np.flatnonzero(np.r_[True, sorted_comp[1:] != sorted_comp[:-1]])
        run_ends = np.r_[run_starts[1:], n]
        sorted_sizes = sizes[order]
        c = np.cumsum(sorted_sizes)
        consumed = np.where(run_starts > 0, c[run_starts - 1], 0)
        run_totals = c[run_ends - 1] - consumed
        fit_runs = np.zeros(len(run_starts), dtype=bool)
        fit_pages = []  # (run index, current page)
        for r, s0 in enumerate(run_starts.tolist()):
            p = int(order[s0])
            g = int(groups[p])
            kk = kind if codes is None else KIND_BY_CODE[int(codes[p])]
            page = self._current.get((g, kk))
            if page is not None and page.free >= run_totals[r]:
                fit_runs[r] = True
                fit_pages.append((r, page))
        fit_elem = np.repeat(fit_runs, run_ends - run_starts)
        if fit_pages:
            fit_lens = (run_ends - run_starts)[fit_runs]
            pos = order[fit_elem]
            used_rep = np.repeat([pg.used for _r, pg in fit_pages], fit_lens)
            base_rep = np.repeat(consumed[fit_runs], fit_lens)
            ok[pos] = True
            slot[pos] = np.repeat([pg.slot for _r, pg in fit_pages], fit_lens)
            segment[pos] = np.repeat(
                [pg.segment for _r, pg in fit_pages], fit_lens
            )
            offset[pos] = used_rep + c[fit_elem] - sorted_sizes[fit_elem] - base_rep
            self.stats.requests += len(pos)
            self.stats.bytes_allocated += int(sorted_sizes[fit_elem].sum())
            for r, page in fit_pages:
                page.used += int(run_totals[r])
                self.heap.note_write(page.segment)

        if fit_runs.all():
            spans, triggers = [], []
        else:
            spans, triggers = self._plan_spans(
                order[~fit_elem], composite, groups, sizes, codes, kind
            )

        # Phase B: grant fresh pages in trigger order.  When the pool runs
        # out, the remaining spans' requests are replayed through the
        # scalar path (they can still partially succeed from the group's
        # current page), which also records the sticky group failures.
        triggers.sort(key=lambda t: t[0])
        grantable = min(len(triggers), self.heap.pool.n_free)
        for _, span in triggers[:grantable]:
            fresh = self.heap.alloc_page(span[4], span[3])
            if fresh is None:
                # fault injection can deny page grants even while n_free
                # looks healthy; the remaining spans drop to the scalar
                # fallback, which re-attempts (and re-observes the denial)
                # request by request exactly like the sequential path.
                break
            self.stats.pages_taken += 1
            span[2] = fresh

        fallback: list[int] = []
        for pos, offs, page, g, k in spans:
            if page is None:  # fresh page the pool could not provide
                fallback.extend(pos.tolist())
                continue
            last = len(pos) - 1
            page.used = int(offs[last]) + int(sizes[pos[last]])
            self._current[(g, k)] = page
            ok[pos] = True
            slot[pos] = page.slot
            segment[pos] = page.segment
            offset[pos] = offs
            self.stats.requests += len(pos)
            self.stats.bytes_allocated += int(sizes[pos].sum())
            self.heap.note_write(page.segment)
        if fallback:
            fallback.sort()
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
                for p in fallback:
                    k = kind if codes is None else KIND_BY_CODE[int(codes[p])]
                    a = self.allocate(int(groups[p]), int(sizes[p]), k)
                    if a is not None:
                        ok[p] = True
                        slot[p] = a.page.slot
                        segment[p] = a.page.segment
                        offset[p] = a.offset

        cpu_addr = np.where(ok, segment * page_size + offset, -1)
        gpu_addr = np.where(ok, slot * page_size + offset, -1)
        return BulkAllocation(ok, slot, segment, offset, cpu_addr, gpu_addr)

    def _retry_exhausted(
        self,
        fallback: list[int],
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
        fb = np.asarray(fallback, dtype=np.int64)  # already in arrival order
        fcodes = np.zeros(len(fb), np.int64) if codes is None else codes[fb]
        comp = groups[fb] * len(KIND_BY_CODE) + fcodes
        run_order = np.argsort(comp, kind="stable")
        sfb = fb[run_order]
        scomp = comp[run_order]
        bounds = np.flatnonzero(
            np.r_[True, scomp[1:] != scomp[:-1]]
        ).tolist() + [len(sfb)]
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

    def _validate_bulk(
        self,
        groups: np.ndarray,
        sizes: np.ndarray,
        kinds: np.ndarray | None,
    ) -> tuple[np.ndarray | None, np.ndarray]:
        """Shared request validation; returns (codes, composite run key)."""
        if int(groups.min()) < 0 or int(groups.max()) >= self.n_groups:
            raise ValueError("a group index is out of range")
        if int(sizes.min()) <= 0:
            raise ValueError("allocation sizes must be positive")
        if int(sizes.max()) > self.heap.page_size:
            raise ValueError(
                f"an allocation exceeds the page size {self.heap.page_size}"
            )
        if kinds is None:
            return None, groups
        codes = np.asarray(kinds, dtype=np.int64)
        if codes.shape != groups.shape:
            raise ValueError("kinds must match groups in length")
        if len(codes) and (
            int(codes.min()) < 0 or int(codes.max()) >= len(KIND_BY_CODE)
        ):
            raise ValueError("a kind code is out of range")
        return codes, groups * len(KIND_BY_CODE) + codes

    def _plan_spans(
        self,
        order: np.ndarray,
        composite: np.ndarray,
        groups: np.ndarray,
        sizes: np.ndarray,
        codes: np.ndarray | None,
        kind: PageKind,
    ) -> tuple[list, list]:
        """Phase A: plan every (group, kind) run's bump allocation assuming
        the pool is infinite.  Read-only with respect to allocator and heap
        state.

        A "span" is a maximal run of requests served by one page; a span
        opening a fresh page records the request index that triggers the
        page take, so pages can later be granted in the exact order the
        sequential path would take them.  One global cumulative sum (in
        run-sorted order) serves every run's bump-pointer arithmetic; page
        boundaries are binary searches.
        """
        page_size = self.heap.page_size
        n = len(order)
        sorted_comp = composite[order]
        run_starts = np.flatnonzero(
            np.r_[True, sorted_comp[1:] != sorted_comp[:-1]]
        ).tolist()
        run_ends = run_starts[1:] + [n]
        sorted_sizes = sizes[order]
        c = np.cumsum(sorted_sizes)
        spans = []  # [positions, offsets, Page | None (fresh), group, kind]
        triggers = []  # (triggering request index, span)
        searchsorted = np.searchsorted
        for s0, s1 in zip(run_starts, run_ends):
            g = int(groups[order[s0]])
            kk = kind if codes is None else KIND_BY_CODE[int(codes[order[s0]])]
            page = self._current.get((g, kk))
            cur_used = page.used if page is not None else page_size
            i0 = s0
            consumed = int(c[s0 - 1]) if s0 else 0
            while i0 < s1:
                free = page_size - cur_used
                j = min(int(searchsorted(c, consumed + free, "right")), s1)
                if j == i0:  # next request needs a fresh page
                    span = [None, None, None, g, kk]
                    triggers.append((int(order[i0]), span))
                    spans.append(span)
                    cur_used = 0
                    j = min(
                        int(searchsorted(c, consumed + page_size, "right")), s1
                    )
                    span[0] = order[i0:j]
                    span[1] = c[i0:j] - sorted_sizes[i0:j] - consumed
                else:
                    spans.append(
                        [order[i0:j],
                         cur_used + (c[i0:j] - sorted_sizes[i0:j] - consumed),
                         page, g, kk]
                    )
                cur_used += int(c[j - 1] - consumed)
                consumed = int(c[j - 1])
                i0 = j
        return spans, triggers

    def plan_page_takes(
        self,
        groups: np.ndarray,
        sizes: np.ndarray,
        kind: PageKind = PageKind.GENERIC,
        kinds: np.ndarray | None = None,
    ) -> np.ndarray:
        """Which of these requests would take a fresh page, were they served
        one at a time in array order from an unbounded pool: their indices,
        ascending.

        Read-only: neither the pool nor any current page is touched.  A
        group's page takes depend on that group's requests alone, and the
        pool grants them in index order, so with ``n = heap.pool.n_free``
        the first ``n`` indices are the takes a real run is granted and
        every later one is denied -- the batched mutation kernels cut each
        group at its first denied take before they allocate anything, and
        the multi-valued insert kernel reads off index ``n`` where the pool
        runs dry.
        """
        groups = np.asarray(groups, dtype=np.int64)
        sizes = np.asarray(sizes, dtype=np.int64)
        if sizes.shape != groups.shape:
            raise ValueError("groups and sizes must have matching lengths")
        if len(groups) == 0:
            return np.zeros(0, dtype=np.int64)
        codes, composite = self._validate_bulk(groups, sizes, kinds)
        order = _stable_order(composite)
        _, triggers = self._plan_spans(order, composite, groups, sizes,
                                       codes, kind)
        return np.sort(np.array([t for t, _ in triggers], dtype=np.int64))

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

    def note_failure(self, group: int) -> None:
        """Mark ``group`` sticky-failed without an allocation attempt.

        Mutation paths that postpone for a non-allocator reason must still
        poison the group, or later same-key ops would slip past the gate.
        """
        if not 0 <= group < self.n_groups:
            raise ValueError(f"group {group} out of range [0, {self.n_groups})")
        self._failed_groups.add(group)

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
