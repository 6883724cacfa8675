"""Heap pages and the free-page pool.

The heap arena is divided into fixed-size pages.  Within a page, allocation
is a bump pointer: hash-table entries are never freed individually -- whole
pages are reclaimed at once when the heap is evicted, exactly as in the
paper, where the end-of-iteration copyback "frees up the heap ... adding the
pages back to the memory pool".

Pages carry a :class:`PageKind` because the multi-valued bucket organization
stores keys and values on *separate* pages (Section IV-B), which is what
allows value pages to be evicted while key pages with pending keys are
retained (Section IV-C).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

__all__ = ["Page", "PageKind", "PagePool", "KIND_CODES", "KIND_BY_CODE"]


class PageKind(Enum):
    """What a page stores; drives per-kind eviction policies."""

    GENERIC = "generic"  # basic & combining methods: keys and values together
    KEY = "key"  # multi-valued method: key entries
    VALUE = "value"  # multi-valued method: value-list nodes


#: Stable integer codes for per-request kind arrays in bulk allocation
#: (numpy arrays cannot hold PageKind members without object dtype).
KIND_CODES = {PageKind.GENERIC: 0, PageKind.KEY: 1, PageKind.VALUE: 2}
KIND_BY_CODE = (PageKind.GENERIC, PageKind.KEY, PageKind.VALUE)


@dataclass
class Page:
    """A page currently resident in the heap arena."""

    slot: int  # physical slot index in the arena
    segment: int  # stable segment id (eventual CPU location)
    kind: PageKind
    group: int  # bucket group this page serves
    page_size: int
    used: int = 0  # bump-allocation watermark
    #: set for multi-valued KEY pages holding a key with un-inserted values
    pinned: bool = field(default=False)

    @property
    def free(self) -> int:
        return self.page_size - self.used

    def alloc(self, nbytes: int) -> int | None:
        """Bump-allocate ``nbytes``; returns the offset or None if full."""
        if nbytes <= 0:
            raise ValueError(f"allocation size must be positive: {nbytes}")
        if nbytes > self.page_size:
            raise ValueError(
                f"allocation of {nbytes} bytes exceeds page size {self.page_size}"
            )
        if nbytes > self.free:
            return None
        offset = self.used
        self.used += nbytes
        return offset


class PagePool:
    """Owns the heap arena and hands out physical page slots.

    The arena is a single contiguous uint8 buffer, as a real GPU heap would
    be; views into it are handed around as numpy slices (no copies).  Pages
    are whole 8-byte words, so every 8-aligned entry on a page is 8-aligned
    in the arena and every reader may use int64/uint32 views of it.
    """

    def __init__(self, heap_bytes: int, page_size: int):
        if page_size <= 0 or page_size % 8:
            raise ValueError(
                f"page size must be a positive multiple of 8: {page_size}"
            )
        if heap_bytes < page_size:
            raise ValueError(
                f"heap of {heap_bytes} bytes cannot hold a single "
                f"{page_size}-byte page"
            )
        self.page_size = page_size
        self.n_slots = heap_bytes // page_size
        self.arena = np.zeros(self.n_slots * page_size, dtype=np.uint8)
        #: physical slots retired by the integrity layer (repeated CRC
        #: failures suggest a bad region of device memory); never reissued
        self.quarantined: set[int] = set()
        #: slots flagged for retirement that are still hosting a live page;
        #: they move to :attr:`quarantined` at their next release
        self._retire_pending: set[int] = set()
        # LIFO reuse keeps the working set of slots small.
        self.set_free_slots(range(self.n_slots - 1, -1, -1))

    def set_free_slots(self, slots) -> None:
        """Replace the free stack (its last slot is the next one taken)."""
        self._free_slots: list[int] = [int(s) for s in slots]
        #: per slot, 1 while it is on the stack: :meth:`release` and
        #: :meth:`quarantine_slot` ask this instead of scanning the stack
        self._is_free = bytearray(self.n_slots)
        for s in self._free_slots:
            self._is_free[s] = 1

    @property
    def n_free(self) -> int:
        return len(self._free_slots)

    @property
    def n_used(self) -> int:
        return self.n_slots - self.n_free

    def take(self) -> int | None:
        """Pop a free slot (zeroed), or None if the pool is exhausted.

        Zeroing makes page bytes canonical: without it, recycled slots
        leak a previous tenant's bytes into the new page's padding and
        post-watermark region, and a checkpoint/resume cycle (which starts
        from a fresh arena) could never be byte-identical to the
        uninterrupted run it must reproduce.
        """
        if not self._free_slots:
            return None
        slot = self._free_slots.pop()
        self._is_free[slot] = 0
        start = slot * self.page_size
        self.arena[start : start + self.page_size] = 0
        return slot

    def can_take(self, k: int) -> bool:
        """May ``n_free`` be believed for the next ``k`` takes?  Probes
        whether ``k`` successive takes would succeed, without observably
        changing the pool.

        The batched multi-valued insert kernel plans a whole batch around
        ``n_free`` (its first ``n_free`` page takes are granted, the next
        one runs the pool dry), which holds for the stock pool and for
        every real exhaustion.  A fault injector may deny takes while
        ``n_free`` still looks healthy; going through :meth:`take` detects
        that, and the kernel then leaves the batch to the scalar loop --
        the one pool-pressure case that still goes there.  Slots are taken
        for real and released in reverse order, restoring the exact LIFO
        stack; zeroing free slots is invisible (their bytes are garbage by
        contract, and a real take zeroes again).
        """
        if type(self).take is PagePool.take and "take" not in self.__dict__:
            # stock pool: a free slot IS a successful take (single-threaded
            # invariant, see faults.py), so probing is a pure count check --
            # no per-slot zeroing of pages the caller may never allocate
            return len(self._free_slots) >= k
        taken = []
        while len(taken) < k:
            s = self.take()
            if s is None:
                break
            taken.append(s)
        for s in reversed(taken):
            self.release(s)
        return len(taken) == k

    def release(self, slot: int) -> None:
        """Return a slot to the pool (its bytes are considered garbage)."""
        if not 0 <= slot < self.n_slots:
            raise ValueError(f"slot {slot} out of range")
        if self._is_free[slot]:
            raise ValueError(f"slot {slot} double-released")
        if slot in self.quarantined:
            raise ValueError(f"slot {slot} is quarantined")
        if slot in self._retire_pending:
            self._retire_pending.discard(slot)
            self.quarantined.add(slot)
            return
        self._free_slots.append(slot)
        self._is_free[slot] = 1

    def quarantine_slot(self, slot: int) -> None:
        """Retire a physical slot so it is never handed out again.

        A free slot retires immediately; a slot hosting a live page keeps
        serving it (in-place repair preserves incoming GPU pointers) and
        retires when the page is next evicted or dropped.  The live entries
        are thereby *relocated*: eviction copies them to the CPU segment
        store, and any later page-in lands on a different physical slot.
        """
        if not 0 <= slot < self.n_slots:
            raise ValueError(f"slot {slot} out of range")
        if slot in self.quarantined:
            return
        if self._is_free[slot]:
            self._free_slots.remove(slot)
            self._is_free[slot] = 0
            self.quarantined.add(slot)
        else:
            self._retire_pending.add(slot)

    def slot_view(self, slot: int) -> np.ndarray:
        """The arena bytes backing ``slot`` (a view, not a copy)."""
        if not 0 <= slot < self.n_slots:
            raise ValueError(f"slot {slot} out of range")
        start = slot * self.page_size
        return self.arena[start : start + self.page_size]
