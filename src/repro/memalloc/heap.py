"""The GPU heap: resident pages plus the CPU-side segment store.

:class:`GpuHeap` is the centre of the larger-than-memory design.  It owns

* a :class:`~repro.memalloc.pages.PagePool` over a contiguous arena standing
  in for the pre-allocated GPU heap (sized, per Section IV-A, to whatever
  device memory remains after other structures),
* a *residency map* from stable segment ids to the physical slot currently
  holding each resident page, and
* the *segment store*: CPU memory receiving page bytes on eviction, indexed
  by segment id, where they stay addressable through CPU pointers forever.

Because a page's segment id is assigned when the page is taken from the pool
and never reused, the CPU address of every entry is known the moment it is
allocated -- that is what makes the paper's dual-pointer scheme possible.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable

import numpy as np

from repro.gpusim.memory import DeviceMemory
from repro.memalloc.address import NULL, decode, encode
from repro.memalloc.pages import Page, PageKind, PagePool

_SLOT = attrgetter("slot")

__all__ = ["GpuHeap"]


class GpuHeap:
    """Paged heap with eviction to a CPU-side segment store."""

    def __init__(
        self,
        heap_bytes: int,
        page_size: int,
        device_memory: DeviceMemory | None = None,
        name: str = "hashtable-heap",
    ):
        if device_memory is not None:
            device_memory.reserve(name, heap_bytes)
        self.pool = PagePool(heap_bytes, page_size)
        self.page_size = page_size
        #: segment id -> resident Page
        self._resident: dict[int, Page] = {}
        #: segment id -> evicted page bytes (a copy, CPU-side)
        self._store: dict[int, np.ndarray] = {}
        #: segment id -> (kind, group, used) of the evicted page
        self._store_meta: dict[int, tuple[PageKind, int, int]] = {}
        self._next_segment = 0
        #: bytes copied to CPU over the lifetime of the heap
        self.bytes_evicted = 0
        #: unused bytes inside evicted pages (fragmentation, Section IV-A)
        self.fragmented_bytes = 0
        #: optional :class:`repro.integrity.PageIntegrity` manager; None
        #: keeps every hook below a single attribute test (bit-identity
        #: with pre-integrity behaviour when the feature is off)
        self.integrity = None
        #: bumped whenever a page enters or leaves the arena; cached
        #: chain views (repro.core.chainview) are stamped against it
        self.residency_epoch = 0
        #: bumped by :meth:`note_write`, i.e. on every in-place entry
        #: write -- the other half of the chain-view validity stamp
        self.write_epoch = 0
        self._slot_map: np.ndarray | None = None
        self._slot_map_epoch = -1

    # ------------------------------------------------------------------
    # page lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def from_remaining(
        cls,
        device_memory: DeviceMemory,
        page_size: int,
        name: str = "hashtable-heap",
    ) -> "GpuHeap":
        """Size the heap to all remaining free device memory (Section IV-A)."""
        free = device_memory.free
        heap_bytes = (free // page_size) * page_size
        return cls(heap_bytes, page_size, device_memory, name)

    def alloc_page(self, kind: PageKind, group: int) -> Page | None:
        """Take a page from the pool, or None when the pool is exhausted."""
        slot = self.pool.take()
        if slot is None:
            return None
        page = Page(
            slot=slot,
            segment=self._next_segment,
            kind=kind,
            group=group,
            page_size=self.page_size,
        )
        self._next_segment += 1
        self._resident[page.segment] = page
        self.residency_epoch += 1
        return page

    def evict(self, pages: Iterable[Page]) -> int:
        """Copy pages to the segment store and recycle their slots.

        Returns the number of bytes that crossed to CPU memory (full pages:
        the DMA engine moves whole pages, which is also how the fragmentation
        cost of partially used pages manifests).
        """
        moved = 0
        integrity = self.integrity
        for page in pages:
            if self._resident.get(page.segment) is not page:
                raise ValueError(f"segment {page.segment} is not resident")
            src = self.pool.slot_view(page.slot)
            if integrity is None:
                self.set_stored(page.segment, src.copy())
            else:
                # checksum-carrying transfer: seal the source, copy, and
                # verify on arrival (a torn DMA is re-copied with the
                # retry cost charged at the next iteration boundary)
                self.set_stored(page.segment, integrity.checked_transfer(
                    page.segment, src
                ))
            self._store_meta[page.segment] = (page.kind, page.group, page.used)
            del self._resident[page.segment]
            self.pool.release(page.slot)
            moved += self.page_size
            self.fragmented_bytes += page.free
        if moved:
            self.residency_epoch += 1
        self.bytes_evicted += moved
        return moved

    def page_in(self, segment: int) -> Page | None:
        """Bring an evicted segment back into a free heap slot.

        Used by SEPO lookups (the read-direction analogue of eviction).
        Returns the re-resident page, or None when the pool is exhausted.
        """
        self.page_in_many((segment,))
        return self._resident.get(segment)

    def page_in_many(self, segments: Iterable[int]) -> int:
        """:meth:`page_in` for a demand list, in order, until the pool
        denies a slot: returns how many leading ``segments`` are resident
        now (one that was already counts; it is not moved).  Per page this
        is what a ``page_in`` loop did: the stored bytes verified before
        they re-enter the arena, one ``pool.take``.
        """
        integrity = self.integrity
        arena, page_size = self.pool.arena, self.page_size
        resident, store, meta = self._resident, self._store, self._store_meta
        done = 0
        for segment in segments:
            if segment not in resident:
                if segment not in store:
                    raise KeyError(f"segment {segment} was never evicted")
                if integrity is not None:
                    integrity.check_page_in(self, segment)
                slot = self.pool.take()
                if slot is None:
                    break
                kind, group, used = meta.pop(segment)
                start = slot * page_size
                arena[start : start + page_size] = self.set_stored(segment)
                if integrity is not None:
                    integrity.on_page_in(segment)
                resident[segment] = Page(
                    slot, segment, kind, group, page_size, used
                )
                self.residency_epoch += 1
            done += 1
        return done

    def evict_all(self) -> int:
        """Evict every resident page, pinned ones included."""
        return self.evict(list(self._resident.values()))

    # ------------------------------------------------------------------
    # residency and addressing
    # ------------------------------------------------------------------
    def resident_page(self, segment: int) -> Page | None:
        return self._resident.get(segment)

    def resident_slot_map(self) -> np.ndarray:
        """Segment id -> physical slot, -1 when not resident.

        The array form of the residency map, for bulk address
        translation in the chain-view materializer; rebuilt lazily and
        cached per :attr:`residency_epoch`.
        """
        if (
            self._slot_map is not None
            and self._slot_map_epoch == self.residency_epoch
        ):
            return self._slot_map
        m = np.full(max(self._next_segment, 1), -1, dtype=np.int64)
        for seg, page in self._resident.items():
            m[seg] = page.slot
        self._slot_map = m
        self._slot_map_epoch = self.residency_epoch
        return m

    def is_resident(self, segment: int) -> bool:
        return segment in self._resident

    def gpu_addr(self, cpu_addr: int) -> int:
        """Translate a CPU address to the current GPU address, or NULL."""
        if cpu_addr == NULL:
            return NULL
        segment, offset = decode(cpu_addr, self.page_size)
        page = self._resident.get(segment)
        if page is None:
            return NULL
        return encode(page.slot, offset, self.page_size)

    def cpu_addr(self, page: Page, offset: int) -> int:
        return encode(page.segment, offset, self.page_size)

    # ------------------------------------------------------------------
    # the segment store
    # ------------------------------------------------------------------
    def set_stored(
        self, segment: int, data: np.ndarray | None = None
    ) -> np.ndarray | None:
        """The one writer of the segment store: make ``data`` the stored
        bytes of ``segment``, or with ``None`` take them out (and return
        them)."""
        if data is None:
            return self._store.pop(segment)
        self._store[segment] = data
        return None

    # ------------------------------------------------------------------
    # data access
    # ------------------------------------------------------------------
    def resolve(self, cpu_addr: int) -> tuple[np.ndarray, int]:
        """Return (page buffer, offset) for an address, wherever it lives.

        Resident pages resolve into the GPU arena (a view); evicted pages
        resolve into their CPU segment-store copy.
        """
        segment, offset = decode(cpu_addr, self.page_size)
        page = self._resident.get(segment)
        if page is not None:
            return self.pool.slot_view(page.slot), offset
        if self.integrity is not None:
            self.integrity.check_read(self, segment)
        try:
            return self._store[segment], offset
        except KeyError:
            raise KeyError(
                f"segment {segment} is neither resident nor evicted"
            ) from None

    def segment_view(self, segment: int) -> np.ndarray:
        """The bytes of a segment, resident or evicted."""
        page = self._resident.get(segment)
        if page is not None:
            return self.pool.slot_view(page.slot)
        if self.integrity is not None:
            self.integrity.check_read(self, segment)
        return self._store[segment]

    def cpu_image(self) -> bytes:
        """The whole CPU side as one read-only buffer in which a CPU
        address *is* the byte offset: every segment ever allocated, joined
        in id order (one table-sized copy).

        This is the dual-pointer payoff in its most regular form: the
        finished table's bulk reader follows ``*_cpu`` pointers through it
        with plain gathers and no residency lookups.  Segments are read as
        :meth:`segment_view` reads them, so with integrity on each stored
        one is verified exactly once, in id order, before a single pointer
        is read out of it; the join list itself is built by C-level maps,
        with no Python frame per segment.
        """
        resident = self._resident
        if self.integrity is not None:
            check = self.integrity.check_read
            for seg in range(self._next_segment):
                if seg not in resident:
                    check(self, seg)
        rows = self.pool.arena.reshape(-1, self.page_size)
        parts = dict(self._store)
        parts.update(
            zip(resident, map(rows.__getitem__, map(_SLOT, resident.values())))
        )
        return b"".join(map(parts.__getitem__, range(self._next_segment)))

    def note_write(self, segment: int) -> None:
        """Record an in-place write to a *resident* page.

        Every write path that bypasses the allocator (tombstone flags,
        in-place combines, value-head splices, chain relinks) must call
        this so the integrity layer can invalidate the page's sealed CRC.
        Always bumps :attr:`write_epoch` (chain-view invalidation) even
        when integrity is off; the CRC part is a no-op when integrity is
        off or the page was never sealed.
        """
        self.write_epoch += 1
        if self.integrity is not None:
            self.integrity.note_write(segment)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def resident_pages(self) -> list[Page]:
        return list(self._resident.values())

    @property
    def resident_bytes(self) -> int:
        return len(self._resident) * self.page_size

    @property
    def stored_bytes(self) -> int:
        return len(self._store) * self.page_size

    @property
    def total_table_bytes(self) -> int:
        """Footprint of the table so far, resident + evicted."""
        return self.resident_bytes + self.stored_bytes
