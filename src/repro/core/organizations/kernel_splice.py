"""The multi-valued residency transitions as column operations: the
GPU-side fields of key entries that stayed resident or were paged in."""

from __future__ import annotations

import numpy as np

from repro.core import entries as E
from repro.core.chainview import walk_cpu_image
from repro.core.organizations.kernel_front import _run_starts
from repro.memalloc.address import NULL
from repro.memalloc.pages import PageKind


def _splice_resident(table) -> int:
    """:func:`.oracle.splice_chains` in bulk: the CPU chains of the
    resident buckets are walked once, through one image of the CPU side
    (with integrity on, every stored segment is verified
    exactly once, before a word is written), and the rows on resident
    segments are each chain's GPU chain, in order.  One scatter points
    their ``next_gpu`` at the next row of the chain, one clears their
    ``vhead_gpu``.  Returns the rows walked."""
    heap, buckets = table.heap, table.buckets
    bs = buckets.resident_buckets()
    if not len(bs):
        return 0
    image = np.frombuffer(heap.cpu_image(), dtype=np.uint8)
    (addr, *_), counts = walk_cpu_image(image, buckets.head_cpu[bs], "key")
    page_size = heap.page_size
    seg = addr // page_size
    slot = heap.resident_slot_map()[seg]
    stayed = np.flatnonzero(slot >= 0)
    buckets.head_gpu[bs] = NULL
    if len(stayed):
        chain = np.repeat(np.arange(len(bs)), counts)[stayed]
        gpu = addr[stayed] + (slot[stayed] - seg[stayed]) * page_size
        first = _run_starts(chain)
        w64 = heap.pool.arena.view(np.int64)
        w64[gpu >> 3] = np.concatenate(
            (np.where(first[1:], NULL, gpu[1:]), [NULL]))
        w64[(gpu >> 3) + 2] = NULL
        buckets.head_gpu[bs[chain[first]]] = gpu[first]
        for s in np.unique(seg[stayed]).tolist():
            heap.note_write(s)
    return len(addr)


def _readmit_key_pages(table, segments) -> None:
    """The page-in rule, for the key pages among ``segments`` that a
    lookup paged in and left resident: every ``vhead_gpu`` is ``NULL``,
    and ``PENDING`` stands where the pin map counts it -- a segment the
    map lists pins its page again, on any other the bits belong to a pass
    that is over (a forced full eviction cleared the map) and go.
    ``next_gpu`` stays: no GPU chain reaches a paged-in entry before the
    next boundary splices it in.  Entries lie back to back from the page
    start, so all pages step to their next entry together."""
    heap = table.heap
    pages = [
        p for p in map(heap.resident_page, segments)
        if p is not None and p.kind is PageKind.KEY
    ]
    if not pages:
        return
    arena, page_size = heap.pool.arena, heap.page_size
    counted = np.array([p.segment in table.org._pin_counts for p in pages])
    cur = np.array([p.slot * page_size for p in pages], dtype=np.int64)
    end = cur + np.array([p.used for p in pages], dtype=np.int64)
    for page, live in zip(pages, counted.tolist()):
        page.pinned = live
        heap.note_write(page.segment)
    rows, stale = [], []
    while len(cur):
        rows.append(cur)
        stale.append(cur[~counted])
        klen = E.gather_field(arena, cur + 32, "<u4").astype(np.int64)
        cur = cur + E.key_entry_sizes_bulk(klen)
        more = cur < end
        cur, end, counted = cur[more], end[more], counted[more]
    rows, stale = np.concatenate(rows), np.concatenate(stale)
    E.scatter_field(arena, rows + 16, np.full(len(rows), NULL, dtype=np.int64))
    flags = E.gather_field(arena, stale + 36, "<u4")
    E.scatter_field(arena, stale + 36, flags & ~np.uint32(E.FLAG_PENDING))
