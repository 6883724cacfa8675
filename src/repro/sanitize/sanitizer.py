"""Arena sanitizer: structural invariants of a live heap + hash table.

The paper's correctness story rests on invariants the hot paths trust
implicitly: dual (GPU, CPU) pointers stay consistent across evictions
(Section III-B), bucket chains terminate, postponed records are never
silently dropped, and every allocated byte stays reachable.  This module
makes those invariants machine-checkable.  It is deliberately *white-box*
-- it reads the private residency / store / free-list state of
:class:`~repro.memalloc.heap.GpuHeap`, :class:`~repro.memalloc.pages.PagePool`
and :class:`~repro.memalloc.allocator.BucketGroupAllocator` -- because a
sanitizer that only sees the public API cannot distinguish "empty" from
"leaked".

Checked invariants
------------------

Heap / pool structure (:func:`check_heap`):

* every pool slot is either free or backs exactly one resident page
  (minus slots a registered fault injector is deliberately holding),
* the free list holds no duplicates and no out-of-range slots,
* segment ids are unique, below the heap's segment counter, and the
  resident and evicted sets are disjoint,
* bump watermarks stay within the page size, and evicted segment copies
  are exactly one page long.

Table reachability (:func:`check_table`), on top of the heap checks:

* every CPU chain walk (bucket chains, and value lists for the
  multi-valued organization) terminates without cycles, and every hop
  resolves to a resident page or an evicted segment copy,
* every reachable entry's extent lies inside its page's bump watermark,
  and no two extents overlap (each extent is reachable exactly once),
* every reachable entry, key entry and value node starts on an 8-byte
  boundary, which the word-view bulk readers assume,
* CPU addresses strictly decrease along every bucket chain and every
  value list: entries are only ever prepended and a (group, kind) fills
  its pages in segment order, so a walk moves from newer segments to
  older ones -- the premise of the lookup's newest-first page-in sweep
  (:mod:`repro.core.lookup`).  Only a key entry's jump to the head of its
  value list may go upward,
* every GPU chain is a *subsequence* of the same bucket's CPU chain whose
  hops all land on resident slots (the dual-pointer contract),
* every page that was ever taken hosts at least one reachable extent
  (no leaked pages),
* tombstoned entries count as reachable (never a leak) but dead (never
  live data), and the dead census must equal the allocator's reclaim
  ledger (``entries_tombstoned`` / ``bytes_tombstoned``),
* the allocator's byte/success counters reconcile with the extent census,
  and each organization's :meth:`~repro.core.organizations.Organization.
  reconcile_tally` hook agrees with the census (e.g. the basic method must
  have exactly ``total_inserted`` reachable entries -- an acknowledged
  record that is not reachable was silently dropped).

Levels
------

The ``sanitize`` knob accepted by tables, drivers and baselines takes one
of :data:`LEVELS`; :func:`resolve_level` also honours the
:data:`ENV_VAR` (``REPRO_SANITIZE``) environment override so CI can force
``paranoid`` without touching call sites.  ``"off"`` costs one string
compare per hook -- the hot path stays unmeasurably close to free.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.core import entries as E
from repro.memalloc.address import NULL
from repro.memalloc.pages import PageKind

__all__ = [
    "ENV_VAR",
    "LEVELS",
    "SanitizerError",
    "Violation",
    "SanitizeReport",
    "resolve_level",
    "should_check",
    "check_heap",
    "check_table",
    "check_shard_placement",
]

#: valid sanitize levels, in increasing strictness
LEVELS = ("off", "end", "iteration", "paranoid")
#: environment override consulted when a knob is left unset
ENV_VAR = "REPRO_SANITIZE"

_LEVEL_RANK = {lvl: i for i, lvl in enumerate(LEVELS)}
#: minimum level at which each hook point fires
_POINT_RANK = {"end": 1, "iteration": 2, "batch": 3}


def resolve_level(level: str | None) -> str:
    """Validate a sanitize level, falling back to ``$REPRO_SANITIZE``."""
    if level is None:
        level = os.environ.get(ENV_VAR) or "off"
    if level not in LEVELS:
        raise ValueError(f"sanitize level must be one of {LEVELS}: {level!r}")
    return level


def should_check(level: str, point: str) -> bool:
    """Does ``level`` require a check at hook ``point``?

    Points: ``"end"`` (run completed), ``"iteration"`` (end-of-iteration
    rearrangement done), ``"batch"`` (after every table call; a run of
    insert chunks joined into one call is one).
    """
    return _LEVEL_RANK[level] >= _POINT_RANK[point]


@dataclass
class Violation:
    """One detected invariant violation, with a pinpointing message."""

    kind: str  # short machine-matchable category
    message: str  # human-readable, names the bucket/segment/address

    def __str__(self) -> str:
        return f"[{self.kind}] {self.message}"


class SanitizerError(RuntimeError):
    """Raised when a sanitize pass finds violations."""

    def __init__(self, violations: list[Violation]):
        self.violations = violations
        lines = "\n  ".join(str(v) for v in violations[:20])
        extra = len(violations) - 20
        if extra > 0:
            lines += f"\n  ... and {extra} more"
        super().__init__(
            f"sanitizer found {len(violations)} invariant violation(s):\n  {lines}"
        )


@dataclass
class SanitizeReport:
    """Census gathered by a full table walk (also useful in tests)."""

    violations: list[Violation] = field(default_factory=list)
    #: reachable extents: (segment, offset) -> (size, what)
    extents: dict[tuple[int, int], tuple[int, str]] = field(default_factory=dict)
    n_entries: int = 0  # generic or key entries reachable via bucket chains
    n_value_nodes: int = 0  # multi-valued value-list nodes
    reachable_bytes: int = 0
    #: tombstoned entries: reachable (not leaks) but dead (not live data).
    #: The allocator's reclaim ledger must agree with this census.
    n_dead_entries: int = 0
    dead_bytes: int = 0

    def flag(self, kind: str, message: str) -> None:
        self.violations.append(Violation(kind, message))

    @property
    def ok(self) -> bool:
        return not self.violations


# ----------------------------------------------------------------------
# heap / pool structure
# ----------------------------------------------------------------------
def check_heap(heap) -> SanitizeReport:
    """Verify pool/residency/store structure (no chain knowledge needed);
    raises :class:`SanitizerError` on any violation."""
    report = SanitizeReport()
    _check_heap(heap, report)
    if report.violations:
        raise SanitizerError(report.violations)
    return report


def _check_heap(heap, report: SanitizeReport) -> None:
    pool = heap.pool
    n_slots = pool.n_slots
    free = pool._free_slots
    free_set = set(free)
    if len(free_set) != len(free):
        report.flag("pool-free-dup", "free list contains duplicate slots")
    for s in free_set:
        if not 0 <= s < n_slots:
            report.flag("pool-free-range", f"free slot {s} out of range")

    resident = heap._resident
    slot_owner: dict[int, int] = {}
    for seg, page in resident.items():
        if page.segment != seg:
            report.flag(
                "residency-key",
                f"residency map key {seg} disagrees with page.segment "
                f"{page.segment}",
            )
        if not 0 <= page.slot < n_slots:
            report.flag(
                "page-slot-range",
                f"segment {seg} claims out-of-range slot {page.slot}",
            )
        elif page.slot in free_set:
            report.flag(
                "slot-free-and-resident",
                f"slot {page.slot} is on the free list but hosts resident "
                f"segment {seg}",
            )
        if page.slot in slot_owner:
            report.flag(
                "slot-shared",
                f"slot {page.slot} hosts segments {slot_owner[page.slot]} "
                f"and {seg}",
            )
        slot_owner[page.slot] = seg
        if not 0 <= page.used <= page.page_size:
            report.flag(
                "watermark-range",
                f"segment {seg} watermark {page.used} outside "
                f"[0, {page.page_size}]",
            )
        if page.page_size != heap.page_size:
            report.flag(
                "page-size",
                f"segment {seg} page size {page.page_size} != heap "
                f"{heap.page_size}",
            )

    # Fault injectors may deliberately hold slots hostage ("another
    # tenant"); they must register them so leak accounting stays exact.
    # Slots the integrity layer retired after repeated CRC failures are
    # likewise out of circulation on purpose, not leaked.
    exempt = set(getattr(heap, "fault_reserved_slots", ()))
    exempt |= pool.quarantined
    accounted = len(free_set) + len(slot_owner) + len(exempt - set(slot_owner))
    if accounted != n_slots:
        report.flag(
            "slot-leak",
            f"{n_slots} slots but {len(free_set)} free + {len(slot_owner)} "
            f"resident + {len(exempt)} fault-held/quarantined = {accounted}",
        )

    store, meta = heap._store, heap._store_meta
    if set(store) != set(meta):
        report.flag(
            "store-meta",
            f"store segments {sorted(set(store) ^ set(meta))} lack matching "
            "metadata",
        )
    overlap = set(store) & set(resident)
    if overlap:
        report.flag(
            "resident-and-stored",
            f"segments {sorted(overlap)} are both resident and evicted",
        )
    for seg, buf in store.items():
        if len(buf) != heap.page_size:
            report.flag(
                "store-size",
                f"evicted segment {seg} copy is {len(buf)} bytes, expected "
                f"{heap.page_size}",
            )
        used = meta.get(seg, (None, None, 0))[2]
        if not 0 <= used <= heap.page_size:
            report.flag(
                "watermark-range",
                f"evicted segment {seg} watermark {used} outside "
                f"[0, {heap.page_size}]",
            )
    for seg in set(store) | set(resident):
        if seg >= heap._next_segment or seg < 0:
            report.flag(
                "segment-counter",
                f"segment {seg} outside the issued range "
                f"[0, {heap._next_segment})",
            )

    _check_integrity_seals(heap, report)


def _check_integrity_seals(heap, report: SanitizeReport) -> None:
    """Integrity self-check: resident seals must match the arena bytes.

    A resident page's seal (``resident_clean``) is only valid while no
    in-place write has landed since it was sealed; every write path must
    call :meth:`GpuHeap.note_write` to drop it.  A seal that disagrees
    with the actual bytes therefore means a write path forgot its
    ``note_write`` -- the exact bug class that would later surface as a
    false-positive "corruption" during a scrub.  Stored-segment seals are
    not swept here: at-rest damage is the integrity layer's to detect and
    attribute, which it does -- for the sanitizer as for any reader -- on
    the verifying read every chain walk makes (:meth:`_Arena.locate`).
    """
    integrity = heap.integrity
    if integrity is None:
        return
    for seg, sealed in integrity.resident_clean.items():
        page = heap._resident.get(seg)
        if page is None:
            report.flag(
                "integrity-stale-seal",
                f"segment {seg} has a resident seal but is not resident",
            )
            continue
        actual = zlib.crc32(heap.pool.slot_view(page.slot))
        if actual != sealed:
            report.flag(
                "integrity-stale-seal",
                f"resident segment {seg} bytes (crc {actual:#010x}) "
                f"disagree with its seal ({sealed:#010x}): a write path "
                "is missing a note_write call",
            )


# ----------------------------------------------------------------------
# table reachability
# ----------------------------------------------------------------------
class _Arena:
    """Read-side view of every segment, resident or evicted."""

    def __init__(self, heap):
        self.heap = heap
        self.page_size = heap.page_size

    def locate(self, seg: int):
        """Returns (buffer, watermark) or None for an unknown segment.

        With integrity on, a stored segment is read the way the table
        reads it -- through the verifying :meth:`GpuHeap.segment_view` --
        so at-rest damage the integrity layer can repair is repaired (and
        attributed to it) before a pointer is followed out of the stale
        bytes, and unrepairable damage surfaces as its
        :class:`~repro.integrity.CorruptionError`, not as a cascade of
        dangling-pointer reports.
        """
        heap = self.heap
        page = heap._resident.get(seg)
        if page is not None:
            return heap.pool.slot_view(page.slot), page.used
        if seg in heap._store:
            return heap.segment_view(seg), heap._store_meta[seg][2]
        return None


def check_table(table) -> SanitizeReport:
    """Full sanitize pass over a :class:`~repro.core.hashtable.GpuHashTable`;
    raises :class:`SanitizerError` on any violation."""
    report = SanitizeReport()
    _check_heap(table.heap, report)
    arena = _Arena(table.heap)

    from repro.core.organizations import MultiValuedOrganization

    multivalued = isinstance(table.org, MultiValuedOrganization)
    if multivalued:
        _walk_multivalued(table, arena, report)
    else:
        _walk_generic(table, arena, report)
    _check_overlaps(table, report)
    _check_page_leaks(table, report)
    _reconcile_tallies(table, report)
    if not report.violations:
        # the SoA cross-check re-parses whole chains and is only
        # meaningful (or safe: garbage headers imply garbage lengths)
        # once the structural walk above has vouched for every extent
        _check_chain_views(table, report)
    if report.violations:
        raise SanitizerError(report.violations)
    return report


def _claim(
    report: SanitizeReport,
    arena: _Arena,
    addr: int,
    size: int,
    what: str,
) -> bool:
    """Record one reachable extent; False ends the current walk."""
    seg, off = divmod(addr, arena.page_size)
    prior = report.extents.get((seg, off))
    if prior is not None:
        report.flag(
            "chain-cycle",
            f"{what} at segment {seg} offset {off} reached twice "
            f"(first as {prior[1]}): cycle or cross-linked chains",
        )
        return False
    report.extents[(seg, off)] = (size, what)
    report.reachable_bytes += size
    return True


def _resolve(
    report: SanitizeReport, arena: _Arena, addr: int, what: str
):
    """Locate an address; flags dangling pointers and header overruns."""
    if addr < 0:
        report.flag("bad-address", f"{what} holds negative address {addr}")
        return None
    seg, off = divmod(addr, arena.page_size)
    located = arena.locate(seg)
    if located is None:
        report.flag(
            "dangling-pointer",
            f"{what} points at segment {seg} offset {off}, which is "
            "neither resident nor evicted",
        )
        return None
    return seg, off, located[0], located[1]


def _check_extent(
    report, what: str, seg: int, off: int, size: int, used: int
) -> bool:
    if off + size > used:
        report.flag(
            "extent-beyond-watermark",
            f"{what} occupies [{off}, {off + size}) of segment {seg} but "
            f"only [0, {used}) was ever allocated: corrupt offset or length",
        )
        return False
    return True


def _check_on_word(report, what: str, addr: int) -> None:
    """An entry or value node must start on an 8-byte boundary: sizes are
    rounded up to whole words and pages are whole words, and the bulk
    readers gather its header through int64 / uint32 views of the arena."""
    if addr % 8:
        report.flag(
            "entry-misaligned",
            f"{what} does not start on an 8-byte boundary: the word-view "
            "readers would gather its header out of the wrong bytes",
        )


def _check_descends(report, what: str, addr: int, next_cpu: int) -> None:
    """A hop along ``next_cpu`` / ``vnext_cpu`` must lead to an older
    (lower) CPU address: every link is written once, to what was the head
    when the entry was prepended."""
    if next_cpu != NULL and next_cpu >= addr:
        report.flag(
            "chain-order",
            f"{what} links to address {next_cpu}, which is not older than "
            "itself: chains must run strictly downward in CPU address",
        )


def _walk_generic(table, arena: _Arena, report: SanitizeReport) -> None:
    """Census of basic/combining tables: one chain of entries per bucket."""
    heap = table.heap
    head_cpu = table.buckets.head_cpu
    for b in np.flatnonzero(head_cpu != NULL).tolist():
        addr = int(head_cpu[b])
        chain_cpu: list[int] = []
        while addr != NULL:
            what = f"bucket {b} chain entry at address {addr}"
            loc = _resolve(report, arena, addr, what)
            if loc is None:
                break
            seg, off, buf, used = loc
            if off + E.ENTRY_HEADER > len(buf):
                report.flag(
                    "header-overrun",
                    f"{what}: header crosses the page boundary",
                )
                break
            _check_on_word(report, what, addr)
            _, next_cpu, klen, vlen = E.read_entry_header(buf, off)
            size = E.entry_size(klen, vlen)
            if not _check_extent(report, what, seg, off, size, used):
                break
            if not _claim(report, arena, addr, size, what):
                break
            report.n_entries += 1
            if E.entry_flags(buf, off) & E.GFLAG_TOMBSTONE:
                report.n_dead_entries += 1
                report.dead_bytes += size
            chain_cpu.append(addr)
            _check_descends(report, what, addr, next_cpu)
            addr = next_cpu
        _check_gpu_chain(
            table, arena, report, b, chain_cpu,
            read_next_gpu=lambda buf, off: E.read_entry_header(buf, off)[0],
        )


def _walk_multivalued(table, arena: _Arena, report: SanitizeReport) -> None:
    """Census of multi-valued tables: key chains plus per-key value lists."""
    heap = table.heap
    head_cpu = table.buckets.head_cpu
    org = table.org
    pending_per_seg: dict[int, int] = {}
    for b in np.flatnonzero(head_cpu != NULL).tolist():
        addr = int(head_cpu[b])
        chain_cpu: list[int] = []
        while addr != NULL:
            what = f"bucket {b} key entry at address {addr}"
            loc = _resolve(report, arena, addr, what)
            if loc is None:
                break
            seg, off, buf, used = loc
            if off + E.KEY_ENTRY_HEADER > len(buf):
                report.flag(
                    "header-overrun", f"{what}: header crosses the page boundary"
                )
                break
            _check_on_word(report, what, addr)
            hdr = E.read_key_entry_header(buf, off)
            next_cpu, vhead_gpu, vhead_cpu, klen, flags = (
                hdr[1], hdr[2], hdr[3], hdr[4], hdr[5]
            )
            size = E.key_entry_size(klen)
            if not _check_extent(report, what, seg, off, size, used):
                break
            if not _claim(report, arena, addr, size, what):
                break
            report.n_entries += 1
            if flags & E.FLAG_TOMBSTONE:
                report.n_dead_entries += 1
                report.dead_bytes += size
            chain_cpu.append(addr)
            if flags & E.FLAG_PENDING and heap._resident.get(seg) is not None:
                pending_per_seg[seg] = pending_per_seg.get(seg, 0) + 1
            value_cpu = _walk_value_list(table, arena, report, b, addr, vhead_cpu)
            # vhead_gpu is only live while the key entry itself is resident:
            # eviction deliberately leaves stale GPU pointers in the CPU copy
            # (the GPU never reads evicted entries); _splice_chains clears
            # vhead_gpu on every *retained* key, a lookup on paged-in ones.
            if vhead_gpu != NULL and heap._resident.get(seg) is not None:
                _check_gpu_addr_in(
                    table, arena, report, vhead_gpu, value_cpu,
                    f"bucket {b} key entry {addr} vhead_gpu",
                )
            _check_descends(report, what, addr, next_cpu)
            addr = next_cpu
        _check_gpu_chain(
            table, arena, report, b, chain_cpu,
            read_next_gpu=lambda buf, off: E.read_key_entry_header(buf, off)[0],
        )

    # pin accounting: PENDING flags on resident key pages must agree with
    # the organization's pin counters and the pages' pinned bits.
    counts = dict(org._pin_counts)
    for seg, n_pending in pending_per_seg.items():
        if counts.pop(seg, 0) != n_pending:
            report.flag(
                "pin-count",
                f"segment {seg} hosts {n_pending} PENDING key(s) but the "
                f"organization tracks {org._pin_counts.get(seg, 0)}",
            )
        page = heap._resident.get(seg)
        if page is not None and not page.pinned:
            report.flag(
                "pin-flag",
                f"segment {seg} hosts PENDING key(s) but its page is not "
                "pinned: it would be evicted and the postponed values lost",
            )
    for seg, n in counts.items():
        if n > 0 and heap._resident.get(seg) is not None:
            report.flag(
                "pin-count",
                f"organization tracks {n} pending key(s) on segment {seg} "
                "but none are flagged in the arena",
            )


def _walk_value_list(
    table, arena: _Arena, report: SanitizeReport, b: int, key_addr: int,
    vhead_cpu: int,
) -> list[int]:
    addrs: list[int] = []
    addr = vhead_cpu
    while addr != NULL:
        what = (
            f"value node at address {addr} (bucket {b}, key entry {key_addr})"
        )
        loc = _resolve(report, arena, addr, what)
        if loc is None:
            break
        seg, off, buf, used = loc
        if off + E.VALUE_NODE_HEADER > len(buf):
            report.flag(
                "header-overrun", f"{what}: header crosses the page boundary"
            )
            break
        _check_on_word(report, what, addr)
        _, vnext_cpu, vlen = E.read_value_node_header(buf, off)
        size = E.value_node_size(vlen)
        if not _check_extent(report, what, seg, off, size, used):
            break
        if not _claim(report, arena, addr, size, what):
            break
        report.n_value_nodes += 1
        addrs.append(addr)
        _check_descends(report, what, addr, vnext_cpu)
        addr = vnext_cpu
    return addrs


# ----------------------------------------------------------------------
# GPU-side (dual-pointer) consistency
# ----------------------------------------------------------------------
def _gpu_to_cpu(table, gaddr: int) -> int | None:
    """Translate a GPU (slot-based) address to its CPU address, if valid."""
    page_size = table.heap.page_size
    slot, off = divmod(gaddr, page_size)
    for page in table.heap._resident.values():
        if page.slot == slot:
            return page.segment * page_size + off
    return None


def _check_gpu_chain(table, arena, report, b: int, chain_cpu, read_next_gpu):
    """The GPU chain must be an ordered subsequence of the CPU chain whose
    hops all land on resident slots (Section III-B)."""
    gaddr = int(table.buckets.head_gpu[b])
    if gaddr == NULL:
        return
    if not chain_cpu:
        report.flag(
            "gpu-head-orphan",
            f"bucket {b} has a GPU head but an empty CPU chain",
        )
        return
    positions = {addr: i for i, addr in enumerate(chain_cpu)}
    cursor = -1
    hops = 0
    while gaddr != NULL:
        hops += 1
        if hops > len(chain_cpu) + 1:
            report.flag(
                "gpu-chain-cycle",
                f"bucket {b} GPU chain exceeds the {len(chain_cpu)}-entry "
                "CPU chain: cycle",
            )
            return
        cpu_addr = _gpu_to_cpu(table, gaddr)
        if cpu_addr is None:
            report.flag(
                "gpu-dangling",
                f"bucket {b} GPU chain hop {gaddr} lands on a slot with no "
                "resident page (stale pointer survived an eviction)",
            )
            return
        pos = positions.get(cpu_addr)
        if pos is None:
            report.flag(
                "gpu-cpu-divergence",
                f"bucket {b} GPU chain visits CPU address {cpu_addr}, which "
                "the CPU chain never reaches",
            )
            return
        if pos <= cursor:
            report.flag(
                "gpu-order",
                f"bucket {b} GPU chain visits CPU position {pos} after "
                f"position {cursor}: not a subsequence of the CPU chain",
            )
            return
        cursor = pos
        seg, off = divmod(cpu_addr, arena.page_size)
        buf, _ = arena.locate(seg)
        gaddr = read_next_gpu(buf, off)


def _check_gpu_addr_in(table, arena, report, gaddr, cpu_addrs, what):
    cpu_addr = _gpu_to_cpu(table, gaddr)
    if cpu_addr is None:
        report.flag(
            "gpu-dangling",
            f"{what} = {gaddr} lands on a slot with no resident page",
        )
    elif cpu_addr not in cpu_addrs:
        report.flag(
            "gpu-cpu-divergence",
            f"{what} resolves to CPU address {cpu_addr}, which is not on "
            "the corresponding CPU value list",
        )


# ----------------------------------------------------------------------
# global accounting
# ----------------------------------------------------------------------
def _check_overlaps(table, report: SanitizeReport) -> None:
    by_segment: dict[int, list[tuple[int, int, str]]] = {}
    for (seg, off), (size, what) in report.extents.items():
        by_segment.setdefault(seg, []).append((off, size, what))
    for seg, extents in by_segment.items():
        extents.sort()
        for (o1, s1, w1), (o2, s2, w2) in zip(extents, extents[1:]):
            if o1 + s1 > o2:
                report.flag(
                    "extent-overlap",
                    f"segment {seg}: {w1} [{o1}, {o1 + s1}) overlaps "
                    f"{w2} [{o2}, {o2 + s2})",
                )


def _check_page_leaks(table, report: SanitizeReport) -> None:
    """Every page ever taken must host at least one reachable extent."""
    heap = table.heap
    reachable_segments = {seg for seg, _ in report.extents}
    pages = [(p.segment, "resident") for p in heap._resident.values()]
    pages += [(seg, "evicted") for seg in heap._store]
    for seg, where in pages:
        if seg not in reachable_segments:
            report.flag(
                "page-leak",
                f"{where} segment {seg} hosts no reachable entries: the "
                "page was taken from the pool but leaked",
            )


def _check_chain_views(table, report: SanitizeReport) -> None:
    """Cross-check the struct-of-arrays chain materializer.

    Re-parses every resident chain prefix two independent ways -- the
    bulk level-synchronous gathers of :func:`repro.core.chainview.
    materialize_chains` and a per-entry scalar walk -- and compares
    field by field.  Any view still cached in the table's
    :class:`~repro.core.chainview.ChainViewStore` under the *current*
    residency/write stamp is held to the same standard, which catches
    missed invalidations (an in-place write that bypassed
    ``GpuHeap.note_write``) as well as materializer bugs.
    """
    import numpy as np

    from repro.core import chainview
    from repro.core import entries as E
    from repro.core.organizations import MultiValuedOrganization
    from repro.memalloc.address import NULL

    heap = table.heap
    if isinstance(table.org, MultiValuedOrganization):
        kind, header = "key", E.KEY_ENTRY_HEADER
    else:
        kind, header = "generic", E.ENTRY_HEADER
    head_cpu = table.buckets.head_cpu
    heads = {int(h) for h in np.unique(head_cpu[head_cpu != NULL])}
    cached = {}
    store = getattr(table, "chain_views", None)
    if store is not None and store._stamp == (
        heap.residency_epoch, heap.write_epoch
    ):
        for (k, h), v in store._views.items():
            if k == kind:
                cached[h] = v
                heads.add(h)
    if not heads:
        return
    bulk = chainview.materialize_chains(heap, heads, kind)
    arena = heap.pool.arena
    for h in sorted(heads):
        want = chainview._materialize_scalar(heap, h, kind, header, arena)
        for label, got in (("bulk", bulk.get(h)), ("cached", cached.get(h))):
            if got is None:
                continue
            mismatch = _diff_chain_views(want, got)
            if mismatch:
                report.flag(
                    "chain-view-mismatch",
                    f"{label} SoA view of chain @{h} disagrees with the "
                    f"scalar walk: {mismatch}",
                )


def _diff_chain_views(want, got) -> str | None:
    """First field where two ChainSoA parses of one chain disagree."""
    import numpy as np

    if want.n != got.n:
        return f"{got.n} entries, expected {want.n}"
    if want.blocked != got.blocked:
        return f"blocked={got.blocked}, expected {want.blocked}"
    for name in ("addrs", "pos", "klens", "vlens", "flags", "costs", "cum"):
        if not np.array_equal(getattr(want, name), getattr(got, name)):
            return f"{name} differ"
    wblob, gblob = want.keys.tobytes(), got.keys.tobytes()
    for w in range(want.n):
        if want.key_bytes(w, wblob) != got.key_bytes(w, gblob):
            return f"key bytes of entry {w} differ"
    return None


def _reconcile_tallies(table, report: SanitizeReport) -> None:
    stats = table.alloc.stats
    successes = stats.requests - stats.postponed
    census = len(report.extents)
    if census != successes:
        report.flag(
            "alloc-census",
            f"{successes} allocations succeeded but {census} extents are "
            "reachable: "
            + ("allocations leaked" if census < successes else
               "phantom entries appeared"),
        )
    if report.reachable_bytes != stats.bytes_allocated:
        report.flag(
            "alloc-bytes",
            f"allocator handed out {stats.bytes_allocated} bytes but "
            f"{report.reachable_bytes} bytes are reachable",
        )
    # Tombstones are reachable-but-dead: the census of flagged entries must
    # match the allocator's reclaim ledger exactly, or tombstoned slots are
    # being double-reclaimed / silently resurrected.
    if report.n_dead_entries != stats.entries_tombstoned:
        report.flag(
            "tombstone-census",
            f"allocator reclaim ledger holds {stats.entries_tombstoned} "
            f"tombstoned entries but {report.n_dead_entries} dead entries "
            "are reachable",
        )
    if report.dead_bytes != stats.bytes_tombstoned:
        report.flag(
            "tombstone-bytes",
            f"allocator reclaim ledger holds {stats.bytes_tombstoned} "
            f"tombstoned bytes but {report.dead_bytes} dead bytes are "
            "reachable",
        )
    for message in table.org.reconcile_tally(table, report):
        report.flag("tally", message)


# ----------------------------------------------------------------------
# cross-shard placement (sharded executor)
# ----------------------------------------------------------------------
def check_shard_placement(shard_map, tables) -> int:
    """Cross-shard invariant: every key lives in exactly its home shard.

    Walks every shard table's CPU chains (:meth:`GpuHashTable.cpu_items`)
    and verifies that (a) each reachable key's hash-assigned shard
    (``shard_map.shard_of_key``) is the shard it was found in, and (b) no
    key is reachable from two different shards.  Either violation means
    the partitioner and the shard map disagree -- lookups routed by the
    map would then silently miss data, so this is the sharded analogue of
    the dual-pointer check.

    Returns the number of distinct keys seen across all shards; raises
    :class:`SanitizerError` on any violation.
    """
    violations: list[Violation] = []
    home: dict[bytes, int] = {}
    for s, table in enumerate(tables):
        for key, _payload in table.cpu_items():
            want = shard_map.shard_of_key(key)
            if want != s:
                violations.append(
                    Violation(
                        "shard-misplaced",
                        f"key {key!r} reachable in shard {s} but hashes "
                        f"to shard {want}",
                    )
                )
            prev = home.setdefault(key, s)
            if prev != s:
                violations.append(
                    Violation(
                        "shard-duplicate",
                        f"key {key!r} reachable in both shard {prev} and "
                        f"shard {s}",
                    )
                )
    if violations:
        raise SanitizerError(violations)
    return len(home)
