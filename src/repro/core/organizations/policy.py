"""Policy: what each organization is, and which code applies a batch.

The cost tallies and eviction report every path fills in, the three
organization classes -- constructor, halting rule, tally reconcile, the
Figure-5 end-of-iteration rearrangement, the multi-valued pin bookkeeping
-- and the dispatch: two entry points on the base class,
:meth:`Organization.insert_indices` and :meth:`Organization.mutate_indices`,
that ask one question (:meth:`Organization._closed_form`) and name one
kernel, with the organization's scalar loop (:mod:`.oracle`) behind both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core import entries as E
from repro.core.combiners import Combiner
from repro.core.organizations.costs import HASH_CYCLES_PER_BYTE, SPLICE_CYCLES
from repro.core.organizations.kernel_insert import (
    _book,
    _insert_basic,
    _insert_combining,
    _insert_multivalued,
)
from repro.core.organizations.kernel_mixed import (
    _mutate_generic,
    _mutate_multivalued,
)
from repro.core.organizations.kernel_splice import _splice_resident
from repro.core.organizations.oracle import (
    basic_loop,
    combining_loop,
    multivalued_loop,
    splice_chains,
)
from repro.memalloc.pages import PageKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.hashtable import GpuHashTable
    from repro.core.records import BatchGrouping, RecordBatch

#: valid implementations: batched kernels with a scalar fallback, or the
#: scalar oracle loops only
IMPLS = ("vectorized", "slow_reference")

#: mixed-op batches of at least this many ops run the batched kernel under
#: ``impl="vectorized"``; smaller ones run the loop.  The kernel's cost a
#: call does not shrink with its ops: at 64 ops on a shard-sized table it
#: makes 780-980 Python and C calls (in-stream lookups included; the
#: ``mixed-call`` counted gate), the loop 2,800-3,900.  Timed, it still
#: runs 0.3-0.5x the loop at 64 ops and about even at 256 (``mixed_sweep``
#: of bench_hostperf.py): the cut-over is held at 64, so that test
#: batches, conformance cells and shard sub-batches run the kernel, and
#: only smaller calls the loop.
MIXED_KERNEL_MIN_OPS = 64


@dataclass
class EvictionReport:
    """What an end-of-iteration rearrangement did."""

    bytes_evicted: int = 0
    pages_evicted: int = 0
    pages_retained: int = 0
    entries_spliced: int = 0
    maintenance_cycles: float = 0.0
    #: multi-valued deadlock avoidance kicked in: pinned pages were evicted
    forced_full_eviction: bool = False


class GroupLog:
    """Ordered log of bucket-group ids, one per successful allocation.

    The scalar reference :meth:`append`\\ s one int per success; the
    vectorized kernels :meth:`extend` whole arrays -- no per-element
    ``tolist``/``asarray`` conversion on either side.  Readers normalize
    through :meth:`as_array`, and equality compares normalized contents,
    so the differential suites keep asserting
    ``ta.alloc_groups == tb.alloc_groups`` across implementations.
    """

    __slots__ = ("_chunks", "_n")

    def __init__(self) -> None:
        self._chunks: list = []  # ints and int64 arrays, in arrival order
        self._n = 0

    def append(self, group: int) -> None:
        self._chunks.append(int(group))
        self._n += 1

    def extend(self, groups) -> None:
        a = np.asarray(groups, dtype=np.int64)
        if len(a):
            self._chunks.append(a)
            self._n += len(a)

    def __len__(self) -> int:
        return self._n

    def __bool__(self) -> bool:
        return self._n > 0

    def as_array(self) -> np.ndarray:
        parts: list[np.ndarray] = []
        pend: list[int] = []
        for c in self._chunks:
            if isinstance(c, int):
                pend.append(c)
            else:
                if pend:
                    parts.append(np.asarray(pend, dtype=np.int64))
                    pend = []
                parts.append(c)
        if pend:
            parts.append(np.asarray(pend, dtype=np.int64))
        if not parts:
            return np.empty(0, dtype=np.int64)
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupLog):
            return NotImplemented
        return bool(np.array_equal(self.as_array(), other.as_array()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GroupLog({self.as_array().tolist()!r})"


@dataclass
class InsertTally:
    """Cost counters accumulated by an insert loop."""

    attempted: int = 0
    succeeded: int = 0
    postponed: int = 0
    probe_steps: int = 0
    bytes_touched: int = 0
    table_cycles: float = 0.0
    #: bucket-group id per successful allocation (allocator contention)
    alloc_groups: GroupLog = field(default_factory=GroupLog)


class Organization:
    """Base class: the dispatch and the default eviction policy.

    A subclass names its scalar loop (``_scalar_loop``, bound from
    :mod:`.oracle`), its insert kernel (:meth:`_insert_kernel`) and its
    mixed-op kernel (:meth:`_mutate_kernel`), and says which values those
    kernels can take (:meth:`_kernel_values`).
    """

    kind: str = "abstract"
    #: page kinds this organization allocates from
    page_kinds: tuple[PageKind, ...] = (PageKind.GENERIC,)
    #: one of :data:`IMPLS`; governs inserts and mixed-op mutations alike
    impl: str = "vectorized"
    #: every cycle constant this organization charges is integer-valued, so
    #: a batch's ``table_cycles`` may be summed in any order
    _integer_cycles = True
    #: :meth:`should_halt` may stop a pass mid-input, so the driver checks
    #: it after every pure-insert chunk and gives each such chunk a call of
    #: its own (a run of mixed-op chunks stops at :attr:`stop_fraction`)
    halts = False
    #: a run of mixed-op parts goes no further than the part after which
    #: this fraction of the bucket groups has failed: past it the gate
    #: refuses every mixed-op chunk (and the basic method halts earlier)
    stop_fraction = 1.0
    #: a pure insert walks its bucket's chain, so its kernel needs the
    #: closed form.  The basic method's prepends without looking: its
    #: kernel has none to lose and runs whatever :meth:`_closed_form` says
    _insert_probes = True

    def _set_impl(self, impl: str) -> None:
        if impl not in IMPLS:
            raise ValueError(f"impl must be one of {IMPLS}: {impl!r}")
        self.impl = impl

    # ------------------------------------------------------------------
    # dispatch: which code applies a batch
    # ------------------------------------------------------------------
    def _kernel_values(self, batch) -> bool:
        """``batch`` carries values this organization's kernels can take
        (on the wrong kind the loop raises at the first value it reads)."""
        return batch.values is not None

    def _closed_form(self, table, batch) -> "BatchGrouping | None":
        """The one question both entry points ask: do the closed forms of
        this organization's probing kernels hold for ``batch``?  Returns
        the batch's key grouping where they do, else None.

        They do not under an access trace (per-walk ``on_access`` order),
        on values the kernels cannot take (:meth:`_kernel_values`), or
        when two keys of the batch collide on the 64-bit hash (grouped by
        hash they would merge; the loop compares full keys).
        """
        if table.trace is not None or not self._kernel_values(batch):
            return None
        grouping = batch.cache.grouping(table.buckets)
        return None if grouping.has_collision else grouping

    def insert_indices(
        self,
        table: "GpuHashTable",
        batch: "RecordBatch",
        idx: np.ndarray,
        buckets: np.ndarray,
        tallies: list[InsertTally],
        bounds: np.ndarray,
    ) -> np.ndarray:
        """Insert ``batch[idx]``: returns the success mask (``False`` =
        POSTPONE) and accumulates cost statistics per part: ``bounds``
        (k + 1 offsets into ``idx``) cut the call into k parts, and part
        ``p`` books into ``tallies[p]`` what its rows alone would have
        booked inserted after the parts before it.

        ``vectorized`` runs the organization's insert kernel where
        :meth:`_closed_form` holds and the table holds no tombstones (a
        probing kernel resolves a key to its newest copy and takes it for
        live); a kernel may still decline, having mutated nothing, by
        returning None, and the parts then run one by one, each by the
        kernel or the loop.  Everything else -- and ``slow_reference``,
        always -- is the scalar loop run ungated, part by part.
        """
        done = self._insert_kernel_run(
            table, batch, idx, buckets, tallies, bounds)
        if done is not None:
            return done
        masks = []
        edges = bounds.tolist()
        for tally, lo, hi in zip(tallies, edges, edges[1:]):
            part, pb = idx[lo:hi], buckets[lo:hi]
            done = None
            if len(tallies) > 1 and hi > lo:
                done = self._insert_kernel_run(
                    table, batch, part, pb, [tally], np.array([0, hi - lo]))
            if done is None:
                done = self._scalar_loop(
                    table, batch, part, pb, tally, gated=False)
            masks.append(done)
        return np.concatenate(masks)

    def _insert_kernel_run(self, table, batch, idx, buckets, tallies, bounds):
        """The insert kernel over ``batch[idx]`` where ``vectorized`` may
        run it, else (or when it declines) None, having mutated nothing."""
        if self.impl != "vectorized":
            return None
        grouping = None
        if self._insert_probes and table.alloc.stats.entries_tombstoned == 0:
            grouping = self._closed_form(table, batch)
        if grouping is None and self._insert_probes:
            return None
        return self._insert_kernel(
            table, batch, idx, buckets, tallies, bounds, grouping)

    def mutate_indices(
        self,
        table: "GpuHashTable",
        batch,
        idx: np.ndarray,
        buckets: np.ndarray,
        tallies: list[InsertTally],
        bounds: np.ndarray,
    ) -> tuple[np.ndarray, int]:
        """Apply a run of mixed insert/update/delete/lookup parts (see
        :mod:`repro.core.mutations`): ``bounds`` cut ``batch[idx]`` into
        parts as for :meth:`insert_indices`, and part ``p`` books into
        ``tallies[p]`` what it alone would have booked after the parts
        before it.

        Mutation batches are *gated*: any op whose bucket group is
        sticky-failed postpones up front, which preserves per-key issue
        order across postponement replays (same key -> same bucket -> same
        group, and a failed allocation poisons the group until the
        end-of-iteration eviction refills the pool).  The run stops where
        the driver would stop a pass of one call a part: after the first
        part that leaves :attr:`stop_fraction` of the groups failed (the
        gate refuses every later mixed-op chunk; the basic method halts).
        Returns ``(success, reached)``: the parts that ran, and the
        success mask over their ops.

        ``vectorized`` first takes the ops of groups that failed before
        the call out in one masked step: they postpone charged for their
        hash alone and touch nothing, so what runs sees exactly the ops
        the loop would let through (integer-valued cycle constants make
        the charge order-free; a combiner with fractional ``cycles`` keeps
        the loop's own gate).  The rest runs the organization's batched
        kernel, which finds the stop from its allocation plan, where
        :meth:`_closed_form` holds and the run has
        :data:`MIXED_KERNEL_MIN_OPS` such ops or more (it declines, having
        mutated nothing, on a fault-injected pool).  Otherwise -- and
        under ``slow_reference``, always -- the parts run one by one
        through the scalar loop, with the stop checked between them.
        Success masks, tallies, lookup answers, counters and table bytes
        do not depend on the choice.
        """
        alloc = table.alloc
        opened = None  # every op's group is open
        open_idx, open_buckets, open_bounds = idx, buckets, bounds
        if (
            self.impl == "vectorized" and self._integer_cycles
            and alloc.has_failures
        ):
            opened = ~np.isin(
                buckets // table.buckets.group_size, alloc.failed_groups)
            open_idx, open_buckets = idx[opened], buckets[opened]
            open_bounds = np.concatenate(([0], opened.cumsum()))[bounds]
        ran = None  # what the kernel did, or None: the loop runs
        if (
            self.impl == "vectorized" and len(open_idx)
            and len(open_idx) >= MIXED_KERNEL_MIN_OPS
            and self._closed_form(table, batch) is not None
        ):
            ran = self._mutate_kernel(
                table, batch, open_idx, open_buckets, tallies, open_bounds)
        if ran is not None:
            done, reached = ran
        else:
            masks = []
            edges = open_bounds.tolist()
            for tally, lo, hi in zip(tallies, edges, edges[1:]):
                if masks and self.run_stops(table):
                    break
                masks.append(self._scalar_loop(
                    table, batch, open_idx[lo:hi], open_buckets[lo:hi], tally)
                    if hi > lo else np.zeros(0, dtype=bool))
            done, reached = np.concatenate(masks), len(masks)
        if opened is None:
            return done, reached
        # the masked step's ops of the parts that ran
        shut_bounds = (bounds - open_bounds)[:reached + 1]
        gated = idx[~opened][:shut_bounds[-1]]
        if len(gated):
            none = np.zeros(len(gated), dtype=np.int64)
            _book(tallies[:reached], shut_bounds, none,
                  HASH_CYCLES_PER_BYTE * batch.key_lens[gated].astype(np.int64),
                  none, None, none[:0], none[:0])
            table.mutations.gate_postponed += len(gated)
        end = bounds[reached]
        success = np.zeros(end, dtype=bool)
        success[opened[:end]] = done
        return success, reached

    def run_stops(self, table: "GpuHashTable") -> bool:
        """Does a run of mixed-op parts stop here (:attr:`stop_fraction`)?"""
        return table.alloc.failed_fraction >= self.stop_fraction

    def should_halt(self, table: "GpuHashTable") -> bool:
        return False

    def reconcile_tally(self, table: "GpuHashTable", census) -> list[str]:
        """Sanitizer hook: organization-specific tally-vs-census checks.

        ``census`` is a :class:`~repro.sanitize.sanitizer.SanitizeReport`
        holding the reachable-extent walk (``n_entries``,
        ``n_value_nodes``).  Returns violation messages; an acknowledged
        record that is not reachable was silently dropped.
        """
        return []

    def end_iteration(self, table: "GpuHashTable") -> EvictionReport:
        """Default policy: evict everything, reset all GPU chain heads."""
        report = EvictionReport()
        victims = table.heap.resident_pages
        report.pages_evicted = len(victims)
        report.bytes_evicted = table.heap.evict(victims)
        table.buckets.reset_gpu_heads()
        table.alloc.drop_stale_pages()
        table.alloc.reset_failures()
        return report


class BasicOrganization(Organization):
    """Duplicate keys stored as separate entries; halts at 50% failed groups."""

    kind = "basic"
    halts = True
    _insert_probes = False
    _scalar_loop = basic_loop

    def __init__(self, halt_threshold: float = 0.5, impl: str = "vectorized"):
        if not 0.0 < halt_threshold <= 1.0:
            raise ValueError(f"halt threshold must be in (0, 1]: {halt_threshold}")
        self.halt_threshold = halt_threshold
        self._set_impl(impl)

    def should_halt(self, table) -> bool:
        return table.alloc.failed_fraction >= self.halt_threshold

    @property
    def stop_fraction(self) -> float:
        return self.halt_threshold

    def reconcile_tally(self, table, census) -> list[str]:
        # One entry per acknowledged success, duplicates kept separately.
        # Mutations add entries too: insert/update ops that allocated, and
        # born-dead tombstones; in-place deletes and updates do not.
        m = table.mutations
        expected = (
            table.total_inserted + m.inserts + m.updates_entries
            + m.deletes_tombstones
        )
        if census.n_entries != expected:
            return [
                f"basic organization acknowledged {expected} entry-creating "
                f"operations but {census.n_entries} entries are reachable: "
                + ("records were silently dropped"
                   if census.n_entries < expected
                   else "phantom entries appeared")
            ]
        return []

    def _insert_kernel(self, table, batch, idx, buckets, tallies, bounds,
                       grouping):
        return _insert_basic(table, batch, idx, buckets, tallies, bounds)

    def _mutate_kernel(self, table, batch, idx, buckets, tallies, bounds):
        return _mutate_generic(
            table, batch, idx, buckets, tallies, bounds, None)


class CombiningOrganization(Organization):
    """Duplicate keys combined in place via a callback (Section IV-B)."""

    kind = "combining"
    _scalar_loop = combining_loop

    def __init__(self, combiner: Combiner, impl: str = "vectorized"):
        self.combiner = combiner
        self._set_impl(impl)

    def reconcile_tally(self, table, census) -> list[str]:
        # In-place combines acknowledge a success without a new entry, so
        # the census can only be *at most* the entry-creating op count;
        # more means entries appeared that no operation created.
        m = table.mutations
        bound = (
            table.total_inserted + m.inserts + m.updates_entries
            + m.deletes_tombstones
        )
        if census.n_entries > bound:
            return [
                f"combining organization acknowledged at most {bound} "
                f"entry-creating operations but {census.n_entries} entries "
                "are reachable: phantom entries appeared"
            ]
        return []

    @property
    def _integer_cycles(self) -> bool:
        return float(self.combiner.cycles).is_integer()

    def _kernel_values(self, batch) -> bool:
        # callbacks and foreign dtypes combine one value at a time
        comb = self.combiner
        return (
            comb.supports_vector_reduce
            and batch.numeric_values is not None
            and batch.numeric_values.dtype == comb.dtype
        )

    def _insert_kernel(self, table, batch, idx, buckets, tallies, bounds,
                       grouping):
        return _insert_combining(
            table, batch, idx, buckets, tallies, bounds, grouping,
            self.combiner,
        )

    def _mutate_kernel(self, table, batch, idx, buckets, tallies, bounds):
        return _mutate_generic(
            table, batch, idx, buckets, tallies, bounds, self.combiner)


class MultiValuedOrganization(Organization):
    """Keys carry a linked list of values; keys and values on separate pages."""

    kind = "multi-valued"
    page_kinds = (PageKind.KEY, PageKind.VALUE)
    _scalar_loop = multivalued_loop
    #: when pinned pages exceed this fraction of the resident heap at
    #: iteration end, flush them too.  Not in the paper: without a bound,
    #: key-heavy workloads (e.g. Patent Citation) accumulate pinned key
    #: pages until value throughput per pass collapses.  Flushed keys are
    #: re-created on retry and merged at finalization.
    pin_retention_limit = 0.5

    def __init__(self, impl: str = "vectorized") -> None:
        self._set_impl(impl)
        #: per-segment count of PENDING keys (drives page pinning)
        self._pin_counts: dict[int, int] = {}

    def reconcile_tally(self, table, census) -> list[str]:
        # Every acknowledged insert/update appended exactly one value node
        # (key entries are created on demand and may be duplicated by
        # forced evictions, but values are never re-created).
        expected = table.total_inserted + table.mutations.value_nodes
        if census.n_value_nodes != expected:
            return [
                f"multi-valued organization acknowledged {expected} "
                f"value-appending operations but {census.n_value_nodes} "
                "value nodes are reachable: "
                + ("records were silently dropped"
                   if census.n_value_nodes < expected
                   else "phantom value nodes appeared")
            ]
        return []

    def _insert_kernel(self, table, batch, idx, buckets, tallies, bounds,
                       grouping):
        return _insert_multivalued(
            table, batch, idx, buckets, tallies, bounds, grouping, self
        )

    def _mutate_kernel(self, table, batch, idx, buckets, tallies, bounds):
        return _mutate_multivalued(
            table, batch, idx, buckets, tallies, bounds, self)

    # -- pending-flag bookkeeping --------------------------------------
    def _count_pending(self, heap, seg, pin: bool) -> None:
        """One more (``pin``) or one fewer ``PENDING`` key entry on segment
        ``seg``: a key page is pinned while it hosts any."""
        counts = self._pin_counts
        if pin:
            counts[seg] = counts.get(seg, 0) + 1
            page = heap.resident_page(seg)
            assert page is not None
            page.pinned = True
            return
        remaining = counts.get(seg, 0) - 1
        if remaining <= 0:
            counts.pop(seg, None)
            page = heap.resident_page(seg)
            if page is not None:
                page.pinned = False
        else:
            counts[seg] = remaining

    def _set_pending(self, table, buf, seg, off) -> None:
        flags = E.get_flags(buf, off)
        if flags & E.FLAG_PENDING:
            return
        E.set_flags(buf, off, flags | E.FLAG_PENDING)
        table.heap.note_write(seg)
        self._count_pending(table.heap, seg, True)

    def _clear_pending(self, table, buf, seg, off) -> None:
        flags = E.get_flags(buf, off)
        if not flags & E.FLAG_PENDING:
            return
        E.set_flags(buf, off, flags & ~E.FLAG_PENDING)
        table.heap.note_write(seg)
        self._count_pending(table.heap, seg, False)

    def _settle_pending(self, heap, segs, pins) -> None:
        """The pin bookkeeping of one batched kernel call's
        :meth:`_set_pending` (``pins[e]``) and :meth:`_clear_pending`
        events, in the order the loop would have had them: ``segs[e]`` is
        the segment of the key entry whose ``PENDING`` bit flipped.  The
        kernels write the flag words themselves."""
        for seg, pin in zip(segs.tolist(), pins.tolist()):
            self._count_pending(heap, seg, pin)

    # ------------------------------------------------------------------
    def end_iteration(self, table) -> EvictionReport:
        """Evict value pages and key pages without pending keys (Fig. 5b)."""
        report = EvictionReport()
        heap = table.heap
        victims = [p for p in heap.resident_pages if not p.pinned]
        retained = [p for p in heap.resident_pages if p.pinned]
        resident = len(victims) + len(retained)
        if retained and resident and (
            len(retained) / resident > self.pin_retention_limit
        ):
            victims, retained = victims + retained, []
            for p in victims:
                p.pinned = False
            self._pin_counts.clear()
            report.forced_full_eviction = True
        if not victims and retained:
            # Deadlock avoidance (not in the paper): every resident page
            # hosts a pending key, so retaining them all would leave the
            # pool empty forever.  Evict everything; retried records will
            # re-create their key entries, and the duplicate entries merge
            # during CPU-side finalization.
            victims, retained = retained, []
            for p in victims:
                p.pinned = False
            self._pin_counts.clear()
            report.forced_full_eviction = True
        report.pages_evicted = len(victims)
        report.pages_retained = len(retained)
        report.bytes_evicted = heap.evict(victims)
        self._splice_chains(table, report)
        table.alloc.drop_stale_pages()
        table.alloc.reset_failures()
        return report

    def _splice_chains(self, table, report) -> None:
        """Rebuild the GPU chains over the key entries that stayed
        resident: in bulk under ``impl="vectorized"``, else entry by entry
        (:func:`.oracle.splice_chains`).  Every entry walked is charged
        ``SPLICE_CYCLES``, whichever code walked it."""
        splice = _splice_resident if self.impl == "vectorized" else splice_chains
        walked = splice(table)
        report.entries_spliced += walked
        report.maintenance_cycles += walked * SPLICE_CYCLES
