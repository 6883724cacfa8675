"""The GPU hash table (Sections III-B and IV).

:class:`GpuHashTable` is the requestee of the SEPO protocol: inserts return
per-record SUCCESS/POSTPONE, and :meth:`end_iteration` performs the
Figure-5 rearrangement (eviction to CPU memory, chain maintenance, pool
refill).  It composes

* a :class:`~repro.core.buckets.BucketArray` (dual-pointer chain heads),
* a :class:`~repro.memalloc.heap.GpuHeap` + bucket-group allocator,
* one of the three :mod:`~repro.core.organizations`,

and reports every batch's cost statistics (:class:`~repro.gpusim.BatchStats`)
so a :class:`~repro.gpusim.KernelModel` can charge simulated time.  A host
call is not a launch: :meth:`apply_batch` applies a run of chunks -- pure
inserts, or mixed ops -- with one organization call and still returns each
chunk's own statistics.

The finished table is readable from the CPU side -- :meth:`cpu_items` walks
the CPU pointer chains across resident and evicted segments alike, and
:meth:`result` additionally merges duplicate keys (combining residue across
iterations) into the final mapping.  ``impl="vectorized"`` tables produce
that mapping with a bulk reader over one flat image of the CPU side
(:meth:`~repro.memalloc.heap.GpuHeap.cpu_image`); the entry-by-entry
:meth:`cpu_items` walk stays as its oracle.
"""

from __future__ import annotations

from itertools import compress, count
from typing import Any, Iterator

import numpy as np

from repro.core import entries as E
from repro.core.buckets import BucketArray
from repro.core.chainview import ChainViewStore, walk_cpu_image
from repro.core.mutations import (
    OP_DELETE,
    OP_LOOKUP,
    MutationBatch,
    MutationCounters,
    split_answers,
)
from repro.core.organizations import (
    CombiningOrganization,
    EvictionReport,
    InsertTally,
    MultiValuedOrganization,
    Organization,
    segmented_exclusive_cumsum,
)
from repro.core.hashing import fnv1a_batch
from repro.core.organizations.kernel_front import _run_starts, _slices
from repro.core.records import RecordBatch, gather_spans, hash_groups
from repro.core.suffixes import SuffixCache
from repro.gpusim.clock import CostCategory, CostLedger
from repro.gpusim.kernel import BatchStats
from repro.gpusim.memory import DeviceMemory
from repro.memalloc.address import NULL
from repro.memalloc.allocator import BucketGroupAllocator, _stable_order
from repro.memalloc.heap import GpuHeap

__all__ = ["GpuHashTable", "InsertResult", "RUN_RECORDS", "run_fits"]

#: records per organization call of a run of chunks, pure-insert or mixed
#: (:meth:`GpuHashTable.apply_batch`).  A call costs ~2 ms of numpy dispatch
#: before its first record, so the SEPO passes and the CPU baseline join
#: consecutive chunks up to this many records; the cap bounds the joined
#: batch and the kernel's per-op columns.  Swept on the benchmark's
#: ``apps_ltm`` pass (seed 0, 7 alternating runs of 3 passes, medians,
#: CPython 3.11 on a 2-core container): 383.8 ms at 8,192 and 379.7 ms at
#: 16,384 -- inside the noise -- while the largest call's tracemalloc
#: transient doubles from 5.9 MB to 12.2 MB (``result()`` peaks at
#: 17.8 MB).  8,192 keeps a call at a third of that.
RUN_RECORDS = 8192


def run_fits(head: RecordBatch, records: int, batch: RecordBatch, n: int) -> bool:
    """May ``n`` rows of ``batch`` join a run of chunks that starts with
    ``head`` and holds ``records`` rows?  Only batches that concat together
    and are of one kind -- pure inserts, or mixed ops (an all-insert
    :class:`MutationBatch` concats with mixed ones but is a pure insert) --
    and at most :data:`RUN_RECORDS` rows a call (a bigger chunk runs alone).
    """
    return (
        records + n <= RUN_RECORDS
        and batch.concat_key == head.concat_key
        and batch.pure_insert == head.pure_insert
    )


def _largest_requests(org, batch, idx, mutation: bool) -> np.ndarray:
    """Per op of ``batch[idx]`` that may allocate, the largest extent it
    can ask for: its entry (a delete's tombstone carries no value), or
    under the multi-valued method its key entry or value node.  Lookups
    allocate nothing; an insert call reads every row as an insert."""
    ups = True
    if mutation:
        idx = idx[batch.ops[idx] != OP_LOOKUP]
        ups = batch.ops[idx] != OP_DELETE
    klens = batch.key_lens[idx].astype(np.int64)
    if isinstance(org, CombiningOrganization):
        vlens = org.combiner.value_size
    elif batch.val_lens is None:
        vlens = 0  # numeric values: the organization raises reading one
    else:
        vlens = batch.val_lens[idx].astype(np.int64)
    vlens = np.where(ups, vlens, 0)
    if isinstance(org, MultiValuedOrganization):
        return np.maximum(
            E.key_entry_sizes_bulk(klens), E.value_node_sizes_bulk(vlens))
    return E.entry_sizes_bulk(klens, vlens)


class InsertResult:
    """Outcome of a batched insert: per-record mask + cost statistics."""

    def __init__(self, success: np.ndarray, stats: BatchStats, tally: InsertTally):
        self.success = success
        self.stats = stats
        self.tally = tally

    @property
    def n_success(self) -> int:
        return int(self.success.sum())

    @property
    def n_postponed(self) -> int:
        return len(self.success) - self.n_success


def _key_groups(keys: list[bytes]):
    """``(last, label)`` for keys in walk order: ``last`` maps every
    distinct key (dict order: first occurrence) to the index of its last
    one, and ``label[i]`` is that index for entry ``i``'s key -- one id
    per key, and per (chain, key), since a key lives in one bucket chain.
    ``label`` is None when the keys are all distinct.  Only entries that
    are not their key's last pay a dict probe.
    """
    n = len(keys)
    last = dict(zip(keys, count()))
    if len(last) == n:
        return last, None
    newer = np.ones(n, dtype=bool)
    newer[np.fromiter(last.values(), np.int64, len(last))] = False
    newer = np.flatnonzero(newer)
    label = np.arange(n)
    label[newer] = [last[keys[i]] for i in newer.tolist()]
    return last, label


def _visible(label, closing: np.ndarray, dead: np.ndarray, order=None):
    """The newest-first automaton of :meth:`GpuHashTable.cpu_items` over
    entries in walk order: an entry shows unless it is ``dead`` (a
    tombstone) or an earlier entry of its key was ``closing`` (a tombstone,
    or a generic shadow -- which shows itself, then closes).  ``label``
    holds one id per key (``None``: the keys are all distinct); ``order``
    is ``_stable_order(label)`` when the caller has it."""
    if label is None:
        return ~dead
    earlier = segmented_exclusive_cumsum(closing.astype(np.int64), label, order)
    return (earlier == 0) & ~dead


def _key_labels(image: np.ndarray, ko: np.ndarray, klens: np.ndarray):
    """Per walked entry, the walk index of its key's first entry -- one
    label per key, with no ``bytes`` object per entry: the keys are
    gathered out of the image, hashed and grouped as a batch's are
    (:func:`~repro.core.records.hash_groups`).  ``None`` when two
    different keys share a 64-bit hash."""
    mat, lens = gather_spans(image, ko, klens)
    gid, first, collision = hash_groups(fnv1a_batch(mat, lens), mat, lens)
    return None if collision else first[gid]


def _live_groups(image, ko, klens, closing, dead):
    """The entries that show, grouped by key: ``(idx, starts)``, or
    ``None`` on a 64-bit hash collision.  ``idx`` lists them key by key,
    keys in the order their first entries are walked and each key's
    entries in walk order; ``starts`` are the keys' offsets into it.
    That is the dict path's key and list order, because a key shows iff
    its first (newest) entry does: a first entry that is dead closes its
    key."""
    label = _key_labels(image, ko, klens)
    if label is None:
        return None
    order = _stable_order(label)
    idx = order[_visible(label, closing, dead, order)[order]]
    return idx, np.flatnonzero(_run_starts(label[idx]))


def cpu_chain_items(
    segment_view, page_size: int, head_cpu: np.ndarray, kind: str, combiner=None
) -> Iterator[tuple[bytes, Any]]:
    """Walk every bucket chain via CPU pointers, without merging: the
    scalar reader of a live table (:meth:`GpuHashTable.cpu_items`) and of
    a persisted one (:class:`~repro.core.checkpoint.FrozenTable`).

    ``segment_view(segment)`` returns a segment's bytes, ``kind`` is the
    organization kind.  Yields raw per-entry payloads: scalars for the
    combining method (``combiner`` unpacks them), value bytes for the
    basic method, and ``list[bytes]`` (one key entry's value list) for
    the multi-valued method.  Duplicate keys may appear when postponement
    split a key across iterations.

    Mutation flags are resolved here with the newest-first automaton:
    chains are walked newest-first, so the first tombstone seen for a
    key closes it (older copies are dead and never yielded), and a
    generic shadow entry yields its own payload then closes the key.
    """
    multivalued = kind == "multi-valued"
    fmt = combiner.fmt if kind == "combining" else None
    for addr in head_cpu[head_cpu != NULL].tolist():
        closed: set[bytes] = set()
        while addr != NULL:
            seg, off = divmod(addr, page_size)
            buf = segment_view(seg)
            if multivalued:
                hdr = E.read_key_entry_header(buf, off)
                next_cpu, vhead_cpu, klen, flags = hdr[1], hdr[3], hdr[4], hdr[5]
                key = E.key_entry_key(buf, off, klen)
                # an *empty* key entry that is no tombstone is allocated
                # but unacknowledged (its first value append postponed):
                # invisible to readers.  PENDING with values means a
                # later append postponed; the values are real data.
                unborn = E.key_entry_unborn(flags, vhead_cpu)
                if key not in closed and not unborn:
                    if flags & E.FLAG_TOMBSTONE:
                        closed.add(key)
                    else:
                        yield key, collect_values(
                            segment_view, page_size, vhead_cpu
                        )
            else:
                _, next_cpu, klen, vlen = E.read_entry_header(buf, off)
                key = E.entry_key(buf, off, klen)
                if key not in closed:
                    flags = E.entry_flags(buf, off)
                    if flags & E.GFLAG_TOMBSTONE:
                        closed.add(key)
                    elif fmt is not None:
                        # combining entries never carry SHADOW: an
                        # update is a combine
                        vo = off + E.ENTRY_HEADER + klen
                        yield key, fmt.unpack_from(buf, vo)[0]
                    else:
                        yield key, E.entry_value(buf, off, klen, vlen)
                        if flags & E.GFLAG_SHADOW:
                            closed.add(key)
            addr = next_cpu


def collect_values(segment_view, page_size: int, vhead_cpu: int) -> list[bytes]:
    """One key entry's value list, newest node first."""
    values = []
    addr = vhead_cpu
    while addr != NULL:
        seg, off = divmod(addr, page_size)
        buf = segment_view(seg)
        _, vnext_cpu, vlen = E.read_value_node_header(buf, off)
        values.append(E.value_node_value(buf, off, vlen))
        addr = vnext_cpu
    return values


def merge_chain_items(items, kind: str, combiner=None) -> dict[bytes, Any]:
    """The final mapping from :func:`cpu_chain_items`' payloads, entry by
    entry: combining folds duplicate keys with ``combiner``, multi-valued
    concatenates their value lists, basic keeps every pair."""
    out: dict[bytes, Any] = {}
    for key, payload in items:
        if kind == "combining":
            # chains walk newest-first; fold older values in from the
            # left so non-commutative combiners match the insertion-order
            # model (and f64 sums survive a checkpoint round trip)
            out[key] = (
                combiner.combine(payload, out[key]) if key in out else payload
            )
        elif kind == "multi-valued":
            out.setdefault(key, []).extend(payload)
        else:
            out.setdefault(key, []).append(payload)
    return out


class GpuHashTable:
    """Larger-than-memory chained hash table for GPUs (simulated)."""

    def __init__(
        self,
        n_buckets: int,
        organization: Organization,
        heap: GpuHeap,
        group_size: int = 64,
        device_memory: DeviceMemory | None = None,
        ledger: CostLedger | None = None,
        trace=None,
        sanitize: str | None = None,
        integrity: str | None = None,
        scrub_budget: int = 4,
    ):
        from repro.sanitize.sanitizer import resolve_level

        #: sanitize level ("off"|"end"|"iteration"|"paranoid"); None reads
        #: the REPRO_SANITIZE environment override (CI's hook)
        self.sanitize = resolve_level(sanitize)
        from repro.integrity import PageIntegrity, resolve_integrity

        #: integrity level ("off"|"verify"|"scrub"); None reads the
        #: REPRO_INTEGRITY environment override.  "off" leaves
        #: ``heap.integrity`` None: bit-identical to pre-integrity code.
        self.integrity = resolve_integrity(integrity)
        if self.integrity != "off" and heap.integrity is None:
            heap.integrity = PageIntegrity(
                mode=self.integrity, scrub_budget=scrub_budget
            )
        self.buckets = BucketArray(n_buckets, group_size, device_memory)
        self.heap = heap
        #: per-head cache of struct-of-arrays chain views, invalidated by
        #: the heap's residency/write epochs (no library reader uses it)
        self.chain_views = ChainViewStore(heap)
        #: the stored suffixes of the bucket chains, as in-stream lookups
        #: parsed them (kept until a segment under one is stored again)
        self.suffixes = SuffixCache(
            heap, n_buckets,
            "key" if isinstance(organization, MultiValuedOrganization)
            else "generic",
        )
        self.alloc = BucketGroupAllocator(heap, self.buckets.n_groups)
        self.org = organization
        self.ledger = ledger if ledger is not None else CostLedger()
        self.trace = trace
        #: aggregate instruction throughput used to charge chain-maintenance
        #: work; sessions set this to the device's compute throughput.
        self.maintenance_throughput = 1e12
        self.iterations_completed = 0
        self.total_inserted = 0
        self.total_postponed = 0
        #: acknowledged mutation-batch ops (kept out of ``total_inserted``
        #: so the per-organization tally reconciles stay exact)
        self.total_mutated = 0
        self.mutations = MutationCounters()
        self.eviction_reports: list[EvictionReport] = []

    # ------------------------------------------------------------------
    # insert path
    # ------------------------------------------------------------------
    def insert_batch(
        self, batch: RecordBatch, indices: np.ndarray | None = None
    ) -> InsertResult:
        """Attempt to insert ``batch[indices]``; POSTPONE is not an error.

        Returns the per-record success mask (aligned with ``indices``) and
        the batch's cost statistics for the kernel model.  The caller (the
        SEPO driver) owns the pending bitmap and the time charging.  The
        run of :meth:`insert_run` with this batch alone.
        """
        return self.insert_run([(batch, indices)])[0]

    def insert_run(self, parts) -> list[InsertResult]:
        """Insert a run of chunks with one organization call.

        ``parts`` are ``(batch, indices)`` pairs (``None``: every row) of
        pure-insert batches that agree on
        :attr:`~repro.core.records.RecordBatch.concat_key`.  Each batch's
        rows are hashed in its own cache (reissues in later passes do not
        re-hash), the selected rows are joined into one batch that carries
        those hashes (one part is used as is) and inserted by one
        :meth:`Organization.insert_indices` call, and the outcome comes
        back as one :class:`InsertResult` per part: the mask, tally and
        stats :meth:`insert_batch` of that part alone would have returned
        after the parts before it.  That split is exact because pure
        inserts are ungated: the insert loop over the joined rows is the
        loop over the parts in sequence.
        """
        return self._apply(parts, mutation=False)

    def apply_batch(self, parts) -> list[InsertResult]:
        """Apply a run of batches: the SEPO driver's single dispatch point.

        ``parts`` are ``(batch, indices)`` pairs of one kind
        (:func:`run_fits`).  Pure-insert batches (including a
        :class:`MutationBatch` whose ops are all inserts) take
        :meth:`insert_run` -- no postponement gate, pre-aggregated kernels
        fully engaged; mixed batches take the gated mutation path with one
        call too, which stops where a pass of one call a chunk would stop
        (:meth:`Organization.mutate_indices`).  Returns one
        :class:`InsertResult` per part that ran, in order: the parts after
        a stop are not applied.
        """
        if parts[0][0].pure_insert:
            return self.insert_run(parts)
        return self._apply(parts, mutation=True)

    def mutate_batch(
        self, batch: MutationBatch, indices: np.ndarray | None = None
    ) -> InsertResult:
        """Apply ``batch[indices]`` of interleaved insert/update/delete/
        lookup ops; POSTPONE is not an error.

        Same contract as :meth:`insert_batch`: a per-record success mask
        aligned with ``indices`` plus cost statistics.  Lookup results are
        deposited in ``batch.lookup_results`` keyed by batch-local record
        index.  The gated run of :meth:`apply_batch` with this batch alone.
        """
        return self._apply([(batch, indices)], mutation=True)[0]

    def _apply(self, parts, mutation: bool) -> list[InsertResult]:
        """The one body of :meth:`insert_run` and of a mixed run of
        :meth:`apply_batch`: they differ in the organization entry point,
        in the total the successes are booked under, and in that a gated
        run may stop before its last part -- results come back for the
        parts that ran, each part's lookup answers in its own batch under
        its own rows.  A call holding a record larger than a page raises
        the allocator's ``ValueError`` before any op runs (mid-call, the
        ops ahead of it would have stored and booked records nobody
        acknowledges)."""
        parts = [
            (b, np.arange(len(b)) if i is None else i) for b, i in parts
        ]
        for b, i in parts:
            self.alloc.check_sizes(
                _largest_requests(self.org, b, i, mutation))
        # each batch hashed once (memoized on it) and indexed into:
        # reissued pending subsets cost a gather, not a re-hash
        bucket_ids = [b.cache.bucket_ids(self.buckets)[i] for b, i in parts]
        bounds = np.cumsum([0] + [len(i) for _, i in parts])
        tallies = [InsertTally() for _ in parts]
        if not bounds[-1]:
            return [
                InsertResult(np.zeros(0, dtype=bool), BatchStats(), t)
                for t in tallies
            ]
        if len(parts) == 1:
            (batch, idx), buckets = parts[0], bucket_ids[0]
        else:
            batch = RecordBatch.concat(
                [b for b, _ in parts], [i for _, i in parts])
            idx, buckets = np.arange(bounds[-1]), np.concatenate(bucket_ids)
        reached = len(parts)
        if mutation:
            success, reached = self.org.mutate_indices(
                self, batch, idx, buckets, tallies, bounds)
        else:
            success = self.org.insert_indices(
                self, batch, idx, buckets, tallies, bounds)
        if len(parts) > 1:
            if mutation:
                answers = split_answers(
                    batch.lookup_results, [rows for _, rows in parts])
                for p, row, value in answers:
                    parts[p][0].lookup_results[row] = value
            # the joined batch and its cache reference each other: break
            # the cycle so its arrays go now, not at the next collection
            batch.invalidate_cache()
        parts, tallies = parts[:reached], tallies[:reached]
        for tally in tallies:
            if mutation:
                self.total_mutated += tally.succeeded
            else:
                self.total_inserted += tally.succeeded
            self.total_postponed += tally.postponed
        edges = bounds.tolist()
        results = [
            InsertResult(
                success[lo:hi],
                self._stats_from(b, i, bids, tally) if hi > lo else BatchStats(),
                tally,
            )
            for (b, i), bids, tally, lo, hi in zip(
                parts, bucket_ids, tallies, edges, edges[1:])
        ]
        if self.sanitize == "paranoid":
            self.check_invariants()
        return results

    def insert(self, key: bytes, value: Any) -> bool:
        """Scalar convenience insert; returns SUCCESS (True) / POSTPONE."""
        if isinstance(self.org, CombiningOrganization):
            batch = RecordBatch.from_numeric(
                [key], np.array([value], dtype=self.org.combiner.dtype)
            )
        else:
            batch = RecordBatch.from_pairs([(key, value)])
        return bool(self.insert_batch(batch).success[0])

    def _stats_from(self, batch, indices, bucket_ids, tally) -> BatchStats:
        from repro.gpusim.atomics import hottest_count

        n = len(indices)
        cycles = batch.parse_cycles + (tally.table_cycles / n if n else 0.0)
        input_bytes = int(
            batch.key_lens[indices].sum()
            + (
                8 * n
                if batch.numeric_values is not None
                else int(batch.val_lens[indices].sum())
            )
        )
        hottest_alloc = 0
        if tally.alloc_groups:
            hottest_alloc = hottest_count(tally.alloc_groups.as_array())
        return BatchStats(
            n_records=n,
            cycles_per_record=cycles,
            divergence=batch.divergence,
            bytes_touched=tally.bytes_touched + input_bytes,
            hottest_bucket=hottest_count(bucket_ids),
            hottest_alloc=hottest_alloc,
        )

    # ------------------------------------------------------------------
    # SEPO iteration protocol
    # ------------------------------------------------------------------
    def should_halt(self) -> bool:
        """Must the computation stop mid-input? (basic method only)"""
        return self.org.should_halt(self)

    def gate_refuses(self, batch: RecordBatch) -> bool:
        """Would the gate postpone every op of ``batch`` untouched?  Yes for
        a mixed-op batch once every bucket group failed this iteration."""
        return self.alloc.failed_fraction == 1 and not batch.pure_insert

    def end_iteration(self, pcie_bus=None) -> EvictionReport:
        """Figure-5 rearrangement: evict per policy, refill the pool.

        When ``pcie_bus`` is given, the eviction copyback is charged as one
        bulky transfer, and chain maintenance as MAINTENANCE time.
        """
        report = self.org.end_iteration(self)
        self.iterations_completed += 1
        self.eviction_reports.append(report)
        if pcie_bus is not None and report.bytes_evicted:
            pcie_bus.bulk(report.bytes_evicted)
        if report.maintenance_cycles:
            self.ledger.charge(
                CostCategory.MAINTENANCE,
                report.maintenance_cycles / self.maintenance_throughput,
            )
        if self.heap.integrity is not None:
            self.heap.integrity.advance_epoch()
        self._drain_integrity_charges(pcie_bus)
        self.sanitize_check("iteration")
        return report

    def _drain_integrity_charges(self, pcie_bus=None) -> None:
        """Charge CRC work and torn-transfer retries accrued this iteration.

        Draining at the iteration boundary (rather than per check) keeps
        the simulated clock deterministic regardless of *when* within the
        iteration checks ran, which checkpoint/resume byte-identity relies
        on.
        """
        integrity = self.heap.integrity
        if integrity is None:
            return
        crc_bytes, retries = integrity.drain_pending()
        if crc_bytes:
            from repro.integrity import CRC_CYCLES_PER_BYTE

            self.ledger.charge(
                CostCategory.SCRUB,
                crc_bytes * CRC_CYCLES_PER_BYTE / self.maintenance_throughput,
            )
        if retries and pcie_bus is not None:
            for nbytes, attempts in retries:
                pcie_bus.torn_retry(nbytes, attempts)

    def maybe_scrub(self, pcie_bus=None) -> int:
        """Run one budgeted background-scrub sweep (``integrity="scrub"``).

        Called by the SEPO driver after each iteration's rearrangement.
        Returns the number of bytes checksummed (0 when scrubbing is off).
        Detection, quarantine, and repair happen inside the sweep; the CRC
        cost is charged to SCRUB immediately.
        """
        integrity = self.heap.integrity
        if integrity is None or integrity.mode != "scrub":
            return 0
        swept = integrity.scrub(self.heap)
        self._drain_integrity_charges(pcie_bus)
        return swept

    # ------------------------------------------------------------------
    # sanitizer hooks (see repro.sanitize)
    # ------------------------------------------------------------------
    def check_invariants(self):
        """Run a full sanitize pass now, regardless of the knob.

        Raises :class:`~repro.sanitize.sanitizer.SanitizerError` on any
        structural-invariant violation; returns the census report.
        """
        from repro.sanitize.sanitizer import check_table

        return check_table(self)

    def sanitize_check(self, point: str) -> None:
        """Check invariants if the sanitize level covers ``point``
        (``"end"`` | ``"iteration"`` | ``"batch"``)."""
        if self.sanitize == "off":
            return
        from repro.sanitize.sanitizer import should_check

        if should_check(self.sanitize, point):
            self.check_invariants()

    # ------------------------------------------------------------------
    # CPU-side access (the dual-pointer payoff)
    # ------------------------------------------------------------------
    def cpu_items(self) -> Iterator[tuple[bytes, Any]]:
        """Per-entry payloads of every bucket chain, walked via CPU
        pointers across resident and evicted segments alike, duplicates
        unmerged (:func:`cpu_chain_items`)."""
        heap = self.heap
        return cpu_chain_items(
            heap.segment_view, heap.page_size, self.buckets.head_cpu,
            self.org.kind, getattr(self.org, "combiner", None),
        )

    def result(self) -> dict[bytes, Any]:
        """The final merged mapping, resolving cross-iteration residue.

        * combining: duplicate keys are reduced with the combiner,
        * multi-valued: value lists of duplicate key entries are concatenated,
        * basic: every pair is kept (``dict[key, list[value]]``).

        ``impl="vectorized"`` tables read through the bulk reader;
        ``impl="slow_reference"`` tables merge :meth:`cpu_items` entry by
        entry -- the oracle the bulk reader is tested against.
        """
        if self.org.impl == "vectorized":
            return self._result_bulk()
        return merge_chain_items(
            self.cpu_items(), self.org.kind,
            getattr(self.org, "combiner", None),
        )

    def _result_bulk(self) -> dict[bytes, Any]:
        """:meth:`result` without per-entry pointer chasing.

        Every bucket chain is walked level-synchronously through one flat
        image of the CPU side; keys and byte values are slices of that
        image.  Where a flag bit is set anywhere, the entries are grouped
        by key in numpy and the flags resolve as one mask over the groups
        (:func:`_live_groups`), so only the keys that show and their
        values become ``bytes``; a table without one (every insert-only
        table) slices every key and merges them through a dict, which is
        quicker there.
        """
        heads = self.buckets.head_cpu[self.buckets.occupied_buckets()]
        if not len(heads):
            return {}
        blob = self.heap.cpu_image()
        image = np.frombuffer(blob, dtype=np.uint8)
        if isinstance(self.org, MultiValuedOrganization):
            return self._result_multivalued(blob, image, heads)
        combining = isinstance(self.org, CombiningOrganization)
        (pos, klens, vlens, flags), _ = walk_cpu_image(image, heads, "generic")
        ko = pos + E.ENTRY_HEADER
        vo = ko + klens
        dead = (flags & E.GFLAG_TOMBSTONE) != 0
        # combining entries never carry SHADOW: an update is a combine
        closing = dead if combining else flags != 0
        flagged = closing.any()
        if flagged:
            groups = _live_groups(image, ko, klens, closing, dead)
            if groups is not None:
                idx, starts = groups
                first = idx[starts]
                keys = _slices(blob, ko[first], vo[first])
                return self._merge_groups(blob, image, keys, vo[idx],
                                          vlens[idx], starts)
        keys = _slices(blob, ko, vo)
        if flagged:  # a 64-bit hash collision: the dict labels the keys
            show = _visible(_key_groups(keys)[1], closing, dead)
            keys = list(compress(keys, show.tolist()))
            vo, vlens = vo[show], vlens[show]
        if not combining:
            pairs: dict[bytes, list[bytes]] = {}
            for key, value in zip(keys, _slices(blob, vo, vo + vlens)):
                pairs.setdefault(key, []).append(value)
            return pairs
        comb = self.org.combiner
        values = E.gather_field(image, vo, comb.dtype.newbyteorder("<"))
        last, label = _key_groups(keys)
        if label is None:
            return dict(zip(keys, values.tolist()))
        if comb.ufunc is None:  # callbacks: the per-entry merge of result()
            out: dict[bytes, Any] = {}
            for key, value in zip(keys, values.tolist()):
                out[key] = comb.combine(value, out[key]) if key in out else value
            return out
        # keys split across iterations: newest first in walk order, each
        # older scalar folded in from the left, as the merge loop does;
        # the folded value lands on the key's last (oldest) entry
        split = np.zeros(len(keys), dtype=bool)
        split[label[label != np.arange(len(keys))]] = True
        members = np.flatnonzero(split[label])
        order = members[np.argsort(label[members], kind="stable")]
        starts = np.flatnonzero(
            np.concatenate(([True], np.diff(label[order]) != 0)))
        values[label[order[starts]]] = comb.fold_segments(
            values[order], starts, acc_right=True
        )
        at = np.fromiter(last.values(), np.int64, len(last))
        return dict(zip(last, values[at].tolist()))

    def _merge_groups(self, blob, image, keys, vo, vlens, starts) -> dict:
        """The mapping of :func:`_live_groups`' output: one distinct key a
        group, the values that show laid out group after group (walk
        order within one) at ``vo``, ``starts`` where each group begins."""
        bounds = np.append(starts, len(vo)).tolist()
        spans = zip(keys, bounds, bounds[1:])
        if not isinstance(self.org, CombiningOrganization):
            values = _slices(blob, vo, vo + vlens)
            return {key: values[lo:hi] for key, lo, hi in spans}
        comb = self.org.combiner
        values = E.gather_field(image, vo, comb.dtype.newbyteorder("<"))
        if comb.ufunc is not None:
            folded = comb.fold_segments(values, starts, acc_right=True)
            return dict(zip(keys, folded.tolist()))
        values = values.tolist()  # callbacks: newest first, acc on the right
        out: dict[bytes, Any] = {}
        for key, lo, hi in spans:
            acc = values[lo]
            for value in values[lo + 1:hi]:
                acc = comb.combine(value, acc)
            out[key] = acc
        return out

    def _result_multivalued(self, blob, image, heads) -> dict[bytes, list]:
        (pos, klens, _, flags), _ = walk_cpu_image(image, heads, "key")
        vhead = image.view(np.int64)[(pos >> 3) + 3]
        # an unborn key entry is unacknowledged: invisible, and it closes
        # nothing (see cpu_items)
        born = ~E.key_entry_unborn(flags, vhead)
        pos, klens, flags, vhead = pos[born], klens[born], flags[born], vhead[born]
        ko = pos + E.KEY_ENTRY_HEADER
        tomb = (flags & E.FLAG_TOMBSTONE) != 0
        groups = _live_groups(image, ko, klens, tomb, tomb) if tomb.any() else None
        if groups is not None:
            idx, starts = groups
            first = idx[starts]
            keys = _slices(blob, ko[first], ko[first] + klens[first])
            vhead = vhead[idx]
        else:
            keys = _slices(blob, ko, ko + klens)
            if tomb.any():  # a 64-bit hash collision: the dict labels them
                show = _visible(_key_groups(keys)[1], tomb, tomb)
                keys = list(compress(keys, show.tolist()))
                vhead = vhead[show]
        # every visible key entry's value list, walked together
        (vpos, _, vlens, _), counts = walk_cpu_image(image, vhead, "value")
        vo = vpos + E.VALUE_NODE_HEADER
        values = _slices(blob, vo, vo + vlens)
        ends = np.cumsum(counts)
        if groups is not None:  # a key's entries are neighbours: one span
            bounds = np.append(0, ends)[np.append(starts, len(counts))].tolist()
            return {key: values[lo:hi]
                    for key, lo, hi in zip(keys, bounds, bounds[1:])}
        out: dict[bytes, list[bytes]] = {}
        for key, lo, hi in zip(keys, (ends - counts).tolist(), ends.tolist()):
            chunk = values[lo:hi]
            if out.setdefault(key, chunk) is not chunk:
                out[key] += chunk  # a key split across key entries
        return out

    # ------------------------------------------------------------------
    @property
    def load_factor(self) -> float:
        """Entries per bucket (can exceed 1; chains degrade gracefully)."""
        return self.total_inserted / self.buckets.n_buckets
