"""Host-side request router: many client streams, one sharded table.

Clients :meth:`~ShardRouter.submit` small op batches (inserts, updates,
deletes, lookups -- anything a :class:`~repro.core.mutations.
MutationBatch` or plain :class:`~repro.core.records.RecordBatch`
carries) from interleaved streams.  Submitting never answers anything
directly: the router hashes each batch once, keeps one copy of it that
it owns (the client may reuse its arrays as soon as ``submit`` returns),
and queues per key-space shard the rows of that copy the shard owns,
*coalescing* them until a shard has accumulated a SEPO-sized chunk
(``chunk_records``).  A flush then gathers every maximal run of
compatible neighbouring slices (same :attr:`~repro.core.records.
RecordBatch.concat_key`: class, value kind, parse costs) into one batch
with one :meth:`~repro.core.records.RecordBatch.concat` of their rows and
runs that shard's driver over the merged batches.  Arrival order never changes;
an incompatible neighbour starts the next batch.
Tiny client batches therefore never reach a device as tiny kernel
launches -- homogeneous traffic is one launch per flush per SEPO pass,
the whole point of the router -- and since per-key order, the
sticky-group gate and lookup-after-write are those of one
``MutationBatch``, a lookup sees the writes of earlier tickets in its
flush.

Two bounds shape the queueing:

* ``chunk_records`` -- a shard flushes as soon as its queue reaches this
  many records (amortizes launch + transfer overhead per the cost model).
* ``max_pending_records`` -- backpressure: total queued records across
  all shards never exceeds this; an over-budget submit first flushes the
  fullest queues, so host memory stays bounded no matter how skewed the
  traffic.

Answers are merged back *per submission*: every ticket's lookup results
are re-keyed to that batch's own row numbers, and :meth:`~ShardRouter.
drain` returns them in submission order, regardless of which shard
answered what and when.

When a shard's run raises (``NoProgressError``, ``TransferError``,
``CorruptionError``) the exception propagates out of the ``submit`` or
``drain`` that flushed; every ticket with a slice in that flush carries
it as :attr:`Ticket.error` and never becomes ``done``.  The flush is not
re-queued -- part of it may have been applied, and a replay would apply
it twice -- and the other shards' queues are untouched, so a second
``drain()`` completes them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from typing import Any

from repro.core.mutations import split_answers
from repro.core.records import RecordBatch
from repro.memalloc.allocator import _run_bounds, _stable_order

__all__ = ["Ticket", "ShardRouter"]


@dataclass
class Ticket:
    """Handle for one submitted batch; resolved at flush/drain time."""

    seq: int
    n_records: int
    #: per-shard slice count still queued (0 = fully executed)
    pending_parts: int = 0
    #: parent-batch-local lookup answers, filled as shards flush
    results: dict[int, Any] = field(default_factory=dict)
    #: what a flush holding one of this batch's slices raised, if one did
    error: Exception | None = None

    @property
    def done(self) -> bool:
        return self.pending_parts == 0


class ShardRouter:
    """Batching front door for a :class:`~repro.shard.ShardedExecutor`."""

    def __init__(
        self,
        executor,
        *,
        chunk_records: int = 1024,
        max_pending_records: int = 8192,
    ):
        if chunk_records < 1:
            raise ValueError(f"chunk_records must be >= 1: {chunk_records}")
        if max_pending_records < chunk_records:
            raise ValueError(
                "max_pending_records must be >= chunk_records "
                f"({max_pending_records} < {chunk_records})"
            )
        self.executor = executor
        self.chunk_records = chunk_records
        self.max_pending_records = max_pending_records
        #: per-shard FIFO of (ticket, owned copy of its batch, rows)
        self._queues: list[list[tuple]] = [
            [] for _ in range(executor.n_shards)
        ]
        self._queued_records = [0] * executor.n_shards
        self._tickets: list[Ticket] = []
        self.stats = {
            "submitted_batches": 0,
            "submitted_records": 0,
            "chunk_flushes": 0,
            "backpressure_flushes": 0,
            "drain_flushes": 0,
            "flushed_chunks_records": 0,
        }

    # ------------------------------------------------------------------
    @property
    def pending_records(self) -> int:
        return sum(self._queued_records)

    def submit(self, batch: RecordBatch) -> Ticket:
        """Queue one client batch; may trigger shard flushes, never answers.

        Returns a :class:`Ticket` whose ``results`` dict fills in (keyed
        by the batch's own row numbers) as the owning shards flush.
        """
        ticket = Ticket(seq=len(self._tickets), n_records=len(batch))
        self._tickets.append(ticket)
        self.stats["submitted_batches"] += 1
        self.stats["submitted_records"] += len(batch)
        # Backpressure first: make room before queueing, flushing the
        # fullest shards (most records retired per driver run).
        while (
            self.pending_records
            and self.pending_records + len(batch) > self.max_pending_records
        ):
            fullest = max(
                range(len(self._queues)), key=self._queued_records.__getitem__
            )
            self._flush_shard(fullest, cause="backpressure_flushes")
        if len(batch):
            # the copy carries any hashes the batch already has; hashing
            # it (once) freezes the copy, never the client's arrays
            own = batch.copy()
            shard_ids = self.executor.shard_map.shard_of_hash(own.cache.hashes())
            # one stable sort: each shard's rows, in arrival order
            order = _stable_order(shard_ids)
            bounds = _run_bounds(shard_ids[order]).tolist()
            for lo, hi in zip(bounds, bounds[1:]):
                s = int(shard_ids[order[lo]])
                self._queues[s].append((ticket, own, order[lo:hi]))
                self._queued_records[s] += hi - lo
                ticket.pending_parts += 1
        # Coalescing trigger: any shard that now holds a SEPO-sized chunk
        # executes immediately.
        for s in range(len(self._queues)):
            if self._queued_records[s] >= self.chunk_records:
                self._flush_shard(s, cause="chunk_flushes")
        return ticket

    def drain(self) -> list[dict[int, Any]]:
        """Flush every queue; return all tickets' results in submit order."""
        for s in range(len(self._queues)):
            if self._queues[s]:
                self._flush_shard(s, cause="drain_flushes")
        return [t.results for t in self._tickets]

    # ------------------------------------------------------------------
    def _flush_shard(self, s: int, cause: str) -> None:
        queue = self._queues[s]
        if not queue:
            return
        self._queues[s] = []
        n = self._queued_records[s]
        self._queued_records[s] = 0
        self.stats[cause] += 1
        self.stats["flushed_chunks_records"] += n
        # One coalesced SEPO run, one batch per maximal run of compatible
        # slices, arrival order.  The shard's table persists across runs,
        # so interleaved streams see one consistent table.
        runs = [
            list(run) for _key, run in groupby(queue, lambda q: q[1].concat_key)
        ]
        merged = [
            RecordBatch.concat([own for _t, own, _r in run],
                               [rows for _t, _o, rows in run])
            for run in runs
        ]
        try:
            self.executor.drivers[s].run(merged)
        except Exception as exc:
            # Part of the flush may have been applied: replaying it would
            # double-apply, so nothing is re-queued; the tickets say why
            # they will never be done.
            for ticket, _own, _rows in queue:
                ticket.error = exc
            raise
        self.executor.total_records += n
        for run, batch in zip(runs, merged):
            # merged row -> the ticket it came from, and its row there
            answers = split_answers(
                getattr(batch, "lookup_results", None),
                [rows for _t, _o, rows in run])
            for p, row, value in answers:
                run[p][0].results[row] = value
            for ticket, _own, _rows in run:
                ticket.pending_parts -= 1
