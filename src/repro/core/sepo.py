"""The SEPO model of computation (Section III).

SEPO = *Selective Postponement*: a requestee (the hash table) may decline a
request (an insert) when servicing it would be inefficient -- here, when the
GPU-side heap cannot allocate -- and the requestor (the application) tracks
declined requests in a bitmap and reissues them on a later pass over the
input.

:class:`SepoDriver` is the requestor-side loop of Figure 5: it streams the
input through BigKernel, inserts pending records, honours the organization's
halt policy (the basic method stops at 50% failed bucket groups), triggers
the end-of-iteration rearrangement, and repeats until the bitmap is clean.
A mixed-op chunk the gate would refuse whole (every bucket group has failed)
is not streamed: its records stay pending, as the gate would leave them.

What is launched and charged is one chunk; a host call is not a launch.
Consecutive chunks of one kind -- pure inserts, or mixed ops -- go to the
table in one call, and each chunk the call applied is then charged,
streamed and marked as its own launch.  A call over mixed-op chunks stops
after the chunk where the gate would start refusing or the basic method
would halt; the chunks after it stay pending and uncharged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, auto
from typing import Sequence

import numpy as np

from repro.bigkernel.pipeline import BigKernelPipeline
from repro.core.bitmap import PendingBitmap
from repro.core.hashtable import GpuHashTable, run_fits
from repro.core.records import RecordBatch
from repro.gpusim.kernel import KernelModel
from repro.gpusim.pcie import PCIeBus

__all__ = [
    "Status",
    "IterationRecord",
    "RunState",
    "SepoReport",
    "SepoDriver",
    "NoProgressError",
]


class Status(Enum):
    """Requestee responses in the SEPO protocol."""

    SUCCESS = auto()
    POSTPONE = auto()


class NoProgressError(RuntimeError):
    """An entire pass over the pending records inserted nothing.

    This means the heap cannot host even one more entry (e.g. every page is
    pinned by pending multi-valued keys); larger pages, more heap, or fewer
    bucket groups are required.
    """


@dataclass
class IterationRecord:
    """Telemetry for one SEPO iteration."""

    index: int
    attempted: int = 0
    succeeded: int = 0
    postponed: int = 0
    halted_early: bool = False
    evicted_bytes: int = 0
    pages_retained: int = 0


@dataclass
class RunState:
    """Mutable requestor-side state of an in-flight SEPO run.

    Everything the iteration loop carries between passes lives here (rather
    than in local variables) so that a resilient driver can journal it at a
    checkpoint and restore it on resume.  ``starts``/``total`` are derived
    from the batches and recomputed at resume; the rest is genuine state.
    """

    bitmap: PendingBitmap
    starts: np.ndarray
    total: int
    log: list[IterationRecord] = field(default_factory=list)
    streamed: int = 0
    iteration: int = 0
    stuck_passes: int = 0
    #: chunks whose BatchCache has been released (hashes, bucket ids and
    #: byte materializations are only worth keeping while reissues loom)
    released: list[bool] = field(default_factory=list)
    #: chunk indices that may still hold pending records.  A per-pass skip
    #: list: late SEPO iterations typically reissue postponed subsets from a
    #: few chunks, and pruning finished chunks here means a pass costs
    #: O(active chunks), not O(all chunks).  Derived state -- ``None`` means
    #: "rebuild from the bitmap", which is how a journal restore (which only
    #: persists the bitmap) re-synchronizes it.
    active: list[int] | None = None


@dataclass
class SepoReport:
    """Result of a complete SEPO run."""

    iterations: int
    total_records: int
    elapsed_seconds: float
    breakdown: dict[str, float]
    iteration_log: list[IterationRecord] = field(default_factory=list)
    input_bytes_streamed: int = 0
    table_bytes: int = 0

    @property
    def postponement_rate(self) -> float:
        """Fraction of insert attempts that were postponed."""
        attempts = sum(r.attempted for r in self.iteration_log)
        if not attempts:
            return 0.0
        return sum(r.postponed for r in self.iteration_log) / attempts


class SepoDriver:
    """Requestor-side iteration loop over a batched input."""

    def __init__(
        self,
        table: GpuHashTable,
        kernel: KernelModel,
        bus: PCIeBus,
        pipeline: BigKernelPipeline | None = None,
        max_iterations: int = 1000,
    ):
        if kernel.ledger is not table.ledger:
            raise ValueError("table and kernel must share one ledger")
        self.table = table
        self.kernel = kernel
        self.bus = bus
        self.pipeline = pipeline if pipeline is not None else BigKernelPipeline(bus)
        self.max_iterations = max_iterations

    # ------------------------------------------------------------------
    # the requestor protocol: begin / step / finalize
    # ------------------------------------------------------------------
    def begin(self, batches: Sequence[RecordBatch]) -> RunState:
        """Fresh run state over ``batches`` (everything pending)."""
        starts = np.cumsum([0] + [len(b) for b in batches])
        total = int(starts[-1])
        return RunState(
            bitmap=PendingBitmap(total),
            starts=starts,
            total=total,
            released=[False] * len(batches),
        )

    def run_pass(
        self,
        batches: Sequence[RecordBatch],
        state: RunState,
        limit: int | None = None,
    ) -> IterationRecord:
        """One pass over every still-pending record (no rearrangement).

        Consecutive chunks of one kind are applied by one table call
        (:func:`~repro.core.hashtable.run_fits` says how many): mixed-op
        chunks under every organization, pure-insert chunks under an
        organization that never halts (the basic method's each take a
        call, and :meth:`GpuHashTable.should_halt` is asked after each).
        Every chunk the call applied is still charged as its own launch,
        in order.  A mixed-op call stops where one call a chunk would have
        stopped -- after the chunk that leaves the gate refusing, or the
        basic method halting -- and the halt rule is asked after it.
        ``limit`` caps the pending records attempted per batch -- the
        graceful-degradation "chunk shrinking" rung, which bounds the
        per-pass allocation burst on a starved heap.
        """
        table = self.table
        rec = IterationRecord(index=state.iteration)
        self.pipeline.begin_pass()
        if state.active is None:
            state.active = list(range(len(batches)))
        still_active: list[int] = []
        run: list[tuple[int, np.ndarray]] = []  # (chunk, pending) to apply
        records = 0
        for ai, ci in enumerate(state.active):
            batch, start = batches[ci], state.starts[ci]
            pending = state.bitmap.pending_in(int(start), int(start) + len(batch))
            if pending.size == 0:
                # fully processed chunk: not re-streamed, cache released,
                # and dropped from the skip list for good
                if not state.released[ci]:
                    batch.invalidate_cache()
                    state.released[ci] = True
                continue
            still_active.append(ci)
            if limit is not None and pending.size > limit:
                pending = pending[:limit]
            joins = not (batch.pure_insert and table.org.halts)
            if run and not (
                joins and run_fits(batches[run[0][0]], records, batch, pending.size)
            ):
                self._apply_run(batches, state, run, rec)
                run, records = [], 0
                if rec.halted_early:
                    # unvisited chunks stay active for the next pass
                    still_active.extend(state.active[ai + 1:])
                    break
            if table.gate_refuses(batch):
                # what the gate would do, for free: no transfer, no launch,
                # every record pending for the next pass
                continue
            run.append((ci, pending))
            records += pending.size
            if joins:
                continue
            self._apply_run(batches, state, run, rec)
            run, records = [], 0
            if rec.halted_early:
                still_active.extend(state.active[ai + 1:])
                break
        if run:
            self._apply_run(batches, state, run, rec)
        state.active = still_active
        return rec

    def _apply_run(self, batches, state: RunState, run, rec) -> None:
        """One table call over ``run``'s (chunk, pending) pairs, then per
        chunk it applied, in order: its launch, its transfer, its bitmap
        bits.  The chunks a mixed-op call stopped before stay pending (they
        were already kept active).  Then the halt rule."""
        ledger = self.table.ledger
        results = self.table.apply_batch(
            [(batches[ci], pending - int(state.starts[ci])) for ci, pending in run]
        )
        for (ci, pending), result in zip(run, results):
            batch = batches[ci]
            before = ledger.elapsed
            self.kernel.charge(result.stats)
            self.pipeline.account(batch.input_bytes, ledger.elapsed - before)
            state.streamed += batch.input_bytes
            state.bitmap.mark_done(pending[result.success])
            rec.attempted += len(pending)
            rec.succeeded += result.n_success
            rec.postponed += result.n_postponed
        if self.table.should_halt():
            rec.halted_early = True

    def finish_iteration(self, state: RunState, rec: IterationRecord):
        """Figure-5 rearrangement + telemetry; returns the eviction report."""
        report = self.table.end_iteration(self.bus)
        # background integrity scrub: one budgeted sweep per iteration,
        # at the boundary where the table is quiescent (no in-flight pass)
        self.table.maybe_scrub(self.bus)
        rec.evicted_bytes = report.bytes_evicted
        rec.pages_retained = report.pages_retained
        state.log.append(rec)
        return report

    def finalize(
        self, batches: Sequence[RecordBatch], state: RunState
    ) -> SepoReport:
        """Release caches, run the end sanitize pass, build the report."""
        for ci, batch in enumerate(batches):
            if not state.released[ci]:
                batch.invalidate_cache()

        # sanitize="end": one full invariant pass over the finished table
        # (iteration/paranoid levels have already checked along the way).
        self.table.sanitize_check("end")

        ledger = self.table.ledger
        return SepoReport(
            iterations=state.iteration,
            total_records=state.total,
            elapsed_seconds=ledger.elapsed,
            breakdown=ledger.breakdown(),
            iteration_log=state.log,
            input_bytes_streamed=state.streamed,
            table_bytes=self.table.heap.total_table_bytes,
        )

    def step(
        self,
        batches: Sequence[RecordBatch],
        state: RunState,
        limit: int | None = None,
        give_up=None,
    ) -> None:
        """One whole SEPO iteration: pass, liveness rules, rearrangement.

        The one pass loop body: :meth:`run`, the sharded executor's
        round-robin and the resilient driver all call it while
        ``state.bitmap`` has pending bits.  ``limit`` is :meth:`run_pass`'s.
        Where the loop has no move left -- the iteration budget is spent
        (no pass is made), or a second consecutive pass inserted nothing
        (before the rearrangement, which then sees what the call-out
        evicted) -- it raises :class:`NoProgressError`, unless the caller
        supplies ``give_up(batches, state, reason)`` to run in its place.
        """

        def stalled(reason: str) -> None:
            if give_up is None:
                raise NoProgressError(reason)
            give_up(batches, state, reason)

        state.iteration += 1
        if state.iteration > self.max_iterations:
            stalled(f"exceeded {self.max_iterations} SEPO iterations")
            return
        rec = self.run_pass(batches, state, limit)
        if rec.succeeded == 0 and rec.attempted > 0:
            # One stuck pass is recoverable: the end-of-iteration
            # rearrangement (including the multi-valued deadlock
            # fallback) frees pages.  Two in a row means the heap truly
            # cannot host a single entry.
            state.stuck_passes += 1
            if state.stuck_passes >= 2:
                stalled(
                    "two consecutive SEPO passes made no progress; the "
                    "heap cannot host the working set"
                )
        else:
            state.stuck_passes = 0
        self.finish_iteration(state, rec)

    # ------------------------------------------------------------------
    def run(self, batches: Sequence[RecordBatch]) -> SepoReport:
        """Process every record of every batch to completion."""
        state = self.begin(batches)
        while state.bitmap.any_pending():
            self.step(batches, state)
        return self.finalize(batches, state)
