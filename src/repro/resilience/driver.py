"""Resilient SEPO execution: checkpoint/resume + graceful degradation.

:class:`ResilientDriver` wraps a :class:`~repro.core.sepo.SepoDriver` and
speaks its ``begin`` / ``step`` / ``finalize`` protocol (DESIGN.md "Run
path"; ``docs/robustness.md`` has the semantics), adding to each
iteration:

* **Journaled checkpoints.**  Every ``checkpoint_every`` iterations the
  table is quiesced (force-evicted -- after which the whole table is
  CPU-addressable and pool slot order is the only GPU-side state) and an
  atomic journal is written.  A SIGKILL'd run restarted with
  ``resume=True`` replays from the last journal and produces a final
  table *byte-identical* to an uninterrupted run of the same
  configuration: checkpoint quiesces perturb page layout, so the
  uninterrupted oracle is the same ``ResilientDriver`` schedule, not the
  bare ``SepoDriver``.

* **Degradation ladder.**  Where the stock driver raises
  :class:`~repro.core.sepo.NoProgressError`, ``SepoDriver.step`` calls
  out to this driver instead, which escalates: (1) *forced eviction* --
  quiesce the heap, flushing even pinned multi-valued key pages; (2)
  *chunk shrinking* -- cap the pending records attempted per batch,
  halving down to one, to bound the allocation burst a starved heap must
  absorb; (3) *CPU-table fallback* -- consume every still-pending record
  into a host-side dict (charged as HOST time) and merge it into the
  result.  Each escalation emits a structured :class:`DegradationEvent`;
  progress de-escalates (the cap grows back and the episode resets).

* **Transient-fault visibility.**  PCIe retries happen inside
  :class:`~repro.gpusim.pcie.PCIeBus`; this driver surfaces their count
  and simulated cost in the :class:`ResilientReport`.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.core.checkpoint import (
    CheckpointError,
    load_table,
    quiesce_table,
    restore_clock,
    restore_table,
    snapshot_table,
)
from repro.core.organizations import (
    CombiningOrganization,
    HASH_CYCLES_PER_BYTE,
    INSERT_CYCLES,
)
from repro.core.records import RecordBatch
from repro.core.sepo import (
    IterationRecord,
    NoProgressError,
    RunState,
    SepoDriver,
    SepoReport,
)
from repro.gpusim.clock import CostCategory
from repro.integrity import CorruptionError
from repro.resilience.journal import (
    JournalError,
    input_fingerprint,
    read_journal,
    write_journal,
)

__all__ = [
    "DegradationEvent",
    "DegradedTable",
    "ResilientDriver",
    "ResilientReport",
]

#: ladder rungs, in escalation order
FORCED_EVICTION = "forced-eviction"
CHUNK_SHRINK = "chunk-shrink"
CPU_FALLBACK = "cpu-fallback"
#: not a rung: unrepairable integrity damage recorded on the way out
DATA_CORRUPTION = "data-corruption"

#: the bus's and the pipeline's running totals, journaled and restored by
#: name (ints and floats, which the journal's JSON meta keeps apart)
_BUS_COUNTERS = (
    "bytes_moved", "transactions", "transfer_ops", "retries", "retry_seconds",
)
_PIPELINE_COUNTERS = ("chunks_streamed", "exposed_seconds")


@dataclass
class DegradationEvent:
    """One structured record of the policy engine stepping in."""

    action: str  # FORCED_EVICTION | CHUNK_SHRINK | CPU_FALLBACK
    iteration: int
    pending_before: int
    detail: str = ""


@dataclass
class ResilientReport:
    """A finished resilient run: SEPO telemetry + recovery telemetry."""

    sepo: SepoReport
    table: Any  # GpuHashTable | DegradedTable
    checkpoints_written: int = 0
    resumed_from_iteration: int | None = None
    degradation_events: list[DegradationEvent] = field(default_factory=list)
    #: failed PCIe attempts absorbed by backoff-and-retry
    retries: int = 0
    #: simulated seconds those failures + backoff cost (RETRY category)
    retry_seconds: float = 0.0

    @property
    def elapsed_seconds(self) -> float:
        return self.sepo.elapsed_seconds

    @property
    def iterations(self) -> int:
        return self.sepo.iterations

    @property
    def breakdown(self) -> dict[str, float]:
        return self.sepo.breakdown

    @property
    def degraded(self) -> bool:
        return bool(self.degradation_events)


class DegradedTable:
    """A GPU table plus the host-side overflow a CPU fallback absorbed.

    Presents the same read interface as the underlying table (attribute
    access delegates), with :meth:`result` merging the overflow per the
    organization's semantics.  The wrapped table stays reachable as
    ``.table`` for introspection.
    """

    def __init__(self, table, overflow: dict[bytes, Any]):
        self.table = table
        self.overflow = overflow

    def __getattr__(self, name):
        return getattr(self.table, name)

    def result(self) -> dict[bytes, Any]:
        out = self.table.result()
        if isinstance(self.table.org, CombiningOrganization):
            comb = self.table.org.combiner
            for key, value in self.overflow.items():
                out[key] = (
                    comb.combine(out[key], value) if key in out else value
                )
        else:
            for key, values in self.overflow.items():
                out.setdefault(key, []).extend(values)
        return out


class ResilientDriver:
    """Crash-recoverable, failure-tolerant wrapper over ``SepoDriver``."""

    def __init__(
        self,
        driver: SepoDriver,
        journal_path=None,
        checkpoint_every: int = 1,
    ):
        if checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0 (0 disables)")
        self.driver = driver
        self.journal_path = journal_path
        self.checkpoint_every = checkpoint_every
        self.events: list[DegradationEvent] = []
        self.checkpoints_written = 0
        self.resumed_from: int | None = None
        #: current chunk-shrink cap (None = unlimited)
        self._limit: int | None = None
        #: forced eviction already tried in the current stuck episode
        self._episode_evicted = False
        self._overflow: dict[bytes, Any] = {}

    # ------------------------------------------------------------------
    # the requestor protocol, as SepoDriver spells it
    # ------------------------------------------------------------------
    def begin(
        self, batches: Sequence[RecordBatch], resume: bool = False
    ) -> RunState:
        """Fresh run state, or the journaled one when ``resume`` finds a
        journal.

        ``resume`` with no journal on disk starts fresh (so a crash-loop
        supervisor can always pass ``--resume``); whether a journal was
        actually used is reported as ``resumed_from_iteration``.
        """
        if resume and self.journal_path and os.path.exists(self.journal_path):
            return self._restore(batches)
        return self.driver.begin(batches)

    def step(self, batches: Sequence[RecordBatch], state: RunState) -> None:
        """The stock iteration with the ladder as its call-out, then
        de-escalation on progress, then the checkpoint."""
        try:
            self.driver.step(
                batches, state, limit=self._limit, give_up=self._escalate
            )
            if state.stuck_passes == 0:
                self._deescalate(batches)
            if self._should_checkpoint(state):
                self.checkpoint(batches, state)
        except CorruptionError as exc:
            # unrepairable damage: record a structured event so operators
            # see the ladder bottoming out, then refuse to answer --
            # propagating beats returning a table with garbage bytes
            self._event(DATA_CORRUPTION, state, exc.event.describe())
            raise

    def finalize(
        self, batches: Sequence[RecordBatch], state: RunState
    ) -> ResilientReport:
        d = self.driver
        report = d.finalize(batches, state)
        table = d.table
        if self._overflow:
            table = DegradedTable(table, self._overflow)
        return ResilientReport(
            sepo=report,
            table=table,
            checkpoints_written=self.checkpoints_written,
            resumed_from_iteration=self.resumed_from,
            degradation_events=list(self.events),
            retries=d.bus.retries,
            retry_seconds=d.bus.retry_seconds,
        )

    def run(
        self, batches: Sequence[RecordBatch], resume: bool = False
    ) -> ResilientReport:
        """Run to completion; ``resume=True`` replays an existing journal."""
        state = self.begin(batches, resume)
        while state.bitmap.any_pending():
            self.step(batches, state)
        return self.finalize(batches, state)

    # ------------------------------------------------------------------
    # degradation ladder
    # ------------------------------------------------------------------
    def _escalate(self, batches, state: RunState, reason: str) -> None:
        """``SepoDriver.step``'s call-out: where the stock driver raises."""
        d = self.driver
        if state.iteration > d.max_iterations:
            # budget spent: no gentler rung buys another iteration
            self._fallback(batches, state, reason)
            return
        if not self._episode_evicted:
            # Rung 1: flush everything, pinned pages included.  The stock
            # end_iteration already evicts per policy; what it never does
            # (outside multi-valued deadlock avoidance) is evict *pinned*
            # key pages or reset a poisoned allocator episode wholesale.
            moved = quiesce_table(d.table, d.bus)
            self._episode_evicted = True
            self._event(
                FORCED_EVICTION, state, f"flushed {moved} bytes to host"
            )
            state.stuck_passes = 1
            return
        if self._limit is None or self._limit > 1:
            # Rung 2: bound the per-batch allocation burst.
            if self._limit is None:
                self._limit = max(1, max(len(b) for b in batches) // 2)
            else:
                self._limit //= 2
            self._event(CHUNK_SHRINK, state, f"cap {self._limit}/batch")
            state.stuck_passes = 1
            return
        # Rung 3: the heap cannot host even one record per pass.
        self._fallback(
            batches, state,
            "no progress at cap 1/batch after forced eviction",
        )

    def _deescalate(self, batches) -> None:
        """Progress resets the episode and relaxes any shrink cap."""
        self._episode_evicted = False
        if self._limit is not None:
            self._limit *= 4
            if self._limit >= max(len(b) for b in batches):
                self._limit = None

    def _fallback(self, batches, state: RunState, reason: str) -> None:
        """Consume every pending record into a host-side dict (HOST time).

        The GPU table keeps everything it already holds; the overflow
        dict is merged at result time by :class:`DegradedTable`.  Not
        checkpointed: a kill between fallback and completion resumes from
        the pre-fallback journal and deterministically redoes it.
        """
        d = self.driver
        table = d.table
        combining = isinstance(table.org, CombiningOrganization)
        comb = table.org.combiner if combining else None
        pending_total = state.bitmap.pending_count
        cycles = 0.0
        for batch, start in zip(batches, state.starts):
            pending = state.bitmap.pending_in(int(start), int(start) + len(batch))
            if pending.size == 0:
                continue
            if not batch.pure_insert:
                # A host overflow merges *additively* into the result;
                # pending deletes/updates cannot be expressed that way
                # (they would have to mutate the GPU table's own entries),
                # so this rung is unsound for mixed-op batches.
                raise NoProgressError(
                    "CPU fallback cannot absorb a mutation batch "
                    f"(deletes/updates pending): {reason}"
                )
            keys = batch.key_bytes_list()
            for i in (pending - int(start)).tolist():
                key = keys[i]
                cycles += HASH_CYCLES_PER_BYTE * len(key) + INSERT_CYCLES
                if combining:
                    v = batch.numeric_values[i].item()
                    self._overflow[key] = (
                        comb.combine(self._overflow[key], v)
                        if key in self._overflow
                        else v
                    )
                else:
                    self._overflow.setdefault(key, []).append(
                        batch.value_bytes(i)
                    )
            state.bitmap.mark_done(pending)
        table.ledger.charge(
            CostCategory.HOST, cycles / table.maintenance_throughput
        )
        self._event(
            CPU_FALLBACK, state,
            f"{pending_total} records to host table: {reason}",
            pending=pending_total,
        )

    def _event(
        self, action: str, state: RunState, detail: str,
        pending: int | None = None,
    ) -> None:
        self.events.append(
            DegradationEvent(
                action=action,
                iteration=state.iteration,
                pending_before=(
                    state.bitmap.pending_count if pending is None else pending
                ),
                detail=detail,
            )
        )

    # ------------------------------------------------------------------
    # journaling
    # ------------------------------------------------------------------
    def _should_checkpoint(self, state: RunState) -> bool:
        return (
            self.journal_path is not None
            and self.checkpoint_every > 0
            and state.iteration % self.checkpoint_every == 0
            and state.bitmap.any_pending()
        )

    def checkpoint(self, batches, state: RunState) -> None:
        """Quiesce and journal the run at an iteration boundary."""
        d = self.driver
        quiesce_table(d.table, d.bus)
        table_meta, arrays = snapshot_table(d.table)
        arrays["pending"] = state.bitmap.snapshot()
        arrays["released"] = np.asarray(state.released, dtype=bool)
        arrays["log"] = np.array(
            [
                [r.index, r.attempted, r.succeeded, r.postponed,
                 int(r.halted_early), r.evicted_bytes, r.pages_retained]
                for r in state.log
            ],
            dtype=np.int64,
        ).reshape(len(state.log), 7)
        bus = d.bus
        meta = {
            "table": table_meta,
            "driver": {
                "iteration": state.iteration,
                "stuck_passes": state.stuck_passes,
                "streamed": state.streamed,
                "limit": self._limit,
                "episode_evicted": self._episode_evicted,
            },
            "clock": d.table.ledger.breakdown(),
            "bus": {k: getattr(bus, k) for k in _BUS_COUNTERS},
            "pipeline": {
                k: getattr(d.pipeline, k) for k in _PIPELINE_COUNTERS
            },
            "fingerprint": input_fingerprint(batches),
            "events": [asdict(e) for e in self.events],
        }
        integrity = d.table.heap.integrity
        if integrity is not None:
            # captured after the quiesce so the eviction's seal charges are
            # journaled as pending and drained on the same boundary a
            # resumed run would drain them
            meta["integrity"] = integrity.snapshot_meta()
        write_journal(self.journal_path, meta, arrays)
        self.checkpoints_written += 1
        if integrity is not None:
            integrity.repair_source = self._journal_repair_source

    def _journal_repair_source(self, segment: int):
        """Re-derive one segment's bytes from the last journal, or None.

        The integrity layer CRC-gates whatever this returns, so handing
        back a stale generation (segment re-evicted since the checkpoint)
        is safe -- it simply fails the gate and the page is quarantined.
        """
        try:
            data = load_table(self.journal_path).segments.get(segment)
        except (CheckpointError, OSError):
            return None
        return None if data is None else bytes(data)

    def _restore(self, batches) -> RunState:
        d = self.driver
        meta, arrays = read_journal(self.journal_path)
        if meta["fingerprint"] != input_fingerprint(batches):
            raise JournalError(
                "journal was written for different input (fingerprint "
                "mismatch); refusing to resume"
            )
        restore_table(d.table, meta["table"], arrays)
        restore_clock(d.table.ledger, meta["clock"])
        for k in _BUS_COUNTERS:
            setattr(d.bus, k, meta["bus"][k])
        for k in _PIPELINE_COUNTERS:
            setattr(d.pipeline, k, meta["pipeline"][k])

        state = d.begin(batches)
        if state.total != len(arrays["pending"]):
            raise JournalError(
                f"journal bitmap covers {len(arrays['pending'])} records, "
                f"input has {state.total}"
            )
        state.bitmap.restore(arrays["pending"])
        state.released = [bool(x) for x in arrays["released"]]
        drv = meta["driver"]
        state.iteration = int(drv["iteration"])
        state.stuck_passes = int(drv["stuck_passes"])
        state.streamed = int(drv["streamed"])
        state.log = [
            IterationRecord(
                index=int(row[0]), attempted=int(row[1]),
                succeeded=int(row[2]), postponed=int(row[3]),
                halted_early=bool(row[4]), evicted_bytes=int(row[5]),
                pages_retained=int(row[6]),
            )
            for row in arrays["log"]
        ]
        self._limit = drv["limit"] if drv["limit"] is None else int(drv["limit"])
        self._episode_evicted = bool(drv["episode_evicted"])
        self.events = [DegradationEvent(**e) for e in meta["events"]]
        self.resumed_from = state.iteration
        integrity = d.table.heap.integrity
        if integrity is not None and "integrity" in meta:
            # restore_table already resealed the segment store; this puts
            # back the epoch/cursor/pending charges the journal captured
            integrity.restore_meta(meta["integrity"])
            integrity.repair_source = self._journal_repair_source
        d.table.sanitize_check("iteration")
        return state
