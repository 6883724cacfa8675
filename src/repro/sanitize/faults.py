"""Deterministic fault injection for SEPO runs.

The postponement/retry machinery only triggers under memory pressure, so a
generously sized test heap silently skips the paper's most interesting
paths.  These injectors force those paths deterministically -- no timing,
no randomness -- by wrapping a live table's pool/insert/eviction hooks:

* :class:`PoolExhaustion` -- every free pool slot vanishes for a window
  of insert batches, forcing POSTPONE verdicts and SEPO reissues at a
  chosen point in the stream.
* :class:`MidIterationEviction` -- a full rearrangement fires *between*
  batches of one iteration, exercising inserts over evicted chain
  prefixes and stale-page dropping.
* :class:`ZeroCapacityStart` -- the run starts with every pool slot held
  by "another tenant" and gets them back only after the first failed
  pass, exercising the driver's stuck-pass recovery (one unproductive
  pass is legal; two raise :class:`~repro.core.sepo.NoProgressError`).

Injectors register deliberately held slots on the heap
(``fault_reserved_slots``) so the arena sanitizer's slot-leak accounting
stays exact while a fault is active.
"""

from __future__ import annotations

__all__ = [
    "Fault",
    "PoolExhaustion",
    "MidIterationEviction",
    "ZeroCapacityStart",
    "TransientTransferFault",
    "BitFlipFault",
    "TornTransferFault",
    "StaleSegmentFault",
]


class Fault:
    """Base class: a deterministic fault installable on a live table."""

    name = "abstract"

    def install(self, table, driver=None) -> None:
        raise NotImplementedError

    def describe(self) -> str:
        return self.name


class PoolExhaustion(Fault):
    """Exhaust the page pool for a window of ``deny_batches`` insert
    batches, starting before the ``after_batches``-th one.

    The stash/restore happens at batch boundaries, not inside
    ``pool.take``: the bulk allocator is entitled to assume that
    ``pool.n_free`` free slots mean ``n_free`` successful takes (true for
    the single-threaded simulation), so a fault that lies per-take would
    break an invariant no real exhaustion can break.
    """

    name = "pool-exhaustion"

    def __init__(self, after_batches: int = 1, deny_batches: int = 2):
        if after_batches < 0 or deny_batches <= 0:
            raise ValueError("need after_batches >= 0 and deny_batches > 0")
        self.after_batches = after_batches
        self.deny_batches = deny_batches

    def describe(self) -> str:
        return (
            f"{self.name}(after={self.after_batches}, "
            f"deny={self.deny_batches})"
        )

    def install(self, table, driver=None) -> None:
        heap = table.heap
        pool = heap.pool
        held: list[int] = []

        def deny():
            while True:
                slot = pool.take()
                if slot is None:
                    break
                held.append(slot)
            heap.fault_reserved_slots = set(held)

        def restore():
            for slot in held:
                pool.release(slot)
            held.clear()
            heap.fault_reserved_slots = set()

        # mutation batches stress the same pool, so the denial window
        # counts insert and mixed-op chunks alike
        _per_chunk(table, before={
            self.after_batches: deny,
            self.after_batches + self.deny_batches: restore,
        })


class MidIterationEviction(Fault):
    """Trigger a full end-of-iteration rearrangement right after the
    ``at_batch``-th batch (insert and mutate chunks both count)."""

    name = "mid-iteration-eviction"

    def __init__(self, at_batch: int = 1):
        if at_batch <= 0:
            raise ValueError("at_batch must be positive")
        self.at_batch = at_batch

    def describe(self) -> str:
        return f"{self.name}(at_batch={self.at_batch})"

    def install(self, table, driver=None) -> None:
        _per_chunk(table, after={self.at_batch - 1: lambda: table.end_iteration()})


def _per_chunk(table, before=None, after=None) -> None:
    """Fire a fault's actions at chunk numbers, not call numbers.

    Wraps the table's one run entry point (:meth:`~repro.core.hashtable.
    GpuHashTable.apply_batch`) so that ``before[i]()`` runs before chunk
    ``i`` and ``after[i]()`` after it, chunks applied counted from 0 across
    pure-insert and mixed-op runs.  A run is cut wherever an action falls
    inside it, so a chunk meets the table in the state it would have met
    one call a chunk; a mixed-op run goes on after a cut only where such a
    pass would (:meth:`~repro.core.organizations.Organization.run_stops`).
    """
    before, after = before or {}, after or {}
    apply_batch = table.apply_batch
    seen = [0]  # chunks applied so far

    def fire(actions, i):
        action = actions.get(i)
        if action is not None:
            action()

    def run(parts):
        gated = not parts[0][0].pure_insert
        results = []
        while len(results) < len(parts):
            lo, first = len(results), seen[0]
            if lo and gated and table.org.run_stops(table):
                break
            hi = next(
                (p for p in range(lo + 1, len(parts))
                 if first + p - lo in before or first + p - lo - 1 in after),
                len(parts),
            )
            fire(before, first)
            done = apply_batch(parts[lo:hi])
            seen[0] += len(done)
            results += done
            fire(after, seen[0] - 1)
            if len(done) < hi - lo:
                break
        return results

    table.apply_batch = run


class ZeroCapacityStart(Fault):
    """Start with zero free pool slots; return them after the first
    end-of-iteration rearrangement."""

    name = "zero-capacity-start"

    def install(self, table, driver=None) -> None:
        heap = table.heap
        pool = heap.pool
        held = []
        while True:
            slot = pool.take()
            if slot is None:
                break
            held.append(slot)
        heap.fault_reserved_slots = set(held)

        original = table.end_iteration
        state = {"evictions": 0}

        def end_iteration(pcie_bus=None):
            report = original(pcie_bus)
            state["evictions"] += 1
            if state["evictions"] == 1 and held:
                for slot in held:
                    pool.release(slot)
                held.clear()
                heap.fault_reserved_slots = set()
            return report

        table.end_iteration = end_iteration


class TransientTransferFault(Fault):
    """Fail chosen DMA operations' first attempts, then let retries through.

    Deterministic like the rest of the injectors: the fault is a pure
    function of the bus's operation index (every ``bulk``/``small``/
    ``overlapped`` call is one operation) and the attempt number.  Two
    equivalent ways to describe the schedule:

    * ``schedule={op_index: n_failures, ...}`` -- the listed operations
      fail their first ``n_failures`` attempts;
    * ``every=K`` -- each ``K``-th operation fails its first ``failures``
      attempts.

    A scheduled failure count above the bus's ``max_retries`` makes the
    fault *persistent*: the transfer raises
    :class:`~repro.gpusim.pcie.TransferError` instead of recovering, which
    is how tests drive the degradation machinery from the transfer side.
    """

    name = "transient-transfer"

    def __init__(
        self,
        schedule: dict[int, int] | None = None,
        every: int | None = None,
        failures: int = 1,
    ):
        if (schedule is None) == (every is None):
            raise ValueError("give exactly one of schedule= or every=")
        if every is not None and every <= 0:
            raise ValueError("every must be positive")
        if failures <= 0:
            raise ValueError("failures must be positive")
        if schedule is not None and any(n <= 0 for n in schedule.values()):
            raise ValueError("scheduled failure counts must be positive")
        self.schedule = dict(schedule) if schedule is not None else None
        self.every = every
        self.failures = failures
        #: (op_index, attempt) pairs that actually failed, for assertions
        self.fired: list[tuple[int, int]] = []

    def describe(self) -> str:
        if self.schedule is not None:
            return f"{self.name}(schedule={self.schedule})"
        return f"{self.name}(every={self.every}, failures={self.failures})"

    def should_fail(self, op_index: int, attempt: int) -> bool:
        if self.schedule is not None:
            planned = self.schedule.get(op_index, 0)
        elif (op_index + 1) % self.every == 0:
            planned = self.failures
        else:
            planned = 0
        if attempt < planned:
            self.fired.append((op_index, attempt))
            return True
        return False

    def install(self, table, driver=None) -> None:
        if driver is None or not hasattr(driver, "bus"):
            raise ValueError(
                "TransientTransferFault installs on the driver's PCIe bus; "
                "pass the driver"
            )
        driver.bus.set_fault_injector(self.should_fail)


# ----------------------------------------------------------------------
# integrity faults (require integrity="verify"/"scrub" on the table)
# ----------------------------------------------------------------------


def _require_integrity(table, fault_name: str):
    integrity = table.heap.integrity
    if integrity is None:
        raise ValueError(
            f"{fault_name} corrupts checksummed state; build the table "
            "with integrity='verify' or 'scrub'"
        )
    return integrity


def _install_store_corruptor(fault, table, driver) -> None:
    """Fire ``fault._corrupt(heap)`` at the fault's chosen boundary.

    Installed with a checkpointing (resilient) driver, the corruption
    fires right after the ``after_evictions``-th *checkpoint*: at that
    instant every stored segment's bytes match the journal just written,
    so the damage is provably repairable from it.  Installed with a bare
    table/driver, it fires after the ``after_evictions``-th
    end-of-iteration rearrangement instead -- at-rest damage with no
    checkpoint to heal from, which must surface as quarantine +
    :class:`~repro.integrity.CorruptionError`, never a wrong answer.
    """
    heap = table.heap
    state = {"calls": 0}
    if driver is not None and hasattr(driver, "checkpoint"):
        original = driver.checkpoint

        def checkpoint(batches, run_state):
            original(batches, run_state)
            state["calls"] += 1
            if state["calls"] == fault.after_evictions:
                fault._corrupt(heap)

        driver.checkpoint = checkpoint
        return

    original = table.end_iteration

    def end_iteration(pcie_bus=None):
        report = original(pcie_bus)
        state["calls"] += 1
        if state["calls"] == fault.after_evictions:
            fault._corrupt(heap)
        return report

    table.end_iteration = end_iteration


class BitFlipFault(Fault):
    """Flip one bit of a stored (evicted) segment after the ``after``-th
    end-of-iteration rearrangement.

    Models an at-rest single-event upset in the CPU segment store.  The
    victim is the lowest stored segment id (the oldest eviction, which a
    checkpoint taken on any earlier iteration has journaled -- making the
    flip *repairable* when a ResilientDriver supplies a repair source).
    The flipped bit lands in the last used byte of the segment, so entry
    headers and chain pointers stay intact: only the integrity layer, not
    the structural sanitizer, can see it.
    """

    name = "bit-flip"

    def __init__(self, after_evictions: int = 1):
        if after_evictions <= 0:
            raise ValueError("after_evictions must be positive")
        self.after_evictions = after_evictions
        #: (segment, byte_offset) actually corrupted, for assertions
        self.injected: list[tuple[int, int]] = []

    def describe(self) -> str:
        return f"{self.name}(after={self.after_evictions})"

    def _corrupt(self, heap) -> None:
        stored = sorted(heap._store)
        if not stored:
            return
        seg = stored[0]
        used = heap._store_meta[seg][2]
        off = max(0, used - 1)
        heap._store[seg][off] ^= 0x01
        self.injected.append((seg, off))

    def install(self, table, driver=None) -> None:
        _require_integrity(table, self.name)
        _install_store_corruptor(self, table, driver)


class StaleSegmentFault(Fault):
    """Overwrite one stored segment with another segment's bytes.

    Models a misdirected or lost write in the segment store: the victim's
    bytes are internally plausible (they are a real page image and even
    carry a valid CRC -- of the *donor*), so only per-segment seals catch
    it.  Fires after the ``after``-th end-of-iteration rearrangement;
    the victim is the lowest stored segment id, the donor the second
    lowest.
    """

    name = "stale-segment"

    def __init__(self, after_evictions: int = 1):
        if after_evictions <= 0:
            raise ValueError("after_evictions must be positive")
        self.after_evictions = after_evictions
        #: (victim_segment, donor_segment) pairs, for assertions
        self.injected: list[tuple[int, int]] = []

    def describe(self) -> str:
        return f"{self.name}(after={self.after_evictions})"

    def _corrupt(self, heap) -> None:
        stored = sorted(heap._store)
        if len(stored) < 2:
            return
        victim, donor = stored[0], stored[1]
        heap._store[victim] = heap._store[donor].copy()
        self.injected.append((victim, donor))

    def install(self, table, driver=None) -> None:
        _require_integrity(table, self.name)
        _install_store_corruptor(self, table, driver)


class TornTransferFault(Fault):
    """Corrupt chosen eviction DMAs' destinations, forcing re-copies.

    The checksum-carrying transfer path
    (:meth:`~repro.integrity.checksums.PageIntegrity.checked_transfer`)
    verifies every arrival; a corrupted destination is re-copied with the
    wasted attempts charged through the bus retry machinery.  Same
    deterministic schedule language as :class:`TransientTransferFault`,
    indexed by the integrity layer's own transfer-operation counter.  A
    failure count above ``max_transfer_retries`` makes the tear
    persistent, raising :class:`~repro.integrity.CorruptionError`.
    """

    name = "torn-transfer"

    def __init__(
        self,
        schedule: dict[int, int] | None = None,
        every: int | None = None,
        failures: int = 1,
    ):
        if (schedule is None) == (every is None):
            raise ValueError("give exactly one of schedule= or every=")
        if every is not None and every <= 0:
            raise ValueError("every must be positive")
        if failures <= 0:
            raise ValueError("failures must be positive")
        if schedule is not None and any(n <= 0 for n in schedule.values()):
            raise ValueError("scheduled failure counts must be positive")
        self.schedule = dict(schedule) if schedule is not None else None
        self.every = every
        self.failures = failures
        #: (op_index, attempt) pairs actually torn, for assertions
        self.fired: list[tuple[int, int]] = []

    def describe(self) -> str:
        if self.schedule is not None:
            return f"{self.name}(schedule={self.schedule})"
        return f"{self.name}(every={self.every}, failures={self.failures})"

    def should_corrupt(self, op_index: int, attempt: int) -> bool:
        if self.schedule is not None:
            planned = self.schedule.get(op_index, 0)
        elif (op_index + 1) % self.every == 0:
            planned = self.failures
        else:
            planned = 0
        if attempt < planned:
            self.fired.append((op_index, attempt))
            return True
        return False

    def install(self, table, driver=None) -> None:
        integrity = _require_integrity(table, self.name)
        integrity.transfer_corruptor = self.should_corrupt
