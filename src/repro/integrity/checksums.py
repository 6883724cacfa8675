"""Per-page CRC32 sidecars, verified transfers, and quarantine-and-repair.

:class:`PageIntegrity` makes every byte of table state self-verifying:

* **Evicted segments** are sealed with a CRC32 the moment their bytes cross
  to the CPU segment store.  Stored segments are immutable by construction
  (all in-place writes target resident pages), so the sidecar stays valid
  until the segment is paged back in -- at-rest verification needs zero
  write tracking.
* **Transfers** (eviction DMA and page-in) carry the seal with them and are
  verified on arrival; a torn copy is re-issued, with the wasted attempts
  charged through the PCIe bus's existing transient-retry machinery.
* **Resident pages** are sealed opportunistically by the scrubber; the
  write paths that mutate page bytes in place call
  :meth:`~repro.memalloc.heap.GpuHeap.note_write` to invalidate the seal,
  so only bytes the table believes are stable are ever verified -- a clean
  run can structurally never produce a false positive.
* **Reads** of stored segments (lookup merges, ``cpu_items``, checkpoint
  snapshots) are verified before the bytes reach the caller.  Read-path
  verification is host-side and uncharged, so it is done on *every* read
  rather than cached per epoch: a cache would open a window where
  corruption lands right after a verified read and pointer-walking code
  consumes garbage for the rest of the iteration.  The bulk ``result()``
  reader needs no cache to verify once: it reads each segment once, into
  the private copy (:meth:`GpuHeap.cpu_image`) it then walks.

Verification failures become structured :class:`CorruptionEvent` records.
A failing page is **quarantined** -- further reads raise instead of
returning garbage -- then **repaired** when a compatible journal checkpoint
exists (the bytes re-derived from the journal must hash to the sealed CRC,
which is exact, not heuristic, because stored segments only change through
page-in/re-evict cycles that refresh the seal).  Unrepairable damage
raises :class:`CorruptionError`, which the resilience layer surfaces as a
degradation event rather than a wrong answer.

Cost accounting is deterministic: CRC work on the eviction/page-in paths
accrues in ``pending_crc_bytes`` and is charged to
:data:`~repro.gpusim.clock.CostCategory.SCRUB` at the next iteration
boundary; torn-transfer re-copies accrue in ``pending_retries`` and are
charged through :meth:`PCIeBus.torn_retry`.  Read-path and repair
verification is host-side and uncharged (like the sanitizer).  Scrub
sweeps are charged directly by :meth:`GpuHashTable.maybe_scrub`.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CRC_CYCLES_PER_BYTE",
    "CorruptionError",
    "CorruptionEvent",
    "INTEGRITY_MODES",
    "PageIntegrity",
    "resolve_integrity",
]

#: valid values of the ``integrity=`` knob
INTEGRITY_MODES = ("off", "verify", "scrub")

#: modelled cost of CRC32 over page bytes (hardware-assisted CRC is
#: roughly one byte per cycle per lane; we charge a conservative scalar
#: rate through the same throughput term as SEPO maintenance)
CRC_CYCLES_PER_BYTE = 0.75

#: environment override, mirroring REPRO_SANITIZE
ENV_VAR = "REPRO_INTEGRITY"


def resolve_integrity(mode: str | None) -> str:
    """Resolve the ``integrity=`` knob (None defers to $REPRO_INTEGRITY)."""
    if mode is None:
        mode = os.environ.get(ENV_VAR, "off")
    if mode not in INTEGRITY_MODES:
        raise ValueError(
            f"integrity must be one of {INTEGRITY_MODES}, got {mode!r}"
        )
    return mode


@dataclass
class CorruptionEvent:
    """One detected integrity violation (repaired or not)."""

    #: "stored-segment" | "resident-page" | "transfer"
    kind: str
    segment: int
    #: "scrub" | "read" | "page-in" | "transfer-verify"
    detected_by: str
    epoch: int
    expected_crc: int
    actual_crc: int
    repaired: bool = False
    detail: str = ""

    def describe(self) -> str:
        state = "repaired" if self.repaired else "UNREPAIRED"
        return (
            f"{self.kind} segment {self.segment} failed CRC "
            f"({self.actual_crc:#010x} != sealed {self.expected_crc:#010x}) "
            f"detected by {self.detected_by} at epoch {self.epoch} "
            f"[{state}]{': ' + self.detail if self.detail else ''}"
        )


class CorruptionError(RuntimeError):
    """Unrepairable damage to table state; carries the triggering event.

    Raised *instead of* letting a reader consume bytes that failed
    verification.  The resilience layer converts it into a structured
    degradation record; plain drivers propagate it to the caller.
    """

    def __init__(self, event: CorruptionEvent):
        super().__init__(event.describe())
        self.event = event


def _crc(buf: np.ndarray) -> int:
    return zlib.crc32(buf)


@dataclass
class PageIntegrity:
    """Checksum sidecars + scrub/quarantine/repair state for one heap."""

    mode: str = "verify"
    #: pages swept per iteration by the background scrubber
    scrub_budget: int = 4
    #: re-copies attempted before a torn transfer becomes unrepairable
    max_transfer_retries: int = 8
    #: CRC failures tolerated on one physical slot before it is retired
    strike_limit: int = 2

    #: segment id -> sealed CRC of its immutable stored bytes
    store_crc: dict[int, int] = field(default_factory=dict)
    #: resident segment id -> CRC sealed by the scrubber (absent = dirty)
    resident_clean: dict[int, int] = field(default_factory=dict)
    epoch: int = 0
    #: last segment id the scrubber processed (sweep resumes after it)
    scrub_cursor: int = -1
    #: segments whose bytes failed verification and could not be repaired
    quarantined: set = field(default_factory=set)
    #: physical slot -> CRC-failure count (drives slot retirement)
    strikes: dict[int, int] = field(default_factory=dict)
    events: list = field(default_factory=list)

    # deterministic cost accounting, drained at iteration boundaries
    pending_crc_bytes: int = 0
    #: (nbytes, wasted_attempts) per torn transfer awaiting retry charge
    pending_retries: list = field(default_factory=list)

    # telemetry
    seals: int = 0
    verifies: int = 0
    detected: int = 0
    repaired: int = 0
    scrubbed_pages: int = 0
    transfer_ops: int = 0

    #: callable(segment) -> bytes | None; installed by the resilience
    #: layer after each checkpoint (re-derives page bytes from the journal)
    repair_source = None
    #: callable(op_index, attempt) -> bool; installed by TornTransferFault
    transfer_corruptor = None

    # ------------------------------------------------------------------
    # write tracking
    # ------------------------------------------------------------------
    def note_write(self, segment: int) -> None:
        """An in-place write landed on a resident page: drop its seal."""
        self.resident_clean.pop(segment, None)

    # ------------------------------------------------------------------
    # transfers
    # ------------------------------------------------------------------
    def checked_transfer(self, segment: int, src: np.ndarray) -> np.ndarray:
        """Seal ``src``, copy it CPU-side, and verify the copy on arrival.

        Models a checksum-carrying eviction DMA: the seal travels with the
        transfer, a mismatching destination is re-copied (wasted attempts
        are charged through the bus retry machinery at the next iteration
        boundary), and persistent mismatch raises :class:`CorruptionError`.
        Returns the verified destination buffer and records its seal.
        """
        expected = _crc(src)
        self.seals += 1
        self.pending_crc_bytes += src.nbytes  # seal on the way out
        attempt = 0
        while True:
            dst = src.copy()
            corruptor = self.transfer_corruptor
            if corruptor is not None and corruptor(self.transfer_ops, attempt):
                dst[0] ^= 0x01  # torn DMA: destination != source
            self.verifies += 1
            self.pending_crc_bytes += dst.nbytes  # verify on arrival
            actual = _crc(dst)
            if actual == expected:
                break
            self.detected += 1
            event = CorruptionEvent(
                kind="transfer",
                segment=segment,
                detected_by="transfer-verify",
                epoch=self.epoch,
                expected_crc=expected,
                actual_crc=actual,
                detail=f"eviction DMA attempt {attempt}",
            )
            self.events.append(event)
            if attempt >= self.max_transfer_retries:
                raise CorruptionError(event)
            attempt += 1
        if attempt:
            self.pending_retries.append((src.nbytes, attempt))
            for event in self.events[-attempt:]:
                event.repaired = True
            self.repaired += attempt
        self.transfer_ops += 1
        self.store_crc[segment] = expected
        self.resident_clean.pop(segment, None)
        return dst

    def check_page_in(self, heap, segment: int) -> None:
        """Verify a stored segment before its bytes re-enter the arena."""
        buf = heap._store.get(segment)
        if buf is None:
            return
        self._verify_stored(heap, segment, buf, detected_by="page-in")
        self.pending_crc_bytes += buf.nbytes  # page-in transfer verify

    def on_page_in(self, segment: int) -> None:
        """A verified segment is resident again: its bytes equal the seal."""
        crc = self.store_crc.pop(segment, None)
        if crc is not None:
            self.resident_clean[segment] = crc

    # ------------------------------------------------------------------
    # read-path verification (host-side, uncharged)
    # ------------------------------------------------------------------
    def check_read(self, heap, segment: int) -> None:
        """Verify a stored segment before a resolve/merge read uses it.

        Verified on every read, not cached: chain walkers turn stored
        bytes into pointers, and a pointer harvested from corrupted bytes
        crashes as a bogus segment id instead of a contained
        :class:`CorruptionError`.  The recompute is host-side and
        uncharged, so skipping it would save nothing in the cost model.
        """
        if segment in self.quarantined:
            raise CorruptionError(self._quarantine_event(segment, "read"))
        buf = heap._store.get(segment)
        if buf is None:
            return  # unknown segment: let the caller raise its KeyError
        self._verify_stored(heap, segment, buf, detected_by="read")

    # ------------------------------------------------------------------
    # background scrubber
    # ------------------------------------------------------------------
    def scrub(self, heap) -> int:
        """Sweep up to ``scrub_budget`` pages; returns bytes checksummed.

        Stored segments are verified against their seal; resident pages
        are verified when sealed-clean, (re)sealed otherwise.  The cursor
        round-robins over segment ids so every page is eventually covered
        regardless of budget.  CRC bytes accrue in ``pending_crc_bytes``
        for the caller to charge.
        """
        targets = sorted(heap._store.keys() | heap._resident.keys())
        if not targets or self.scrub_budget <= 0:
            return 0
        before = self.pending_crc_bytes
        start = 0
        for i, seg in enumerate(targets):
            if seg > self.scrub_cursor:
                start = i
                break
        for k in range(min(self.scrub_budget, len(targets))):
            seg = targets[(start + k) % len(targets)]
            page = heap._resident.get(seg)
            if page is not None:
                self._scrub_resident(heap, page)
            else:
                buf = heap._store.get(seg)
                if buf is not None:
                    if seg in self.quarantined:
                        raise CorruptionError(
                            self._quarantine_event(seg, "scrub")
                        )
                    self._verify_stored(heap, seg, buf, detected_by="scrub")
                    self.pending_crc_bytes += buf.nbytes
            self.scrubbed_pages += 1
            self.scrub_cursor = seg
        return self.pending_crc_bytes - before

    def _scrub_resident(self, heap, page) -> None:
        buf = heap.pool.slot_view(page.slot)
        actual = _crc(buf)
        self.pending_crc_bytes += buf.nbytes
        seg = page.segment
        sealed = self.resident_clean.get(seg)
        if sealed is None:
            self.seals += 1
            self.resident_clean[seg] = actual
            return
        self.verifies += 1
        if actual == sealed:
            return
        self.detected += 1
        event = CorruptionEvent(
            kind="resident-page",
            segment=seg,
            detected_by="scrub",
            epoch=self.epoch,
            expected_crc=sealed,
            actual_crc=actual,
            detail=f"slot {page.slot}",
        )
        self.events.append(event)
        strikes = self.strikes.get(page.slot, 0) + 1
        self.strikes[page.slot] = strikes
        blob = self._repair_bytes(seg, sealed)
        if blob is None:
            self.quarantined.add(seg)
            raise CorruptionError(event)
        # in-place repair keeps the page's GPU address (and therefore every
        # incoming next_gpu pointer) valid; a repeat offender slot is
        # retired at its next release, relocating the page for good
        buf[:] = np.frombuffer(blob, dtype=np.uint8)
        event.repaired = True
        self.repaired += 1
        if strikes >= self.strike_limit:
            heap.pool.quarantine_slot(page.slot)

    # ------------------------------------------------------------------
    # shared verify/repair machinery
    # ------------------------------------------------------------------
    def _verify_stored(self, heap, segment, buf, detected_by) -> None:
        expected = self.store_crc.get(segment)
        if expected is None:
            # adopted state (restored checkpoint / pre-integrity eviction):
            # seal it now so later reads are protected
            self.seals += 1
            self.store_crc[segment] = _crc(buf)
            return
        self.verifies += 1
        actual = _crc(buf)
        if actual == expected:
            return
        self.detected += 1
        event = CorruptionEvent(
            kind="stored-segment",
            segment=segment,
            detected_by=detected_by,
            epoch=self.epoch,
            expected_crc=expected,
            actual_crc=actual,
        )
        self.events.append(event)
        blob = self._repair_bytes(segment, expected)
        if blob is None:
            self.quarantined.add(segment)
            raise CorruptionError(event)
        heap._store[segment] = np.frombuffer(blob, dtype=np.uint8).copy()
        event.repaired = True
        self.repaired += 1

    def _repair_bytes(self, segment: int, expected_crc: int):
        """Bytes for ``segment`` from the repair source, or None.

        A candidate is accepted only when it hashes to the sealed CRC --
        stored segments change solely through page-in/re-evict cycles that
        refresh the seal, so a CRC match proves the journal copy is the
        *current* content, not a stale generation.
        """
        source = self.repair_source
        if source is None:
            return None
        blob = source(segment)
        if blob is None or zlib.crc32(blob) != expected_crc:
            return None
        return blob

    def _quarantine_event(self, segment: int, detected_by: str):
        for event in reversed(self.events):
            if event.segment == segment and not event.repaired:
                return event
        event = CorruptionEvent(
            kind="stored-segment",
            segment=segment,
            detected_by=detected_by,
            epoch=self.epoch,
            expected_crc=self.store_crc.get(segment, 0),
            actual_crc=0,
            detail="read of quarantined segment",
        )
        self.events.append(event)
        return event

    # ------------------------------------------------------------------
    # iteration-boundary accounting
    # ------------------------------------------------------------------
    def drain_pending(self) -> tuple[int, list]:
        """Take (crc_bytes, torn-retry list) accrued since the last drain."""
        crc_bytes = self.pending_crc_bytes
        retries = self.pending_retries
        self.pending_crc_bytes = 0
        self.pending_retries = []
        return crc_bytes, retries

    def advance_epoch(self) -> None:
        self.epoch += 1

    # ------------------------------------------------------------------
    # checkpoint/resume support
    # ------------------------------------------------------------------
    def snapshot_meta(self) -> dict:
        """Journalable state needed for byte-identical resume."""
        return {
            "epoch": self.epoch,
            "cursor": self.scrub_cursor,
            "pending_crc_bytes": self.pending_crc_bytes,
            "pending_retries": [list(r) for r in self.pending_retries],
            "transfer_ops": self.transfer_ops,
        }

    def restore_meta(self, meta: dict) -> None:
        self.epoch = int(meta["epoch"])
        self.scrub_cursor = int(meta["cursor"])
        self.pending_crc_bytes = int(meta["pending_crc_bytes"])
        self.pending_retries = [tuple(r) for r in meta["pending_retries"]]
        self.transfer_ops = int(meta["transfer_ops"])

    def reseal_after_restore(self, heap) -> None:
        """Recompute seals for a freshly restored segment store.

        Uncharged: the restored clock already contains the seal charges the
        original run paid before the checkpoint was written, so charging
        again would break clock identity with the uninterrupted run.
        """
        self.store_crc = {
            seg: _crc(buf) for seg, buf in heap._store.items()
        }
        self.resident_clean.clear()
