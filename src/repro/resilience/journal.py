"""The on-disk journal of an in-flight SEPO run.

One journal file is one consistent snapshot, taken at an iteration
boundary with the table quiesced (every page force-evicted).  It is the
one table archive of :mod:`repro.core.checkpoint` (written atomically by
:func:`write_journal`, CRC-checked by :func:`read_journal`, which raises
:class:`JournalError` on any corruption), holding:

* ``meta`` -- a JSON record holding the journal version, the table's
  configuration (``meta["table"]``, for resume-time validation), every
  scalar counter (driver progress, simulated clock breakdown, PCIe bus and
  BigKernel pipeline counters), the input fingerprint, the
  degradation-event log, and a CRC-32 checksum over all array members;
* ``table_*`` -- the quiesced table snapshot from
  :func:`repro.core.checkpoint.snapshot_table` (bucket heads, segment
  store, pool free-slot order, allocator tallies), so
  :func:`~repro.core.checkpoint.load_table` opens a journal as a
  :class:`~repro.core.checkpoint.FrozenTable`;
* ``pending`` -- the postponement bitmap's mask;
* ``released``/``log`` -- per-chunk cache-release flags and the
  per-iteration telemetry log.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.core.checkpoint import (
    JOURNAL_VERSION,
    JournalError,
    read_journal,
    write_journal,
)

__all__ = [
    "JOURNAL_VERSION",
    "JournalError",
    "input_fingerprint",
    "read_journal",
    "table_digest",
    "write_journal",
]


def input_fingerprint(batches) -> dict:
    """A cheap identity of the input the journal belongs to.

    Resuming against different input would silently corrupt the run (the
    bitmap indexes records positionally), so the journal stores per-batch
    record counts plus a CRC over the key lengths and rejects mismatches.
    """
    crc = 0
    for b in batches:
        crc = zlib.crc32(np.ascontiguousarray(b.key_lens).tobytes(), crc)
    return {
        "batch_lengths": [len(b) for b in batches],
        "key_lens_crc": crc,
    }


def table_digest(table) -> int:
    """CRC-32 over a table's complete observable byte state.

    Covers the bucket head array plus every segment's bytes (resident or
    evicted), in segment order.  Two runs whose digests match produced
    byte-identical tables -- the resume-equivalence tests compare this.
    """
    heap = table.heap
    crc = zlib.crc32(np.ascontiguousarray(table.buckets.head_cpu).tobytes())
    segments = set(heap._store) | {p.segment for p in heap.resident_pages}
    for seg in sorted(segments):
        crc = zlib.crc32(str(seg).encode(), crc)
        crc = zlib.crc32(
            np.ascontiguousarray(heap.segment_view(seg)).tobytes(), crc
        )
    return crc
