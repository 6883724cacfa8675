"""End-to-end data integrity for the larger-than-memory table.

See :mod:`repro.integrity.checksums` for the model.  The knob belongs to
:class:`~repro.core.hashtable.GpuHashTable` (``integrity=`` /
``scrub_budget=``); :func:`repro.core.session.wire` declares it for every
run and the apps CLI (``--integrity`` / ``--scrub-budget``) and
:class:`MapReduceRuntime` forward it.  ``integrity="off"`` (the default)
is bit-identical to the pre-integrity code paths.
"""

from repro.integrity.checksums import (
    CRC_CYCLES_PER_BYTE,
    CorruptionError,
    CorruptionEvent,
    INTEGRITY_MODES,
    PageIntegrity,
    resolve_integrity,
)

__all__ = [
    "CRC_CYCLES_PER_BYTE",
    "CorruptionError",
    "CorruptionEvent",
    "INTEGRITY_MODES",
    "PageIntegrity",
    "resolve_integrity",
]
