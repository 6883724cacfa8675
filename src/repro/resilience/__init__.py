"""Resilient execution layer: checkpoint/resume, retry, degradation.

Long-running SEPO jobs die three ways -- process death (SIGKILL, OOM
killer, preemption), transient interconnect faults, and persistent memory
pressure the stock driver answers with
:class:`~repro.core.sepo.NoProgressError`.  This package survives all
three:

* :mod:`repro.resilience.journal` -- an atomic, checksummed on-disk
  journal of an in-flight run (quiesced table, postponement bitmap,
  simulated clock, bus/pipeline counters).
* :mod:`repro.resilience.driver` -- :class:`ResilientDriver`, a wrapper
  over :class:`~repro.core.sepo.SepoDriver` that journals at iteration
  boundaries, resumes from a journal byte-identically, and degrades
  gracefully (forced eviction -> chunk shrinking -> CPU-table fallback)
  instead of crashing.
* :mod:`repro.resilience.crashtest` -- the SIGKILL-and-resume harness CI
  runs (``python -m repro.resilience.crashtest``).

See ``docs/robustness.md`` for the journal format and the degradation
ladder's semantics.
"""

from repro.resilience.driver import (
    DegradationEvent,
    DegradedTable,
    ResilientDriver,
    ResilientReport,
)
from repro.resilience.journal import (
    JournalError,
    input_fingerprint,
    read_journal,
    table_digest,
    write_journal,
)

__all__ = [
    "DegradationEvent",
    "DegradedTable",
    "ResilientDriver",
    "ResilientReport",
    "JournalError",
    "input_fingerprint",
    "read_journal",
    "table_digest",
    "write_journal",
]
