"""The paper's MapReduce runtime (Section V).

Execution flow, exactly as described: the CPU-side *input data partitioner*
splits the raw input into chunks; BigKernel pipelines the chunks to the GPU;
one map-function instance per chunk emits KV pairs, which are inserted into
the SEPO hash table.  In MAP_REDUCE mode the table uses the combining method
with the job's reduce/combine callback -- the reduce phase is embedded in
the map phase.  In MAP_GROUP mode the table uses the multi-valued method and
groups values on the fly.

Thanks to SEPO, the runtime processes inputs (and produces tables) larger
than GPU memory -- the property MapCG lacks (Section VI-C).  The runtime
itself is the job description plus :func:`repro.core.session.wire`, the run
path the standalone applications share (DESIGN.md "Run path").
"""

from __future__ import annotations

from repro.core.session import RunOutcome, wire
from repro.mapreduce.api import JobSpec

__all__ = ["MapReduceRuntime"]


class MapReduceRuntime:
    """Schedules a :class:`~repro.mapreduce.api.JobSpec` onto the GPU."""

    def __init__(self, job: JobSpec, n_buckets: int = 1 << 16, **options):
        """``options`` are :func:`~repro.core.session.wire`'s, declared and
        documented there: ``device``, ``scale``, ``group_size``,
        ``page_size`` and the table options (``sanitize``, ``integrity``,
        ``scrub_budget``)."""
        self.job = job
        self.options = dict(n_buckets=n_buckets, **options)

    def run(self, data: bytes, **journal_options) -> RunOutcome:
        """Execute the job over ``data`` to completion.

        ``journal_options`` are :func:`~repro.core.session.wire`'s
        (``journal``, ``checkpoint_every``, ``resume``): a ``journal`` path
        makes the job crash-recoverable.
        """
        return wire(self.job, data, **self.options, **journal_options).run()
