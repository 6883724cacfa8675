#!/usr/bin/env python3
"""MapReduce on the GPU: Word Count in MAP_REDUCE mode (Section V).

Shows the programmer-facing API: write a map function and a combiner, hand
them to the runtime, and let SEPO deal with tables larger than GPU memory.
Also runs the same job on the Phoenix++-style CPU runtime and the
MapCG-style GPU runtime for comparison, demonstrating MapCG's hard failure
when the table outgrows GPU memory.

Run:  python examples/mapreduce_wordcount.py
"""

import os
import tempfile

import numpy as np

from repro.core.combiners import SUM_I64
from repro.core.records import RecordBatch
from repro.datagen import generate_text
from repro.mapreduce import (
    GpuOutOfMemory,
    JobSpec,
    MapCGRuntime,
    MapReduceRuntime,
    Mode,
    PhoenixRuntime,
)


def map_words(chunk: bytes) -> RecordBatch:
    """The map function: one <word, 1> pair per token."""
    words = chunk.split()
    return RecordBatch.from_numeric(
        words, np.ones(len(words), dtype=np.int64), parse_cycles=260.0
    )


job = JobSpec(
    name="wordcount",
    mode=Mode.MAP_REDUCE,  # reduce embedded in map via the combining method
    map_chunk=map_words,
    combiner=SUM_I64,  # the reduce/combine callback
)

data = generate_text(400_000, seed=7, vocab_size=4000)
print(f"input: {len(data):,} bytes of text")

geometry = dict(scale=1 << 11, n_buckets=1 << 12, page_size=4096)

ours = MapReduceRuntime(job, **geometry).run(data)
phoenix = PhoenixRuntime(job, n_buckets=1 << 12).run(data)
print(f"\nour GPU runtime : {ours.elapsed_seconds * 1e3:8.3f} ms "
      f"({ours.report.iterations} SEPO iteration(s))")
print(f"Phoenix++ (CPU) : {phoenix.elapsed_seconds * 1e3:8.3f} ms")
print(f"speedup         : {phoenix.elapsed_seconds / ours.elapsed_seconds:.2f}x")

assert ours.output() == phoenix.output(), "runtimes must agree"

top = sorted(ours.output().items(), key=lambda kv: -kv[1])[:8]
print("\nmost frequent words:", ", ".join(
    f"{w.decode()}({n})" for w, n in top))

# MapCG-style runtime: works while the table fits ...
small = generate_text(60_000, seed=7, vocab_size=4000)
mapcg = MapCGRuntime(job, **geometry).run(small)
print(f"\nMapCG on a small input: OK ({mapcg.elapsed_seconds * 1e3:.3f} ms)")

# ... but hard-fails beyond GPU memory, which SEPO shrugs off (Section VI-C)
grouping_job = JobSpec(
    name="first-seen-position",
    mode=Mode.MAP_GROUP,  # every pair needs fresh memory: grows fast
    map_chunk=lambda chunk: RecordBatch.from_pairs(
        [(w, str(i).encode()) for i, w in enumerate(chunk.split())]
    ),
)
try:
    MapCGRuntime(grouping_job, scale=1 << 14, n_buckets=1 << 10,
                 page_size=2048).run(data)
    print("MapCG unexpectedly survived")
except GpuOutOfMemory as e:
    print(f"MapCG on a big grouping job: {e}")
big = MapReduceRuntime(grouping_job, scale=1 << 14, n_buckets=1 << 10,
                       page_size=2048).run(data)
print(f"our runtime on the same job: OK in {big.report.iterations} iterations")

# The same run, crash-recoverable: `journal=` is the only difference (every
# entry point forwards it to repro.core.session.wire; docs/robustness.md).
with tempfile.TemporaryDirectory() as tmp:
    journaled = MapReduceRuntime(
        grouping_job, scale=1 << 14, n_buckets=1 << 10, page_size=2048
    ).run(data, journal=os.path.join(tmp, "job.npz"), checkpoint_every=2)
# checkpoints quiesce the table, so value lists may come back reordered
assert ({k: sorted(v) for k, v in journaled.output().items()}
        == {k: sorted(v) for k, v in big.output().items()})
print(f"journaled: {journaled.resilience.checkpoints_written} checkpoints, "
      f"same {len(journaled.output()):,} keys")
