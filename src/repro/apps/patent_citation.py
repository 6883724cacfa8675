"""Patent Citation (MapReduce, MAP_GROUP mode).

Builds a reverse citation directory -- "cited by", as Google Scholar offers:
``<cited patent, citing patent>`` grouped under each cited key by the
multi-valued table.
"""

from __future__ import annotations

import collections

import numpy as np

from repro.apps.base import MapReduceApplication, line_spans
from repro.core.records import RecordBatch
from repro.datagen.patents import generate_patent_citations
from repro.mapreduce.api import Mode

__all__ = ["PatentCitation"]


class PatentCitation(MapReduceApplication):
    name = "Patent Citation"
    mode = Mode.MAP_GROUP
    parse_cycles = 1100.0
    divergence = 1.05
    # Generator shape: citations per patent.
    citations_per_patent = 16

    def generate_input(self, size_bytes: int, seed: int = 0) -> bytes:
        return generate_patent_citations(
            size_bytes, seed=seed, citations_per_patent=self.citations_per_patent
        )

    @staticmethod
    def _emit(data: bytes):
        for line in data.split(b"\n"):
            if not line:
                continue
            parts = line.split(b" ")
            if len(parts) != 2:
                continue  # malformed line: skip, don't crash the job
            citing, cited = parts
            yield cited, citing

    def parse_chunk(self, chunk: bytes) -> RecordBatch:
        view = np.frombuffer(chunk, dtype=np.uint8)
        starts, ends = line_spans(view)
        spaces = np.flatnonzero(view == 32)
        first = np.searchsorted(spaces, starts)
        # a citation is a line with exactly one space: "citing cited"
        one = np.searchsorted(spaces, ends) - first == 1
        starts, ends, cut = starts[one], ends[one], spaces[first[one]]
        return RecordBatch.from_spans(
            view, cut + 1, ends - cut - 1, starts, cut - starts
        )

    def reference(self, data: bytes) -> dict[bytes, list[bytes]]:
        out: dict[bytes, list[bytes]] = collections.defaultdict(list)
        for cited, citing in self._emit(data):
            out[cited].append(citing)
        return dict(out)
