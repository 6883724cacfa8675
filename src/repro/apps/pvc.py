"""Page View Count (PVC) -- the paper's running example (Section III-B).

Reads a web log, extracts the URL of each request, and inserts ``<url, 1>``
with the combining method, so the table converges to ``<url, n>`` counts.
"""

from __future__ import annotations

import collections

import numpy as np

from repro.apps.base import Application, find_all, first_at_or_after
from repro.core.combiners import SUM_I64
from repro.core.records import RecordBatch
from repro.datagen.weblog import generate_weblog

__all__ = ["PageViewCount"]


def _extract_url(line: bytes) -> bytes | None:
    start = line.find(b'"GET ')
    if start == -1:
        return None
    start += 5
    end = line.find(b" ", start)
    if end == -1:
        return None
    return line[start:end]


class PageViewCount(Application):
    name = "Page View Count"
    organization = "combining"
    combiner = SUM_I64
    # Log-line scan + URL copy: a few hundred cycles per ~60-byte record.
    parse_cycles = 1600.0
    divergence = 1.15
    # Generator shape: one distinct URL per 40 input bytes, Zipf skew 0.5.
    n_urls_per_byte = 1 / 40
    skew = 0.5

    def generate_input(self, size_bytes: int, seed: int = 0) -> bytes:
        n_urls = max(200, int(size_bytes * self.n_urls_per_byte))
        return generate_weblog(size_bytes, seed=seed, n_urls=n_urls, skew=self.skew)

    def parse_chunk(self, chunk: bytes) -> RecordBatch:
        view = np.frombuffer(chunk, dtype=np.uint8)
        hits = find_all(view, b'"GET ')
        # the first request of each line: a hit whose line -- numbered by
        # the newlines before it -- is not the previous hit's
        newlines = np.flatnonzero(view == 10)
        line = np.searchsorted(newlines, hits)
        first = np.ones(len(hits), dtype=bool)
        first[1:] = line[1:] != line[:-1]
        starts = hits[first] + 5
        # the URL ends at the next space, if that is still on the line
        ends = first_at_or_after(np.flatnonzero(view == 32), starts, len(view))
        found = ends < np.append(newlines, len(view))[line[first]]
        starts, ends = starts[found], ends[found]
        return RecordBatch.from_spans(
            view, starts, ends - starts,
            numeric_values=np.ones(len(starts), dtype=np.int64),
        )

    def reference(self, data: bytes) -> dict[bytes, int]:
        counts: collections.Counter = collections.Counter()
        for line in data.split(b"\n"):
            url = _extract_url(line)
            if url is not None:
                counts[url] += 1
        return dict(counts)
