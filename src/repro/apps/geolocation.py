"""Geo Location (MapReduce, MAP_GROUP mode).

Groups Wikipedia-style articles by the geographic cell they were created
from: ``<geo location string, article ID>`` into the multi-valued table --
the final output maps each location to the list of its articles.
"""

from __future__ import annotations

import collections

import numpy as np

from repro.apps.base import MapReduceApplication, first_at_or_after, line_spans
from repro.core.records import RecordBatch
from repro.datagen.wiki import generate_geo_articles
from repro.mapreduce.api import Mode

__all__ = ["GeoLocation"]


class GeoLocation(MapReduceApplication):
    name = "Geo Location"
    mode = Mode.MAP_GROUP
    parse_cycles = 1200.0
    divergence = 1.1
    # Generator shape: distinct locations and their Zipf skew.
    n_locations = 6000
    skew = 0.7

    def generate_input(self, size_bytes: int, seed: int = 0) -> bytes:
        return generate_geo_articles(
            size_bytes, seed=seed, n_locations=self.n_locations, skew=self.skew
        )

    @staticmethod
    def _emit(data: bytes):
        for line in data.split(b"\n"):
            if not line:
                continue
            article, sep, cell = line.partition(b"\t")
            if not sep or not cell:
                continue  # malformed line: skip, don't crash the job
            yield cell, article

    def parse_chunk(self, chunk: bytes) -> RecordBatch:
        view = np.frombuffer(chunk, dtype=np.uint8)
        starts, ends = line_spans(view)
        # "article<TAB>cell": cut at the line's first tab, and keep the
        # line only if a non-empty cell follows it
        cut = first_at_or_after(np.flatnonzero(view == 9), starts, len(view))
        keep = cut + 1 < ends
        starts, ends, cut = starts[keep], ends[keep], cut[keep]
        return RecordBatch.from_spans(
            view, cut + 1, ends - cut - 1, starts, cut - starts
        )

    def reference(self, data: bytes) -> dict[bytes, list[bytes]]:
        out: dict[bytes, list[bytes]] = collections.defaultdict(list)
        for cell, article in self._emit(data):
            out[cell].append(article)
        return dict(out)
