"""Word Count (MapReduce, MAP_REDUCE mode).

``<word, 1>`` with a sum reducer embedded in the map phase.  The paper's
contention case study (Section VI-B): natural text has few distinct words
and extremely hot ones, so bucket locks serialize and the GPU's speedup
collapses to ~1x; inflating the vocabulary restores it (see the ablation
benchmark).
"""

from __future__ import annotations

import collections

import numpy as np

from repro.apps.base import MapReduceApplication
from repro.core.combiners import SUM_I64
from repro.core.records import RecordBatch
from repro.datagen.text import generate_text
from repro.mapreduce.api import Mode

__all__ = ["WordCount"]


class WordCount(MapReduceApplication):
    name = "Word Count"
    mode = Mode.MAP_REDUCE
    combiner = SUM_I64
    # Tokenizing ~6-byte words is cheap per record...
    parse_cycles = 260.0
    divergence = 1.1
    # Generator shape: the Zipf skew of word popularity.
    skew = 1.0

    def __init__(self, vocab_size: int = 3500):
        # Vocabulary does NOT grow with input size: "text documents ...
        # contain a limited number of distinct words no matter how large
        # the document is" (Section VI-B).
        self.vocab_size = vocab_size

    def generate_input(self, size_bytes: int, seed: int = 0) -> bytes:
        return generate_text(
            size_bytes, seed=seed, vocab_size=self.vocab_size, skew=self.skew
        )

    def parse_chunk(self, chunk: bytes) -> RecordBatch:
        view = np.frombuffer(chunk, dtype=np.uint8)
        # what ``bytes.split()`` cuts at is the space and \t \n \x0b \x0c \r
        # (9..13; the subtraction wraps every other byte past 4).  Token
        # edges are where "inside a word" flips, with a False at either end
        word = np.zeros(len(view) + 2, dtype=bool)
        np.logical_not((view == 32) | (view - np.uint8(9) < 5), out=word[1:-1])
        edges = np.flatnonzero(word[1:] != word[:-1])
        starts, ends = edges[0::2], edges[1::2]
        return RecordBatch.from_spans(
            view, starts, ends - starts,
            numeric_values=np.ones(len(starts), dtype=np.int64),
        )

    def reference(self, data: bytes) -> dict[bytes, int]:
        return dict(collections.Counter(data.split()))
