"""Inverted Index (multi-valued method).

Builds a reverse index from HTML files: for every hyperlink found in a page,
``<link URL, page path>`` goes into the multi-valued table, producing the
1:N mapping of Figure 3.

The HTML tokenizer's "long switch-case block" causes heavy warp divergence
on GPUs (Section VI-B) -- this is the application with the paper's weakest
speedup, captured here by its large ``divergence`` factor.
"""

from __future__ import annotations

import collections
import re

import numpy as np

from repro.apps.base import Application, find_all, first_at_or_after
from repro.core.records import RecordBatch
from repro.datagen.html import FILE_MARKER, generate_html_corpus
from repro.gpusim.divergence import BranchProfile

__all__ = ["InvertedIndex", "TOKENIZER_PROFILE"]

_HREF = re.compile(rb'href="([^"]+)"')

#: Branch mix of the HTML tokenizer's switch-case (Section VI-B's culprit):
#: plain text dominates, but a warp of 32 threads almost always contains
#: every tag/attribute/entity/comment case too, so the warp serializes
#: through nearly the whole switch.
TOKENIZER_PROFILE = BranchProfile(
    probs=(
        0.60,  # plain text
        0.12,  # tag open/close
        0.10,  # attribute name
        0.08,  # attribute value (href extraction)
        0.04,  # entity
        0.03,  # script/style
        0.02,  # comment
        0.01,  # malformed-markup recovery
    )
)


class InvertedIndex(Application):
    name = "Inverted Index"
    organization = "multi-valued"
    # HTML scanning costs much more per emitted pair than log parsing, and
    # the tokenizer's switch-case diverges badly on SIMT hardware: the
    # factor is derived from the branch profile above (~6x at warp 32).
    parse_cycles = 1800.0
    divergence = TOKENIZER_PROFILE.divergence_factor(warp_size=32)
    # Generator shape: one distinct link per 250 input bytes, 25 per page.
    links_per_byte = 1 / 250
    links_per_doc = 25

    def generate_input(self, size_bytes: int, seed: int = 0) -> bytes:
        n_links = max(100, int(size_bytes * self.links_per_byte))
        return generate_html_corpus(
            size_bytes, seed=seed, n_links=n_links, links_per_doc=self.links_per_doc
        )

    # ------------------------------------------------------------------
    def partition(self, data: bytes, chunk_bytes: int) -> list[bytes]:
        """Split at file boundaries so no document is torn in half."""
        docs = data.split(FILE_MARKER)
        chunks: list[bytes] = []
        current: list[bytes] = []
        size = 0
        for doc in docs:
            if not doc.strip():
                continue
            piece = FILE_MARKER + doc
            if current and size + len(piece) > chunk_bytes:
                chunks.append(b"".join(current))
                current, size = [], 0
            current.append(piece)
            size += len(piece)
        if current:
            chunks.append(b"".join(current))
        return chunks

    def _emit(self, data: bytes):
        for doc in data.split(FILE_MARKER):
            if not doc.strip():
                continue
            path_end = doc.find(b"--")
            if path_end == -1:
                continue
            path = doc[:path_end]
            for href in _HREF.findall(doc[path_end:]):
                yield href, path

    def parse_chunk(self, chunk: bytes) -> RecordBatch:
        view = np.frombuffer(chunk, dtype=np.uint8)
        # documents lie between markers; a document's path runs to its
        # first "--" and its links are looked for from there to its end
        dashes = find_all(view, b"--")
        marks = find_all(view, FILE_MARKER, among=dashes)
        paths = np.concatenate(([0], marks + len(FILE_MARKER)))
        doc_ends = np.concatenate((marks, [len(view)]))
        bodies = first_at_or_after(dashes, paths, len(view))
        whole = bodies + 2 <= doc_ends  # no "--": the document is skipped
        paths, bodies, doc_ends = paths[whole], bodies[whole], doc_ends[whole]
        # from here on only the quotes matter.  One that ends an ``href="``
        # inside a body may open a value (``at``: its index among the quotes)
        quotes = np.flatnonzero(view == 34)
        opener = quotes >= 5
        for back, byte in enumerate(b"=ferh", 1):
            opener &= view[np.maximum(quotes - back, 0)] == byte
        at = np.flatnonzero(opener)
        # (``doc`` -1, before the first body, reads the 0 appended here)
        doc = np.searchsorted(bodies, quotes[at], side="right") - 1
        doc_end = np.append(doc_ends, 0)[doc]
        inside = quotes[at] < doc_end
        at, doc, doc_end = at[inside], doc[inside], doc_end[inside]
        # but one that is the very next quote after another such quote of
        # its document closed that one's value instead: of a run of them,
        # every second one opens nothing
        chained = np.zeros(len(at), dtype=bool)
        chained[1:] = (at[1:] == at[:-1] + 1) & (doc[1:] == doc[:-1])
        index = np.arange(len(at))
        run_start = np.maximum.accumulate(np.where(chained, 0, index))
        # the value runs to the next quote, which has to be in the same
        # document and at least one byte further on
        links = quotes[at] + 1
        closes = np.append(quotes, len(view))[at + 1]
        found = ((index - run_start) % 2 == 0) & (closes < doc_end) & (closes > links)
        links, closes, doc = links[found], closes[found], doc[found]
        return RecordBatch.from_spans(
            view, links, closes - links, paths[doc], bodies[doc] - paths[doc]
        )

    def reference(self, data: bytes) -> dict[bytes, list[bytes]]:
        out: dict[bytes, list[bytes]] = collections.defaultdict(list)
        for href, path in self._emit(data):
            out[href].append(path)
        return dict(out)
