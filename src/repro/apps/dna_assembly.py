"""DNA Assembly (combining method).

Meraculous-style k-mer counting with edge sets: each read contributes its
k-mers as keys, each valued with a bitmask of the bases observed adjacent to
that k-mer (bits 0-3: preceding base A/C/G/T, bits 4-7: following base).
Duplicate k-mers OR their edge masks together -- the de Bruijn graph
neighbourhood the assembler walks afterwards.

The k-mer extraction is fully vectorized: reads are fixed-length lines, so
every k-mer is a fixed offset from a line start and the key matrix is one
gather of ``k``-byte windows.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import Application, line_spans
from repro.core.combiners import BITOR_U64
from repro.core.records import RecordBatch
from repro.datagen.dna import generate_dna_reads

__all__ = ["DnaAssembly"]

_BASE_CODE = np.zeros(256, dtype=np.uint64)
_BASE_CODE[ord("A")] = 0
_BASE_CODE[ord("C")] = 1
_BASE_CODE[ord("G")] = 2
_BASE_CODE[ord("T")] = 3


class DnaAssembly(Application):
    name = "DNA Assembly"
    organization = "combining"
    combiner = BITOR_U64
    # Base-packing + window hash per k-mer; uniform control flow.
    parse_cycles = 600.0
    divergence = 1.0

    def __init__(
        self,
        read_len: int = 64,
        k: int = 16,
        step: int = 8,
        genome_per_byte: float = 1 / 64,
    ):
        if k < 2 or k > read_len:
            raise ValueError(f"k={k} incompatible with read length {read_len}")
        if step < 1:
            raise ValueError(f"step must be positive: {step}")
        self.read_len = read_len
        self.k = k
        self.step = step
        self.genome_per_byte = genome_per_byte

    def generate_input(self, size_bytes: int, seed: int = 0) -> bytes:
        genome_len = max(4 * self.read_len, int(size_bytes * self.genome_per_byte))
        return generate_dna_reads(
            size_bytes, seed=seed, genome_len=genome_len, read_len=self.read_len
        )

    # ------------------------------------------------------------------
    def _kmer_starts(self) -> range:
        return range(0, self.read_len - self.k + 1, self.step)

    def parse_chunk(self, chunk: bytes) -> RecordBatch:
        view = np.frombuffer(chunk, dtype=np.uint8)
        starts, ends = line_spans(view)
        # a read is a line of exactly read_len bases, terminated or not
        reads = starts[ends - starts == self.read_len]
        offsets = np.array(self._kmer_starts())
        # k-mer positions, one row per window offset: all the reads'
        # first k-mers come before their second ones
        at = offsets[:, None] + reads
        edges = np.zeros(at.shape, dtype=np.uint64)
        preceded = offsets > 0
        followed = offsets + self.k < self.read_len
        edges[preceded] |= np.uint64(1) << _BASE_CODE[view[at[preceded] - 1]]
        edges[followed] |= np.uint64(16) << _BASE_CODE[view[at[followed] + self.k]]
        return RecordBatch.from_spans(
            view, at.ravel(), np.full(at.size, self.k, dtype=np.int32),
            numeric_values=edges.ravel(),
        )

    def reference(self, data: bytes) -> dict[bytes, int]:
        out: dict[bytes, int] = {}
        for read in data.split(b"\n"):
            if len(read) != self.read_len:
                continue  # not a read (blank, cut short, ragged): skip
            for s in self._kmer_starts():
                kmer = read[s : s + self.k]
                mask = 0
                if s > 0:
                    mask |= 1 << int(_BASE_CODE[read[s - 1]])
                if s + self.k < len(read):
                    mask |= 16 << int(_BASE_CODE[read[s + self.k]])
                out[kmer] = out.get(kmer, 0) | mask
        return out
