"""The MapReduce programming interface (Section V).

The application programmer supplies

* ``partition`` -- the *input data partitioner*: raw bytes -> chunks, run on
  the CPU;
* ``map_chunk`` -- the map function: one chunk -> the KV pairs it emits, as
  a :class:`~repro.core.records.RecordBatch` (one map instance per chunk);
* for :attr:`Mode.MAP_REDUCE`, a ``combiner`` -- the reduce/combine callback
  that aggregates values of a key (the reduce phase is embedded in the map
  phase via the combining bucket organization);
* for :attr:`Mode.MAP_GROUP`, no reducer: values are grouped on the fly via
  the multi-valued organization, producing ``<key, values>``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from repro.bigkernel.partitioner import partition_lines
from repro.core.combiners import Combiner
from repro.core.organizations import (
    CombiningOrganization,
    MultiValuedOrganization,
    Organization,
)
from repro.core.records import RecordBatch

__all__ = ["JobSpec", "Mode"]


class Mode(Enum):
    """Runtime execution modes (Section V)."""

    MAP_REDUCE = "map_reduce"  # combining method; final <key, value>
    MAP_GROUP = "map_group"  # multi-valued method; final <key, values>


@dataclass
class JobSpec:
    """A complete MapReduce job description."""

    name: str
    mode: Mode
    map_chunk: Callable[[bytes], RecordBatch]
    combiner: Combiner | None = None
    partition: Callable[[bytes, int], list[bytes]] = field(
        default=partition_lines
    )
    chunk_bytes: int = 1 << 20

    def __post_init__(self) -> None:
        if self.mode is Mode.MAP_REDUCE and self.combiner is None:
            raise ValueError("MAP_REDUCE requires a reduce/combine function")
        if self.mode is Mode.MAP_GROUP and self.combiner is not None:
            raise ValueError("MAP_GROUP jobs have no reduce phase")

    def chunks(self, data: bytes) -> list[bytes]:
        return self.partition(data, self.chunk_bytes)

    def make_organization(self) -> Organization:
        """The bucket organization the mode stores its pairs in: combining
        with the job's reduce/combine callback, or multi-valued.  Every
        runtime asks here."""
        if self.mode is Mode.MAP_REDUCE:
            return CombiningOrganization(self.combiner)
        return MultiValuedOrganization()
