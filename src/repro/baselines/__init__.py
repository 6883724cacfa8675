"""The alternative system-level approaches of Sections II and VI-D.

Both "obvious" ways to get a larger-than-GPU-memory hash table without SEPO
are implemented so their costs can be measured:

* :mod:`.pinned` -- the table's heap lives in pinned CPU memory and GPU
  threads dereference it remotely over PCIe, one small transaction per
  access (Figure 7's comparison).
* :mod:`.paging` -- a GPU with hardware demand paging: an LRU simulation
  over the table's recorded access trace counts page replacements, whose
  transfer volume lower-bounds the runtime (Table III's methodology).
* :mod:`.trace` -- the access-trace recorder both studies share (the paper
  "instrumented the code of PVC to record the access pattern").

The paper's other two comparators are not here: the CPU baseline is
:mod:`repro.cpu.cputable` and MapCG is :mod:`repro.mapreduce.mapcg`.
"""

from repro.baselines.paging import DemandPagingModel, lru_replacements
from repro.baselines.pinned import PinnedHashTable
from repro.baselines.trace import AccessTrace

__all__ = [
    "AccessTrace",
    "DemandPagingModel",
    "PinnedHashTable",
    "lru_replacements",
]
