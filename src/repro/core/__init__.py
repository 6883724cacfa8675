"""The paper's contribution: the SEPO model and the GPU hash table.

Public API tour
---------------

* :class:`~repro.core.hashtable.GpuHashTable` -- the larger-than-memory
  chained hash table (Section IV), configured with one of the three bucket
  organizations from :mod:`~repro.core.organizations`.
* :class:`~repro.core.sepo.SepoDriver` -- the requestor-side iteration loop
  (Section III / Figure 5) that processes a batched input to completion,
  reissuing postponed inserts.
* :mod:`~repro.core.combiners` -- the combining method's reduction callbacks.
* :class:`~repro.core.bitmap.PendingBitmap` -- one pending bit per record.
* :mod:`~repro.core.lookup` -- SEPO lookups over a finished table (the
  paper's "mental exercise" extension).
* :mod:`~repro.core.mutations` -- mixed-op batches: first-class
  delete/update/lookup with the same postponement semantics, plus the
  dict-model oracle the differential suites compare against.
"""

from repro.core.bitmap import PendingBitmap
from repro.core.buckets import BucketArray
from repro.core.checkpoint import FrozenTable, load_table, save_table
from repro.core.introspection import TableStats, collect_stats
from repro.core.lookup import LookupDriver, LookupResult
from repro.core.planning import PlanEstimate, StreamStats, plan
from repro.core.combiners import (
    BITOR_U64,
    BitOrCombiner,
    CallbackCombiner,
    Combiner,
    MAX_I64,
    MaxCombiner,
    MIN_I64,
    MinCombiner,
    SUM_F64,
    SUM_I64,
    SumCombiner,
)
from repro.core.hashing import fnv1a, fnv1a_batch
from repro.core.hashtable import GpuHashTable, InsertResult
from repro.core.mutations import (
    MutationBatch,
    MutationCounters,
    OP_DELETE,
    OP_INSERT,
    OP_LOOKUP,
    OP_UPDATE,
    apply_op_to_model,
    model_for_ops,
)
from repro.core.organizations import (
    BasicOrganization,
    CombiningOrganization,
    EvictionReport,
    MultiValuedOrganization,
    Organization,
)
from repro.core.records import (
    RecordBatch,
    gather_spans,
    pack_byte_rows,
    pack_str_keys,
)
from repro.core.sepo import (
    IterationRecord,
    NoProgressError,
    SepoDriver,
    SepoReport,
    Status,
)

__all__ = [
    "BITOR_U64",
    "BasicOrganization",
    "BitOrCombiner",
    "BucketArray",
    "CallbackCombiner",
    "Combiner",
    "CombiningOrganization",
    "EvictionReport",
    "FrozenTable",
    "GpuHashTable",
    "InsertResult",
    "IterationRecord",
    "LookupDriver",
    "LookupResult",
    "MAX_I64",
    "MIN_I64",
    "MaxCombiner",
    "MinCombiner",
    "MultiValuedOrganization",
    "MutationBatch",
    "MutationCounters",
    "NoProgressError",
    "OP_DELETE",
    "OP_INSERT",
    "OP_LOOKUP",
    "OP_UPDATE",
    "Organization",
    "PendingBitmap",
    "PlanEstimate",
    "RecordBatch",
    "StreamStats",
    "TableStats",
    "apply_op_to_model",
    "collect_stats",
    "model_for_ops",
    "plan",
    "SUM_F64",
    "SUM_I64",
    "SepoDriver",
    "SepoReport",
    "Status",
    "SumCombiner",
    "fnv1a",
    "fnv1a_batch",
    "load_table",
    "gather_spans",
    "pack_byte_rows",
    "pack_str_keys",
    "save_table",
]
