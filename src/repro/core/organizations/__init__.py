"""The three bucket organizations (Section IV-B) and their SEPO policies.

The organizations are one chained table that differ in what a hit does.
Each one answers

* ``insert_indices`` / ``mutate_indices`` -- apply a run of pure-insert or
  of mixed insert/update/delete/lookup chunks, returning a success mask
  (``False`` = POSTPONE) and accumulating cost statistics per chunk; a
  mixed-op run stops after the chunk where the gate would start refusing
  or the basic method would halt (``stop_fraction``),
* ``end_iteration`` -- the Figure-5 halt/rearrange step: which pages are
  evicted, which are retained, and what chain maintenance is required,
* ``should_halt`` -- whether the computation must stop mid-input (only the
  basic method halts early, at the 50%-failed-bucket-groups threshold).

Applying a batch does the *real* work -- packing entries into heap pages
and maintaining both pointer chains -- while counting probe steps, touched
bytes and allocation contention for the cost model.  There are two
interchangeable implementations, selected by the ``impl`` constructor
argument:

* ``"vectorized"`` (default) -- batched kernels wherever the scalar walk's
  effects and charges have a closed form, the scalar loop where they have
  none: traced runs, 64-bit hash collisions, callback combiners,
  pure-insert batches into tables holding tombstones, a fault-injected
  pool whose ``n_free`` cannot be believed, mixed-op batches under
  :data:`MIXED_KERNEL_MIN_OPS` ops.
* ``"slow_reference"`` -- the one-record-at-a-time loop, always: the
  differential-testing oracle.

Both produce bit-identical tables, success masks, and cost tallies; only
wall-clock time differs.  Simulated-time accounting is therefore unaffected
by the choice (see docs/cost_model.md, "Host-side performance architecture").

The package is split by role, not by class: :mod:`.policy` (tallies, the
three classes, the dispatch between loop and kernels; :mod:`.costs` holds
the cycle constants), :mod:`.oracle` (the scalar loops) and the kernels
(:mod:`.kernel_front`, :mod:`.kernel_insert`, :mod:`.kernel_mixed`,
:mod:`.kernel_lookup`, :mod:`.kernel_splice`).  Every public name is
importable from here, but a test that *patches* a name must patch the
module that reads it -- the dispatch reads its kernels and
``MIXED_KERNEL_MIN_OPS`` in :mod:`.policy` -- because assigning to this
namespace changes nothing.
"""

# ``__all__`` is the one-file module's; the other names imported here stay
# importable because the rest of ``repro`` and the benchmarks read them
from repro.core.organizations.costs import (
    HASH_CYCLES_PER_BYTE,
    INSERT_CYCLES,
    PROBE_CYCLES,
    SPLICE_CYCLES,
    TOMBSTONE_CYCLES,
    UPDATE_CYCLES,
)
from repro.core.organizations.kernel_front import segmented_exclusive_cumsum
from repro.core.organizations.policy import (
    IMPLS,
    MIXED_KERNEL_MIN_OPS,
    BasicOrganization,
    CombiningOrganization,
    EvictionReport,
    GroupLog,
    InsertTally,
    MultiValuedOrganization,
    Organization,
)

__all__ = [
    "Organization",
    "BasicOrganization",
    "MultiValuedOrganization",
    "CombiningOrganization",
    "EvictionReport",
    "IMPLS",
    "HASH_CYCLES_PER_BYTE",
    "PROBE_CYCLES",
    "INSERT_CYCLES",
    "TOMBSTONE_CYCLES",
    "UPDATE_CYCLES",
]
