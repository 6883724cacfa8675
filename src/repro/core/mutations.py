"""Mixed-operation batches: first-class delete/update/lookup under SEPO.

The paper's table is insert-then-finalize-then-lookup; serving workloads
(WarpSpeed's argument, see PAPERS.md) need deletes, updates, and mixed
batches with the same postponement semantics.  A :class:`MutationBatch` is a
:class:`~repro.core.records.RecordBatch` plus a per-record operation code,
so the whole derived-data machinery (FNV-1a hash cache, bucket ids,
duplicate-key grouping) is shared with the insert path and a single SEPO
pass can interleave all four operations.

Semantics (all organizations):

* ``OP_INSERT`` -- exactly the organization's insert semantics.
* ``OP_UPDATE`` -- upsert: combining re-combines in place (identical to
  insert); basic replaces the key's value (a *shadow* entry supersedes all
  older same-key entries); multi-valued appends one value, identical to
  insert.  To replace a multi-valued key's whole list, issue ``OP_DELETE``
  then ``OP_INSERT`` of the key: the gate keeps the two in order.
* ``OP_DELETE`` -- upsert-style tombstone: deleting an absent key is a
  successful no-op.  A resident newest match is tombstoned in place; when
  the chain continues into evicted memory, a tombstone *entry* is prepended
  so older copies can never resurface at merge time.
* ``OP_LOOKUP`` -- resolves the key against the full CPU chain (dual
  pointers make evicted entries host-visible) through the same newest-first
  tombstone/shadow automaton the final merge uses; the result is stored on
  the batch.

Upserts are the only sound semantics larger-than-memory: with part of a
chain evicted, *absence* of a key is unprovable on the GPU, so "update only
if present" cannot be decided without a host round-trip.

Ordering under postponement: ops on one key always hash to one bucket and
therefore one bucket group.  Any op of a mutation batch whose group is
sticky-failed postpones up front (the *gate*,
:meth:`~repro.memalloc.allocator.BucketGroupAllocator.group_failed`), so a
postponed delete/update replays strictly before any later same-key op --
the reissue order of a SEPO pass equals issue order per key, and the table
realizes the issue-order semantics :func:`apply_op_to_model` defines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

import numpy as np

from repro.core.records import RecordBatch, pack_byte_rows

__all__ = [
    "OP_INSERT",
    "OP_UPDATE",
    "OP_DELETE",
    "OP_LOOKUP",
    "OP_NAMES",
    "MutationBatch",
    "MutationCounters",
    "apply_op_to_model",
    "model_for_ops",
    "split_answers",
]

OP_INSERT = 0
OP_UPDATE = 1
OP_DELETE = 2
OP_LOOKUP = 3
OP_NAMES = ("insert", "update", "delete", "lookup")


@dataclass
class MutationCounters:
    """Lifetime per-table counts of acknowledged mutation-batch operations.

    Kept separate from ``total_inserted`` (pure-insert batch successes) so
    the sanitizer's existing reconciles stay exact: reachable entries must
    equal (basic) or bound (combining) the entry-creating operations, and
    multi-valued value nodes must equal the value-appending ones.
    """

    inserts: int = 0            #: successful OP_INSERTs in mutation batches
    updates_inplace: int = 0    #: updates resolved without a new entry
    updates_entries: int = 0    #: updates that allocated a (shadow) entry
    deletes_inplace: int = 0    #: live entries tombstoned in place
    deletes_noop: int = 0       #: deletes of proven-absent or dead keys
    deletes_tombstones: int = 0 #: born-dead tombstone entries prepended
    lookups: int = 0            #: lookups resolved (reissues count again)
    gate_postponed: int = 0     #: ops postponed by the sticky-group gate
    value_nodes: int = 0        #: value nodes appended (multi-valued only)

    def snapshot(self) -> tuple[int, ...]:
        return (
            self.inserts, self.updates_inplace, self.updates_entries,
            self.deletes_inplace, self.deletes_noop, self.deletes_tombstones,
            self.lookups, self.gate_postponed, self.value_nodes,
        )


@dataclass
class MutationBatch(RecordBatch):
    """A record batch whose records carry per-record operation codes.

    ``ops[i]`` is one of the ``OP_*`` codes; deletes and lookups carry a
    placeholder value (their payload is the key alone).  ``lookup_results``
    maps a record's index *within this batch* to its resolved value; a
    reissued (postponed) lookup simply overwrites its slot on the later
    pass.
    """

    ops: np.ndarray | None = None  # (n,) int8 OP_* codes
    lookup_results: dict[int, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.ops is None:
            raise ValueError("a MutationBatch requires an ops array")
        self.ops = np.asarray(self.ops, dtype=np.int8)
        if self.ops.shape != (len(self.key_lens),):
            raise ValueError("ops must align with the record count")
        if len(self.ops) and (
            int(self.ops.min()) < OP_INSERT or int(self.ops.max()) > OP_LOOKUP
        ):
            raise ValueError("unknown operation code in ops")

    @property
    def pure_insert(self) -> bool:
        """True when every op is an insert (legacy insert-batch semantics,
        including exemption from the sticky-group postponement gate)."""
        return not (self.ops != OP_INSERT).any()

    def _concat_extra(self, parts, rows) -> dict:
        """Carry op codes into :meth:`~repro.core.records.RecordBatch.
        concat` and :meth:`~repro.core.records.RecordBatch.take` (lookup
        results start empty, keyed by merged row as the merged batch
        resolves them)."""
        return {
            "ops": np.concatenate([p.ops[r] for p, r in zip(parts, rows)]),
        }

    @classmethod
    def from_ops(
        cls,
        ops: list[tuple[int, bytes, Any]],
        *,
        numeric_dtype=None,
        input_bytes: int = 0,
        parse_cycles: float = 50.0,
        divergence: float = 1.0,
    ) -> "MutationBatch":
        """Build a batch from ``(op, key, value)`` triples.

        With ``numeric_dtype`` set, values are packed as fixed-width scalars
        (combining method); otherwise as byte strings.  Deletes and lookups
        may pass any placeholder value (``0`` / ``b""``).
        """
        codes, keys, values = zip(*ops) if ops else ((), (), ())
        keys, klens = pack_byte_rows(keys)
        kwargs: dict[str, Any] = {}
        if numeric_dtype is not None:
            kwargs["numeric_values"] = np.array(values, dtype=numeric_dtype)
        else:
            vals, vlens = pack_byte_rows(values)
            kwargs["values"] = vals
            kwargs["val_lens"] = vlens
        return cls(
            keys=keys, key_lens=klens, ops=np.array(codes, dtype=np.int8),
            input_bytes=input_bytes, parse_cycles=parse_cycles,
            divergence=divergence, **kwargs,
        )


def split_answers(
    answers: dict[int, Any] | None, rows: Sequence[np.ndarray]
) -> Iterator[tuple[int, int, Any]]:
    """``(part, row, value)`` for each of a joined batch's lookup
    ``answers`` (keyed by joined row; ``None`` or empty: none): the joined
    batch holds rows ``rows[p]`` of part ``p``, part after part, so one
    search of the parts' cumulative lengths finds every answer's part."""
    if not answers:
        return iter(())
    at = np.fromiter(answers, np.int64, len(answers))
    part = np.searchsorted(np.cumsum([len(r) for r in rows]), at, "right")
    local = np.concatenate(rows)[at]
    return zip(part.tolist(), local.tolist(), answers.values())


# ----------------------------------------------------------------------
# the dict-model oracle
# ----------------------------------------------------------------------
def apply_op_to_model(
    model: dict,
    op: int,
    key: bytes,
    value: Any,
    *,
    kind: str,
    combiner=None,
) -> Any:
    """Apply one operation to the plain-dict model; returns lookup results.

    ``kind`` is the organization kind (``"basic"`` | ``"combining"`` |
    ``"multi-valued"``).  This is the ground truth the differential suite
    holds every table path to: the table's merged :meth:`result` must equal
    the model after any interleaving, and every lookup must return what the
    model held at its point in the op stream.
    """
    if op == OP_DELETE:
        model.pop(key, None)
        return None
    if kind == "combining":
        if op == OP_LOOKUP:
            return model.get(key)
        # insert and update are both upsert-combine
        if key in model:
            model[key] = combiner.combine(model[key], value)
        else:
            model[key] = value
        return None
    # basic and multi-valued hold lists of values
    if op == OP_LOOKUP:
        return list(model.get(key, []))
    if op == OP_UPDATE and kind == "basic":
        model[key] = [value]
    else:
        model.setdefault(key, []).append(value)
    return None


def model_for_ops(
    ops: list[tuple[int, bytes, Any]],
    *,
    kind: str,
    combiner=None,
) -> tuple[dict, dict[int, Any]]:
    """Run an op stream through the model; returns (final dict, lookups)."""
    model: dict = {}
    lookups: dict[int, Any] = {}
    for i, (op, key, value) in enumerate(ops):
        out = apply_op_to_model(
            model, op, key, value, kind=kind, combiner=combiner
        )
        if op == OP_LOOKUP:
            lookups[i] = out
    return model, lookups
