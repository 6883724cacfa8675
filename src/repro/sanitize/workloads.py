"""Shared workload generators for the conformance harness.

Every implementation in the conformance matrix consumes the same
deterministic (key, value) streams, built from a seed:

* ``uniform`` -- keys drawn uniformly from a keyspace about the size of
  the stream (moderate duplication, the common analytics shape),
* ``zipf`` -- Zipf-skewed key popularity (hot keys, long chains in a few
  buckets -- the Word-Count shape from Section VI-B),
* ``zipf105`` -- the same shape at s=1.05, the near-uniform-tail skew used
  by the host-perf benchmark: heavy in-batch duplication without a single
  dominating key, the regime the pre-aggregating insert kernels target,
* ``all-duplicates`` -- a single key for every record (worst-case chain
  or combine pressure; one bucket absorbs the whole stream).

Values are small signed integers so the same stream drives both the
combining method (numeric batches, summed) and the byte-valued methods
(each value rendered as distinct bytes).

Mixed-operation streams (:data:`MUTATION_WORKLOADS`) reuse the same key
shapes with per-record op codes: ``mixed-*`` interleaves all four ops,
``delete-heavy-*`` is dominated by deletes, and ``delete-then-reinsert``
tombstones an entire keyspace before repopulating half of it.  Their
oracle is the dict model from :mod:`repro.core.mutations`.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.core.mutations import (
    MutationBatch,
    OP_DELETE,
    OP_INSERT,
    OP_LOOKUP,
    OP_UPDATE,
    model_for_ops,
)
from repro.core.records import RecordBatch
from repro.datagen.zipf import zipf_sample

__all__ = [
    "Workload",
    "WORKLOADS",
    "make_workload",
    "make_batches",
    "OpWorkload",
    "MUTATION_WORKLOADS",
    "make_op_workload",
    "make_mutation_batches",
    "mutation_oracle",
]


@dataclass(frozen=True)
class Workload:
    """A deterministic stream of (key, value) records."""

    name: str
    seed: int
    keys: tuple[bytes, ...]
    values: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.keys)


def _uniform(rng: np.random.Generator, n: int) -> list[bytes]:
    ids = rng.integers(0, max(1, n), size=n)
    return [b"u%06d" % i for i in ids]


def _zipf(rng: np.random.Generator, n: int) -> list[bytes]:
    ranks = zipf_sample(rng, n, k=max(16, n // 8), s=1.2)
    return [b"z%06d" % r for r in ranks]


def _zipf105(rng: np.random.Generator, n: int) -> list[bytes]:
    ranks = zipf_sample(rng, n, k=max(16, n // 8), s=1.05)
    return [b"z%06d" % r for r in ranks]


def _all_duplicates(rng: np.random.Generator, n: int) -> list[bytes]:
    return [b"the-one-key"] * n


#: workload name -> key generator
WORKLOADS = {
    "uniform": _uniform,
    "zipf": _zipf,
    "zipf105": _zipf105,
    "all-duplicates": _all_duplicates,
}


def _name_seed(name: str, seed: int) -> int:
    """Stable per-name seed derivation.

    ``hash(str)`` is salted per process; these streams must be identical
    across processes (the crashtest's oracle, victim and survivor each
    rebuild the same workload in a separate interpreter).
    """
    return seed ^ (zlib.crc32(name.encode()) & 0xFFFF)


def make_workload(name: str, n: int, seed: int = 0) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; have {sorted(WORKLOADS)}")
    rng = np.random.default_rng(_name_seed(name, seed))
    keys = WORKLOADS[name](rng, n)
    values = rng.integers(-100, 100, size=n).tolist()
    return Workload(name=name, seed=seed, keys=tuple(keys), values=tuple(values))


def value_bytes(v: int) -> bytes:
    """Byte rendering of a workload value (basic/multi-valued modes)."""
    return b"v%d" % v


def make_batches(
    workload: Workload, mode: str, batch_size: int = 128
) -> list[RecordBatch]:
    """Chunk a workload into record batches for a given table mode."""
    batches = []
    for lo in range(0, len(workload), batch_size):
        keys = list(workload.keys[lo : lo + batch_size])
        vals = list(workload.values[lo : lo + batch_size])
        if mode == "combining":
            batches.append(
                RecordBatch.from_numeric(keys, np.array(vals, dtype=np.int64))
            )
        else:
            batches.append(
                RecordBatch.from_pairs(
                    [(k, value_bytes(v)) for k, v in zip(keys, vals)]
                )
            )
    return batches


# ----------------------------------------------------------------------
# mixed-operation streams (the mutation conformance cells)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OpWorkload:
    """A deterministic stream of (op, key, int value) triples."""

    name: str
    seed: int
    ops: tuple[tuple[int, bytes, int], ...]

    def __len__(self) -> int:
        return len(self.ops)


#: op-mix profiles: (insert, update, delete, lookup) probabilities
_OP_PROFILES = {
    "mixed": (0.45, 0.20, 0.15, 0.20),
    "delete-heavy": (0.30, 0.05, 0.50, 0.15),
}


def _profile_stream(profile, keygen):
    def gen(rng: np.random.Generator, n: int):
        keys = keygen(rng, n)
        codes = rng.choice(
            [OP_INSERT, OP_UPDATE, OP_DELETE, OP_LOOKUP], size=n, p=profile
        )
        values = rng.integers(-100, 100, size=n)
        return [
            (int(op), k, int(v)) for op, k, v in zip(codes, keys, values)
        ]

    return gen


def _delete_then_reinsert(rng: np.random.Generator, n: int):
    """Insert a keyspace, delete all of it, reinsert half (+ lookups).

    The reinsert phase is the interesting part: every reinserted key's
    chain starts with a tombstone, so the merge automaton and the lookup
    paths must resurface only post-delete values.
    """
    k = max(1, n // 3)
    keys = [b"d%06d" % i for i in range(k)]
    values = rng.integers(-100, 100, size=n)
    ops = []
    for i in range(k):
        ops.append((OP_INSERT, keys[i], int(values[i])))
    for i in range(k):
        ops.append((OP_DELETE, keys[i], 0))
    for i in range(n - 2 * k):
        key = keys[i % k]
        if i % 2:
            ops.append((OP_LOOKUP, key, 0))
        else:
            ops.append((OP_INSERT, key, int(values[2 * k + i])))
    return ops


#: mutation workload name -> (op, key, value) stream generator
MUTATION_WORKLOADS = {
    "delete-then-reinsert": _delete_then_reinsert,
}
for _profile in _OP_PROFILES:
    for _shape in ("uniform", "zipf", "all-duplicates"):
        MUTATION_WORKLOADS[f"{_profile}-{_shape}"] = _profile_stream(
            _OP_PROFILES[_profile], WORKLOADS[_shape]
        )


def make_op_workload(name: str, n: int, seed: int = 0) -> OpWorkload:
    if name not in MUTATION_WORKLOADS:
        raise ValueError(
            f"unknown mutation workload {name!r}; have "
            f"{sorted(MUTATION_WORKLOADS)}"
        )
    rng = np.random.default_rng(_name_seed(name, seed))
    ops = MUTATION_WORKLOADS[name](rng, n)
    return OpWorkload(name=name, seed=seed, ops=tuple(ops))


def _mode_triples(workload: OpWorkload, mode: str):
    """Render the canonical int-valued stream for one table mode."""
    if mode == "combining":
        return [(op, k, v) for op, k, v in workload.ops]
    return [(op, k, value_bytes(v)) for op, k, v in workload.ops]


def make_mutation_batches(
    workload: OpWorkload,
    mode: str,
    batch_size: int = 128,
) -> list[MutationBatch]:
    """Chunk an op stream into mutation batches for a given table mode."""
    triples = _mode_triples(workload, mode)
    return [
        MutationBatch.from_ops(
            triples[lo : lo + batch_size],
            numeric_dtype=np.int64 if mode == "combining" else None,
        )
        for lo in range(0, len(triples), batch_size)
    ]


def mutation_oracle(
    workload: OpWorkload, mode: str
) -> tuple[dict, dict[int, object]]:
    """Dict-model ground truth: (final mapping, per-index lookup results).

    The final mapping is normalized the same way :func:`oracle` output is
    consumed: combining keeps scalars, the byte-valued modes sort their
    value lists (chain order is newest-first by construction).
    """
    from repro.core.combiners import SUM_I64

    model, lookups = model_for_ops(
        _mode_triples(workload, mode),
        kind=mode,
        combiner=SUM_I64 if mode == "combining" else None,
    )
    if mode == "combining":
        return dict(model), lookups
    return {k: sorted(vs) for k, vs in model.items()}, lookups


def oracle(workload: Workload, mode: str) -> dict:
    """The pure-dict reference result every implementation must match."""
    if mode == "combining":
        out: dict[bytes, int] = {}
        for k, v in zip(workload.keys, workload.values):
            out[k] = out.get(k, 0) + v
        return out
    grouped: dict[bytes, list[bytes]] = {}
    for k, v in zip(workload.keys, workload.values):
        grouped.setdefault(k, []).append(value_bytes(v))
    return {k: sorted(vs) for k, vs in grouped.items()}
