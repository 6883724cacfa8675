"""One organization call for a run of mixed-op chunks, split back per chunk.

:meth:`GpuHashTable.apply_batch` applies consecutive mixed-op chunks with
one :meth:`Organization.mutate_indices` call, which stops after the chunk
where a pass of one call a chunk would stop: the gate refuses every later
chunk once every bucket group has failed, and the basic method halts at its
threshold.  Each result must be what the chunk's own call returns on a twin
table fed the chunks one at a time under the driver's rules (by the scalar
loop, the oracle of the kernels too): success mask, :class:`InsertTally`,
:class:`BatchStats` and lookup answers, and after the run the table bytes,
pins, allocator state, totals and mutation counters.  The seeded runs below
must also go through the places where a run differs from a chunk: the cut
in the middle of a run (found by the kernel's allocation plan, or by the
loop between parts), a run that starts with groups already failed, a
multi-valued op left half applied in one chunk with
its key read in the next, a key split across chunks, and two keys of
different chunks on one 64-bit hash, which sends the run to the loop.
"""

from collections import Counter

import numpy as np
import pytest

from repro.core import (
    OP_DELETE,
    OP_INSERT,
    OP_LOOKUP,
    OP_UPDATE,
    GpuHashTable,
)
from repro.core import entries as E
from repro.core.chainview import walk_cpu_image
from repro.core.organizations import policy
from repro.memalloc import GpuHeap
from tests.core.test_mutations import make_org, mut_batch

KINDS = ("basic", "combining", "multi-valued")
IMPLS = ("vectorized", "slow_reference")
SEEDS = 32
OPS = (OP_INSERT, OP_UPDATE, OP_DELETE, OP_LOOKUP)


@pytest.fixture(autouse=True)
def kernel_always(monkeypatch):
    """Runs of a few dozen ops take the kernel, not the small-batch loop."""
    monkeypatch.setattr(policy, "MIXED_KERNEL_MIN_OPS", 0)


def twin(kind, impl, pages, page, n_buckets, group_size):
    return GpuHashTable(
        n_buckets, make_org(kind, impl), GpuHeap(pages * page, page),
        group_size=group_size,
    )


def state(table):
    """Everything a run leaves behind in the table."""
    return dict(
        image=table.heap.cpu_image(),
        pins=dict(getattr(table.org, "_pin_counts", {})),
        pinned=sorted(p.segment for p in table.heap.resident_pages if p.pinned),
        stats=vars(table.alloc.stats).copy(),
        failed=table.alloc.failed_groups.tolist(),
        n_free=table.heap.pool.n_free,
        totals=(table.total_mutated, table.total_postponed),
        mutations=table.mutations.snapshot(),
    )


def assert_same(got, want):
    assert len(got) == len(want), "parts reached"
    for n, (g, w) in enumerate(zip(got, want)):
        assert g.success.tolist() == w.success.tolist(), f"chunk {n}: mask"
        assert g.tally == w.tally, f"chunk {n}: tally"
        assert g.stats == w.stats, f"chunk {n}: stats"


def streams(kind, rng):
    """Three to six chunks of mixed ops over a few dozen keys, values
    spread over sizes; every chunk holds an op that is not an insert."""
    n_keys = int(rng.integers(4, 40))
    spread = int(rng.choice([1, 24, 72]))
    out = []
    for c in range(int(rng.integers(3, 7))):
        n = int(rng.integers(8, 90))
        ops = rng.choice(OPS, size=n, p=[0.45, 0.2, 0.15, 0.2])
        ops[0] = OP_LOOKUP
        keys = [b"key-%02d" % k for k in rng.integers(0, n_keys, size=n)]
        if kind == "combining":
            values = [int(v) for v in rng.integers(-50, 50, size=n)]
        else:
            values = [b"v" * int(rng.integers(0, spread)) + b"%d.%d" % (c, i)
                      for i in range(n)]
        out.append([(int(o), k, v) for o, k, v in zip(ops, keys, values)])
    return out


def add_twins(triples):
    """A key only chunk 0 holds, and one only chunk 1 holds (its last two
    ops): the two :func:`forge_collision` gives one hash."""
    value = 7 if isinstance(triples[0][0][2], int) else b"twin"
    triples[0].append((OP_INSERT, b"twin-0", value))
    triples[1] += [(OP_INSERT, b"twin-1", value), (OP_LOOKUP, b"twin-1", value)]


def forge_collision(batches):
    """Give :func:`add_twins`' keys one 64-bit hash: each chunk alone has
    no collision, their join has one."""
    for first, second in zip(*batches[:2]):  # each twin's copies
        hashes = second.cache.hashes().copy()
        hashes[-2:] = first.cache.hashes()[-1]
        second.cache._hashes = hashes
        assert not second.cache.grouping(GRID).has_collision


#: any bucket array: a grouping's collision flag does not depend on it
GRID = GpuHashTable(
    4, make_org("basic", "vectorized"), GpuHeap(1024, 256)).buckets


def pending_keys(table) -> set:
    """The keys of the multi-valued key entries flagged ``PENDING``."""
    buckets = table.buckets
    heads = buckets.head_cpu[buckets.occupied_buckets()]
    if not len(heads):
        return set()
    blob = table.heap.cpu_image()
    image = np.frombuffer(blob, dtype=np.uint8)
    (pos, klens, _, flags), _ = walk_cpu_image(image, heads, "key")
    at = np.flatnonzero(flags & E.FLAG_PENDING)
    ko = pos[at] + E.KEY_ENTRY_HEADER
    return {blob[a:b] for a, b in zip(ko.tolist(), (ko + klens[at]).tolist())}


def one_call_a_chunk(table, parts, facts):
    """Apply ``parts`` one call a chunk, stopping where a SEPO pass would,
    and note a multi-valued op left half applied in one chunk whose key a
    lookup of the next chunk asks for."""
    results = []
    half = set()
    for n, (batch, idx) in enumerate(parts):
        if n and (table.should_halt() or table.gate_refuses(batch)):
            break
        rows = np.arange(len(batch)) if idx is None else idx
        asked = {batch.key_bytes(int(i)) for i in rows
                 if batch.ops[i] == OP_LOOKUP}
        facts["half-applied key read in the next chunk"] += bool(half & asked)
        before = pending_keys(table) if table.org.kind == "multi-valued" else set()
        results.append(table.apply_batch([(batch, idx)])[0])
        if table.org.kind == "multi-valued":
            half = pending_keys(table) - before
    return results


def kernel_cuts(table, facts):
    """Count the runs whose cut the kernel found in its plan."""
    kernel = table.org._mutate_kernel

    def watched(t, batch, idx, buckets, tallies, bounds):
        done, reached = kernel(t, batch, idx, buckets, tallies, bounds)
        facts["cut by the kernel"] += reached < len(tallies)
        return done, reached

    table.org._mutate_kernel = watched


def loop_runs(table, facts):
    """Count the joined runs a hash collision sends to the loop."""
    closed_form = table.org._closed_form

    def watched(t, batch):
        grouping = closed_form(t, batch)
        facts["collision sends the run to the loop"] += (
            grouping is None and batch.cache.grouping(t.buckets).has_collision)
        return grouping

    table.org._closed_form = watched


@pytest.mark.parametrize("impl", IMPLS)
@pytest.mark.parametrize("kind", KINDS)
def test_a_joined_mixed_run_splits_into_what_each_chunk_returns_alone(
        kind, impl):
    facts = Counter()
    for seed in range(SEEDS):
        rng = np.random.default_rng([42, seed])
        n_buckets = int(rng.choice([1, 4, 16]))
        shape = dict(
            pages=int(rng.integers(3, 9)), page=int(rng.choice([256, 512])),
            n_buckets=n_buckets,
            group_size=int(rng.choice([g for g in (1, 2, 8) if g <= n_buckets])),
        )
        # the chunk-at-a-time twin runs the scalar loop: the oracle of both
        # the split and the kernel
        joined = twin(kind, impl, **shape)
        alone = twin(kind, "slow_reference", **shape)
        if impl == "vectorized":
            kernel_cuts(joined, facts)
            loop_runs(joined, facts)
        triples = streams(kind, rng)
        if seed % 4 == 0:
            add_twins(triples)
        batches = [(mut_batch(kind, t), mut_batch(kind, t)) for t in triples]
        if seed % 4 == 0:
            forge_collision(batches)
        pending = [None] * len(batches)
        for n in range(6):  # the reissues of later passes are runs too
            live = [c for c, p in enumerate(pending) if p is None or len(p)]
            if not live:
                break
            # every other run meets the groups the run before it failed,
            # as a run after another in one pass does
            facts["run starts with groups failed"] += joined.alloc.has_failures
            got = joined.apply_batch([(batches[c][0], pending[c]) for c in live])
            want = one_call_a_chunk(
                alone, [(batches[c][1], pending[c]) for c in live], facts)
            assert_same(got, want)
            assert state(joined) == state(alone), f"seed {seed}"
            assert [a.lookup_results for a, _ in batches] == [
                b.lookup_results for _, b in batches], f"seed {seed}"
            ran = live[:len(got)]
            cut = len(got) < len(live)
            facts["cut in the middle of a run"] += cut
            keys = [{k for _, k, _ in triples[c]} for c in ran]
            facts["key split across chunks"] += any(
                a & b for n, a in enumerate(keys) for b in keys[n + 1:])
            for c, res in zip(ran, got):
                rows = (np.arange(len(triples[c])) if pending[c] is None
                        else pending[c])
                pending[c] = rows[~res.success]
            if n % 2:
                joined.end_iteration()
                alone.end_iteration()
        assert joined.result() == alone.result(), f"seed {seed}"
    assert facts["cut in the middle of a run"] >= 3, facts
    assert facts["run starts with groups failed"] >= 3, facts
    assert facts["key split across chunks"] >= SEEDS // 2, facts
    if kind == "multi-valued":
        assert facts["half-applied key read in the next chunk"] >= 2, facts
    if impl == "vectorized":
        assert facts["cut by the kernel"] >= 3, facts
        assert facts["collision sends the run to the loop"] >= 2, facts
