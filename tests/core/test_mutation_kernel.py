"""The batched mixed-op kernel, forced on at every batch size.

``impl="vectorized"`` runs ``kernel_mixed._mutate_generic`` (basic,
combining) and ``_mutate_multivalued`` only for batches of at least
``MIXED_KERNEL_MIN_OPS`` ops, and the differential suites use batches far
smaller than that.  This module patches the
cut-over to 0 for every test it collects (a fixture on
``organizations.policy``, where the dispatch reads the constant; the shipped
value is untouched, and ``test_the_fixture_forces_the_kernel`` proves the
patch lands) and

* re-collects ``test_mutations.py``, ``test_mutation_readers.py`` and the
  ``MutationMachine`` state machine under it, so each of those suites
  runs at the shipped cut-over in its own module and at 0 here, and
* adds the cases that need the kernels' own paths: allocation failure in
  the middle of a batch (several groups at once; the denied op an insert,
  an allocating update, a born-dead delete; for the multi-valued method
  the denied request a key entry or a value node, the latter leaving a
  half-applied op behind), groups already failed on entry, lookups that
  follow a write to their key in the same batch, width-changing updates,
  f64 folds across postponement, a seeded fuzz, and planted faults the
  cases must catch.

Every new case holds ``vectorized`` to ``slow_reference`` on all the
observables of ``assert_mut_identical`` (table bytes and page pins
included) plus the allocator's own stats.
"""

import struct

import numpy as np
import pytest

import tests.core.test_mutation_readers as _readers
import tests.core.test_mutations as _mutations
from repro.core import entries as E
from repro.core import (
    BITOR_U64,
    GpuHashTable,
    RecordBatch,
    OP_DELETE,
    OP_INSERT,
    OP_LOOKUP,
    OP_UPDATE,
    SUM_F64,
    SUM_I64,
)
from repro.core.chainview import materialize_chains
from repro.core.hashing import fnv1a
from repro.core.organizations import kernel_lookup, kernel_mixed
from repro.core.organizations import policy as org_policy
from repro.memalloc import GpuHeap
from repro.memalloc.address import NULL
from repro.memalloc.allocator import _Plan
from repro.sanitize.sanitizer import SanitizerError
from tests.core.conftest import replaced
from tests.core.test_mutations import (
    assert_mut_identical,
    kernel_calls,  # noqa: F401 -- fixture of the re-collected tests
    make_org,
    mut_batch,
    run_mutations,
)
from tests.core.test_stateful_machine import (
    _MUTATION_SETTINGS,
    MutationMachineVectorized,
)


@pytest.fixture(autouse=True)
def kernel_always(monkeypatch):
    monkeypatch.setattr(org_policy, "MIXED_KERNEL_MIN_OPS", 0)


def test_the_fixture_forces_the_kernel(monkeypatch):
    """``kernel_always`` patches the namespace the dispatch reads: a
    four-op batch, far under the shipped cut-over, runs a batched kernel.
    Without this the re-collected suites could pass on the loop."""
    sizes = []
    for name in ("_mutate_generic", "_mutate_multivalued"):
        real = getattr(org_policy, name)
        monkeypatch.setattr(
            org_policy, name,
            lambda *a, real=real: sizes.append(len(a[2])) or real(*a),
        )
    for kind in ("basic", "combining", "multi-valued"):
        table = GpuHashTable(
            16, make_org(kind, "vectorized"), GpuHeap(1 << 14, 1 << 10)
        )
        val = lambda v: value(kind, v)
        res = table.mutate_batch(mut_batch(kind, [
            (OP_INSERT, b"a", val(1)), (OP_UPDATE, b"a", val(2)),
            (OP_LOOKUP, b"a", val(0)), (OP_DELETE, b"b", val(0)),
        ]))
        assert res.success.all()
    assert sizes == [4, 4, 4]


# the existing suites, re-collected under the fixture above
for _module in (_mutations, _readers):
    globals().update(
        {k: v for k, v in vars(_module).items() if k.startswith("test_")}
    )


class MutationMachineKernel(MutationMachineVectorized):
    """The mixed-op state machine with every batch through the kernel."""


TestMutationMachineKernel = MutationMachineKernel.TestCase
TestMutationMachineKernel.settings = _MUTATION_SETTINGS


# ----------------------------------------------------------------------
# a SEPO-shaped driver that records what each kernel call was given
# ----------------------------------------------------------------------
def run_passes(kind, impl, op_batches, heap_bytes=2048, page_size=256,
               n_buckets=32, group_size=8, combiner=SUM_I64, together=True,
               pin_limit=None):
    """Like ``run_mutations``, but the way ``SepoDriver`` issues work:
    every batch with pending ops once per pass, *then* the eviction -- so
    later batches of a pass meet groups that already failed
    (``together=False``: one batch at a time, each to completion).  Also
    records, per call, the ops issued, the groups failed on entry, the
    mask that came back and the keys left ``PENDING``; ``pin_limit`` sets
    the multi-valued ``pin_retention_limit``."""
    table = GpuHashTable(
        n_buckets, make_org(kind, impl, combiner),
        GpuHeap(heap_bytes, page_size), group_size=group_size,
    )
    if pin_limit is not None:
        table.org.pin_retention_limit = pin_limit
    batches = [mut_batch(kind, t, combiner) for t in op_batches]
    masks, tallies, stats, calls, evictions = [], [], [], [], []
    rounds = [batches] if together else [[b] for b in batches]
    for todo in rounds:
        pending = [np.arange(len(b)) for b in todo]
        for _ in range(64):
            for n, batch in enumerate(todo):
                if not len(pending[n]):
                    continue
                entry_failed = table.alloc.failed_groups
                res = table.mutate_batch(batch, pending[n])
                masks.append(res.success.copy())
                tallies.append(res.tally)
                stats.append(res.stats)
                calls.append((
                    batch, pending[n], entry_failed, res.success,
                    pending_keys(table) if kind == "multi-valued" else None,
                ))
                pending[n] = pending[n][~res.success]
            evictions.append(table.end_iteration())
            if not any(len(p) for p in pending):
                break
        else:
            raise AssertionError("workload does not converge")
    return {
        "table": table, "masks": masks, "tallies": tallies, "stats": stats,
        "lookups": [dict(b.lookup_results) for b in batches],
        "census": table.check_invariants(), "calls": calls,
        "evictions": evictions,
    }


def pending_keys(table):
    """Keys whose newest resident key entry is live and ``PENDING``: what
    an upsert refused its value node leaves behind (read off the arena)."""
    heads = table.buckets.head_cpu[table.buckets.occupied_buckets()]
    block = materialize_chains(table.heap, heads.tolist(), "key")
    blob = block.keys.tobytes()
    width = block.keys.shape[1]
    newest: dict = {}
    for w, (n, flags) in enumerate(
        zip(block.klens.tolist(), block.flags.tolist())
    ):
        newest.setdefault(blob[w * width:w * width + n], flags)
    return {
        key for key, flags in newest.items()
        if flags & E.FLAG_PENDING and not flags & E.FLAG_TOMBSTONE
    }


def what_happened(run):
    """Labels of the kernel paths a run went through, read off the oracle
    observables alone (masks, ops, the allocator's failed groups)."""
    table = run["table"]
    seen = set()
    for batch, idx, entry_failed, success, left_pending in run["calls"]:
        groups = (
            batch.cache.bucket_ids(table.buckets)[idx]
            // table.buckets.group_size
        )
        ops = batch.ops[idx]
        on_entry = np.isin(groups, entry_failed)
        if on_entry.any():
            seen.add("failed-on-entry")
        # the first op of a group to postpone was denied its allocation
        late = np.flatnonzero(~success & ~on_entry)
        _, first = np.unique(groups[late], return_index=True)
        if len(first) >= 2:
            seen.add("several-groups-fail")
        keys = batch.key_bytes_list()
        for j in late[first].tolist():
            seen.add(f"denied-{('insert', 'update', 'delete')[ops[j]]}")
            if left_pending is not None:  # which of its two requests
                half_applied = keys[idx[j]] in left_pending
                seen.add("denied-value" if half_applied else "denied-key")
        # lookups that follow a write to their own key in the same call
        wrote = set()
        for i, op, ok in zip(idx.tolist(), ops.tolist(), success.tolist()):
            if op == OP_LOOKUP:
                if ok and keys[i] in wrote:
                    seen.add("lookup-after-write")
            elif ok:
                wrote.add(keys[i])
    return seen


def assert_identical(a, b, f64=False):
    if f64:  # NaN-free here: compare the bits, not the rounded repr
        pack = lambda v: None if v is None else struct.pack("<d", v)
        bits = lambda t: {k: pack(v) for k, v in t["table"].result().items()}
        assert bits(a) == bits(b)
        answers = lambda r: [
            {i: pack(v) for i, v in d.items()} for d in r["lookups"]
        ]
        assert answers(a) == answers(b)
    assert_mut_identical(a, b)
    assert a["table"].alloc.stats == b["table"].alloc.stats
    np.testing.assert_array_equal(
        a["table"].alloc.failed_groups, b["table"].alloc.failed_groups
    )


def both(kind, spec, driver=run_passes, f64=False, **kw):
    a = driver(kind, "vectorized", spec, **kw)
    b = driver(kind, "slow_reference", spec, **kw)
    assert_identical(a, b, f64)
    return a


def keys_of_group(group, n, n_buckets, group_size, tag=b"g"):
    """``n`` distinct keys whose bucket lies in bucket group ``group``."""
    out, i = [], 0
    while len(out) < n:
        key = b"%s%d-%d" % (tag, group, i)
        if fnv1a(key) % n_buckets // group_size == group:
            out.append(key)
        i += 1
    return out


def value(kind, v):
    return v if kind == "combining" else b"v%05d" % v


# ----------------------------------------------------------------------
# the sticky cut
# ----------------------------------------------------------------------
#: a single chain in a single group over two pages
ONE_CHAIN = dict(heap_bytes=2 * 256, page_size=256, n_buckets=1, group_size=1)


@pytest.mark.parametrize("kind", ["basic", "combining", "multi-valued"])
@pytest.mark.parametrize("denied", ["insert", "update", "delete"])
def test_cut_at_each_kind_of_denied_op(kind, denied):
    """Fill both pages exactly (multi-valued: the key page, with room left
    on the value page), then ask for one more entry: as an insert, as an
    update of an absent key, and as a delete whose miss is unproven (the
    chain runs on into the evicted first batch).  The denied op is
    charged its walk and its INSERT_CYCLES; the ops behind it -- a lookup
    and an update of a live key that needs no page at all -- postpone at
    the gate."""
    val = (lambda v: v) if kind == "combining" else (lambda v: b"v%02d" % v)
    if kind == "multi-valued":
        n_fill = 256 // E.key_entry_size(5)
        assert n_fill * E.value_node_size(3) < 256
    else:
        n_fill = 2 * (256 // E.entry_size(5, 8 if kind == "combining" else 3))
    seed = [(OP_INSERT, b"old%02d" % i, val(i)) for i in range(4)]
    fill = [(OP_INSERT, b"k%04d" % i, val(i)) for i in range(n_fill)]
    extra = (
        {"insert": OP_INSERT, "update": OP_UPDATE, "delete": OP_DELETE}[denied],
        b"k9999", val(1),
    )
    tail = [(OP_LOOKUP, b"k0003", val(0)), (OP_UPDATE, b"k0004", val(7))]
    a = both(kind, [seed, fill + [extra] + tail], together=False, **ONE_CHAIN)
    assert what_happened(a) == {f"denied-{denied}"} | (
        {"denied-key"} if kind == "multi-valued" else set()
    )
    first_try = a["calls"][1][3]
    assert first_try[:len(fill)].all() and not first_try[len(fill):].any()
    assert a["table"].mutations.gate_postponed == 2


@pytest.mark.parametrize("kind", ["basic", "combining", "multi-valued"])
def test_several_groups_fail_inside_one_batch(kind):
    """Four groups share three pages: the pool runs dry while every group
    still has ops queued, so each stops at its own first denied page take
    and the groups' cuts interleave in arrival order."""
    shape = dict(heap_bytes=3 * 256, page_size=256, n_buckets=16, group_size=4)
    per_group = [keys_of_group(g, 12, 16, 4) for g in range(4)]
    rng = np.random.default_rng(5)
    triples = []
    for r in range(12):
        for g in rng.permutation(4).tolist():
            key = per_group[g][r]
            triples.append((OP_INSERT, key, value(kind, r)))
            triples.append((OP_LOOKUP, key, value(kind, 0)))
            if r % 3 == 0:
                triples.append((OP_UPDATE, per_group[g][0], value(kind, r)))
    a = both(kind, [triples], **shape)
    seen = what_happened(a)
    assert "several-groups-fail" in seen
    assert "lookup-after-write" in seen


@pytest.mark.parametrize("kind", ["basic", "combining", "multi-valued"])
def test_groups_failed_on_entry_postpone_in_one_step(kind):
    """The second batch of a pass meets the groups the first one
    exhausted: their ops postpone at the entry gate, one masked step in
    front of all three organizations' kernels, and the other groups' run."""
    shape = dict(heap_bytes=2 * 256, page_size=256, n_buckets=16, group_size=8)
    g0 = keys_of_group(0, 24, 16, 8)
    g1 = keys_of_group(1, 6, 16, 8)
    val = lambda v: value(kind, v)
    first = [(OP_INSERT, k, val(i)) for i, k in enumerate(g0)]
    second = []
    for i in range(6):
        second += [
            (OP_UPDATE, g0[i], val(50 + i)), (OP_INSERT, g1[i], val(i)),
            (OP_LOOKUP, g0[i], val(0)), (OP_LOOKUP, g1[i], val(0)),
            (OP_DELETE, g0[i + 6], val(0)),
        ]
    a = both(kind, [first, second], **shape)
    assert "failed-on-entry" in what_happened(a)
    assert a["table"].mutations.gate_postponed > 0


# ----------------------------------------------------------------------
# the two-request cut of the multi-valued method
# ----------------------------------------------------------------------
#: eight 3-byte values over four keys: the value page is full, the key
#: page has room for one more 5-byte key
VALUE_PAGE_FULL = [
    (OP_INSERT, b"k%04d" % (i % 4), b"v%02d" % i) for i in range(8)
]
assert 8 * E.value_node_size(3) == 256 > 5 * E.key_entry_size(5)


def key_entries(table, key):
    """``(flags, vhead_cpu)`` of every entry of ``key``, newest first,
    read off the CPU side of the one-bucket table."""
    out, addr = [], int(table.buckets.head_cpu[0])
    while addr != NULL:
        seg, off = divmod(addr, table.heap.page_size)
        buf = table.heap.segment_view(seg)
        hdr = E.read_key_entry_header(buf, off)
        if E.key_entry_key(buf, off, hdr[4]) == key:
            out.append((hdr[5], hdr[3]))
        addr = hdr[1]
    return out


#: the writes before the lookup of the half-applied op's key: an insert
#: of a new key, an append to a resident hit, a replace (DELETE then
#: INSERT of a resident key); the last one is denied its VALUE request
HALF_APPLIED = {
    "insert-new-key": [(OP_INSERT, b"k9999", b"new")],
    "append-to-hit": [(OP_INSERT, b"k0001", b"new")],
    "replace": [(OP_DELETE, b"k0001", b""), (OP_INSERT, b"k0001", b"new")],
}


@pytest.mark.parametrize("case", ["insert-new-key", "append-to-hit", "replace"])
def test_value_denied_leaves_a_half_applied_op(case):
    """The denied request is a VALUE one: of an insert that just created
    its key entry (an empty ``PENDING`` entry stays behind), of an append
    to a resident hit that already holds values (``PENDING`` set on it),
    of the insert of a replace (the delete is acknowledged, the fresh key
    entry stays empty and ``PENDING``).  Either way the key page is
    pinned and the ops behind postpone at the gate; a reader that gets in
    ahead of the retry sees what was acknowledged and no more; the retry
    completes the entry it finds instead of making another."""
    extra = HALF_APPLIED[case]
    key = extra[-1][1]
    tail = [(OP_LOOKUP, key, b""), (OP_DELETE, b"k0002", b"")]
    spec = [VALUE_PAGE_FULL, extra + tail, [(OP_LOOKUP, key, b"")]]
    ran = len(extra) - 1  # ops acknowledged ahead of the denied one
    stops = {}

    def driver(kind, impl, spec):
        table = GpuHashTable(
            1, make_org(kind, impl), GpuHeap(2 * 256, 256), group_size=1
        )
        fill, batch, reader = (mut_batch(kind, t) for t in spec)
        out = {"masks": [], "tallies": [], "stats": [], "calls": []}

        def call(batch, idx):
            entry_failed = table.alloc.failed_groups
            res = table.mutate_batch(batch, idx)
            out["masks"].append(res.success)
            out["tallies"].append(res.tally)
            out["stats"].append(res.stats)
            out["calls"].append(
                (batch, idx, entry_failed, res.success, pending_keys(table))
            )
            return res.success

        assert call(fill, np.arange(len(fill))).all()
        done = call(batch, np.arange(len(batch)))
        assert done.tolist() == [True] * ran + [False] * (len(batch) - ran)
        stops[impl] = (
            key_entries(table, key), dict(table.org._pin_counts),
            [p.kind.name for p in table.heap.resident_pages if p.pinned],
        )
        table.end_iteration()  # the pinned key page stays
        assert call(reader, np.arange(1)).all()
        assert call(batch, np.flatnonzero(~done)).all()
        table.end_iteration()
        out.update(
            table=table, census=table.check_invariants(),
            lookups=[dict(b.lookup_results) for b in (batch, reader)],
        )
        return out

    a = both("multi-valued", spec, driver=driver)
    assert stops["vectorized"] == stops["slow_reference"]
    entries, pins, pinned = stops["vectorized"]
    flags, vhead = entries[0]
    assert flags & E.FLAG_PENDING and not flags & E.FLAG_TOMBSTONE
    assert (vhead == NULL) == (case != "append-to-hit")
    assert len(entries) == (2 if case == "replace" else 1)
    assert list(pins.values()) == [1] and pinned == ["KEY"]
    assert what_happened(a) == {
        "denied-value", "lookup-after-write", "denied-insert",
    }
    table = a["table"]
    assert len(key_entries(table, key)) == len(entries), "retry duplicated"
    assert not any(f & E.FLAG_PENDING for f, _ in key_entries(table, key))
    assert not table.org._pin_counts
    assert table.mutations.gate_postponed == 2
    before = [b"v01", b"v05"] if case == "append-to-hit" else []
    after = before + [b"new"]
    assert a["lookups"] == [{len(extra): after}, {0: before}]
    assert sorted(table.result()[key]) == sorted(after)


@pytest.mark.parametrize("case", ["insert-new-key", "append-to-hit", "replace"])
def test_lookups_around_the_retry_that_completes_an_unborn_entry(case):
    """The half-applied op of :func:`test_value_denied_leaves_a_half_applied_op`
    retried at the head of its batch, with lookups of the key after each
    of its writes: the retry that gives the ``PENDING`` entry its value,
    an append, an update (which appends too), a delete, a re-insert that
    needs a new key entry.  Against the dict model too."""
    extra = HALF_APPLIED[case]
    key = extra[-1][1]
    look = (OP_LOOKUP, key, b"")
    batch = extra + [
        look, (OP_INSERT, key, b"app"), look, (OP_UPDATE, key, b"upd"), look,
        (OP_DELETE, key, b""), look, (OP_INSERT, b"k0002", b"x"), look,
        (OP_INSERT, key, b"re"), look,
    ]

    def driver(kind, impl, spec):
        """the fill, then the batch pass by pass to completion"""
        table = GpuHashTable(
            1, make_org(kind, impl), GpuHeap(2 * 256, 256), group_size=1
        )
        fill, batch = (mut_batch(kind, t) for t in spec)
        assert table.mutate_batch(fill).success.all()
        out = {"masks": [], "tallies": [], "stats": [], "calls": []}
        pending = np.arange(len(batch))
        for _ in range(8):
            entry_failed = table.alloc.failed_groups
            res = table.mutate_batch(batch, pending)
            out["masks"].append(res.success)
            out["tallies"].append(res.tally)
            out["stats"].append(res.stats)
            out["calls"].append((batch, pending, entry_failed, res.success,
                                 pending_keys(table)))
            pending = pending[~res.success]
            table.end_iteration()
            if not len(pending):
                break
        out.update(table=table, census=table.check_invariants(),
                   lookups=[dict(batch.lookup_results)])
        return out

    a = both("multi-valued", [VALUE_PAGE_FULL, batch], driver=driver)
    assert {"denied-value", "lookup-after-write"} <= what_happened(a)
    assert a["lookups"][0] == model_lookups(
        "multi-valued", VALUE_PAGE_FULL, [], batch)


def test_bit_2_of_a_key_entry_closes_nothing(kernel_calls):
    """Bit 2 of a key entry's flags is read by no reader.  Set by hand on
    the empty ``PENDING`` entry that a denied insert leaves above an older
    live entry of its key, then a batch appends to that entry and looks
    the key up: the kernel (``vectorized``) and the loop
    (``slow_reference``) answer both lists, as ``result()`` holds them
    read either way."""
    key = b"k9999"
    answers = {}
    for impl in ("vectorized", "slow_reference"):
        table = GpuHashTable(
            1, make_org("multi-valued", impl), GpuHeap(2 * 256, 256),
            group_size=1,
        )
        old = mut_batch("multi-valued", [(OP_INSERT, key, b"old")])
        assert table.mutate_batch(old).success.all()
        table.end_iteration()  # the older entry leaves for the store
        fill = mut_batch("multi-valued",
                         VALUE_PAGE_FULL + [(OP_INSERT, key, b"new")])
        assert table.mutate_batch(fill).success.tolist() == [True] * 8 + [False]
        table.end_iteration()  # the pinned key page stays
        (flags, vhead), (_, older) = key_entries(table, key)
        assert flags & E.FLAG_PENDING and vhead == NULL and older != NULL
        seg, off = divmod(int(table.buckets.head_cpu[0]), 256)
        buf = table.heap.segment_view(seg)
        assert E.key_entry_key(buf, off, len(key)) == key
        E.set_flags(buf, off, flags | 0x4)
        table.heap.note_write(seg)

        calls = kernel_calls["n"]
        batch = mut_batch("multi-valued",
                          [(OP_INSERT, key, b"new"), (OP_LOOKUP, key, b"")])
        assert table.mutate_batch(batch).success.all()
        assert kernel_calls["n"] - calls == (impl == "vectorized")
        answers[impl] = batch.lookup_results[1]
        table.end_iteration()
        for reader in ("vectorized", "slow_reference"):
            table.org.impl = reader
            assert sorted(table.result()[key]) == sorted(answers[impl])
    assert answers == {impl: [b"old", b"new"] for impl in answers}


def test_delete_of_a_pending_key_unpins_its_page():
    """A pure-insert batch leaves ``k0001`` ``PENDING`` (its last value
    was refused); a mutation batch that deletes the key before the insert
    is reissued clears the flag with the tombstone, and the page is
    evictable again.  The lookups around it see the list, then nothing."""
    def driver(kind, impl, spec, **kw):
        table = GpuHashTable(
            1, make_org(kind, impl), GpuHeap(2 * 256, 256), group_size=1
        )
        res = table.insert_batch(RecordBatch.from_pairs(
            [(k, v) for _, k, v in VALUE_PAGE_FULL + [(0, b"k0001", b"new")]]
        ))
        assert res.success.tolist() == [True] * 8 + [False]
        assert list(table.org._pin_counts.values()) == [1]
        table.end_iteration()  # the pinned key page stays
        assert len(table.heap.resident_pages) == 1
        batch = mut_batch(kind, spec[0])
        res = table.mutate_batch(batch)
        assert res.success.all()
        assert not table.org._pin_counts
        assert not any(p.pinned for p in table.heap.resident_pages)
        return {
            "table": table, "masks": [res.success], "tallies": [res.tally],
            "stats": [res.stats], "lookups": [dict(batch.lookup_results)],
            "census": table.check_invariants(),
        }

    look = (OP_LOOKUP, b"k0001", b"")
    a = both("multi-valued", [[look, (OP_DELETE, b"k0001", b""), look]],
             driver=driver)
    assert a["lookups"] == [{0: [b"v01", b"v05"], 2: []}]
    assert a["table"].mutations.deletes_inplace == 1


@pytest.mark.parametrize("updates", ["append", "replace"])
def test_forced_full_eviction_between_passes(updates):
    """``pin_retention_limit`` flushes the pinned key pages with their
    ``PENDING`` entries: the retries find nothing resident, re-create the
    key entries, and the unborn ones stay invisible on the CPU side --
    with updates that append, and with each a replace (DELETE then
    INSERT)."""
    spec = [
        _mutations.seeded_ops(30 + i, 150, 40, "multi-valued") for i in range(3)
    ]
    if updates == "replace":
        spec = [replaced(triples) for triples in spec]
    a = both("multi-valued", spec, pin_limit=0.05)
    assert any(r.forced_full_eviction for r in a["evictions"])
    assert "denied-value" in what_happened(a)
    flat = [t for triples in spec for t in triples]
    from repro.core import model_for_ops

    model, _ = model_for_ops(flat, kind="multi-valued")
    assert {k: sorted(v) for k, v in a["table"].result().items()} == {
        k: sorted(v) for k, v in model.items()
    }


@pytest.mark.parametrize("cycles", [8.0, 2.5], ids=["integer", "fractional"])
def test_callback_combiners_keep_the_loop(cycles, monkeypatch):
    """A callback combines one value at a time: its batches never enter
    the kernel.  With integer ``cycles`` the entry gate still takes failed
    groups' ops out in one step; with fractional ``cycles`` the charge is
    not order-free and the loop keeps its own gate.  Identical either way."""
    from repro.core import CallbackCombiner

    def never(*a, **kw):
        raise AssertionError("batched kernel ran for a callback combiner")

    monkeypatch.setattr(org_policy, "_mutate_generic", never)
    comb = CallbackCombiner(
        lambda a, b: 3 * a - b, scalar="i64", name="3a-b", cycles=cycles
    )
    spec = [_mutations.seeded_ops(40 + i, 150, 40, "combining") for i in range(3)]
    a = both("combining", spec, combiner=comb)
    assert "failed-on-entry" in what_happened(a)


# ----------------------------------------------------------------------
# lookups that read their own batch's writes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", ["basic", "combining", "multi-valued"])
def test_lookup_after_same_key_writes_in_one_batch(kind):
    """A lookup preceded in its batch by a write to its key replays that
    key's ops: after an insert, after an in-place update of a resident
    hit, after delete-then-reinsert, after a delete alone -- with older
    copies of the key both resident and evicted underneath.  Multi-valued
    also with every update a replace (DELETE then INSERT)."""
    val = lambda v: value(kind, v)
    k = [b"key-%d" % i for i in range(6)]
    look = lambda key: (OP_LOOKUP, key, val(0))
    older = [(OP_INSERT, key, val(i)) for i, key in enumerate(k[:4])]
    resident = [(OP_INSERT, key, val(10 + i)) for i, key in enumerate(k[1:5])]
    probe = [
        (OP_INSERT, k[5], val(20)), look(k[5]),          # fresh insert
        (OP_UPDATE, k[1], val(21)), look(k[1]),          # in place, resident
        (OP_UPDATE, k[1], val(22)), look(k[1]),          # ... twice
        (OP_DELETE, k[2], val(0)), look(k[2]),           # tombstoned
        (OP_INSERT, k[2], val(23)), look(k[2]),          # ... and reborn
        (OP_DELETE, k[0], val(0)), look(k[0]),           # unproven: born dead
        (OP_UPDATE, k[0], val(24)), look(k[0]),
        (OP_INSERT, k[3], val(25)), (OP_DELETE, k[3], val(0)), look(k[3]),
        look(k[4]),                                      # clean, for contrast
    ]
    for stream in variants(kind, probe):
        a = over_evicted(kind, older, resident, stream)
        assert a["lookups"][-1] == model_lookups(
            kind, older, resident, stream)


def variants(kind, probe):
    """``probe``, and under the multi-valued method also ``probe`` with
    every update a replace."""
    return [probe] + ([replaced(probe)] if kind == "multi-valued" else [])

#: two buckets over eight pages: room for every batch in one pass
OVER_EVICTED = dict(heap_bytes=8 * 256, page_size=256, n_buckets=2,
                    group_size=2)


def over_evicted(kind, older, resident, probe, combiner=SUM_I64):
    """``older`` run to completion and evicted, then ``resident`` and
    ``probe`` in one pass, each in one kernel call: the second's lookups
    read the first's entries resident and ``older``'s evicted.  Both
    impls, held identical."""
    def run(kind, impl, spec, **kw):
        table = run_mutations(kind, impl, spec[:1], combiner=combiner,
                              **kw)["table"]
        out = {"masks": [], "tallies": [], "stats": [], "lookups": []}
        for triples in spec[1:]:
            batch = mut_batch(kind, triples, combiner)
            res = table.mutate_batch(batch)
            assert res.success.all()
            out["masks"].append(res.success)
            out["tallies"].append(res.tally)
            out["stats"].append(res.stats)
            out["lookups"].append(dict(batch.lookup_results))
        out.update(table=table, census=table.check_invariants())
        return out

    return both(kind, [older, resident, probe], driver=run,
                f64=combiner is SUM_F64, **OVER_EVICTED)


def model_lookups(kind, older, resident, probe):
    """The dict model's answers to ``probe``'s lookups, by op of ``probe``."""
    from repro.core import model_for_ops

    offset = len(older) + len(resident)
    _, want = model_for_ops(
        older + resident + probe, kind=kind,
        combiner=SUM_I64 if kind == "combining" else None,
    )
    return {i - offset: v for i, v in want.items()}


@pytest.mark.parametrize("kind", ["basic", "combining", "multi-valued"])
def test_lookups_on_both_sides_of_an_in_place_write_and_a_delete(kind):
    """Each key has two copies before the batch (one evicted, one
    resident, both live) and is read before and after every write of one
    batch: an in-place write (basic: an equal-width overwrite, which
    shadows; combining: a combine into the resident copy; multi-valued:
    an append to it), a delete that buries the pre-batch newest copy, a
    delete that buries a copy the batch made, a delete of a key the batch
    had already killed."""
    val = lambda v: value(kind, v)
    k = [b"key-%d" % i for i in range(4)]
    look = lambda key: (OP_LOOKUP, key, val(0))
    older = [(OP_INSERT, key, val(i)) for i, key in enumerate(k)]
    resident = [(OP_INSERT, key, val(10 + i)) for i, key in enumerate(k)]
    probe = [
        look(k[0]), (OP_UPDATE, k[0], val(20)), look(k[0]),
        (OP_INSERT, k[0], val(21)), look(k[0]),
        (OP_DELETE, k[0], val(0)), look(k[0]),
        look(k[1]), (OP_DELETE, k[1], val(0)), look(k[1]),
        (OP_DELETE, k[1], val(0)), look(k[1]),
        (OP_INSERT, k[1], val(22)), look(k[1]),
        (OP_UPDATE, k[1], val(23)), look(k[1]),
        (OP_DELETE, k[1], val(0)), look(k[1]),
        look(k[2]), (OP_INSERT, k[2], val(24)), look(k[2]),
        (OP_UPDATE, k[2], val(25)), look(k[2]),
        look(k[3]),
    ]
    for stream in variants(kind, probe):
        a = over_evicted(kind, older, resident, stream)
        assert a["lookups"][-1] == model_lookups(
            kind, older, resident, stream)
        m = a["table"].mutations
        assert m.deletes_inplace >= 3 and (
            stream is not probe or m.updates_inplace >= 2)


def test_f64_lookups_fold_in_the_loop_order():
    """``SUM_F64`` lookups over keys with two live copies before the batch
    and in-place combines between the lookups, at magnitudes where the
    order of the adds decides the bits: the answer is the oldest copy
    folded with the newest one, itself folded with every combine before
    the lookup, as the loop reads the table."""
    k = [b"f-%d" % i for i in range(3)]
    look = lambda key: (OP_LOOKUP, key, 0.0)
    older = [(OP_INSERT, key, 1e16 * (i + 1)) for i, key in enumerate(k)]
    resident = [(OP_INSERT, key, 1.0 + i) for i, key in enumerate(k)]
    probe = []
    for r, key in enumerate(k):
        probe += [look(key), (OP_UPDATE, key, -1e16 * (r + 1)), look(key),
                  (OP_INSERT, key, 0.5), (OP_INSERT, key, 2.0 ** -40),
                  look(key), (OP_DELETE, key, 0.0), look(key),
                  (OP_INSERT, key, 3.0), (OP_INSERT, key, 1e-17), look(key)]
    a = over_evicted("combining", older, resident, probe, combiner=SUM_F64)
    got = a["lookups"][-1]
    # old . (((resident . update) . insert) . insert), not the left fold
    # of the values in arrival order
    assert got[5] == 1e16 + (1.0 - 1e16 + 0.5 + 2.0 ** -40) == 0.0
    assert 1e16 + 1.0 - 1e16 + 0.5 + 2.0 ** -40 != 0.0
    assert got[7] is None and got[10] == 3.0 + 1e-17


def test_width_changing_basic_updates():
    """A basic update overwrites in place only at equal width; a wider or
    narrower value prepends a shadow entry, after which the key's width is
    the new one -- through a run of updates, a delete and lookups."""
    k = b"wide"
    triples = [
        (OP_INSERT, k, b"aaaa"), (OP_UPDATE, k, b"bbbb"),       # in place
        (OP_LOOKUP, k, b""), (OP_UPDATE, k, b"cc"),             # narrower
        (OP_UPDATE, k, b"dd"), (OP_LOOKUP, k, b""),             # in place
        (OP_UPDATE, k, b"eeeeeeee"), (OP_UPDATE, k, b"ffffffff"),
        (OP_DELETE, k, b""), (OP_UPDATE, k, b"gggggggg"),       # dead: new
        (OP_LOOKUP, k, b""), (OP_INSERT, k, b"hh"),
        (OP_UPDATE, k, b"ii"), (OP_UPDATE, k, b""), (OP_LOOKUP, k, b""),
    ]
    again = [  # the first copy is evicted by now: unproven, so a new entry
        (OP_UPDATE, k, b""), (OP_UPDATE, k, b"jjj"), (OP_UPDATE, k, b"kkk"),
        (OP_LOOKUP, k, b""),
    ]
    a = both("basic", [triples, again], driver=run_mutations,
             heap_bytes=1 << 14, page_size=1 << 10)
    m = a["table"].mutations
    assert m.updates_inplace == 5 and m.updates_entries == 6
    assert a["lookups"][0] == {
        2: [b"bbbb"], 5: [b"dd"], 10: [b"gggggggg"], 14: [b""],
    }
    assert a["lookups"][1] == {3: [b"kkk"]}


def test_f64_sums_across_postponement():
    """``SUM_F64`` over sixteen orders of magnitude, both signs, on a heap
    that postpones: resident hits seed the fold with the stored scalar,
    keys split across iterations, lookups fold oldest first -- all on the
    scalar loop's bits."""
    rng = np.random.default_rng(11)
    spec = []
    for _ in range(3):
        n = 160
        ops = rng.choice(
            [OP_INSERT, OP_UPDATE, OP_DELETE, OP_LOOKUP], size=n,
            p=[0.5, 0.25, 0.05, 0.2],
        )
        keys = [b"f%02d" % i for i in rng.integers(0, 40, size=n)]
        vals = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, size=n)
        spec.append([
            (int(o), k, float(v)) for o, k, v in zip(ops, keys, vals)
        ])
    a = both("combining", spec, f64=True, combiner=SUM_F64)
    assert any(not m.all() for m in a["masks"]), "expected postponement"
    assert "lookup-after-write" in what_happened(a)


# ----------------------------------------------------------------------
# the bar: planted faults the multi-valued cases must catch
# ----------------------------------------------------------------------
def _cut_one_request_late(real):
    def takes(plan):
        late = real.fget(plan) + 1
        return late[late < len(plan.groups)]
    return property(takes)


def _forget_pending_on_hits(real):
    def scatter_field(arena, pos, values):
        if values.dtype == np.uint32:  # a resident key entry's flag word
            values = values & ~np.uint32(E.FLAG_PENDING)
        real(arena, pos, values)
    return scatter_field


def _first_node_to_null(real):
    def link(gaddr, caddr, first, head_gpu, head_cpu):
        lost = np.full(len(gaddr), NULL, dtype=np.int64)
        return real(gaddr, caddr, first, lost, lost)
    return link


def _unborn_entries_match(real):
    def match_cpu_chains(image, heads, kind, keys, key_lens):
        cm = real(image, heads, kind, keys, key_lens)
        # (an entry without a value list counts unless it is a tombstone)
        return cm._replace(flags=np.where(
            cm.flags & E.FLAG_PENDING, cm.flags | E.FLAG_TOMBSTONE, cm.flags))
    return match_cpu_chains


def _in_place_onto_a_new_entry(real):
    def reads(dk, st, looks, slot, add, close, made, *rest):
        # an append to an existing entry read as one to a new shadow
        close = close | add & ~made
        return real(dk, st, looks, slot, add, close, made, *rest)
    return reads


MV_FAULTS = {
    "cut the group one request late": (
        _Plan, "takes", _cut_one_request_late),
    "forget PENDING on a VALUE-refused hit": (
        E, "scatter_field", _forget_pending_on_hits),
    "link a first value node to NULL": (
        kernel_mixed, "_link_value_lists", _first_node_to_null),
    "treat an empty PENDING entry as a lookup match": (
        kernel_lookup, "match_cpu_chains", _unborn_entries_match),
    "apply an in-place append to a new entry": (
        kernel_lookup, "_reads", _in_place_onto_a_new_entry),
}


def _mv_cases_that_fail():
    """The fixed multi-valued differential cases of this module, run one
    by one; returns the ones that do not hold."""
    cases = {
        f"value-denied {c}": lambda c=c: test_value_denied_leaves_a_half_applied_op(c)
        for c in ("insert-new-key", "append-to-hit", "replace")
    }
    cases["several groups"] = (
        lambda: test_several_groups_fail_inside_one_batch("multi-valued"))
    cases["lookup after write"] = (
        lambda: test_lookup_after_same_key_writes_in_one_batch("multi-valued"))
    cases["lookups around an in-place write"] = lambda: (
        test_lookups_on_both_sides_of_an_in_place_write_and_a_delete(
            "multi-valued"))
    cases.update({
        f"lookups around the retry {c}": lambda c=c: (
            test_lookups_around_the_retry_that_completes_an_unborn_entry(c))
        for c in ("insert-new-key", "append-to-hit", "replace")
    })
    failed = []
    for name, case in cases.items():
        try:
            case()
        except (AssertionError, SanitizerError):
            failed.append(name)
    return failed


@pytest.mark.parametrize("fault", MV_FAULTS)
def test_multivalued_cases_catch_planted_faults(fault, monkeypatch):
    assert _mv_cases_that_fail() == []
    owner, name, edit = MV_FAULTS[fault]
    monkeypatch.setattr(owner, name, edit(getattr(owner, name)))
    assert _mv_cases_that_fail(), f"{fault}: every case still holds"


# ----------------------------------------------------------------------
# seeded fuzz
# ----------------------------------------------------------------------
def fuzz_stream(rng, kind, comb, n, n_keys):
    ops = rng.choice(
        [OP_INSERT, OP_UPDATE, OP_DELETE, OP_LOOKUP], size=n,
        p=rng.dirichlet([2.0, 1.5, 1.5, 1.5]),
    )
    wide = rng.random() < 0.5  # variable-width keys
    keys = [
        b"k%04d" % i + b"x" * (i % 3 * 3 if wide else 0)
        for i in rng.integers(0, n_keys, size=n)
    ]
    if kind != "combining":
        ragged = rng.random() < 0.6  # variable-width values
        vals = [
            b"v%d" % v + b"y" * (v % 4 * 2 if ragged else 0)
            for v in rng.integers(0, 90, size=n).tolist()
        ]
    elif comb is SUM_F64:
        vals = (
            rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, size=n)
        ).tolist()
    elif comb is BITOR_U64:
        vals = rng.integers(0, 1 << 40, size=n).tolist()
    else:
        vals = rng.integers(-50, 50, size=n).tolist()
    return [(int(o), k, v) for o, k, v in zip(ops, keys, vals)]


FUZZ_CASES = 54


def test_seeded_fuzz_matches_the_scalar_reference():
    """Page sizes 128-512, 3-24 pages, group sizes 1-8, variable-width
    keys and values, i64 / f64 / bit-or combiners, multi-valued updates
    that append and replaces (DELETE then INSERT); both drivers.  The union of what the cases went
    through must cover every kernel path."""
    seen = set()
    for case in range(FUZZ_CASES):
        rng = np.random.default_rng([2024, case])
        kind = ("basic", "combining", "multi-valued")[case % 3]
        comb = (SUM_I64, SUM_F64, BITOR_U64)[case // 3 % 3]
        page = int(rng.choice([128, 256, 512]))
        shape = dict(
            heap_bytes=page * int(rng.integers(3, 25)), page_size=page,
            n_buckets=int(rng.choice([8, 16, 32, 64])),
            group_size=int(rng.choice([1, 2, 4, 8])), combiner=comb,
        )
        spec = [
            fuzz_stream(
                rng, kind, comb, int(rng.integers(20, 320)),
                int(rng.integers(5, 120)),
            )
            for _ in range(int(rng.integers(1, 5)))
        ]
        if kind == "multi-valued" and case // 3 % 2:
            spec = [replaced(triples) for triples in spec]
        f64 = kind == "combining" and comb is SUM_F64
        try:
            a = both(kind, spec, f64=f64, **shape)
        except AssertionError as exc:
            if "converge" in str(exc):  # heap too small for this stream
                continue
            raise AssertionError(f"fuzz case {case}: {kind} {shape}") from exc
        seen |= what_happened(a)
    assert seen >= {
        "failed-on-entry", "several-groups-fail", "lookup-after-write",
        "denied-insert", "denied-update", "denied-delete",
        "denied-key", "denied-value",
    }
