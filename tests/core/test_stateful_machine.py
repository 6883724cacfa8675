"""Stateful property testing: the table under arbitrary operation orders.

A hypothesis state machine interleaves batched inserts, scalar inserts,
end-of-iteration evictions and mid-run CPU-side reads against a plain dict
model.  The invariant: after resolving every postponed record (exactly the
SEPO contract -- reissue until SUCCESS), the finalized table equals the
model, no matter how operations interleaved with evictions.

A second machine (:class:`MutationMachine`) drives the mixed-op path:
interleaved insert/update/delete/lookup batches against the dict model
from :func:`repro.core.apply_op_to_model`, on all three organizations,
with the paranoid sanitizer re-checking every structural invariant after
each batch.  It runs once per insert-path implementation (vectorized and
slow_reference), so the differential contract -- both impls realize the
same issue-order semantics -- is part of the property.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core import (
    BasicOrganization,
    CombiningOrganization,
    GpuHashTable,
    MultiValuedOrganization,
    MutationBatch,
    OP_DELETE,
    OP_INSERT,
    OP_LOOKUP,
    OP_UPDATE,
    RecordBatch,
    SUM_I64,
    apply_op_to_model,
)
from repro.memalloc import GpuHeap
from tests.core.conftest import replaced

KEY = st.binary(min_size=1, max_size=12)


class TableMachine(RuleBasedStateMachine):
    @initialize(
        heap_pages=st.integers(2, 8),
        n_buckets=st.sampled_from([4, 16, 64]),
        group_size=st.sampled_from([2, 8]),
    )
    def setup(self, heap_pages, n_buckets, group_size):
        self.table = GpuHashTable(
            n_buckets=n_buckets,
            organization=CombiningOrganization(SUM_I64),
            heap=GpuHeap(heap_pages * 256, 256),
            group_size=group_size,
        )
        self.model: dict[bytes, int] = {}
        self.backlog: list[tuple[bytes, int]] = []

    # ------------------------------------------------------------------
    @rule(pairs=st.lists(st.tuples(KEY, st.integers(-50, 50)),
                         min_size=1, max_size=20))
    def insert_batch(self, pairs):
        batch = RecordBatch.from_numeric(
            [k for k, _ in pairs],
            np.array([v for _, v in pairs], dtype=np.int64),
        )
        result = self.table.insert_batch(batch)
        for (k, v), ok in zip(pairs, result.success):
            if ok:
                self.model[k] = self.model.get(k, 0) + v
            else:
                self.backlog.append((k, v))

    @rule(key=KEY, value=st.integers(-50, 50))
    def insert_scalar(self, key, value):
        if self.table.insert(key, value):
            self.model[key] = self.model.get(key, 0) + value
        else:
            self.backlog.append((key, value))

    @rule()
    def end_iteration(self):
        self.table.end_iteration()

    @precondition(lambda self: self.backlog)
    @rule()
    def reissue_backlog(self):
        """The SEPO requestor role: retry postponed records."""
        self.table.end_iteration()  # guarantee a fresh pool
        still = []
        for k, v in self.backlog:
            if self.table.insert(k, v):
                self.model[k] = self.model.get(k, 0) + v
            else:
                still.append((k, v))
        self.backlog = still

    # ------------------------------------------------------------------
    @invariant()
    def cpu_view_covers_model(self):
        """Mid-run: every model key is already readable from the CPU side
        (entries live either in resident pages or in evicted segments)."""
        seen = {}
        comb = self.table.org.combiner
        for k, v in self.table.cpu_items():
            seen[k] = comb.combine(seen[k], v) if k in seen else v
        assert seen == self.model

    def teardown(self):
        if hasattr(self, "table"):
            # Drain the backlog, then the final table must equal the model.
            for _ in range(50):
                if not self.backlog:
                    break
                self.reissue_backlog()
            assert not self.backlog
            self.table.end_iteration()
            assert self.table.result() == self.model


TestTableMachine = TableMachine.TestCase
TestTableMachine.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)


# ----------------------------------------------------------------------
# mixed-op machine: insert/update/delete/lookup vs the dict model
# ----------------------------------------------------------------------

#: small key pool so updates/deletes/lookups actually hit existing chains
MKEY = st.one_of(
    st.sampled_from([b"k%02d" % i for i in range(10)]),
    st.binary(min_size=1, max_size=6),
)
OP = st.sampled_from([OP_INSERT, OP_UPDATE, OP_DELETE, OP_LOOKUP])

_ORGS = {
    "basic": lambda impl: BasicOrganization(impl=impl),
    "combining": lambda impl: CombiningOrganization(SUM_I64, impl=impl),
    "multi-valued": lambda impl: MultiValuedOrganization(impl=impl),
}


class MutationMachine(RuleBasedStateMachine):
    """Mixed-op batches against the dict model, with postponement replays.

    Failed (postponed) ops go to a backlog and replay in issue order right
    after the next end-of-iteration eviction -- the SEPO requestor contract.
    The sticky-group gate means a new op on a backlogged key also
    postpones, so applying only *acknowledged* ops to the model keeps the
    two in lockstep at every step, which the invariant checks mid-run.
    """

    impl = "vectorized"

    @initialize(
        kind=st.sampled_from(sorted(_ORGS)),
        heap_pages=st.integers(3, 8),
        n_buckets=st.sampled_from([4, 16]),
        group_size=st.sampled_from([2, 8]),
    )
    def setup(self, kind, heap_pages, n_buckets, group_size):
        self.kind = kind
        self.table = GpuHashTable(
            n_buckets=n_buckets,
            organization=_ORGS[kind](self.impl),
            heap=GpuHeap(heap_pages * 256, 256),
            group_size=group_size,
            sanitize="paranoid",
        )
        self.model: dict = {}
        self.backlog: list[tuple[int, bytes, object]] = []

    # ------------------------------------------------------------------
    def _triple(self, op, key, value):
        if self.kind == "combining":
            return (op, key, int(value))
        return (op, key, b"v%d" % value)

    def _batch(self, triples):
        return MutationBatch.from_ops(
            triples,
            numeric_dtype=np.int64 if self.kind == "combining" else None,
        )

    def _apply_acknowledged(self, batch, triples, success):
        comb = SUM_I64 if self.kind == "combining" else None
        for i, ((op, k, v), ok) in enumerate(zip(triples, success)):
            if not ok:
                self.backlog.append((op, k, v))
                continue
            want = apply_op_to_model(
                self.model, op, k, v, kind=self.kind, combiner=comb,
            )
            if op == OP_LOOKUP:
                assert batch.lookup_results.get(i) == want, (
                    f"lookup({k!r}) = {batch.lookup_results.get(i)!r}, "
                    f"model says {want!r}"
                )

    # ------------------------------------------------------------------
    @rule(
        ops=st.lists(st.tuples(OP, MKEY, st.integers(-50, 50)),
                     min_size=1, max_size=15),
        replace=st.booleans(),
    )
    def mutate_batch(self, ops, replace):
        """``replace``: each update of a byte-valued table becomes a
        DELETE then an INSERT of its key, which replaces the key's list."""
        triples = [self._triple(op, k, v) for op, k, v in ops]
        if replace and self.kind != "combining":
            triples = replaced(triples)
        batch = self._batch(triples)
        result = self.table.mutate_batch(batch)
        self._apply_acknowledged(batch, triples, result.success)

    @precondition(lambda self: self.backlog)
    @rule()
    def next_pass(self):
        """End the iteration, then replay the backlog in issue order."""
        self.table.end_iteration()
        pending, self.backlog = self.backlog, []
        for op, k, v in pending:
            batch = self._batch([(op, k, v)])
            result = self.table.mutate_batch(batch)
            self._apply_acknowledged(batch, [(op, k, v)], result.success)

    # ------------------------------------------------------------------
    @invariant()
    def cpu_view_covers_model(self):
        """Mid-run: the CPU-side merge automaton already equals the model
        over acknowledged ops (tombstones close keys, shadows supersede)."""
        if not hasattr(self, "table"):
            return
        if self.kind == "combining":
            seen: dict = {}
            comb = self.table.org.combiner
            for k, v in self.table.cpu_items():
                seen[k] = comb.combine(v, seen[k]) if k in seen else v
            assert seen == self.model
            return
        grouped: dict[bytes, list] = {}
        for k, v in self.table.cpu_items():
            if self.kind == "multi-valued":
                grouped.setdefault(k, []).extend(v)
            else:
                grouped.setdefault(k, []).append(v)
        assert {k: sorted(vs) for k, vs in grouped.items()} == {
            k: sorted(vs) for k, vs in self.model.items()
        }

    def teardown(self):
        if not hasattr(self, "table"):
            return
        for _ in range(50):
            if not self.backlog:
                break
            self.next_pass()
        assert not self.backlog, "backlog did not drain in 50 passes"
        self.table.end_iteration()
        if self.kind == "combining":
            assert self.table.result() == self.model
        else:
            assert {
                k: sorted(vs) for k, vs in self.table.result().items()
            } == {k: sorted(vs) for k, vs in self.model.items()}


class MutationMachineVectorized(MutationMachine):
    impl = "vectorized"


class MutationMachineReference(MutationMachine):
    impl = "slow_reference"


_MUTATION_SETTINGS = settings(
    max_examples=15, stateful_step_count=25, deadline=None
)
TestMutationMachineVectorized = MutationMachineVectorized.TestCase
TestMutationMachineVectorized.settings = _MUTATION_SETTINGS
TestMutationMachineReference = MutationMachineReference.TestCase
TestMutationMachineReference.settings = _MUTATION_SETTINGS
