"""ResilientDriver: resume equivalence, the degradation ladder, telemetry.

Resume-equivalence tests run under the paranoid sanitizer so every
structural invariant (pool free-list integrity, allocator tallies,
chain well-formedness) is re-verified after restore, and compare the
killed-and-resumed run to an *uninterrupted oracle with the same
checkpoint cadence* -- checkpoints quiesce the table, which perturbs
page layout, so the bare ``SepoDriver`` is not the right oracle.
"""

import shutil

import numpy as np
import pytest

from repro.core import (
    CombiningOrganization,
    GpuHashTable,
    MultiValuedOrganization,
    SepoDriver,
    SUM_I64,
)
from repro.core.sepo import NoProgressError
from repro.gpusim import CostLedger, GTX_780TI, KernelModel, PCIeBus
from repro.memalloc import GpuHeap
from repro.resilience import JournalError, ResilientDriver, table_digest
from repro.resilience.driver import (
    CHUNK_SHRINK,
    CPU_FALLBACK,
    DegradedTable,
    FORCED_EVICTION,
)
from tests.core.conftest import numeric_batch


def make_driver(
    org,
    heap_bytes=2048,
    page_size=256,
    n_buckets=64,
    group_size=16,
    sanitize=None,
    max_iterations=500,
):
    ledger = CostLedger()
    table = GpuHashTable(
        n_buckets=n_buckets,
        organization=org,
        heap=GpuHeap(heap_bytes, page_size),
        group_size=group_size,
        ledger=ledger,
        sanitize=sanitize,
    )
    driver = SepoDriver(
        table, KernelModel(GTX_780TI, ledger), PCIeBus(ledger),
        max_iterations=max_iterations,
    )
    return driver, table


def workload(seed=42, n_batches=4, per_batch=150, n_keys=200):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_batches):
        pairs = [
            (f"k{int(rng.integers(0, n_keys)):03d}".encode(), 1)
            for _ in range(per_batch)
        ]
        batch = numeric_batch(pairs)
        batch.input_bytes = 1024
        out.append(batch)
    return out


def expected(batches):
    out = {}
    for batch in batches:
        keys = batch.key_bytes_list()
        for i in range(len(batch)):
            out[keys[i]] = out.get(keys[i], 0) + int(batch.numeric_values[i])
    return out


# ----------------------------------------------------------------------
# checkpoint / resume
# ----------------------------------------------------------------------
def resume_equivalence(tmp_path, make, batches_of, checkpoint_every=1):
    oracle_journal = tmp_path / "oracle.npz"
    victim_journal = tmp_path / "victim.npz"

    d1, t1 = make()
    r1 = ResilientDriver(d1, journal_path=oracle_journal,
                         checkpoint_every=checkpoint_every)
    rep1 = r1.run(batches_of())
    assert rep1.checkpoints_written >= 1, "workload too small to checkpoint"

    # run the victim, stashing the first journal it writes...
    d2, t2 = make()
    r2 = ResilientDriver(d2, journal_path=victim_journal,
                         checkpoint_every=checkpoint_every)
    checkpoint = r2.checkpoint
    first = tmp_path / "first.npz"

    def stashing_checkpoint(batches, state):
        checkpoint(batches, state)
        if not first.exists():
            shutil.copy(victim_journal, first)

    r2.checkpoint = stashing_checkpoint
    r2.run(batches_of())

    # ...then pretend we were SIGKILL'd right after it and resume
    shutil.copy(first, victim_journal)
    d3, t3 = make()
    r3 = ResilientDriver(d3, journal_path=victim_journal,
                         checkpoint_every=checkpoint_every)
    rep3 = r3.run(batches_of(), resume=True)

    assert rep3.resumed_from_iteration is not None
    assert table_digest(t3) == table_digest(t1), "resume is not byte-identical"
    assert t3.result() == t1.result()
    assert rep3.elapsed_seconds == pytest.approx(rep1.elapsed_seconds,
                                                 abs=1e-12)
    assert rep3.sepo.input_bytes_streamed == rep1.sepo.input_bytes_streamed
    assert len(rep3.sepo.iteration_log) == len(rep1.sepo.iteration_log)
    return rep1, rep3


def test_resume_equivalence_combining(tmp_path):
    rep1, rep3 = resume_equivalence(
        tmp_path,
        lambda: make_driver(CombiningOrganization(SUM_I64),
                            sanitize="paranoid"),
        workload,
    )
    assert rep1.iterations > 1


def test_resume_equivalence_multivalued(tmp_path):
    def mv_batches(seed=7):
        rng = np.random.default_rng(seed)
        out = []
        for c in range(3):
            from repro.core import RecordBatch

            pairs = [
                (f"k{int(rng.integers(0, 40)):02d}".encode(),
                 f"v{c}-{i}".encode())
                for i in range(80)
            ]
            batch = RecordBatch.from_pairs(pairs)
            batch.input_bytes = 1024
            out.append(batch)
        return out

    resume_equivalence(
        tmp_path,
        lambda: make_driver(MultiValuedOrganization(), heap_bytes=4096,
                            sanitize="paranoid"),
        mv_batches,
    )


def test_resume_without_journal_starts_fresh(tmp_path):
    d, t = make_driver(CombiningOrganization(SUM_I64))
    r = ResilientDriver(d, journal_path=tmp_path / "never-written.npz")
    rep = r.run(workload(), resume=True)  # supervisor always passes --resume
    assert rep.resumed_from_iteration is None
    assert t.result() == expected(workload())


def test_resume_rejects_different_input(tmp_path):
    journal = tmp_path / "j.npz"
    d1, _ = make_driver(CombiningOrganization(SUM_I64))
    ResilientDriver(d1, journal_path=journal).run(workload(seed=1))
    assert journal.exists()

    d2, _ = make_driver(CombiningOrganization(SUM_I64))
    other = workload(seed=1)
    other[0] = numeric_batch([(b"entirely-different-key", 1)] * 150)
    other[0].input_bytes = 1024
    with pytest.raises(JournalError, match="fingerprint"):
        ResilientDriver(d2, journal_path=journal).run(other, resume=True)


def test_resume_rejects_mismatched_geometry(tmp_path):
    from repro.core.checkpoint import CheckpointError

    journal = tmp_path / "j.npz"
    d1, _ = make_driver(CombiningOrganization(SUM_I64))
    ResilientDriver(d1, journal_path=journal).run(workload())

    d2, _ = make_driver(CombiningOrganization(SUM_I64), n_buckets=32)
    with pytest.raises(CheckpointError):
        ResilientDriver(d2, journal_path=journal).run(workload(), resume=True)


def test_checkpoint_cadence(tmp_path):
    d, _ = make_driver(CombiningOrganization(SUM_I64))
    r = ResilientDriver(d, journal_path=tmp_path / "j.npz",
                        checkpoint_every=1)
    rep = r.run(workload())
    # every iteration boundary with work still pending writes one journal
    assert rep.checkpoints_written == rep.iterations - 1


def test_a_checkpoint_journal_loads_as_a_frozen_table(tmp_path):
    """A journal is a table file: ``load_table`` opens the one a
    checkpoint just wrote and answers as the live table does there."""
    from repro.core.checkpoint import load_table

    journal = tmp_path / "j.npz"
    d, t = make_driver(CombiningOrganization(SUM_I64))
    r = ResilientDriver(d, journal_path=journal)
    checkpoint, seen = r.checkpoint, []

    def checking_checkpoint(batches, state):
        checkpoint(batches, state)
        frozen, live = load_table(journal), t.result()
        assert frozen.result() == live
        assert {k: frozen.get(k) for k in live} == live
        assert frozen.get(b"never-inserted") is None
        seen.append(sum(live.values()))

    r.checkpoint = checking_checkpoint
    r.run(workload())
    assert len(seen) >= 2 and 0 < seen[0] < seen[-1]


def test_no_journal_no_checkpoints():
    d, t = make_driver(CombiningOrganization(SUM_I64))
    rep = ResilientDriver(d).run(workload())
    assert rep.checkpoints_written == 0
    assert t.result() == expected(workload())


def test_checkpoint_every_validation():
    d, _ = make_driver(CombiningOrganization(SUM_I64))
    with pytest.raises(ValueError):
        ResilientDriver(d, checkpoint_every=-1)


# ----------------------------------------------------------------------
# degradation ladder
# ----------------------------------------------------------------------
def block_pool(table, gate):
    """Make the page pool deny takes whenever ``gate()`` is true."""
    pool = table.heap.pool
    real_take = pool.take

    def take():
        if gate():
            return None
        return real_take()

    pool.take = take


def test_stock_driver_gives_up(monkeypatch):
    d, t = make_driver(CombiningOrganization(SUM_I64))
    block_pool(t, lambda: True)
    with pytest.raises(NoProgressError, match="two consecutive"):
        d.run(workload())


def test_forced_eviction_rung_recovers(monkeypatch):
    """Rung 1 alone fixes a stall that clears once the heap is flushed."""
    d, t = make_driver(CombiningOrganization(SUM_I64))
    blocked = {"on": True}
    block_pool(t, lambda: blocked["on"])

    import repro.resilience.driver as rd

    real_quiesce = rd.quiesce_table

    def unblocking_quiesce(table, bus=None):
        blocked["on"] = False
        return real_quiesce(table, bus)

    monkeypatch.setattr(rd, "quiesce_table", unblocking_quiesce)

    rep = ResilientDriver(d).run(workload())
    assert [e.action for e in rep.degradation_events] == [FORCED_EVICTION]
    assert rep.degraded
    assert not isinstance(rep.table, DegradedTable)  # no fallback needed
    assert t.result() == expected(workload())
    assert rep.degradation_events[0].pending_before > 0


def test_chunk_shrink_rung_recovers():
    """Rung 2: a heap that only absorbs small bursts forces chunk shrinking."""
    d, t = make_driver(CombiningOrganization(SUM_I64))
    burst = {"n": 0}
    block_pool(t, lambda: burst["n"] > 30)

    real_run = t.insert_run

    def gated_run(parts):  # bursts a chunk: a run goes chunk by chunk
        results = []
        for batch, local in parts:
            burst["n"] = len(local)
            try:
                results += real_run([(batch, local)])
            finally:
                burst["n"] = 0
        return results

    t.insert_run = gated_run

    r = ResilientDriver(d)
    rep = r.run(workload())
    actions = [e.action for e in rep.degradation_events]
    assert CHUNK_SHRINK in actions
    assert CPU_FALLBACK not in actions
    assert t.result() == expected(workload())
    # progress relaxed the cap back to unlimited by the end
    assert r._limit is None


def test_cpu_fallback_rung_completes():
    """Rung 3: a permanently starved heap falls back to a host table."""
    d, t = make_driver(CombiningOrganization(SUM_I64))
    block_pool(t, lambda: True)

    rep = ResilientDriver(d).run(workload())
    actions = [e.action for e in rep.degradation_events]
    assert actions[0] == FORCED_EVICTION
    assert CHUNK_SHRINK in actions
    assert actions[-1] == CPU_FALLBACK
    assert isinstance(rep.table, DegradedTable)
    assert rep.table.result() == expected(workload())
    assert rep.breakdown["host"] > 0  # fallback time is on the clock
    assert rep.degradation_events[-1].pending_before == sum(len(b) for b in workload())


def test_cpu_fallback_merges_with_gpu_partial():
    """Fallback after partial progress merges host overflow into the result."""
    d, t = make_driver(CombiningOrganization(SUM_I64))
    taken = {"n": 0}
    pool = t.heap.pool
    real_take = pool.take

    def limited_take():
        if taken["n"] >= 4:  # first four pages only, then starve forever
            return None
        taken["n"] += 1
        return real_take()

    pool.take = limited_take
    rep = ResilientDriver(d).run(workload())
    assert isinstance(rep.table, DegradedTable)
    assert rep.table.overflow  # some records went to the host
    assert t.result() != expected(workload())  # GPU table alone is partial
    assert rep.table.result() == expected(workload())  # merged view is whole


def test_multivalued_fallback_groups_values():
    d, t = make_driver(MultiValuedOrganization(), heap_bytes=4096)
    block_pool(t, lambda: True)
    from repro.core import RecordBatch

    pairs = [(b"k", b"v1"), (b"k", b"v2"), (b"j", b"w")]
    batch = RecordBatch.from_pairs(pairs)
    batch.input_bytes = 64
    rep = ResilientDriver(d).run([batch])
    out = rep.table.result()
    assert sorted(out[b"k"]) == [b"v1", b"v2"]
    assert out[b"j"] == [b"w"]


def test_max_iterations_falls_back_instead_of_raising():
    d, t = make_driver(CombiningOrganization(SUM_I64), max_iterations=1)
    rep = ResilientDriver(d).run(workload())
    if rep.degraded:  # needed >1 iteration: fallback absorbed the rest
        assert rep.degradation_events[-1].action == CPU_FALLBACK
        assert "exceeded 1 SEPO iterations" in rep.degradation_events[-1].detail
    assert rep.table.result() == expected(workload())


def test_degradation_not_checkpointed_resume_redoes_fallback(tmp_path):
    """A kill between fallback and completion resumes pre-fallback and
    deterministically reaches the same final answer."""
    journal = tmp_path / "j.npz"
    d, t = make_driver(CombiningOrganization(SUM_I64))
    taken = {"n": 0}
    pool = t.heap.pool
    real_take = pool.take

    def limited_take():
        if taken["n"] >= 4:
            return None
        taken["n"] += 1
        return real_take()

    pool.take = limited_take
    rep = ResilientDriver(d, journal_path=journal).run(workload())
    assert isinstance(rep.table, DegradedTable)
    assert rep.checkpoints_written >= 1

    # resume from whatever the journal holds: the fallback was never
    # journaled, so the resumed run re-degrades and re-derives the answer
    d2, t2 = make_driver(CombiningOrganization(SUM_I64))
    taken2 = {"n": 0}
    pool2 = t2.heap.pool
    real_take2 = pool2.take

    def limited_take2():
        if taken2["n"] >= 4:
            return None
        taken2["n"] += 1
        return real_take2()

    pool2.take = limited_take2
    rep2 = ResilientDriver(d2, journal_path=journal).run(
        workload(), resume=True
    )
    assert rep2.resumed_from_iteration is not None
    assert rep2.table.result() == expected(workload())


# ----------------------------------------------------------------------
# retry telemetry
# ----------------------------------------------------------------------
def test_retry_telemetry_in_report():
    from repro.sanitize import TransientTransferFault

    d, t = make_driver(CombiningOrganization(SUM_I64))
    fault = TransientTransferFault(every=3, failures=2)
    fault.install(t, d)
    rep = ResilientDriver(d).run(workload())
    assert rep.retries > 0
    assert rep.retries == d.bus.retries
    assert rep.retry_seconds == pytest.approx(rep.breakdown["retry"])
    assert t.result() == expected(workload())


# ----------------------------------------------------------------------
# one requestor loop: begin / step / finalize, whichever driver
# ----------------------------------------------------------------------
def test_without_a_journal_or_a_stall_both_drivers_step_alike():
    """A ``ResilientDriver`` that never checkpoints and is never stuck adds
    nothing to the stock step: the same ``RunState`` and table after every
    iteration."""
    from dataclasses import astuple

    seen = []
    for wrap in (lambda d: d, ResilientDriver):
        d, t = make_driver(CombiningOrganization(SUM_I64))
        driver, batches, after = wrap(d), workload(), []
        state = driver.begin(batches)
        while state.bitmap.any_pending():
            driver.step(batches, state)
            after.append((
                state.iteration, state.stuck_passes, state.streamed,
                state.bitmap.snapshot().tobytes(),
                [astuple(rec) for rec in state.log], list(state.released),
                state.active, table_digest(t), t.ledger.breakdown(),
            ))
        seen.append(after)
    stock, resilient = seen
    assert len(stock) > 1
    assert stock == resilient


def test_every_loop_is_step_and_only_step_counts_iterations(monkeypatch):
    """``SepoDriver.run``, the resilient driver and the sharded executor's
    round-robin all advance a run through ``SepoDriver.step``, one call an
    iteration, and nothing outside it moves ``state.iteration``."""
    from repro.sanitize.workloads import make_batches, make_workload
    from repro.shard import ShardedExecutor

    steps = []
    step = SepoDriver.step

    def counting_step(self, batches, state, *args, **kwargs):
        before = state.iteration
        step(self, batches, state, *args, **kwargs)
        steps.append(state.iteration - before)

    monkeypatch.setattr(SepoDriver, "step", counting_step)

    def iterations_of(run):
        del steps[:]
        iterations = run()
        assert steps and set(steps) == {1}
        return iterations, len(steps)

    d, _ = make_driver(CombiningOrganization(SUM_I64))
    ran, stepped = iterations_of(lambda: d.run(workload()).iterations)
    assert ran == stepped > 1

    d, _ = make_driver(CombiningOrganization(SUM_I64))
    ran, stepped = iterations_of(
        lambda: ResilientDriver(d).run(workload()).iterations
    )
    assert ran == stepped > 1

    ex = ShardedExecutor(
        2, lambda: CombiningOrganization(SUM_I64), n_buckets=64,
        heap_bytes=2048, page_size=256, group_size=16,
    )
    load = make_batches(make_workload("uniform", 400, seed=4), "combining",
                        batch_size=100)
    ran, stepped = iterations_of(
        lambda: sum(r.iterations for r in ex.run(load).shard_reports)
    )
    assert ran == stepped > 2
