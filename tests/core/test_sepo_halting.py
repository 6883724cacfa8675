"""SEPO driver halting edge cases (satellite of the sanitizer ISSUE).

The driver's liveness contract: one zero-progress pass is recoverable
(the rearrangement may free pages), two in a row -- or blowing through
``max_iterations`` -- must raise :class:`NoProgressError` rather than
spin forever.
"""

import numpy as np
import pytest

from repro.core import CombiningOrganization, GpuHashTable, RecordBatch, SUM_I64
from repro.core.sepo import NoProgressError, SepoDriver
from repro.gpusim.clock import CostLedger
from repro.gpusim.device import GTX_780TI
from repro.gpusim.kernel import KernelModel
from repro.gpusim.pcie import PCIeBus
from repro.memalloc import GpuHeap


def build(heap_pages=4, page_size=512, max_iterations=1000):
    ledger = CostLedger()
    table = GpuHashTable(
        n_buckets=16,
        organization=CombiningOrganization(SUM_I64),
        heap=GpuHeap(heap_pages * page_size, page_size),
        group_size=8,
        ledger=ledger,
    )
    driver = SepoDriver(
        table, KernelModel(GTX_780TI, ledger), PCIeBus(ledger),
        max_iterations=max_iterations,
    )
    return table, driver


def one_record_batch():
    return RecordBatch.from_numeric([b"key"], np.array([1], dtype=np.int64))


# ----------------------------------------------------------------------
# zero-progress detection
# ----------------------------------------------------------------------
def test_two_stuck_passes_raise_no_progress():
    table, driver = build()
    # Drain the pool for good: no rearrangement can ever free a page.
    while table.heap.pool.take() is not None:
        pass
    with pytest.raises(NoProgressError, match="two consecutive"):
        driver.run([one_record_batch()])
    # exactly two passes were attempted before giving up
    assert table.iterations_completed == 1  # rearranged after the first only


def test_one_stuck_pass_recovers():
    table, driver = build()
    # Hold every slot, but give them back at the first rearrangement --
    # the recoverable half of the liveness contract.
    held = []
    while True:
        slot = table.heap.pool.take()
        if slot is None:
            break
        held.append(slot)
    original = table.end_iteration

    def end_iteration(pcie_bus=None):
        report = original(pcie_bus)
        for s in held:
            table.heap.pool.release(s)
        held.clear()
        return report

    table.end_iteration = end_iteration
    report = driver.run([one_record_batch()])
    assert report.iterations == 2
    assert report.iteration_log[0].succeeded == 0
    assert report.iteration_log[1].succeeded == 1
    assert table.result() == {b"key": 1}


def test_max_iterations_exceeded_raises():
    table, driver = build(max_iterations=0)
    with pytest.raises(NoProgressError, match="exceeded 0 SEPO iterations"):
        driver.run([one_record_batch()])


def test_empty_input_never_iterates():
    table, driver = build(max_iterations=0)
    report = driver.run([])
    assert report.iterations == 0
    assert report.total_records == 0


def test_attempts_without_postponement_reset_stuck_counter():
    # Heap large enough for everything: a normal run is one iteration.
    table, driver = build(heap_pages=8)
    pairs = [(b"k%02d" % i, i) for i in range(20)]
    batch = RecordBatch.from_numeric(
        [k for k, _ in pairs],
        np.array([v for _, v in pairs], dtype=np.int64),
    )
    report = driver.run([batch])
    assert report.iterations == 1
    assert report.postponement_rate == 0.0
