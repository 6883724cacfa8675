from repro.bench.timeline import render_timeline
from repro.core.sepo import IterationRecord, SepoReport


def make_report(log):
    return SepoReport(
        iterations=len(log), total_records=100, elapsed_seconds=1.0,
        breakdown={}, iteration_log=log,
    )


def test_empty_timeline():
    assert "no iterations" in render_timeline(make_report([]))


def test_single_iteration_renders():
    out = render_timeline(make_report([
        IterationRecord(index=1, attempted=100, succeeded=100, postponed=0,
                        evicted_bytes=4096),
    ]))
    assert "iter  1" in out
    assert "100/100 stored" in out
    assert "4.0KB evicted" in out


def test_postponement_and_flags_shown():
    out = render_timeline(make_report([
        IterationRecord(index=1, attempted=100, succeeded=60, postponed=40,
                        evicted_bytes=8192, halted_early=True),
        IterationRecord(index=2, attempted=40, succeeded=40, postponed=0,
                        evicted_bytes=4096, pages_retained=3),
    ]))
    assert "~" in out  # postponed bar segment
    assert "halted early" in out
    assert "3 pages retained" in out


def test_a_quarter_threshold_halt_is_not_reported_as_fifty_percent():
    from repro.core import BasicOrganization, GpuHashTable, RecordBatch, SepoDriver
    from repro.gpusim import CostLedger, GTX_780TI, KernelModel, PCIeBus
    from repro.memalloc import GpuHeap

    ledger = CostLedger()
    table = GpuHashTable(
        64, BasicOrganization(halt_threshold=0.25), GpuHeap(2048, 256),
        group_size=8, ledger=ledger,
    )
    driver = SepoDriver(table, KernelModel(GTX_780TI, ledger), PCIeBus(ledger))
    batches = [
        RecordBatch.from_pairs(
            [(b"k%04d" % i, b"v") for i in range(lo, lo + 50)]
        )
        for lo in range(0, 400, 50)
    ]
    report = driver.run(batches)
    assert any(r.halted_early for r in report.iteration_log)
    out = render_timeline(report)
    assert "halted early" in out
    assert "50%" not in out


def test_real_run_timeline():
    from repro.apps import PageViewCount

    app = PageViewCount()
    data = app.generate_input(100_000, seed=1)
    outcome = app.run_gpu(data, scale=1 << 14, n_buckets=1 << 10,
                          page_size=2048, group_size=32)
    out = render_timeline(outcome.report)
    assert out.count("iter") >= outcome.iterations
