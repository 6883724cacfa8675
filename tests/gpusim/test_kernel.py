import pytest

from repro.gpusim import (
    BatchStats,
    CostCategory,
    CostLedger,
    GTX_780TI,
    KernelModel,
    XEON_E5_QUAD,
)


def make(device=GTX_780TI):
    led = CostLedger()
    return KernelModel(device, led), led


def test_charge_includes_launch():
    km, led = make()
    assert km.charge(BatchStats(n_records=0)) == GTX_780TI.launch_s
    assert led.spent(CostCategory.LAUNCH) == GTX_780TI.launch_s


def test_compute_bound_batch():
    km, led = make()
    stats = BatchStats(n_records=1_000_000, cycles_per_record=500.0, bytes_touched=64)
    km.charge(stats)
    assert led.spent(CostCategory.COMPUTE) > 0
    assert led.spent(CostCategory.MEMORY) == 0
    assert led.spent(CostCategory.ATOMIC) == 0


def test_memory_bound_batch():
    km, led = make()
    stats = BatchStats(n_records=10, cycles_per_record=1.0, bytes_touched=1 << 30)
    km.charge(stats)
    assert led.spent(CostCategory.MEMORY) > 0


def test_contention_bound_batch():
    km, led = make()
    # Everything lands on one bucket: the critical path is serialization.
    stats = BatchStats(
        n_records=100_000,
        cycles_per_record=10.0,
        bytes_touched=100,
        hottest_bucket=100_000,
    )
    km.charge(stats)
    assert led.spent(CostCategory.ATOMIC) > 0
    assert led.spent(CostCategory.ATOMIC) >= 100_000 * GTX_780TI.lock_s * 0.99


def test_contention_hides_behind_compute_when_small():
    km, led = make()
    stats = BatchStats(
        n_records=10_000_000,
        cycles_per_record=1000.0,
        hottest_bucket=5,
    )
    km.charge(stats)
    assert led.spent(CostCategory.ATOMIC) == 0.0


def batch_seconds(device, stats):
    """One batch's charge on a fresh ledger, less its launch."""
    km, led = make(device)
    km.charge(stats)
    return led.elapsed - led.spent(CostCategory.LAUNCH)


def test_charge_max_semantics():
    km, _ = make()
    stats = BatchStats(
        n_records=1000, cycles_per_record=100.0, bytes_touched=1 << 20,
        hottest_bucket=50, hottest_alloc=10,
    )
    t = batch_seconds(GTX_780TI, stats)
    assert t == pytest.approx(
        max(
            km.simt.compute_time(1000, 100.0),
            km.simt.memory_time(1 << 20),
            (50 + 0.25 * 10) * km.device.lock_s,
        )
    )


def test_word_count_shape_gpu_loses_its_edge():
    """Section VI-B: heavy duplicate keys erase the GPU advantage."""
    n = 1_000_000
    skewed = BatchStats(
        n_records=n, cycles_per_record=150.0, bytes_touched=n * 16,
        hottest_bucket=n // 20,  # 'the' ~5% of tokens
    )
    uniform = BatchStats(
        n_records=n, cycles_per_record=150.0, bytes_touched=n * 16,
        hottest_bucket=8,
    )
    def speedup(stats):
        return (batch_seconds(XEON_E5_QUAD, stats)
                / batch_seconds(GTX_780TI, stats))

    speedup_skewed = speedup(skewed)
    speedup_uniform = speedup(uniform)
    assert speedup_uniform > 2.0
    assert speedup_skewed < speedup_uniform / 2


def test_merge_weighted_mean():
    a = BatchStats(n_records=100, cycles_per_record=100.0, divergence=1.0,
                   bytes_touched=10, hottest_bucket=3)
    b = BatchStats(n_records=300, cycles_per_record=200.0, divergence=2.0,
                   bytes_touched=20, hottest_bucket=7, hottest_alloc=2)
    a.merge(b)
    assert a.n_records == 400
    assert a.cycles_per_record == pytest.approx(175.0)
    assert a.divergence == pytest.approx(1.75)
    assert a.bytes_touched == 30
    assert a.hottest_bucket == 7
    assert a.hottest_alloc == 2


def test_merge_into_empty():
    a = BatchStats()
    b = BatchStats(n_records=10, cycles_per_record=50.0)
    a.merge(b)
    assert a.cycles_per_record == pytest.approx(50.0)
