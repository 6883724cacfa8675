import pytest

from repro.gpusim import CostCategory, CostLedger, GTX_780TI, SimtModel, XEON_E5_QUAD


@pytest.fixture
def gpu():
    return SimtModel(GTX_780TI, CostLedger())


@pytest.fixture
def cpu():
    return SimtModel(XEON_E5_QUAD, CostLedger())


def test_compute_time_linear_in_records(gpu):
    t1 = gpu.compute_time(1000, 100.0)
    t2 = gpu.compute_time(2000, 100.0)
    assert t2 == pytest.approx(2 * t1)


def test_divergence_penalizes_gpu(gpu):
    base = gpu.compute_time(1000, 100.0, divergence=1.0)
    div = gpu.compute_time(1000, 100.0, divergence=4.0)
    assert div == pytest.approx(4 * base)


def test_divergence_ignored_on_cpu(cpu):
    base = cpu.compute_time(1000, 100.0, divergence=1.0)
    div = cpu.compute_time(1000, 100.0, divergence=4.0)
    assert div == pytest.approx(base)


def test_divergence_below_one_rejected(gpu):
    with pytest.raises(ValueError):
        gpu.compute_time(10, 1.0, divergence=0.5)


def test_memory_time_uses_effective_bandwidth(gpu):
    assert gpu.memory_time(1 << 30) == pytest.approx(
        (1 << 30) / GTX_780TI.effective_bandwidth
    )


def test_charge_launch(gpu):
    assert gpu.charge_launch() == GTX_780TI.launch_s
    assert gpu.ledger.spent(CostCategory.LAUNCH) == GTX_780TI.launch_s


def test_gpu_faster_than_cpu_on_parallel_work(gpu, cpu):
    # Same work, no divergence, no contention: the GPU should win big.
    n, cyc = 10_000_000, 200.0
    assert cpu.compute_time(n, cyc) > 3 * gpu.compute_time(n, cyc)


def test_negative_work_rejected(gpu):
    with pytest.raises(ValueError):
        gpu.compute_time(-1, 1.0)
    with pytest.raises(ValueError):
        gpu.memory_time(-1)
