import pytest

from repro.gpusim import CostCategory, CostLedger, PCIE_GEN3_X16, PCIeBus, PCIeLinkSpec


@pytest.fixture
def bus():
    return PCIeBus(CostLedger())


def test_bulk_transfer_dominated_by_bandwidth(bus):
    nbytes = 1 << 30
    t = bus.transfer_time(nbytes, transactions=1)
    assert t == pytest.approx(nbytes / PCIE_GEN3_X16.bandwidth, rel=1e-3)


def test_many_small_transactions_dominated_by_latency(bus):
    # 1M x 8-byte accesses: latency term is ~1.1s, byte term is microseconds.
    t = bus.transfer_time(8 * 1_000_000, transactions=1_000_000)
    assert t > 1_000_000 * PCIE_GEN3_X16.latency
    assert t > 100 * bus.transfer_time(8 * 1_000_000, transactions=1)


def test_min_payload_rounding(bus):
    # A 1-byte transaction still moves a full min_payload flit.
    t_small = bus.transfer_time(1, transactions=1)
    t_flit = bus.transfer_time(PCIE_GEN3_X16.min_payload, transactions=1)
    assert t_small == pytest.approx(t_flit)


def test_zero_transactions_is_free(bus):
    assert bus.transfer_time(0, transactions=0) == 0.0


def test_negative_rejected(bus):
    with pytest.raises(ValueError):
        bus.transfer_time(-1)


def test_bulk_charges_pcie_category():
    led = CostLedger()
    bus = PCIeBus(led)
    t = bus.bulk(1 << 20)
    assert led.spent(CostCategory.PCIE) == pytest.approx(t)
    assert bus.bytes_moved == 1 << 20
    assert bus.transactions == 1


def test_small_counts_traffic():
    led = CostLedger()
    bus = PCIeBus(led)
    bus.small(1000, 8)
    assert bus.transactions == 1000
    # Each transaction moves at least one flit.
    assert bus.bytes_moved == 1000 * PCIE_GEN3_X16.min_payload


def test_custom_link_spec():
    slow = PCIeLinkSpec(name="slow", bandwidth=1e9, latency=1e-5, min_payload=64)
    bus = PCIeBus(CostLedger(), slow)
    assert bus.transfer_time(1e9, 1) == pytest.approx(1.0, rel=1e-3)


def test_sepo_contrast_bulk_vs_small():
    """The paper's core PCIe argument: equal bytes, wildly different times."""
    led = CostLedger()
    bus = PCIeBus(led)
    nbytes = 64 << 20
    t_bulk = bus.transfer_time(nbytes, transactions=1)
    t_small = bus.transfer_time(nbytes, transactions=nbytes // 8)
    assert t_small / t_bulk > 100


# ----------------------------------------------------------------------
# transient-fault retry (resilience layer)
# ----------------------------------------------------------------------
def test_retry_charges_backoff_and_recovers():
    led = CostLedger()
    bus = PCIeBus(led)
    fails = {"left": 2}

    def injector(op, attempt):
        if fails["left"]:
            fails["left"] -= 1
            return True
        return False

    bus.set_fault_injector(injector)
    t = bus.bulk(1 << 20)
    assert bus.retries == 2
    # each failed attempt wastes the transfer time plus exponential backoff
    expected = 2 * t + bus.retry_backoff * (1 + 2)
    assert bus.retry_seconds == pytest.approx(expected)
    assert led.spent(CostCategory.RETRY) == pytest.approx(expected)
    # the successful attempt is still charged to PCIE as usual
    assert led.spent(CostCategory.PCIE) == pytest.approx(t)


def test_persistent_fault_raises_transfer_error():
    from repro.gpusim.pcie import TransferError

    bus = PCIeBus(CostLedger())
    bus.max_retries = 3
    bus.set_fault_injector(lambda op, attempt: True)
    with pytest.raises(TransferError):
        bus.bulk(1024)


def test_retry_applies_to_overlapped_transfers():
    led = CostLedger()
    bus = PCIeBus(led)
    bus.set_fault_injector(lambda op, attempt: attempt < 1)  # one fail per op
    bus.overlapped(1 << 20, hidden_seconds=1.0)
    assert bus.retries == 1
    # retries are never hidden by compute/transfer overlap
    assert led.spent(CostCategory.RETRY) > 0


def test_operations_counted_without_injector(bus):
    bus.bulk(100)
    bus.small(10, 8)
    assert bus.transfer_ops == 2
    assert bus.retries == 0 and bus.retry_seconds == 0.0


def test_injector_sees_operation_indices():
    bus = PCIeBus(CostLedger())
    seen = []

    def injector(op, attempt):
        seen.append((op, attempt))
        return False

    bus.set_fault_injector(injector)
    bus.bulk(100)
    bus.bulk(100)
    assert seen == [(0, 0), (1, 0)]
