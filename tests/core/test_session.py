import pytest

from repro.core import CombiningOrganization, SUM_I64
from repro.core.session import GpuSession
from repro.gpusim import GTX_780TI, OutOfDeviceMemory


def test_layout_order_heap_takes_remainder():
    s = GpuSession(GTX_780TI, scale=1024)
    table, driver = s.build_table(
        n_buckets=1 << 10, organization=CombiningOrganization(SUM_I64),
        page_size=4096, n_records=10_000,
    )
    reservations = s.memory.reservations()
    assert set(reservations) == {
        "bigkernel-staging", "pending-bitmap", "hashtable-buckets",
        "hashtable-heap",
    }
    # Section IV-A: the heap takes (almost) everything left.
    assert s.memory.free < 4096
    assert reservations["hashtable-heap"] > reservations["hashtable-buckets"]


def test_clamp_chunk_small_device():
    chunk = GpuSession.clamp_chunk(GTX_780TI, 1 << 12, 1 << 20)
    capacity = GTX_780TI.mem_capacity >> 12
    assert chunk <= capacity // 16
    assert chunk >= 1024


def test_clamp_chunk_full_device_keeps_request():
    assert GpuSession.clamp_chunk(GTX_780TI, 1, 1 << 20) == 1 << 20


def test_table_shares_session_ledger():
    s = GpuSession(GTX_780TI, scale=1024)
    table, driver = s.build_table(1 << 10, CombiningOrganization(SUM_I64))
    assert table.ledger is s.ledger
    assert driver.kernel.ledger is s.ledger


def test_maintenance_throughput_set_from_device():
    s = GpuSession(GTX_780TI, scale=1024)
    table, _ = s.build_table(1 << 10, CombiningOrganization(SUM_I64))
    assert table.maintenance_throughput == pytest.approx(
        GTX_780TI.compute_throughput
    )


def test_page_size_off_the_word_grid_rejected():
    s = GpuSession(GTX_780TI, scale=1024)
    with pytest.raises(ValueError, match="positive multiple of 8"):
        s.build_table(1 << 10, CombiningOrganization(SUM_I64), page_size=300)


def test_oversized_buckets_rejected():
    s = GpuSession(GTX_780TI, scale=1 << 14)  # ~192 KB device
    with pytest.raises(OutOfDeviceMemory):
        s.build_table(1 << 20, CombiningOrganization(SUM_I64))
