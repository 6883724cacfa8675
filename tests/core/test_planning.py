"""Capacity planning: estimates validated against actual SEPO runs."""

import numpy as np
import pytest

from repro.apps import GeoLocation, PageViewCount
from repro.core.planning import (
    PlanEstimate,
    StreamStats,
    estimate_table_bytes,
    plan,
)
from repro.core.records import RecordBatch


def test_stream_stats_from_batches():
    batch = RecordBatch.from_numeric(
        [b"aa", b"bb", b"aa"], np.array([1, 1, 1], dtype=np.int64)
    )
    stats = StreamStats.from_batches([batch])
    assert stats.n_records == 3
    assert stats.n_distinct == 2
    assert stats.mean_key_len == pytest.approx(2.0)
    assert stats.mean_val_len == pytest.approx(8.0)


def test_stream_stats_byte_values():
    batch = RecordBatch.from_pairs([(b"k", b"valu"), (b"k", b"xy")])
    stats = StreamStats.from_batches([batch])
    assert stats.mean_val_len == pytest.approx(3.0)


def test_stream_stats_empty():
    assert StreamStats.from_batches([]).n_records == 0


def test_table_bytes_by_organization():
    stats = StreamStats(n_records=100, n_distinct=10, mean_key_len=8,
                        mean_val_len=8)
    combining = estimate_table_bytes(stats, "combining")
    basic = estimate_table_bytes(stats, "basic")
    mv = estimate_table_bytes(stats, "multi-valued")
    assert combining < mv < basic or combining < basic  # dupes dominate
    assert combining == 10 * 40  # entry_size(8, 8)
    with pytest.raises(ValueError):
        estimate_table_bytes(stats, "weird")


def test_plan_fits_and_iterations():
    stats = StreamStats(n_records=1000, n_distinct=1000, mean_key_len=8)
    small = plan(stats, heap_bytes=10_000, organization="combining")
    big = plan(stats, heap_bytes=1_000_000, organization="combining")
    assert not small.fits_in_memory
    assert small.iterations > 1
    assert big.fits_in_memory
    assert big.iterations == 1
    assert small.table_over_memory > 1.0


def test_plan_validation():
    stats = StreamStats(1, 1, 1.0)
    with pytest.raises(ValueError):
        plan(stats, heap_bytes=0)


@pytest.mark.parametrize("cls,org", [
    (PageViewCount, "combining"),
    (GeoLocation, "multi-valued"),
])
def test_plan_predicts_actual_run(cls, org):
    """The estimator lands within about one pass of the real run."""
    app = cls()
    data = app.generate_input(250_000, seed=5)
    outcome = app.run_gpu(data, scale=1 << 13, n_buckets=1 << 11,
                          page_size=4096, group_size=32)
    heap = outcome.table.heap.pool.n_slots * outcome.table.heap.page_size
    batches = app.batches(data, 32 << 10)
    predicted = plan(StreamStats.from_batches(batches), heap, org)
    assert abs(predicted.iterations - outcome.iterations) <= max(
        1, outcome.iterations // 2
    )
    # Table-size estimate within 40% of the payload actually allocated.
    actual_payload = outcome.table.alloc.stats.bytes_allocated
    assert predicted.table_bytes == pytest.approx(actual_payload, rel=0.4)
