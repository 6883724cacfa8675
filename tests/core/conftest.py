"""Shared builders for core-level tests: tiny tables with tiny heaps."""

import numpy as np
import pytest

from repro.core import (
    OP_DELETE,
    OP_INSERT,
    OP_UPDATE,
    BasicOrganization,
    CombiningOrganization,
    GpuHashTable,
    MultiValuedOrganization,
    SUM_I64,
)
from repro.memalloc import GpuHeap


def make_table(
    org,
    heap_bytes=4096,
    page_size=512,
    n_buckets=64,
    group_size=16,
    trace=None,
):
    heap = GpuHeap(heap_bytes, page_size)
    return GpuHashTable(
        n_buckets=n_buckets,
        organization=org,
        heap=heap,
        group_size=group_size,
        trace=trace,
    )


def multivalued_org(limit, impl="vectorized"):
    """A multi-valued organization that flushes its pinned key pages once
    they exceed ``limit`` of the resident heap (the class sets 0.5)."""
    org = MultiValuedOrganization(impl=impl)
    org.pin_retention_limit = limit
    return org


@pytest.fixture
def combining_table():
    return make_table(CombiningOrganization(SUM_I64))


@pytest.fixture
def basic_table():
    return make_table(BasicOrganization())


@pytest.fixture
def multivalued_table():
    return make_table(MultiValuedOrganization())


def numeric_batch(pairs):
    """pairs: list of (key bytes, int value)."""
    from repro.core import RecordBatch

    keys = [k for k, _ in pairs]
    vals = np.array([v for _, v in pairs], dtype=np.int64)
    return RecordBatch.from_numeric(keys, vals)


def byte_batch(pairs):
    from repro.core import RecordBatch

    return RecordBatch.from_pairs(pairs)


def replaced(triples):
    """``triples`` with every update a replace of its key's value list:
    an ``OP_DELETE`` immediately followed by an ``OP_INSERT`` of the key,
    the way a multi-valued list is replaced (an update appends)."""
    out = []
    for op, key, value in triples:
        if op == OP_UPDATE:
            out += [(OP_DELETE, key, b""), (OP_INSERT, key, value)]
        else:
            out.append((op, key, value))
    return out


@pytest.fixture
def grouped_calls(monkeypatch):
    """Counts of ``result()`` calls that took the grouped path (``"grouped"``)
    and that found a 64-bit collision there (``"fallback"``)."""
    from repro.core import hashtable

    calls = {"grouped": 0, "fallback": 0}
    real = hashtable._live_groups

    def spy(*args):
        out = real(*args)
        calls["grouped" if out is not None else "fallback"] += 1
        return out

    monkeypatch.setattr(hashtable, "_live_groups", spy)
    return calls
