"""The sharded executor and the request router over the batched mixed-op
kernel.

The executor's per-shard sub-batches are a few dozen ops, and of the
router's merged flushes only the larger ones (the oracle matrix's
768-record chunks) reach ``MIXED_KERNEL_MIN_OPS``, so
``test_executor.py`` and most of ``test_router.py`` as collected in their
own modules stay on the scalar loop.  This module re-collects both with
the cut-over patched to 0 (a fixture on ``organizations.policy``, where
the dispatch reads it; the shipped constant is untouched): the sharded ==
unsharded bit-identity, the routed-lookup oracle and the router's
merge/failure contracts then hold with every mutation batch going through
the kernel.
"""

import pytest

import tests.shard.test_executor as _executor
import tests.shard.test_router as _router
from repro.core import (
    OP_DELETE,
    OP_INSERT,
    OP_LOOKUP,
    OP_UPDATE,
    BasicOrganization,
    GpuHashTable,
    MutationBatch,
)
from repro.core.organizations import policy
from repro.memalloc import GpuHeap


@pytest.fixture(autouse=True)
def kernel_always(monkeypatch):
    monkeypatch.setattr(policy, "MIXED_KERNEL_MIN_OPS", 0)


def test_the_fixture_forces_the_kernel(monkeypatch):
    """The patch lands where the dispatch reads it: a four-op batch runs
    the batched kernel.  Without this the suites re-collected below could
    pass on the loop."""
    sizes = []
    real = policy._mutate_generic
    monkeypatch.setattr(
        policy, "_mutate_generic",
        lambda *a: sizes.append(len(a[2])) or real(*a),
    )
    table = GpuHashTable(16, BasicOrganization(), GpuHeap(1 << 14, 1 << 10))
    res = table.mutate_batch(MutationBatch.from_ops([
        (OP_INSERT, b"a", b"1"), (OP_UPDATE, b"a", b"2"),
        (OP_LOOKUP, b"a", b""), (OP_DELETE, b"b", b""),
    ]))
    assert res.success.all() and sizes == [4]


for _module in (_executor, _router):
    globals().update(
        {k: v for k, v in vars(_module).items() if k.startswith("test_")}
    )
