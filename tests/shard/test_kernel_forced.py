"""The sharded executor and the request router over the batched mixed-op
kernel.

The executor's per-shard sub-batches are a few dozen ops, and of the
router's merged flushes only the larger ones (the oracle matrix's
768-record chunks) reach ``organizations.MIXED_KERNEL_MIN_OPS``, so
``test_executor.py`` and most of ``test_router.py`` as collected in their
own modules stay on the scalar loop.  This module re-collects both with
the cut-over patched to 0 (a fixture; the shipped constant is untouched):
the sharded == unsharded bit-identity, the routed-lookup oracle and the
router's merge/failure contracts then hold with every mutation batch
going through the kernel.
"""

import pytest

import tests.shard.test_executor as _executor
import tests.shard.test_router as _router
from repro.core import organizations


@pytest.fixture(autouse=True)
def kernel_always(monkeypatch):
    monkeypatch.setattr(organizations, "MIXED_KERNEL_MIN_OPS", 0)


for _module in (_executor, _router):
    globals().update(
        {k: v for k, v in vars(_module).items() if k.startswith("test_")}
    )
