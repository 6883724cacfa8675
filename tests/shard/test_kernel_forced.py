"""The sharded executor and the request router over the batched mixed-op
kernel.

Router slices and per-shard sub-batches are a few dozen ops, far under
``organizations.MIXED_KERNEL_MIN_OPS``, so ``test_executor.py`` and
``test_router.py`` as collected in their own modules never enter the
kernel.  This module re-collects both with the cut-over patched to 0 (a
fixture; the shipped constant is untouched): the sharded == unsharded
bit-identity and the routed-lookup oracle then hold with every mutation
slice going through it.
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
