"""Sharded multi-device SEPO execution (Section VII outlook).

The paper's single-device SEPO loop generalizes to N GPUs by hash
partitioning the key space: each shard runs the unmodified Figure-5
iteration over its slice of the input on its own simulated device, heap,
and PCIe link, and the host overlaps the shards' transfer/compute
schedules.  This package provides:

* :class:`ShardMap` -- stateless key -> shard assignment (high hash bits).
* :class:`ShardChannel` / :class:`TransferSchedule` -- per-shard clocks
  and the aggregate makespan + overlap accounting.
* :class:`ShardedExecutor` -- the N-device round-robin driver with an
  unsharded-identical ``result()``/``lookup()`` surface.
* :class:`ShardRouter` -- a batching front door that coalesces many
  small client streams under a backpressure bound and merges each shard
  flush into one batch per run of compatible slices: one launch per flush
  per SEPO pass.
"""

from repro.shard.executor import ShardedExecutor, ShardReport
from repro.shard.router import ShardRouter, Ticket
from repro.shard.shardmap import ShardMap
from repro.shard.transfer import ShardChannel, TransferSchedule

__all__ = [
    "ShardChannel",
    "ShardMap",
    "ShardReport",
    "ShardRouter",
    "ShardedExecutor",
    "Ticket",
    "TransferSchedule",
]
