"""Timing spans around the public calls into each layer of ``repro``.

The traced pass of the benchmark installs one wrapper per entry of
:data:`TRACE_POINTS`, runs a workload pass, and removes every wrapper
again.  A wrapper records one span per call -- name, start, end, the span
that was open when it started, and the workload-run id -- and then hands
the call's arguments and result to the entry's optional *counter*, which
reads work counts off the objects the layer itself returns
(``SepoReport``, ``EvictionReport``, ``LookupResult``, ...).  Nothing inside
``src/`` knows it is being traced.

Span names are ``<metric base>:<call>``; every span's self time (its
duration minus the part its child spans cover) is credited to
``<metric base>.self_s``, so the self times of all layers plus the time
under no span add up to the wall time of the traced pass.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
import warnings
from typing import Any, Callable

__all__ = ["TRACE_POINTS", "PER_LAYER_METRICS", "Tracer", "layer_metrics", "self_times"]

Counter = Callable[[dict, tuple, Any], None]


def _add(counts: dict, name: str, value: float) -> None:
    counts[name] = counts.get(name, 0) + value


def _peak(counts: dict, name: str, value: float) -> None:
    counts[name] = max(counts.get(name, 0), value)


# ----------------------------------------------------------------------
# counters: read counts off what the wrapped call received and returned
# ----------------------------------------------------------------------
def _count_parse(c, args, batch):
    _add(c, "apps.parse.records", len(batch))


def _count_chunks(c, args, parts):
    _add(c, "bigkernel.partition.chunks", len(parts))


def _count_pipeline(c, args, exposed):
    pipeline, input_bytes = args[0], args[1]
    wire = pipeline.bus.transfer_time(input_bytes, 1)
    _add(c, "bigkernel.pipeline.hidden_sim_s", wire - exposed)


def _count_sepo_begin(c, args, state):
    _add(c, "core.sepo.runs", 1)


def _count_sepo_finalize(c, args, report):
    driver, batches = args[0], args[1]
    _add(c, "core.sepo.iterations", report.iterations)
    for rec in report.iteration_log:
        _add(c, "core.sepo.attempted", rec.attempted)
        _add(c, "core.sepo.succeeded", rec.succeeded)
        _add(c, "core.sepo.postponed", rec.postponed)
    _add(c, "core.sepo.streamed_bytes", report.input_bytes_streamed)
    _add(c, "core.sepo.input_bytes", sum(b.input_bytes for b in batches))
    heap = driver.table.heap
    heap_bytes = heap.pool.n_slots * heap.page_size
    if heap_bytes:
        _peak(c, "memalloc.heap.table_over_heap", report.table_bytes / heap_bytes)


def _count_insert(c, args, success):
    _add(c, "core.organizations.insert.records", len(args[3]))


def _count_mutate(c, args, success):
    _add(c, "core.organizations.mutate.ops", len(args[3]))


def _count_eviction(c, args, report):
    _add(c, "memalloc.heap.pages_evicted", report.pages_evicted)
    _add(c, "memalloc.heap.bytes_evicted", report.bytes_evicted)


def _count_result(c, args, mapping):
    _add(c, "core.hashtable.result.keys", len(mapping))


def _count_lookup(c, args, result):
    _add(c, "core.lookup.queries", len(result.values))
    _add(c, "core.lookup.iterations", result.iterations)
    _add(c, "core.lookup.postponed", result.postponed_total)
    _add(c, "core.lookup.segments_paged_in", result.segments_paged_in)


def _count_allocate(c, args, allocation):
    _add(c, "memalloc.allocator.requests", 1)
    _add(c, "memalloc.allocator.denied", allocation is None)


def _count_allocate_many(c, args, bulk):
    _add(c, "memalloc.allocator.requests", len(bulk.ok))
    _add(c, "memalloc.allocator.denied", len(bulk.ok) - int(bulk.ok.sum()))


def _count_alloc_page(c, args, page):
    _add(c, "memalloc.allocator.pages_taken", page is not None)


def _count_cpu_run(c, args, report):
    _add(c, "cpu.cputable.sim_s", report.elapsed_seconds)


def _count_router_drain(c, args, results):
    stats = args[0].stats
    flushes = (
        stats["chunk_flushes"]
        + stats["backpressure_flushes"]
        + stats["drain_flushes"]
    )
    _add(c, "shard.router.flushes", flushes)
    _add(c, "shard.router.flushed_records", stats["flushed_chunks_records"])


#: (span name, dotted public name, counter).  A class attribute is wrapped
#: on the class and on every subclass that overrides it; a module-level
#: function is wrapped in its module and in every loaded ``repro`` module
#: that imported it by name.
TRACE_POINTS: tuple[tuple[str, str, Counter | None], ...] = (
    ("apps.parse:parse_chunk", "repro.apps.base.Application.parse_chunk", _count_parse),
    ("apps.parse:partition", "repro.apps.base.Application.partition", None),
    ("bigkernel.partition:lines", "repro.bigkernel.partitioner.partition_lines", _count_chunks),
    ("bigkernel.partition:by_shard", "repro.bigkernel.partitioner.partition_by_shard", _count_chunks),
    ("bigkernel.pipeline:account", "repro.bigkernel.pipeline.BigKernelPipeline.account", _count_pipeline),
    ("mapreduce.runtime:run", "repro.mapreduce.runtime.MapReduceRuntime.run", None),
    ("core.session:init", "repro.core.session.GpuSession.__init__", None),
    ("core.session:build_table", "repro.core.session.GpuSession.build_table", None),
    ("core.records.pack:from_pairs", "repro.core.records.RecordBatch.from_pairs", None),
    ("core.records.pack:from_numeric", "repro.core.records.RecordBatch.from_numeric", None),
    ("core.records.pack:from_ops", "repro.core.mutations.MutationBatch.from_ops", None),
    ("core.records.cache:hashes", "repro.core.records.BatchCache.hashes", None),
    ("core.records.cache:bucket_ids", "repro.core.records.BatchCache.bucket_ids", None),
    ("core.records.cache:grouping", "repro.core.records.BatchCache.grouping", None),
    ("core.records.cache:key_bytes_list", "repro.core.records.BatchCache.key_bytes_list", None),
    ("core.records.cache:value_bytes_list", "repro.core.records.BatchCache.value_bytes_list", None),
    ("core.sepo:run", "repro.core.sepo.SepoDriver.run", None),
    ("core.sepo:begin", "repro.core.sepo.SepoDriver.begin", _count_sepo_begin),
    ("core.sepo:run_pass", "repro.core.sepo.SepoDriver.run_pass", None),
    ("core.sepo:finish_iteration", "repro.core.sepo.SepoDriver.finish_iteration", None),
    ("core.sepo:finalize", "repro.core.sepo.SepoDriver.finalize", _count_sepo_finalize),
    ("core.hashtable.apply:apply_batch", "repro.core.hashtable.GpuHashTable.apply_batch", None),
    ("core.hashtable.end_iteration:end_iteration", "repro.core.hashtable.GpuHashTable.end_iteration", _count_eviction),
    ("core.hashtable.result:result", "repro.core.hashtable.GpuHashTable.result", _count_result),
    ("core.organizations.insert:insert_indices", "repro.core.organizations.Organization.insert_indices", _count_insert),
    ("core.organizations.mutate:mutate_indices", "repro.core.organizations.Organization.mutate_indices", _count_mutate),
    ("core.organizations.end_iteration:end_iteration", "repro.core.organizations.Organization.end_iteration", None),
    ("core.chainview:materialize_chains", "repro.core.chainview.materialize_chains", None),
    ("core.chainview:get_many", "repro.core.chainview.ChainViewStore.get_many", None),
    ("core.lookup:lookup", "repro.core.lookup.LookupDriver.lookup", _count_lookup),
    ("memalloc.allocator:allocate", "repro.memalloc.allocator.BucketGroupAllocator.allocate", _count_allocate),
    ("memalloc.allocator:allocate_many", "repro.memalloc.allocator.BucketGroupAllocator.allocate_many", _count_allocate_many),
    ("memalloc.heap.evict:evict", "repro.memalloc.heap.GpuHeap.evict", None),
    ("memalloc.heap.evict:evict_all", "repro.memalloc.heap.GpuHeap.evict_all", None),
    ("memalloc.heap.page_in:page_in", "repro.memalloc.heap.GpuHeap.page_in", None),
    ("memalloc.heap.alloc_page:alloc_page", "repro.memalloc.heap.GpuHeap.alloc_page", _count_alloc_page),
    ("gpusim.kernel:charge", "repro.gpusim.kernel.KernelModel.charge", None),
    ("gpusim.pcie:bulk", "repro.gpusim.pcie.PCIeBus.bulk", None),
    ("gpusim.pcie:small", "repro.gpusim.pcie.PCIeBus.small", None),
    ("gpusim.pcie:overlapped", "repro.gpusim.pcie.PCIeBus.overlapped", None),
    ("cpu.cputable:run", "repro.cpu.cputable.CpuHashTable.run", _count_cpu_run),
    ("shard.executor:run", "repro.shard.executor.ShardedExecutor.run", None),
    ("shard.executor:result", "repro.shard.executor.ShardedExecutor.result", None),
    ("shard.executor.partition:partition", "repro.shard.executor.ShardedExecutor.partition", None),
    ("shard.router:submit", "repro.shard.router.ShardRouter.submit", None),
    ("shard.router:drain", "repro.shard.router.ShardRouter.drain", _count_router_drain),
)

#: every per-layer metric the traced pass reports, with its unit; a metric
#: a workload does not exercise reads 0, it is never left out
PER_LAYER_METRICS: dict[str, str] = {
    "apps.parse.self_s": "s",
    "apps.parse.records": "count",
    "bigkernel.partition.self_s": "s",
    "bigkernel.partition.chunks": "count",
    "bigkernel.pipeline.self_s": "s",
    "bigkernel.pipeline.hidden_sim_s": "sim_s",
    "mapreduce.runtime.self_s": "s",
    "core.session.self_s": "s",
    "core.records.pack.self_s": "s",
    "core.records.cache.self_s": "s",
    "core.records.cache.calls": "count",
    "core.sepo.self_s": "s",
    "core.sepo.runs": "count",
    "core.sepo.iterations": "count",
    "core.sepo.attempted": "count",
    "core.sepo.postponed": "count",
    "core.sepo.useful_ratio": "ratio",
    "core.sepo.restream_ratio": "ratio",
    "core.hashtable.apply.self_s": "s",
    "core.hashtable.apply.calls": "count",
    "core.hashtable.apply.p50_ms": "ms",
    "core.hashtable.apply.p99_ms": "ms",
    "core.hashtable.end_iteration.self_s": "s",
    "core.hashtable.result.self_s": "s",
    "core.hashtable.result.keys": "count",
    "core.organizations.insert.self_s": "s",
    "core.organizations.insert.records": "count",
    "core.organizations.mutate.self_s": "s",
    "core.organizations.mutate.ops": "count",
    "core.organizations.end_iteration.self_s": "s",
    "core.chainview.self_s": "s",
    "core.chainview.calls": "count",
    "core.lookup.self_s": "s",
    "core.lookup.queries": "count",
    "core.lookup.iterations": "count",
    "core.lookup.postponed": "count",
    "core.lookup.segments_paged_in": "count",
    "memalloc.allocator.self_s": "s",
    "memalloc.allocator.requests": "count",
    "memalloc.allocator.denied_ratio": "ratio",
    "memalloc.allocator.pages_taken": "count",
    "memalloc.heap.evict.self_s": "s",
    "memalloc.heap.page_in.self_s": "s",
    "memalloc.heap.alloc_page.self_s": "s",
    "memalloc.heap.pages_evicted": "count",
    "memalloc.heap.bytes_evicted": "bytes",
    "memalloc.heap.table_over_heap": "ratio",
    "gpusim.kernel.self_s": "s",
    "gpusim.pcie.self_s": "s",
    "gpusim.sim.compute_s": "sim_s",
    "gpusim.sim.memory_s": "sim_s",
    "gpusim.sim.atomic_s": "sim_s",
    "gpusim.sim.pcie_s": "sim_s",
    "gpusim.sim.launch_s": "sim_s",
    "gpusim.sim.maintenance_s": "sim_s",
    "gpusim.sim.host_s": "sim_s",
    "gpusim.speedup_vs_cpu_gmean": "x",
    "cpu.cputable.self_s": "s",
    "cpu.cputable.run.total_s": "s",
    "cpu.cputable.sim_s": "sim_s",
    "shard.executor.self_s": "s",
    "shard.executor.partition.self_s": "s",
    "shard.executor.sim_makespan_s": "sim_s",
    "shard.executor.parallel_speedup": "x",
    "shard.executor.overlap_efficiency": "ratio",
    "shard.router.self_s": "s",
    "shard.router.submit.p50_ms": "ms",
    "shard.router.submit.p99_ms": "ms",
    "shard.router.flushes": "count",
    "shard.router.records_per_flush": "count",
    "bench.traced_wall_s": "s",
    "bench.untraced_self_s": "s",
    "bench.trace_overhead_pct": "%",
    "bench.wall_spread_pct": "%",
    "bench.wall_raw_s": "s",
    "bench.failed_share": "ratio",
}


class Tracer:
    """Installs and removes the span wrappers; holds spans and counts."""

    def __init__(self, points=None) -> None:
        self.points = TRACE_POINTS if points is None else points
        #: one ``[name, start, end, parent index, run id]`` per call
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        #: set by the workload before each of its runs; spans carry it
        self.run_id = 0
        #: dotted names of TRACE_POINTS that no longer resolve
        self.missing: list[str] = []
        self._stack: list[int] = []
        #: (namespace, attribute, original, installed wrapper)
        self._patches: list[tuple[Any, str, Any, Any]] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    # ------------------------------------------------------------------
    def install(self) -> None:
        for name, target, counter in self.points:
            try:
                holders = _holders(target)
            except (ImportError, AttributeError):
                self.missing.append(target)
                warnings.warn(f"trace point {target} no longer exists; its spans are skipped")
                continue
            for holder, attr in holders:
                raw = vars(holder)[attr]
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapper = type(raw)(self._wrap(name, raw.__func__, counter))
                else:
                    wrapper = self._wrap(name, raw, counter)
                setattr(holder, attr, wrapper)
                self._patches.append((holder, attr, raw, wrapper))

    def remove(self) -> None:
        """Put every original back, wherever a wrapper is bound now."""
        for holder, attr, raw, wrapper in reversed(self._patches):
            setattr(holder, attr, raw)
            if not isinstance(holder, type):
                # a module imported while tracing was on bound the wrapper
                for module in _repro_modules():
                    if vars(module).get(attr) is wrapper:
                        setattr(module, attr, raw)
        self._patches.clear()

    def _wrap(self, name: str, fn: Callable, counter: Counter | None) -> Callable:
        spans, stack, counts, clock = (
            self.spans, self._stack, self.counts, time.perf_counter,
        )

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced


def _resolve(target: str) -> tuple[Any, str]:
    """``(owner, attribute)`` of a dotted name: the module or class that
    holds it."""
    parts = target.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:-1]:
            owner = getattr(owner, part)
        getattr(owner, parts[-1])  # AttributeError when the target is gone
        return owner, parts[-1]
    raise ImportError(target)


def _holders(target: str) -> list[tuple[Any, str]]:
    """Every namespace that binds ``target``, as ``(namespace, attribute)``:
    the class and each subclass that overrides it, or each loaded ``repro``
    module that holds the function."""
    owner, attr = _resolve(target)
    if isinstance(owner, type):
        return [(c, attr) for c in [owner, *_subclasses(owner)] if attr in vars(c)]
    original = getattr(owner, attr)
    return [(m, attr) for m in _repro_modules() if vars(m).get(attr) is original]


def _subclasses(cls: type) -> list[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def _repro_modules() -> list:
    return [
        m for n, m in list(sys.modules.items())
        if m is not None and (n == "repro" or n.startswith("repro."))
    ]


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    own = [end - start for _name, start, end, _parent, _run in spans]
    for _name, start, end, parent, _run in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _percentile(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(
    spans: list[list], counts: dict[str, float], wall_s: float
) -> dict[str, float]:
    """The span- and count-derived per-layer metrics of one traced pass.

    ``wall_s`` is the pass's wall time; what no span covers becomes
    ``bench.untraced_self_s``.  Metrics that come from the workload itself
    (simulated-time breakdown, harness diagnostics) are added by the caller.
    """
    out = {name: 0.0 for name in PER_LAYER_METRICS}
    inclusive: dict[str, list[float]] = {}
    covered = 0.0
    for (name, start, end, parent, _run), own in zip(spans, self_times(spans)):
        out[name.split(":")[0] + ".self_s"] += own
        inclusive.setdefault(name, []).append(end - start)
        if parent < 0:
            covered += end - start
    for name in PER_LAYER_METRICS:
        if name in counts:
            out[name] = float(counts[name])

    def calls(prefix: str) -> int:
        return sum(len(v) for n, v in inclusive.items() if n.startswith(prefix))

    out["core.records.cache.calls"] = calls("core.records.cache:")
    out["core.chainview.calls"] = calls("core.chainview:")
    applies = inclusive.get("core.hashtable.apply:apply_batch", [])
    out["core.hashtable.apply.calls"] = len(applies)
    out["core.hashtable.apply.p50_ms"] = 1e3 * _percentile(applies, 50)
    out["core.hashtable.apply.p99_ms"] = 1e3 * _percentile(applies, 99)
    submits = inclusive.get("shard.router:submit", [])
    out["shard.router.submit.p50_ms"] = 1e3 * _percentile(submits, 50)
    out["shard.router.submit.p99_ms"] = 1e3 * _percentile(submits, 99)
    out["cpu.cputable.run.total_s"] = sum(inclusive.get("cpu.cputable:run", []))

    attempted = counts.get("core.sepo.attempted", 0)
    if attempted:
        out["core.sepo.useful_ratio"] = counts["core.sepo.succeeded"] / attempted
    if counts.get("core.sepo.input_bytes"):
        out["core.sepo.restream_ratio"] = (
            counts["core.sepo.streamed_bytes"] / counts["core.sepo.input_bytes"]
        )
    if counts.get("memalloc.allocator.requests"):
        out["memalloc.allocator.denied_ratio"] = (
            counts["memalloc.allocator.denied"]
            / counts["memalloc.allocator.requests"]
        )
    if counts.get("shard.router.flushes"):
        out["shard.router.records_per_flush"] = (
            counts["shard.router.flushed_records"] / counts["shard.router.flushes"]
        )
    out["bench.traced_wall_s"] = wall_s
    out["bench.untraced_self_s"] = wall_s - covered
    return out
