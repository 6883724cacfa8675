"""Host-side wall-clock throughput: scalar reference vs vectorized kernels.

Where the rest of the suite reports *simulated device time*, this
benchmark times the Python implementation itself: each organization's
``slow_reference`` loop against its ``vectorized`` default on the same
workload.  It exports ``BENCH_hostperf.json`` at the repo root, keyed by
``n_records``, so the perf trajectory can be tracked at the classic 64k
scale::

    PYTHONPATH=src python benchmarks/bench_hostperf.py            # 64k tier
    PYTHONPATH=src python benchmarks/bench_hostperf.py --n 8192 --repeats 1
    PYTHONPATH=src python -m pytest benchmarks/bench_hostperf.py -q

The cells: inserts under two key distributions, ``uniform`` and ``zipf``
(zipf(1.05) over a reduced keyspace, where the pre-aggregating kernels
collapse runs of duplicates), with a ``combining-f64`` row (``SUM_F64``
over values of mixed magnitude) beside the three organizations;
``result``, the CPU-side read of a finished two-iteration table, bulk
against per-entry merge; ``mixed-ops``, interleaved insert/update/delete/
lookup batches, batched kernel against the loop, and beside it the
``mixed_sweep`` behind ``organizations.policy.MIXED_KERNEL_MIN_OPS`` (the
same stream in batches of 64 ... 2,048 ops, kernel forced on, on a fresh
table and on one several times its heap); ``integrity-overhead``, insert +
iteration boundary under ``integrity`` off|verify|scrub; ``shard_scaling``
(simulated makespan beside the host ``wall_rps`` of
``ShardedExecutor.run``) and ``router`` (small client batches through
``ShardRouter``); ``lookup``, 4,096 queries, half misses, on a table four
times its heap, batched passes against per-entry walks; ``pressure``,
multi-valued inserts across and after pool exhaustion, kernel against
loop; ``end-iteration``, one partial-retention multi-valued boundary,
splice in bulk against entry by entry; ``input_side``, span parsers
against the list path; and ``allocator``, ``allocate_many`` against one
``allocate`` a request at 64 x 16, 1,024 x 256 and 16,384 x 1,024.

The numbers are tracked, not gated: a ratio of two timed arms moves with
the machine's hour.  That each batched path beats the loop it replaced is
gated in tier 1 by ``tests/test_counted_gates.py``, in lines of Python
counted, not seconds.  The one gate left here,
:func:`test_shard_scaling_smoke`, reads the simulated clock.
"""

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro.core import (
    BasicOrganization,
    CombiningOrganization,
    GpuHashTable,
    MultiValuedOrganization,
    MutationBatch,
    OP_DELETE,
    OP_INSERT,
    OP_LOOKUP,
    OP_UPDATE,
    RecordBatch,
    SUM_F64,
    SUM_I64,
    SepoDriver,
)
from repro.core.organizations import policy as org_policy
from repro.apps import (
    ALL_APPS,
    DnaAssembly,
    Netflix,
    PageViewCount,
    WordCount,
)
from repro.apps.pvc import _extract_url
from repro.bench.config import GB, BenchConfig
from repro.core.lookup import LookupDriver
from repro.core.session import GpuSession
from repro.gpusim import CostLedger, GTX_780TI, KernelModel, PCIeBus
from repro.memalloc import BucketGroupAllocator, GpuHeap
from repro.shard import ShardedExecutor, ShardRouter

REPO_ROOT = Path(__file__).resolve().parent.parent
EXPORT_PATH = REPO_ROOT / "BENCH_hostperf.json"

#: the classic reference workload: 64k inserts
FULL_N = 65_536
DISTRIBUTIONS = ("uniform", "zipf")
KINDS = ("basic", "combining", "multi-valued")
#: rows of the 64k insert cells: the organizations, plus the combining
#: organization once more under an f64 combiner
INSERT_KINDS = KINDS + ("combining-f64",)


def make_workload(n: int, dist: str = "uniform", seed: int = 42):
    rng = np.random.default_rng(seed)
    if dist == "uniform":
        ranks = rng.integers(0, n, size=n)
    elif dist == "zipf":  # the conformance matrix's zipf105 law, n/8 ranks
        k = max(16, n // 8)
        p = 1.0 / np.arange(1, k + 1, dtype=np.float64) ** 1.05
        ranks = rng.choice(k, size=n, p=p / p.sum())
    else:
        raise ValueError(f"unknown distribution {dist!r}")
    keys = [b"key-%08d" % i for i in ranks]
    values = [b"value-%016d" % i for i in range(n)]
    return keys, values


def heap_bytes_for(n: int) -> int:
    """Heap size that keeps a fresh-table insert of ``n`` records
    postponement-free: the classic 48MB up to a few hundred k records,
    256MB beyond (``--n`` takes any size)."""
    return (48 << 20) if n <= 4 * FULL_N else (256 << 20)


def make_table(kind: str, impl: str, n: int, **kwargs) -> GpuHashTable:
    """The benchmark table: fixed 4096-bucket shape at every tier, so
    larger ``n`` means proportionally deeper chains, not wider tables."""
    heap = GpuHeap(heap_bytes=heap_bytes_for(n), page_size=64 << 10)
    return GpuHashTable(
        4096, make_org(kind, impl), heap, group_size=64, **kwargs
    )


def make_org(kind: str, impl: str):
    if kind == "basic":
        return BasicOrganization(impl=impl)
    if kind == "combining":
        return CombiningOrganization(SUM_I64, impl=impl)
    if kind == "combining-f64":
        return CombiningOrganization(SUM_F64, impl=impl)
    return MultiValuedOrganization(impl=impl)


def make_batch(kind: str, keys, values):
    if kind == "combining":
        return RecordBatch.from_numeric(
            keys, np.ones(len(keys), dtype=np.int64)
        )
    if kind == "combining-f64":
        # mixed magnitudes: sums whose rounding depends on association
        n = np.arange(len(keys), dtype=np.float64)
        return RecordBatch.from_numeric(keys, (n + 0.1) * 10.0 ** (n % 17 - 8))
    return RecordBatch.from_pairs(list(zip(keys, values)))


def insert_rps(kind: str, impl: str, keys, values, repeats: int = 3) -> float:
    """Best-of-``repeats`` records/sec for one full-batch insert.

    A fresh table per repeat (a generous heap, so nothing is postponed);
    the batch is rebuilt too, so hash caching is *inside* the measurement,
    exactly as the SEPO driver would pay it on a first pass.
    """
    n = len(keys)
    best = 0.0
    for _ in range(repeats):
        batch = make_batch(kind, keys, values)
        table = make_table(kind, impl, n)
        t0 = time.perf_counter()
        result = table.insert_batch(batch)
        dt = time.perf_counter() - t0
        assert result.success.all(), "workload must not be postponed"
        best = max(best, n / dt)
    return best


def result_kps(kind: str, keys, values, repeats: int = 3) -> dict:
    """Best-of-``repeats`` keys/sec of ``result()`` on a finished table.

    The table is loaded in two iterations, so every reader sees evicted
    segments and keys split across entries.  Both readers run over the
    very same table: the per-entry merge is what ``result()`` does once
    the organization says ``slow_reference``.
    """
    table = make_table(kind, "vectorized", len(keys))
    half = len(keys) // 2
    for lo in (0, half):
        batch = make_batch(kind, keys[lo : lo + half], values[lo : lo + half])
        assert table.insert_batch(batch).success.all()
        table.end_iteration()
    best = {"slow_reference": 0.0, "vectorized": 0.0}
    for _ in range(repeats):
        # both readers inside every repeat: this box changes speed for
        # seconds at a time, and one arm per window would measure that
        for impl in best:
            table.org.impl = impl
            t0 = time.perf_counter()
            out = table.result()
            dt = time.perf_counter() - t0
            best[impl] = max(best[impl], len(out) / dt)
    return {
        "scalar_kps": round(best["slow_reference"]),
        "vectorized_kps": round(best["vectorized"]),
        "speedup": round(best["vectorized"] / best["slow_reference"], 2),
    }


#: op mix of the mixed-op cell (insert/update/delete/lookup); matches the
#: differential suite's seeded streams
MIXED_OP_P = (0.45, 0.20, 0.15, 0.20)


def make_mixed_ops(n: int, seed: int = 42, keyspace: int | None = None):
    """Seeded mixed-op triples over ``keyspace`` keys (default n/8)."""
    rng = np.random.default_rng(seed)
    ops = rng.choice(
        [OP_INSERT, OP_UPDATE, OP_DELETE, OP_LOOKUP], size=n, p=MIXED_OP_P
    )
    ranks = rng.integers(0, keyspace or max(16, n // 8), size=n)
    return [
        (int(op), b"key-%08d" % r, i)
        for i, (op, r) in enumerate(zip(ops, ranks))
    ]


def make_mutation(kind: str, triples):
    if kind == "combining":
        return MutationBatch.from_ops(triples, numeric_dtype=np.int64)
    return MutationBatch.from_ops(
        [(op, k, b"value-%016d" % v) for op, k, v in triples]
    )


def mutate_rps(kind: str, impl: str, triples, repeats: int = 3) -> float:
    """Best-of-``repeats`` ops/sec for one full mixed-op mutation batch."""
    n = len(triples)
    best = 0.0
    for _ in range(repeats):
        batch = make_mutation(kind, triples)
        table = make_table(kind, impl, n)
        t0 = time.perf_counter()
        result = table.mutate_batch(batch)
        dt = time.perf_counter() - t0
        assert result.success.all(), "workload must not be postponed"
        best = max(best, n / dt)
    return best


#: integrity knob settings of the checksum-overhead cell
INTEGRITY_CELL_MODES = ("off", "verify", "scrub")


def integrity_rps(kind: str, mode: str, keys, values, repeats: int = 3) -> float:
    """Best-of-``repeats`` records/sec through a full iteration boundary.

    Times ``insert_batch`` + ``end_iteration`` + ``maybe_scrub`` so the
    eviction-path checksum work is inside the measurement: quiescing
    evicts every page, which in verify/scrub mode seals each one and
    verifies the copy on arrival; scrub mode then adds one budgeted
    background sweep over the stored segments.
    """
    n = len(keys)
    best = 0.0
    for _ in range(repeats):
        batch = make_batch(kind, keys, values)
        table = make_table(
            kind, "vectorized", n, integrity=mode, scrub_budget=8
        )
        t0 = time.perf_counter()
        result = table.insert_batch(batch)
        table.end_iteration()
        table.maybe_scrub()
        dt = time.perf_counter() - t0
        assert result.success.all(), "workload must not be postponed"
        best = max(best, n / dt)
    return best


def integrity_row(kind: str, keys, values, repeats: int = 3) -> dict:
    """One organization's row of the integrity-overhead cell."""
    rps = dict.fromkeys(INTEGRITY_CELL_MODES, 0.0)
    for _ in range(repeats):
        # every mode inside every repeat (see result_kps)
        for mode in rps:
            rps[mode] = max(
                rps[mode], integrity_rps(kind, mode, keys, values, 1)
            )
    return {
        **{f"{mode}_rps": round(v) for mode, v in rps.items()},
        "verify_overhead_pct": round(
            100.0 * (rps["off"] / rps["verify"] - 1.0), 1
        ),
        "scrub_overhead_pct": round(
            100.0 * (rps["off"] / rps["scrub"] - 1.0), 1
        ),
    }


#: batch sizes of the cut-over sweep, and the ops each cell streams
SWEEP_SIZES = (64, 128, 256, 512, 768, 1024, 2048)
SWEEP_OPS = 8192
#: the sweep's tables: the shape of the benchmark of record's ``kv_mixed``
SWEEP_BUCKETS, SWEEP_PAGE, SWEEP_KEYSPACE = 1024, 4 << 10, 4096
SWEEP_HEAP = {"fresh": 8 << 20, "part-evicted": 256 << 10}


def _loaded_table(kind: str, heap_bytes: int, load_ops: int):
    """A table of the sweep's shape with its kernel model and bus, loaded
    by ``load_ops`` seeded mixed ops run to completion (and so, as after
    every finished SEPO run, evicted): with a heap a fraction of what that
    takes, chains that run on into evicted memory and a CPU-side image
    several times the heap."""
    ledger = CostLedger()
    table = GpuHashTable(
        SWEEP_BUCKETS, make_org(kind, "vectorized"),
        GpuHeap(heap_bytes, SWEEP_PAGE), group_size=64, ledger=ledger,
    )
    kernel, bus = KernelModel(GTX_780TI, ledger), PCIeBus(ledger)
    load = make_mixed_ops(load_ops, 3, SWEEP_KEYSPACE)
    SepoDriver(table, kernel, bus).run(
        [make_mutation(kind, load[lo:lo + 2048])
         for lo in range(0, len(load), 2048)]
    )
    return table, kernel, bus


def _sweep_table(kind: str, impl: str, state: str) -> GpuHashTable:
    """An empty table with room for the whole stream, or one loaded by
    16k mixed ops into a heap a fraction of its size."""
    load_ops = 2 * SWEEP_OPS if state == "part-evicted" else 0
    table = _loaded_table(kind, SWEEP_HEAP[state], load_ops)[0]
    table.org.impl = impl
    return table


def sweep_rps(kind, impl, state, size, repeats: int = 3) -> float:
    """Best-of-``repeats`` ops/sec for :data:`SWEEP_OPS` mixed ops issued
    ``size`` at a time (postponed ops are not reissued: both arms do the
    same work on bit-identical tables)."""
    stream = make_mixed_ops(SWEEP_OPS, 7, SWEEP_KEYSPACE)
    best = 0.0
    for _ in range(repeats):
        table = _sweep_table(kind, impl, state)
        batches = [
            make_mutation(kind, stream[lo:lo + size])
            for lo in range(0, SWEEP_OPS, size)
        ]
        t0 = time.perf_counter()
        for batch in batches:
            table.mutate_batch(batch)
        best = max(best, SWEEP_OPS / (time.perf_counter() - t0))
    return best


def mixed_sweep(repeats: int = 3, sizes=SWEEP_SIZES) -> dict:
    """The cut-over sweep: batched kernel (forced on at every size) against
    the scalar loop, per organization, table state and batch size."""
    shipped = org_policy.MIXED_KERNEL_MIN_OPS
    org_policy.MIXED_KERNEL_MIN_OPS = 0
    try:
        rows = {}
        for state in SWEEP_HEAP:
            for kind in KINDS:
                for size in sizes:
                    loop = sweep_rps(kind, "slow_reference", state, size, repeats)
                    kernel = sweep_rps(kind, "vectorized", state, size, repeats)
                    rows[f"{state}/{kind}/{size}"] = {
                        "loop_rps": round(loop),
                        "kernel_rps": round(kernel),
                        "kernel_over_loop": round(kernel / loop, 2),
                    }
    finally:
        org_policy.MIXED_KERNEL_MIN_OPS = shipped
    return {"cut_over_ops": shipped, "ops_per_cell": SWEEP_OPS, "rows": rows}


#: the lookup cell: a 24k mixed-op load (the sweep's table shape), then
#: 4,096 queries over twice the keyspace -- half were never written
LOOKUP_LOAD_OPS = 24_576
LOOKUP_QUERIES = 4_096
#: heap pages under which that load finishes as a table four times the heap
#: (3.9-4.0x; a smaller heap evicts emptier pages, so the table grows as the
#: heap shrinks and the size has to be found, not computed)
LOOKUP_HEAP_PAGES = {"basic": 64, "combining": 35, "multi-valued": 96}


def lookup_cell(repeats: int = 3, kinds=KINDS) -> dict:
    """SEPO lookups, batched pass against the per-entry walk: best-of-
    ``repeats`` queries/sec of one ``LookupDriver.lookup`` per
    organization (a fresh table per measurement: a lookup pages segments
    in), with the passes it took and the pages it paged in -- the same
    under both implementations, to the digit."""
    rng = np.random.default_rng(5)
    queries = [
        b"key-%08d" % r
        for r in rng.integers(0, 2 * SWEEP_KEYSPACE, size=LOOKUP_QUERIES)
    ]
    rows = {}
    for kind in kinds:
        heap_bytes = LOOKUP_HEAP_PAGES[kind] * SWEEP_PAGE
        best = {"slow_reference": 0.0, "vectorized": 0.0}
        for _ in range(repeats):
            # both arms inside every repeat (see result_kps)
            for impl in best:
                table, kernel, bus = _loaded_table(
                    kind, heap_bytes, LOOKUP_LOAD_OPS
                )
                table.org.impl = impl
                driver = LookupDriver(table, kernel, bus)
                t0 = time.perf_counter()
                res = driver.lookup(queries)
                dt = time.perf_counter() - t0
                best[impl] = max(best[impl], len(queries) / dt)
        rows[kind] = {
            "scalar_qps": round(best["slow_reference"]),
            "batched_qps": round(best["vectorized"]),
            "speedup": round(best["vectorized"] / best["slow_reference"], 2),
            "passes": res.iterations,
            "pages_paged_in": res.segments_paged_in,
            "table_over_heap": round(
                table.heap.total_table_bytes / heap_bytes, 2
            ),
        }
    return rows


#: the pressure cell: two 16k-record multi-valued batches into a heap that
#: holds about half of the first (the sweep's table shape)
PRESSURE_RECORDS = 16_384
PRESSURE_HEAP_PAGES = 160


def pressure_cell(repeats: int = 3) -> dict:
    """Multi-valued inserts under pool pressure, kernel against loop:
    best-of-``repeats`` records/sec of one ``insert_batch`` that exhausts
    the pool in mid-batch (``crossing``) and of the next one, which finds
    it dry (``dry``; no eviction in between), with the share of its
    records each postpones -- the same under both implementations."""
    batches = [
        make_workload(PRESSURE_RECORDS, "uniform", seed) for seed in (42, 43)
    ]
    best = {
        (state, impl): 0.0 for state in ("crossing", "dry")
        for impl in ("slow_reference", "vectorized")
    }
    postponed = {}
    for _ in range(repeats):
        # both arms inside every repeat (see result_kps)
        for impl in ("slow_reference", "vectorized"):
            table = GpuHashTable(
                SWEEP_BUCKETS, make_org("multi-valued", impl),
                GpuHeap(PRESSURE_HEAP_PAGES * SWEEP_PAGE, SWEEP_PAGE),
                group_size=64,
            )
            for state, (keys, values) in zip(("crossing", "dry"), batches):
                batch = make_batch("multi-valued", keys, values)
                dry_on_entry = table.heap.pool.n_free == 0
                t0 = time.perf_counter()
                result = table.insert_batch(batch)
                dt = time.perf_counter() - t0
                assert dry_on_entry == (state == "dry")
                assert table.heap.pool.n_free == 0, "the heap must run dry"
                best[state, impl] = max(best[state, impl], len(keys) / dt)
                share = 1.0 - float(result.success.mean())
                assert postponed.setdefault(state, share) == share
    return {
        state: {
            "loop_rps": round(best[state, "slow_reference"]),
            "kernel_rps": round(best[state, "vectorized"]),
            "speedup": round(
                best[state, "vectorized"] / best[state, "slow_reference"], 2
            ),
            "postponed_share": round(postponed[state], 3),
        }
        for state in ("crossing", "dry")
    }


def end_iteration_cell(repeats: int = 3) -> dict:
    """The multi-valued iteration boundary, bulk splice against the
    per-entry one: best-of-``repeats`` milliseconds of one
    ``end_iteration`` of the lookup cell's table (four times its heap)
    after one more batch applied once -- the postponed ops pin their key
    pages, so part of the heap stays and every resident bucket's chain is
    relinked over it -- with what it spliced, the same under both."""
    heap_bytes = LOOKUP_HEAP_PAGES["multi-valued"] * SWEEP_PAGE
    last = make_mutation(
        "multi-valued", make_mixed_ops(2048, 11, SWEEP_KEYSPACE)
    )
    best = {"slow_reference": float("inf"), "vectorized": float("inf")}
    spliced = set()
    for _ in range(repeats):
        # both arms inside every repeat (see result_kps)
        for impl in best:
            table = _loaded_table("multi-valued", heap_bytes, LOOKUP_LOAD_OPS)[0]
            table.mutate_batch(last)
            table.org.impl = impl
            t0 = time.perf_counter()
            report = table.end_iteration()
            best[impl] = min(best[impl], time.perf_counter() - t0)
            spliced.add((report.entries_spliced, report.pages_retained,
                         report.pages_evicted, report.forced_full_eviction))
    (entries, retained, evicted, forced), = spliced
    assert retained and evicted and not forced, "not a partial retention"
    return {
        "loop_ms": round(1e3 * best["slow_reference"], 3),
        "bulk_ms": round(1e3 * best["vectorized"], 3),
        "speedup": round(best["slow_reference"] / best["vectorized"], 2),
        "entries_spliced": entries,
        "pages_retained": retained,
        "pages_evicted": evicted,
        "table_over_heap": round(table.heap.total_table_bytes / heap_bytes, 2),
    }


#: the allocator cell's shapes, requests x bucket groups: a router-sized
#: call, a SEPO chunk, a whole 16k-record batch over a table's groups
ALLOCATOR_SHAPES = ((64, 16), (1024, 256), (16_384, 1024))


def allocator_cell(repeats: int = 3) -> dict:
    """``BucketGroupAllocator.allocate_many`` against one ``allocate`` per
    request: best-of-``repeats`` requests/sec per shape of
    :data:`ALLOCATOR_SHAPES`.  Every bucket group enters holding a current
    page filled to a random mark, requests are 32-256 bytes to uniformly
    drawn groups, the pool never runs dry; both arms start from equal
    allocators and end with equal stats.  A repeat times enough calls
    (each on its own allocator) to cover 4,096 requests per arm."""
    rows = {}
    for n, n_groups in ALLOCATOR_SHAPES:
        rng = np.random.default_rng(n)
        groups = rng.integers(0, n_groups, size=n).astype(np.int64)
        sizes = (rng.integers(4, 33, size=n) * 8).astype(np.int64)
        marks = (rng.integers(0, SWEEP_PAGE // 8, size=n_groups) * 8).tolist()
        n_pages = 2 * n_groups + int(sizes.sum()) // SWEEP_PAGE
        calls = max(1, 4096 // n)

        def allocators():
            made = []
            for _ in range(calls):
                alloc = BucketGroupAllocator(
                    GpuHeap(n_pages * SWEEP_PAGE, SWEEP_PAGE), n_groups
                )
                for g, mark in enumerate(marks):
                    if mark:
                        alloc.allocate(g, mark)
                made.append(alloc)
            return made

        best = {"sequential": float("inf"), "bulk": float("inf")}
        stats = set()
        for _ in range(repeats):
            # both arms inside every repeat (see result_kps)
            for arm in best:
                made = allocators()
                t0 = time.perf_counter()
                if arm == "bulk":
                    for alloc in made:
                        alloc.allocate_many(groups, sizes)
                else:
                    for alloc in made:
                        for g, size in zip(groups.tolist(), sizes.tolist()):
                            alloc.allocate(g, size)
                best[arm] = min(best[arm], time.perf_counter() - t0)
                stats.add(tuple(vars(made[-1].stats).values()))
        assert len(stats) == 1, "the two arms allocated differently"
        rows[f"{n}x{n_groups}"] = {
            "sequential_rps": round(calls * n / best["sequential"]),
            "bulk_rps": round(calls * n / best["bulk"]),
            "speedup": round(best["sequential"] / best["bulk"], 2),
            "bulk_us_per_call": round(1e6 * best["bulk"] / calls, 1),
            "pages_taken": made[-1].stats.pages_taken - sum(map(bool, marks)),
        }
    return rows


#: the input-side cell runs every app at the size the benchmark of record
#: gives it in ``apps_fit`` (paper-scale GB, taken at scale 1/1024)
INPUT_SIDE_GB = {
    "Inverted Index": 2.0,
    "Page View Count": 0.6,
    "DNA Assembly": 0.2,
    "Netflix": 0.2,
    "Word Count": 0.2,
    "Patent Citation": 0.2,
    "Geo Location": 0.2,
}


def list_path_batch(app, chunk: bytes) -> RecordBatch:
    """The oracle's emission over ``chunk`` through the list path: what
    every ``parse_chunk`` did before it gathered spans."""
    if isinstance(app, WordCount):
        words = chunk.split()
        return RecordBatch.from_numeric(words, np.ones(len(words), dtype=np.int64))
    if isinstance(app, PageViewCount):
        urls = [
            url for url in map(_extract_url, chunk.split(b"\n")) if url is not None
        ]
        return RecordBatch.from_numeric(urls, np.ones(len(urls), dtype=np.int64))
    if isinstance(app, Netflix):
        keys, values = [], []
        for key, value in app._emit_pairs(chunk.split(b"\n")):
            keys.append(key)
            values.append(value)
        return RecordBatch.from_numeric(keys, np.array(values, dtype=np.float64))
    return RecordBatch.from_pairs(list(app._emit(chunk)))


def input_side_cell(repeats: int = 3) -> dict:
    """Chunk in hand to batch built, per application: best-of-``repeats``
    records/sec of ``parse_chunk`` over the app's chunks at its
    ``apps_fit`` size, beside the list path over the oracle's emission
    (DNA Assembly has no such oracle -- its k-mers were always a matrix --
    and carries the parser arm alone)."""
    config = BenchConfig(scale=1024, seed=0)
    chunk_bytes = GpuSession.clamp_chunk(GTX_780TI, config.scale, config.chunk_bytes)
    rows = {}
    for cls in ALL_APPS:
        app = cls()
        data = app.generate_input(
            int(INPUT_SIDE_GB[app.name] * GB / config.scale), seed=config.seed
        )
        chunks = app.partition(data, chunk_bytes)
        arms = {"parse": app.parse_chunk}
        if not isinstance(app, DnaAssembly):
            arms["list_path"] = lambda chunk: list_path_batch(app, chunk)
        best = dict.fromkeys(arms, float("inf"))
        for _ in range(repeats):
            # both arms inside every repeat (see result_kps)
            for arm, build in arms.items():
                t0 = time.perf_counter()
                records = sum(len(build(chunk)) for chunk in chunks)
                best[arm] = min(best[arm], time.perf_counter() - t0)
        row = {"records": records, "input_bytes": len(data)}
        row.update({f"{arm}_rps": round(records / dt) for arm, dt in best.items()})
        if "list_path" in best:
            row["speedup"] = round(best["list_path"] / best["parse"], 2)
        rows[app.name] = row
    return rows


def _insert_cell(kind, keys, values, repeats) -> dict:
    """One insert cell: scalar vs vectorized records/sec."""
    scalar = insert_rps(kind, "slow_reference", keys, values, repeats)
    vectorized = insert_rps(kind, "vectorized", keys, values, repeats)
    return {
        "scalar_rps": round(scalar),
        "vectorized_rps": round(vectorized),
        "speedup": round(vectorized / scalar, 2),
    }


def _mixed_cell(kind, triples, repeats) -> dict:
    """One mixed-op cell: scalar loop vs batched kernel ops/sec."""
    scalar = mutate_rps(kind, "slow_reference", triples, repeats)
    vectorized = mutate_rps(kind, "vectorized", triples, repeats)
    return {
        "scalar_rps": round(scalar),
        "vectorized_rps": round(vectorized),
        "speedup": round(vectorized / scalar, 2),
    }


#: shard counts of the (tracked, non-gated) weak-scaling cell
SHARD_COUNTS = (1, 2, 4, 8)
#: client batch size of the sharded runs: big enough that per-chunk
#: launch overhead does not swamp the multi-shard runs (whose chunks are
#: 1/count the size), small enough that every pass still streams several
#: chunks per shard, so intra-shard transfer/compute overlap is exercised
SHARD_BATCH_RECORDS = 8192


def _sharded_executor(kind: str, count: int, n: int) -> ShardedExecutor:
    """The 4096-bucket/48MB budget of an ``n``-record run, split evenly
    across ``count`` shards (weak scaling per device)."""
    return ShardedExecutor(
        count,
        lambda: make_org(kind, "vectorized"),
        n_buckets=max(64, 4096 // count),
        heap_bytes=heap_bytes_for(n) // count,
        page_size=64 << 10,
        group_size=64,
    )


def shard_scaling_cell(
    n: int,
    counts=SHARD_COUNTS,
    kind: str = "basic",
    dist: str = "uniform",
    repeats: int = 1,
) -> dict:
    """Sharded-executor scaling: both clocks per shard count.

    Fixed total work; each count splits one budget across its shards
    (:func:`_sharded_executor`), streams the input in
    :data:`SHARD_BATCH_RECORDS` client batches, and reports the
    *simulated* records/sec (records / makespan -- the slowest shard's
    clock) plus the intra-shard transfer overlap efficiency, and beside
    them ``wall_rps``: host records/sec of ``executor.run`` itself, best
    of ``repeats`` (the simulated numbers are the same every repeat).
    Tracked in ``BENCH_hostperf.json``; the CI gate is
    :func:`test_shard_scaling_smoke`.
    """
    keys, values = make_workload(n, dist)
    rows = {}
    for count in counts:
        batches = [
            make_batch(
                kind,
                keys[i : i + SHARD_BATCH_RECORDS],
                values[i : i + SHARD_BATCH_RECORDS],
            )
            for i in range(0, n, SHARD_BATCH_RECORDS)
        ]
        wall_rps = 0.0
        for _ in range(repeats):
            executor = _sharded_executor(kind, count, n)
            t0 = time.perf_counter()
            report = executor.run(batches)
            wall_rps = max(wall_rps, n / (time.perf_counter() - t0))
        rows[str(count)] = {
            "records_per_second": round(report.records_per_second),
            "wall_rps": round(wall_rps),
            "makespan_seconds": report.makespan_seconds,
            "overlap_efficiency": round(
                report.schedule["overlap_efficiency"], 3
            ),
            "parallel_speedup": round(report.schedule["parallel_speedup"], 2),
        }
    if "1" in rows:
        base = rows["1"]["records_per_second"]
        for row in rows.values():
            row["scaling_x"] = round(row["records_per_second"] / base, 2)
    return rows


#: the request-router cell: shard count, ops per client batch and the
#: router's flush threshold (the serving shape of the benchmark of record's
#: ``kv_sharded``)
ROUTER_SHARDS = 4
ROUTER_CLIENT_OPS = 256
ROUTER_CHUNK_RECORDS = 1024


def router_cell(n: int, repeats: int = 3) -> dict:
    """Request-router throughput: ``n`` mixed ops submitted
    :data:`ROUTER_CLIENT_OPS` at a time to a :data:`ROUTER_SHARDS`-shard
    table, closed loop, then drained.

    Per organization: host ops/sec (best of ``repeats``), kernel launches
    per shard flush (read off the shards' ledgers; 1.0 = every flush was
    one merged batch that needed one SEPO pass) and the simulated makespan.
    """
    triples = make_mixed_ops(n)
    rows = {}
    for kind in KINDS:
        batches = [
            make_mutation(kind, triples[i : i + ROUTER_CLIENT_OPS])
            for i in range(0, n, ROUTER_CLIENT_OPS)
        ]
        wall_ops = 0.0
        for _ in range(repeats):
            executor = _sharded_executor(kind, ROUTER_SHARDS, n)
            router = ShardRouter(executor, chunk_records=ROUTER_CHUNK_RECORDS)
            t0 = time.perf_counter()
            for batch in batches:
                router.submit(batch)
            router.drain()
            wall_ops = max(wall_ops, n / (time.perf_counter() - t0))
        flushes = sum(
            router.stats[cause]
            for cause in ("chunk_flushes", "backpressure_flushes", "drain_flushes")
        )
        launch_seconds = sum(
            ch.ledger.breakdown().get("launch", 0.0) for ch in executor.channels
        )
        rows[kind] = {
            "wall_ops_per_second": round(wall_ops),
            "flushes": flushes,
            "launches_per_flush": round(
                launch_seconds / GTX_780TI.launch_s / flushes, 2
            ),
            "makespan_seconds": executor.schedule.makespan_seconds,
        }
    return rows


def run_suite(n: int, repeats: int = 3) -> dict:
    """One tier of the report: the full cell matrix at ``n`` records."""
    distributions = {}
    for dist in DISTRIBUTIONS:
        keys, values = make_workload(n, dist)
        distributions[dist] = {
            kind: _insert_cell(kind, keys, values, repeats)
            for kind in INSERT_KINDS
        }
    # CPU-side read of the finished table: bulk reader vs per-entry merge
    keys, values = make_workload(n, "uniform")
    distributions["result"] = {
        kind: result_kps(kind, keys, values, repeats) for kind in KINDS
    }
    # mixed-op cell: the batched kernels against the scalar loop
    triples = make_mixed_ops(n)
    distributions["mixed-ops"] = {
        kind: _mixed_cell(kind, triples, repeats) for kind in KINDS
    }
    # integrity-overhead cell -- what the checksum layer costs the host
    # (CRC32 over every evicted page, plus the budgeted background sweep
    # in scrub mode)
    keys, values = make_workload(n, "uniform")
    distributions["integrity-overhead"] = {
        kind: integrity_row(kind, keys, values, repeats) for kind in KINDS
    }
    return {
        "n_records": n,
        "repeats": repeats,
        "distributions": distributions,
        # tracked, not gated (the gate is test_shard_scaling_smoke):
        # simulated aggregate throughput + overlap per shard count, and
        # the host wall-clock of the same runs
        "shard_scaling": shard_scaling_cell(n, repeats=repeats),
        # the serving path: small client batches through the router
        "router": router_cell(n, repeats),
        # the read path: one batched resolve per pass vs the per-entry walk
        "lookup": lookup_cell(repeats),
        # multi-valued inserts through pool exhaustion: kernel vs loop
        "pressure": pressure_cell(repeats),
        # the multi-valued iteration boundary: bulk splice vs per-entry
        "end-iteration": end_iteration_cell(repeats),
        # the input side: span parsers vs the list path over their oracles
        "input_side": input_side_cell(repeats),
        # the layer under every kernel: bulk allocation vs one call a request
        "allocator": allocator_cell(repeats),
        # the evidence behind organizations.policy.MIXED_KERNEL_MIN_OPS
        "mixed_sweep": mixed_sweep(repeats),
    }


def export(report: dict, path: Path = EXPORT_PATH) -> None:
    path.write_text(json.dumps(report, indent=2) + "\n")


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------
def test_mixed_ops_cell_runs(monkeypatch):
    """Non-gating: the mixed-op mutation cell must complete on every
    organization under every implementation it distinguishes, and so must
    one column of the cut-over sweep -- on the kernels: the sweep forces
    them by patching the module the dispatch reads (128-op batches are
    over the shipped cut-over of 64 as well)."""
    triples = make_mixed_ops(2048)
    for kind in KINDS:
        row = _mixed_cell(kind, triples, repeats=1)
        assert row["scalar_rps"] > 0 and row["vectorized_rps"] > 0
    small = []
    for name in ("_mutate_generic", "_mutate_multivalued"):
        real = getattr(org_policy, name)
        monkeypatch.setattr(
            org_policy, name,
            lambda *a, real=real: small.append(len(a[2]) <= 128) or real(*a),
        )
    shipped = org_policy.MIXED_KERNEL_MIN_OPS
    sweep = mixed_sweep(repeats=1, sizes=(128,))
    assert org_policy.MIXED_KERNEL_MIN_OPS == shipped == sweep["cut_over_ops"]
    assert sum(small) >= len(sweep["rows"]), "the kernel column ran the loop"
    assert set(sweep["rows"]) == {
        f"{state}/{kind}/128" for state in SWEEP_HEAP for kind in KINDS
    }
    assert all(r["kernel_rps"] > 0 < r["loop_rps"] for r in sweep["rows"].values())


def test_integrity_overhead_cell_runs():
    """Non-gating: the checksum-overhead cell must complete on every
    organization in all three integrity modes (the off|verify|scrub
    throughput is tracked in ``BENCH_hostperf.json``; the CRCs a
    multi-valued boundary computes are gated, counted, in tier 1)."""
    keys, values = make_workload(2048, "uniform")
    for kind in KINDS:
        for mode in INTEGRITY_CELL_MODES:
            assert integrity_rps(kind, mode, keys, values, repeats=1) > 0


def test_shard_scaling_smoke():
    """CI gate (64k tier): 4 shards must deliver >= 2.5x the single-shard
    simulated aggregate throughput, with nonzero intra-shard transfer
    overlap -- the sharded schedule must actually overlap, not serialize."""
    rows = shard_scaling_cell(FULL_N, counts=(1, 4))
    single = rows["1"]["records_per_second"]
    sharded = rows["4"]["records_per_second"]
    assert sharded >= 2.5 * single, (
        f"4-shard throughput {sharded:,} rec/s is below 2.5x the "
        f"single-shard {single:,} rec/s"
    )
    assert rows["4"]["overlap_efficiency"] > 0
    assert rows["1"]["overlap_efficiency"] > 0


def test_hostperf_export_roundtrip(tmp_path):
    report = {
        "schema": "tiered-v2",
        "tiers": {"2048": run_suite(n=2048, repeats=1)},
    }
    out = tmp_path / "BENCH_hostperf.json"
    export(report, out)
    loaded = json.loads(out.read_text())
    assert loaded["schema"] == "tiered-v2"
    assert set(loaded["tiers"]) == {"2048"}
    full = loaded["tiers"]["2048"]
    assert full["n_records"] == 2048
    assert set(full["distributions"]) == (
        set(DISTRIBUTIONS) | {"result", "mixed-ops", "integrity-overhead"}
    )
    for dist in DISTRIBUTIONS:
        rows = full["distributions"][dist]
        assert set(rows) == set(INSERT_KINDS)
        for row in rows.values():
            assert set(row) == {"scalar_rps", "vectorized_rps", "speedup"}
            assert row["scalar_rps"] > 0 and row["vectorized_rps"] > 0
    rows = full["distributions"]["result"]
    assert set(rows) == set(KINDS)
    for row in rows.values():
        assert set(row) == {"scalar_kps", "vectorized_kps", "speedup"}
        assert row["scalar_kps"] > 0 and row["vectorized_kps"] > 0
    rows = full["distributions"]["mixed-ops"]
    assert set(rows) == set(KINDS)
    for row in rows.values():
        assert row["scalar_rps"] > 0 and row["vectorized_rps"] > 0
    for row in full["distributions"]["integrity-overhead"].values():
        for mode in INTEGRITY_CELL_MODES:
            assert row[f"{mode}_rps"] > 0
    # ... the cut-over sweep behind MIXED_KERNEL_MIN_OPS ...
    sweep = full["mixed_sweep"]
    assert sweep["cut_over_ops"] == org_policy.MIXED_KERNEL_MIN_OPS
    assert len(sweep["rows"]) == (
        len(SWEEP_HEAP) * len(KINDS) * len(SWEEP_SIZES)
    )
    # ... and the (non-gated) shard weak-scaling rows
    scaling = full["shard_scaling"]
    assert set(scaling) == {str(c) for c in SHARD_COUNTS}
    for row in scaling.values():
        assert row["records_per_second"] > 0 and row["wall_rps"] > 0
        assert 0.0 <= row["overlap_efficiency"] <= 1.0
    # ... and the request-router rows: 2,048 roomy-heap ops are two flushes
    # a shard at most, each one merged batch applied in one pass
    assert set(full["router"]) == set(KINDS)
    for row in full["router"].values():
        assert row["wall_ops_per_second"] > 0 and row["makespan_seconds"] > 0
        assert row["launches_per_flush"] == 1.0
    # ... and the lookup rows: both arms, one table shape whatever the tier
    assert set(full["lookup"]) == set(KINDS)
    for row in full["lookup"].values():
        assert row["scalar_qps"] > 0 and row["batched_qps"] > 0
        assert 3.8 <= row["table_over_heap"] <= 4.2
    # ... and the pressure rows: one batch across exhaustion, one after it
    assert set(full["pressure"]) == {"crossing", "dry"}
    for row in full["pressure"].values():
        assert row["loop_rps"] > 0 and row["kernel_rps"] > 0
    # ... and the boundary row: one partial retention, both arms
    row = full["end-iteration"]
    assert row["loop_ms"] > 0 and row["bulk_ms"] > 0
    assert row["pages_retained"] > 0 and row["pages_evicted"] > 0
    # ... and the input-side rows: one per app, both arms but for DNA
    assert set(full["input_side"]) == {cls.name for cls in ALL_APPS}
    for name, row in full["input_side"].items():
        assert row["records"] > 0 and row["parse_rps"] > 0
        assert ("list_path_rps" in row) == (name != "DNA Assembly")
    # ... and the allocator rows: one per shape, both arms
    assert set(full["allocator"]) == {f"{n}x{g}" for n, g in ALLOCATOR_SHAPES}
    for row in full["allocator"].values():
        assert row["sequential_rps"] > 0 and row["bulk_rps"] > 0

# ----------------------------------------------------------------------
def _print_tier(tier: dict) -> None:
    print(f"--- tier n={tier['n_records']:,} (repeats={tier['repeats']}) ---")
    for dist, rows in tier["distributions"].items():
        for kind, row in rows.items():
            if dist == "integrity-overhead":
                print(
                    f"{dist:>8}/{kind:<13} "
                    + "   ".join(
                        f"{m} {row[f'{m}_rps']:>10,} rec/s"
                        for m in INTEGRITY_CELL_MODES
                    )
                    + f"   (+{row['verify_overhead_pct']}% verify, "
                    f"+{row['scrub_overhead_pct']}% scrub)"
                )
                continue
            if dist == "result":
                print(
                    f"{dist:>8}/{kind:<13} scalar {row['scalar_kps']:>10,} "
                    f"keys/s   vectorized {row['vectorized_kps']:>10,} "
                    f"keys/s   {row['speedup']:.1f}x"
                )
                continue
            print(
                f"{dist:>8}/{kind:<13} scalar {row['scalar_rps']:>10,} rec/s   "
                f"vectorized {row['vectorized_rps']:>10,} rec/s   "
                f"{row['speedup']:.1f}x"
            )
    sweep = tier.get("mixed_sweep")
    if sweep:
        print(f"  mixed-op cut-over sweep (shipped: {sweep['cut_over_ops']} ops)")
        for name, row in sweep["rows"].items():
            print(
                f"  {name:>30} loop {row['loop_rps']:>9,} ops/s   kernel "
                f"{row['kernel_rps']:>9,} ops/s   {row['kernel_over_loop']:.2f}x"
            )
    for count, row in tier.get("shard_scaling", {}).items():
        print(
            f"  shards={count:<2} simulated {row['records_per_second']:>12,} "
            f"rec/s   {row.get('scaling_x', 1.0):.2f}x   "
            f"overlap {row['overlap_efficiency']:.3f}   "
            f"host {row['wall_rps']:>10,} rec/s"
        )
    for kind, row in tier.get("router", {}).items():
        print(
            f"  router/{kind:<10} host {row['wall_ops_per_second']:>10,} ops/s   "
            f"{row['launches_per_flush']:.2f} launches/flush over "
            f"{row['flushes']} flushes   makespan {row['makespan_seconds']:.6f} s"
        )
    for name, row in tier.get("input_side", {}).items():
        line = (
            f"  input/{name:<16} {row['records']:>7,} records   "
            f"parse_chunk {row['parse_rps']:>10,} rec/s"
        )
        if "list_path_rps" in row:
            line += (
                f"   list path {row['list_path_rps']:>10,} rec/s   "
                f"{row['speedup']:.2f}x"
            )
        print(line)
    for shape, row in tier.get("allocator", {}).items():
        print(
            f"  allocator/{shape:<11} loop {row['sequential_rps']:>9,} req/s   "
            f"bulk {row['bulk_rps']:>9,} req/s   {row['speedup']:.2f}x   "
            f"({row['bulk_us_per_call']} us a call, "
            f"{row['pages_taken']} pages taken)"
        )
    for state, row in tier.get("pressure", {}).items():
        print(
            f"  pressure/{state:<11} loop {row['loop_rps']:>9,} rec/s   kernel "
            f"{row['kernel_rps']:>9,} rec/s   {row['speedup']:.2f}x   "
            f"({row['postponed_share']:.1%} postponed)"
        )
    row = tier.get("end-iteration")
    if row:
        print(
            f"  end-iteration         loop {row['loop_ms']:>9,} ms   bulk "
            f"{row['bulk_ms']:>9,} ms   {row['speedup']:.2f}x   "
            f"({row['entries_spliced']:,} entries spliced, "
            f"{row['pages_retained']} pages retained of "
            f"{row['pages_retained'] + row['pages_evicted']}, "
            f"table {row['table_over_heap']}x heap)"
        )
    for kind, row in tier.get("lookup", {}).items():
        print(
            f"  lookup/{kind:<13} walk {row['scalar_qps']:>9,} queries/s   "
            f"batched {row['batched_qps']:>9,} queries/s   "
            f"{row['speedup']:.2f}x   {row['passes']} passes, "
            f"{row['pages_paged_in']} pages in "
            f"(table {row['table_over_heap']}x heap)"
        )


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=FULL_N,
                    help=f"records in the tier (default {FULL_N:,})")
    ap.add_argument("--repeats", type=int, default=3,
                    help="best-of repeats per measurement (default 3)")
    args = ap.parse_args(argv)
    tier = run_suite(args.n, args.repeats)
    export({"schema": "tiered-v2", "tiers": {str(args.n): tier}})
    print(f"wrote {EXPORT_PATH}")
    _print_tier(tier)


if __name__ == "__main__":
    main()
