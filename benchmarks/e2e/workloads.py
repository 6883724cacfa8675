"""The four whole-run workloads of the benchmark of record.

Every workload has the same three steps, driven by ``run.py``:

* ``setup(seed, quick)`` -- generate the inputs from the seed, compute the
  oracle outputs, and warm every code path the pass will take (untimed);
* ``run_pass(inputs, tracer)`` -- one pass from "input bytes / op stream in
  hand" to "CPU-side result dicts materialised" (this is what is timed);
* ``check(inputs, result)`` -- compare the pass's outputs with the oracle
  (untimed); returns ``(checks attempted, failure messages)``.

Only the public ``repro.*`` API is used; README.md lists the surface.  All
sizes are constants of this file: a benchmark whose sizes are flags is a
different benchmark on every invocation.  ``quick`` divides the sizes for
the self-tests; a quick result is flagged and is never a baseline.
"""

from __future__ import annotations

import hashlib
import math
import operator
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.apps import ALL_APPS, MapReduceApplication
from repro.bench.config import GB, PAPER_DATASETS_GB, BenchConfig
from repro.core.combiners import SUM_I64
from repro.core.hashtable import GpuHashTable
from repro.core.lookup import LookupDriver
from repro.core.mutations import (
    OP_DELETE,
    OP_INSERT,
    OP_LOOKUP,
    OP_UPDATE,
    MutationBatch,
    model_for_ops,
)
from repro.core.organizations import (
    BasicOrganization,
    CombiningOrganization,
    MultiValuedOrganization,
)
from repro.core.records import RecordBatch
from repro.core.sepo import SepoDriver
from repro.core.session import GpuSession
from repro.gpusim.clock import CostLedger
from repro.gpusim.device import GTX_780TI
from repro.gpusim.kernel import KernelModel
from repro.gpusim.pcie import PCIeBus
from repro.mapreduce.runtime import MapReduceRuntime
from repro.memalloc.heap import GpuHeap
from repro.shard import ShardedExecutor, ShardRouter

__all__ = ["WORKLOADS", "PassResult", "digest"]

ROOT = Path(__file__).resolve().parents[2]

#: the scale of the repository's committed reference results
SCALE = 1024
REFERENCE_RESULTS = ROOT / f"results_scale{SCALE}.txt"


@dataclass
class PassResult:
    """What one pass produced, for the checks and the simulated clock."""

    #: cell name -> finished CPU-side mapping (or list of lookup answers)
    outputs: dict[str, Any]
    #: records or ops in the input; reissues are not counted
    records: int
    #: simulated seconds summed over the pass's runs (makespan if sharded)
    sim_s: float
    #: the same seconds by ``CostCategory`` value
    sim_breakdown: dict[str, float]
    #: per-layer values only the workload can read (named as in
    #: ``trace.PER_LAYER_METRICS``)
    layer: dict[str, float] = field(default_factory=dict)
    #: app cells: name -> (simulated speed-up over CPU, SEPO iterations)
    cells: dict[str, tuple[float, int]] = field(default_factory=dict)


def digest(outputs: dict[str, Any]) -> str:
    """Order-independent fingerprint of a pass's outputs."""
    h = hashlib.sha256()
    for cell in sorted(outputs):
        h.update(cell.encode())
        out = outputs[cell]
        items = sorted(out.items()) if isinstance(out, dict) else enumerate(out)
        for key, value in items:
            h.update(repr((key, _normal(value))).encode())
    return h.hexdigest()


def _input_digest(*parts: Any) -> str:
    """Fingerprint of generated inputs (bytes, or op streams by repr)."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _normal(value: Any) -> Any:
    """Multi-valued lists compare order-normalised."""
    return sorted(value) if isinstance(value, list) else value


def _same(got: Any, want: Any) -> bool:
    if isinstance(want, float) and isinstance(got, float):
        return math.isclose(got, want, rel_tol=1e-9)  # sums in another order
    return _normal(got) == _normal(want)


def _diff(failures: list[str], cell: str, got: dict, want: dict,
          exact: bool = False) -> int:
    """Compare two mappings key by key, appending a message per mismatch;
    returns the number of checks, one per key either side holds.  Values
    compare order-normalised unless ``exact`` (lookup answers keep order)."""
    same = operator.eq if exact else _same
    keys = want.keys() | got.keys()
    failures += [
        f"{cell}: {key!r}: got {got.get(key)!r}, want {want.get(key)!r}"
        for key in keys
        if key not in got or key not in want or not same(got[key], want[key])
    ]
    return len(keys)


def _next_run(tracer) -> None:
    """Spans of one workload run share an identifier."""
    if tracer is not None:
        tracer.run_id += 1


def _add_breakdown(total: dict[str, float], ledger: CostLedger) -> None:
    for category, seconds in ledger.breakdown().items():
        total[category] = total.get(category, 0.0) + seconds


def _geometric_mean(values: list[float]) -> float:
    return math.prod(values) ** (1.0 / len(values)) if values else 0.0


# ----------------------------------------------------------------------
# application workloads (Section V apps at Table-I sizes, scale 1/1024)
# ----------------------------------------------------------------------
def _reference_rows() -> dict[tuple[str, int], tuple[str, int]]:
    """``(app, dataset) -> (speed-up as printed, iterations)`` from the
    Figure-6 table of the committed reference results."""
    row = re.compile(
        r"^(?P<app>[A-Z][A-Za-z ]+?)\s+(?P<ds>[1-4])\s+\S+\s+\S+\s+\S+\s+"
        r"(?P<speedup>\d+\.\d\d)x\s+(?P<iters>\d+)\s+\d+\.\d\d\s*$"
    )
    text = REFERENCE_RESULTS.read_text()
    section = text.split("=== fig6", 1)[-1].split("\n===", 1)[0]
    rows = {}
    for line in section.splitlines():
        m = row.match(line)
        if m:
            rows[m["app"], int(m["ds"])] = (m["speedup"], int(m["iters"]))
    return rows


class AppWorkload:
    """Application cells ``(app name, paper-scale input size in GB)``."""

    name = ""
    why = ""
    cells: tuple[tuple[str, float], ...] = ()
    #: run the CPU baseline inside the pass (else once, untimed, in setup)
    cpu_in_pass = False

    def setup(self, seed: int, quick: int = 1) -> dict:
        config = BenchConfig(scale=SCALE, seed=seed)
        apps = {cls.name: cls() for cls in ALL_APPS}
        inputs: dict[str, Any] = {
            "config": config, "seed": seed, "quick": quick, "cells": [],
            "cpu_sim": {},
        }
        for app_name, gb in self.cells:
            app = apps[app_name]
            data = app.generate_input(int(gb * GB / SCALE) // quick, seed=seed)
            sizes = PAPER_DATASETS_GB[app_name]
            dataset = sizes.index(gb) + 1 if gb in sizes else None
            label = f"{app_name} #{dataset}" if dataset else f"{app_name} {gb}GB"
            inputs["cells"].append(
                {"label": label, "app": app, "dataset": dataset, "data": data,
                 "reference": app.reference(data)}
            )
        inputs["input_digest"] = _input_digest(
            *(cell["data"] for cell in inputs["cells"])
        )
        if not self.cpu_in_pass:
            for cell in inputs["cells"]:
                inputs["cpu_sim"][cell["label"]] = self._run_cpu(
                    config, cell
                ).elapsed_seconds
        # warm-up: the first 1k-record slice of every cell through the
        # pass, so that lazy imports and first-call costs are not timed
        self.run_pass(dict(inputs, cells=[
            dict(c, data=b"\n".join(c["data"].split(b"\n")[:1000]) + b"\n")
            for c in inputs["cells"]
        ]))
        return inputs

    # ------------------------------------------------------------------
    @staticmethod
    def _run_gpu(config: BenchConfig, cell: dict):
        app, data = cell["app"], cell["data"]
        if isinstance(app, MapReduceApplication):
            runtime = MapReduceRuntime(
                app.make_job(), scale=config.scale, n_buckets=config.n_buckets,
                group_size=config.group_size, page_size=config.page_size,
            )
            return runtime.run(data)
        return app.run_gpu(data, **config.gpu_kwargs())

    @staticmethod
    def _run_cpu(config: BenchConfig, cell: dict):
        # the chunking Figure 6 uses for both devices
        chunk = GpuSession.clamp_chunk(GTX_780TI, config.scale, config.chunk_bytes)
        return cell["app"].run_cpu(
            cell["data"], chunk_bytes=chunk, **config.cpu_kwargs()
        )

    def run_pass(self, inputs: dict, tracer=None) -> PassResult:
        config = inputs["config"]
        outputs: dict[str, Any] = {}
        breakdown: dict[str, float] = {}
        cells: dict[str, tuple[float, int]] = {}
        records = 0
        for cell in inputs["cells"]:
            label = cell["label"]
            _next_run(tracer)
            gpu = self._run_gpu(config, cell)
            outputs[f"{label} gpu"] = gpu.output()
            _add_breakdown(breakdown, gpu.table.ledger)
            records += gpu.report.total_records
            if self.cpu_in_pass:
                _next_run(tracer)
                cpu = self._run_cpu(config, cell)
                outputs[f"{label} cpu"] = cpu.output()
                _add_breakdown(breakdown, cpu.table.ledger)
                records += cpu.report.total_records
                cpu_sim = cpu.elapsed_seconds
            else:
                cpu_sim = inputs["cpu_sim"][label]
            cells[label] = (cpu_sim / gpu.elapsed_seconds, gpu.report.iterations)
        return PassResult(
            outputs=outputs,
            records=records,
            sim_s=sum(breakdown.values()),
            sim_breakdown=breakdown,
            layer={"gpusim.speedup_vs_cpu_gmean": _geometric_mean(
                [speedup for speedup, _ in cells.values()]
            )},
            cells=cells,
        )

    # ------------------------------------------------------------------
    def check(self, inputs: dict, result: PassResult) -> tuple[int, list[str]]:
        attempted, failures = 0, []
        for cell in inputs["cells"]:
            for device in ("gpu", "cpu") if self.cpu_in_pass else ("gpu",):
                name = f"{cell['label']} {device}"
                attempted += _diff(
                    failures, name, result.outputs[name], cell["reference"]
                )
        if inputs["seed"] == 0 and inputs["quick"] == 1:
            attempted += self._check_reference_results(failures, inputs, result)
        return attempted, failures

    @staticmethod
    def _check_reference_results(failures, inputs, result) -> int:
        """Seed 0 reproduces its committed Figure-6 rows to the digit."""
        try:
            rows = _reference_rows()
        except OSError as exc:
            failures.append(f"reference results unreadable: {exc}")
            return 1
        tabled = [c for c in inputs["cells"] if c["dataset"] is not None]
        for cell in tabled:
            speedup, iterations = result.cells[cell["label"]]
            got = (f"{speedup:.2f}", iterations)
            want = rows.get((cell["app"].name, cell["dataset"]))
            if got != want:
                failures.append(
                    f"{cell['label']}: simulated (speed-up, iterations) {got}, "
                    f"{REFERENCE_RESULTS.name} says {want}"
                )
        return len(tabled)


class AppsFit(AppWorkload):
    name = "apps_fit"
    why = (
        "all seven apps on GPU and CPU baseline with tables that fit device "
        "memory: parse, packing, no-postponement kernels, cpu.cputable"
    )
    # Five apps at their Table-I dataset #1.  DNA Assembly and Netflix at
    # their own #1 cost 7.6 s a pass on this machine, more than the whole
    # measuring budget of a run allows; they run at 0.2 GB, the smallest
    # Table-I size, and have no row in the reference results.
    cells = (
        ("Inverted Index", 2.0),
        ("Page View Count", 0.6),
        ("DNA Assembly", 0.2),
        ("Netflix", 0.2),
        ("Word Count", 0.2),
        ("Patent Citation", 0.2),
        ("Geo Location", 0.2),
    )
    cpu_in_pass = True


class AppsLtm(AppWorkload):
    name = "apps_ltm"
    why = (
        "tables larger than device memory, GPU only: postponement, eviction, "
        "reissue and replay over part-evicted chains; cpu.cputable idle"
    )
    # The combining method standalone and the multi-valued method through
    # the MapReduce runtime, each needing 2 SEPO iterations at every seed
    # tried.  Larger cells do not fit a run's measuring budget (DNA Assembly
    # #2 alone costs 4.5 s a pass) and Inverted Index #4 flips between 3 and
    # 4 iterations with the seed.
    cells = (
        ("Page View Count", 5.8),
        ("Geo Location", 1.8),
    )
    cpu_in_pass = False


# ----------------------------------------------------------------------
# key-value workloads (the table layers driven directly)
# ----------------------------------------------------------------------
#: insert / update / delete / lookup shares of the mixed op streams
OP_MIX = (0.45, 0.20, 0.15, 0.20)
_OPS = (OP_INSERT, OP_UPDATE, OP_DELETE, OP_LOOKUP)

ORGANIZATIONS = {
    "basic": BasicOrganization,
    "combining": lambda: CombiningOrganization(SUM_I64),
    "multi-valued": MultiValuedOrganization,
}


def _key(rank: int) -> bytes:
    return b"key-%08d" % rank


def _mixed_ops(rng: np.random.Generator, n: int, keyspace: int) -> list[tuple]:
    """``(op, key, i)`` triples, uniform over ``keyspace`` keys."""
    ops = rng.choice(_OPS, size=n, p=OP_MIX)
    ranks = rng.integers(0, keyspace, size=n)
    return [(int(op), _key(r), i) for i, (op, r) in enumerate(zip(ops, ranks))]


def _zipf_inserts(rng: np.random.Generator, n: int, keyspace: int) -> list[tuple]:
    p = 1.0 / np.arange(1, keyspace + 1, dtype=np.float64) ** 1.05
    ranks = rng.choice(keyspace, size=n, p=p / p.sum())
    return [(OP_INSERT, _key(r), i) for i, r in enumerate(ranks)]


def _render(kind: str, triples: list[tuple]) -> list[tuple]:
    """The stream as one organization stores it: scalar values for the
    combining method, distinct byte strings for the other two."""
    if kind == "combining":
        return triples
    return [(op, k, b"value-%016d" % v) for op, k, v in triples]


def _insert_batches(kind: str, triples: list[tuple], size: int) -> list[RecordBatch]:
    """Plain record batches of an insert-only stream."""
    batches = []
    for lo in range(0, len(triples), size):
        part = triples[lo:lo + size]
        if kind == "combining":
            batches.append(RecordBatch.from_numeric(
                [k for _, k, _ in part],
                np.array([v for _, _, v in part], dtype=np.int64),
            ))
        else:
            batches.append(RecordBatch.from_pairs([(k, v) for _, k, v in part]))
    return batches


def _mutation_batches(kind: str, triples: list[tuple], size: int) -> list[MutationBatch]:
    dtype = np.int64 if kind == "combining" else None
    return [
        MutationBatch.from_ops(triples[lo:lo + size], numeric_dtype=dtype)
        for lo in range(0, len(triples), size)
    ]


def _model(kind: str, triples: list[tuple]) -> tuple[dict, dict[int, Any]]:
    return model_for_ops(
        triples, kind=kind, combiner=SUM_I64 if kind == "combining" else None
    )


def _expected_answer(kind: str, model: dict, key: bytes) -> Any:
    """What ``LookupDriver`` answers: basic keeps the newest value only."""
    value = model.get(key)
    return value[-1] if kind == "basic" and value is not None else value


class KvMixed:
    name = "kv_mixed"
    why = (
        "mixed insert/update/delete/lookup batches, page-in lookups and "
        "result() on all three organizations, tables 2-9x the heap"
    )
    kinds = ("basic", "combining", "multi-valued")
    n_ops = 24_576
    batch_ops = 2_048
    keyspace = 4_096
    n_buckets = 1_024
    heap_bytes = 256 << 10
    page_size = 4 << 10
    group_size = 64
    n_queries = 4_096

    def setup(self, seed: int, quick: int = 1) -> dict:
        rng = np.random.default_rng([seed, 1])
        stream = _mixed_ops(rng, self.n_ops // quick, self.keyspace // quick)
        # half the queried keys were never written
        queries = [
            _key(r) for r in rng.integers(0, 2 * self.keyspace // quick,
                                          size=self.n_queries // quick)
        ]
        inputs = {
            "seed": seed, "quick": quick, "queries": queries, "kinds": {},
            "input_digest": _input_digest(stream, queries),
        }
        for kind in self.kinds:
            triples = _render(kind, stream)
            model, lookups = _model(kind, triples)
            inputs["kinds"][kind] = {
                "triples": triples, "model": model, "lookups": lookups,
            }
        warm = dict(inputs, queries=queries[:250], kinds={
            kind: dict(k, triples=k["triples"][:1000])
            for kind, k in inputs["kinds"].items()
        })
        self.run_pass(warm)
        return inputs

    def run_pass(self, inputs: dict, tracer=None) -> PassResult:
        outputs: dict[str, Any] = {}
        breakdown: dict[str, float] = {}
        records = 0
        for kind in self.kinds:
            _next_run(tracer)
            triples = inputs["kinds"][kind]["triples"]
            ledger = CostLedger()
            bus = PCIeBus(ledger)
            kernel = KernelModel(GTX_780TI, ledger)
            table = GpuHashTable(
                self.n_buckets, ORGANIZATIONS[kind](),
                GpuHeap(self.heap_bytes, self.page_size),
                group_size=self.group_size, ledger=ledger,
            )
            batches = _mutation_batches(kind, triples, self.batch_ops)
            SepoDriver(table, kernel, bus).run(batches)
            answers = LookupDriver(table, kernel, bus).lookup(inputs["queries"])
            outputs[f"{kind} table"] = table.result()
            outputs[f"{kind} queries"] = answers.values
            lo = 0
            stream_answers = {}
            for batch in batches:
                for i, value in batch.lookup_results.items():
                    stream_answers[lo + i] = value
                lo += len(batch)
            outputs[f"{kind} stream lookups"] = stream_answers
            _add_breakdown(breakdown, ledger)
            records += len(triples) + len(inputs["queries"])
        return PassResult(
            outputs=outputs, records=records,
            sim_s=sum(breakdown.values()), sim_breakdown=breakdown,
        )

    def check(self, inputs: dict, result: PassResult) -> tuple[int, list[str]]:
        attempted, failures = 0, []
        for kind, k in inputs["kinds"].items():
            out = result.outputs
            attempted += _diff(failures, f"{kind} table", out[f"{kind} table"], k["model"])
            attempted += _diff(
                failures, f"{kind} stream lookup",
                out[f"{kind} stream lookups"], k["lookups"], exact=True,
            )
            want = {
                i: _expected_answer(kind, k["model"], key)
                for i, key in enumerate(inputs["queries"])
            }
            got = dict(enumerate(out[f"{kind} queries"]))
            attempted += _diff(failures, f"{kind} query", got, want, exact=True)
        return attempted, failures


class KvSharded:
    name = "kv_sharded"
    why = (
        "4-shard executor bulk load, then a closed loop of small client "
        "batches through the router: partitioning, routing, ~1k-record runs"
    )
    kinds = ("basic", "combining")
    n_shards = 4
    n_buckets = 256
    heap_bytes = 128 << 10
    page_size = 4 << 10
    group_size = 64
    load_records = 32_768
    load_batch = 8_192
    load_keyspace = 4_096
    client_ops = 32_768
    client_batch = 256
    client_keyspace = 4_096
    chunk_records = 1_024
    max_pending_records = 8_192

    def setup(self, seed: int, quick: int = 1) -> dict:
        rng = np.random.default_rng([seed, 2])
        load = _zipf_inserts(
            rng, self.load_records // quick, self.load_keyspace // quick
        )
        client = _mixed_ops(
            rng, self.client_ops // quick, self.client_keyspace // quick
        )
        inputs = {
            "seed": seed, "quick": quick, "kinds": {},
            "input_digest": _input_digest(load, client),
        }
        for kind in self.kinds:
            load_k, client_k = _render(kind, load), _render(kind, client)
            model, lookups = _model(kind, load_k + client_k)
            inputs["kinds"][kind] = {
                "load": load_k, "client": client_k, "model": model,
                # routed answers are keyed (ticket, row of that ticket)
                "lookups": {
                    divmod(i - len(load_k), self.client_batch): v
                    for i, v in lookups.items()
                },
            }
        warm = dict(inputs, kinds={
            kind: dict(k, load=k["load"][:1000], client=k["client"][:1000])
            for kind, k in inputs["kinds"].items()
        })
        self.run_pass(warm)
        return inputs

    def run_pass(self, inputs: dict, tracer=None) -> PassResult:
        outputs: dict[str, Any] = {}
        breakdown: dict[str, float] = {}
        records = 0
        sim_s = busy = wire = hidden = 0.0
        for kind in self.kinds:
            _next_run(tracer)
            k = inputs["kinds"][kind]
            executor = ShardedExecutor(
                self.n_shards, ORGANIZATIONS[kind],
                n_buckets=self.n_buckets, heap_bytes=self.heap_bytes,
                page_size=self.page_size, group_size=self.group_size,
            )
            # phase 1: bulk load, all shards round-robin
            executor.run(_insert_batches(kind, k["load"], self.load_batch))
            # phase 2: one client, next batch only after submit returns
            router = ShardRouter(
                executor, chunk_records=self.chunk_records,
                max_pending_records=self.max_pending_records,
            )
            for batch in _mutation_batches(kind, k["client"], self.client_batch):
                router.submit(batch)
            tickets = router.drain()
            outputs[f"{kind} table"] = executor.result()
            outputs[f"{kind} routed lookups"] = {
                (t, row): value
                for t, answers in enumerate(tickets)
                for row, value in answers.items()
            }
            # the run ends when the slowest shard does: its clock is the
            # simulated time, its ledger the breakdown
            slowest = max(executor.channels, key=lambda ch: ch.elapsed)
            _add_breakdown(breakdown, slowest.ledger)
            schedule = executor.schedule
            sim_s += schedule.makespan_seconds
            busy += schedule.busy_seconds
            wire += schedule.wire_seconds
            hidden += schedule.hidden_seconds
            records += len(k["load"]) + len(k["client"])
        return PassResult(
            outputs=outputs, records=records, sim_s=sim_s,
            sim_breakdown=breakdown,
            layer={
                "shard.executor.sim_makespan_s": sim_s,
                "shard.executor.parallel_speedup": busy / sim_s,
                "shard.executor.overlap_efficiency": hidden / wire if wire else 0.0,
            },
        )

    def check(self, inputs: dict, result: PassResult) -> tuple[int, list[str]]:
        attempted, failures = 0, []
        for kind, k in inputs["kinds"].items():
            out = result.outputs
            attempted += _diff(failures, f"{kind} table", out[f"{kind} table"], k["model"])
            attempted += _diff(
                failures, f"{kind} routed lookup",
                out[f"{kind} routed lookups"], k["lookups"], exact=True,
            )
        return attempted, failures


WORKLOADS = {w.name: w for w in (AppsFit(), AppsLtm(), KvMixed(), KvSharded())}
