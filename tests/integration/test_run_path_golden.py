"""Golden digests of whole runs, through every way to a driver.

The requestor loop is written once (``SepoDriver.step``) and the way from
a job to a finished table is written once (``repro.core.session.wire``);
before that the resilient driver carried its own copy of the loop, and the
application base class, the MapReduce runtime and the crash harness each
wired a session, a table and a driver by hand.  Every cell here runs one
complete job and digests what it leaves behind: the table's bytes, the
simulated clock by category, the iteration log and -- where there is one --
the degradation events and the contents of the last journal (its meta
record and array checksum, not the zip container's bytes, which carry
timestamps).

The digests in :data:`GOLDEN` were recorded by running this module's own
:func:`digest` at the commit *before* the loops and the wirings were merged
(``python tests/integration/test_run_path_golden.py`` prints the table), so
a pass that rearranges, checkpoints, escalates or charges at a different
point fails here.
"""

import hashlib
import json
from dataclasses import astuple

import numpy as np
import pytest

from repro.apps import ALL_APPS, GeoLocation, PatentCitation, WordCount
from repro.core import (
    CombiningOrganization,
    MultiValuedOrganization,
    RecordBatch,
    SUM_I64,
)
from repro.core.organizations import BasicOrganization
from repro.core.session import GpuSession
from repro.gpusim import GTX_780TI
from repro.mapreduce import MapReduceRuntime
from repro.core.checkpoint import quiesce_table
from repro.resilience import ResilientDriver, table_digest
from repro.resilience import driver as resilient_driver
from repro.resilience.journal import read_journal
from repro.sanitize.workloads import make_mutation_batches, make_op_workload
from tests.resilience.test_resilient_driver import (
    block_pool,
    make_driver,
    workload,
)

#: a ~60 KB input's table overflows the scaled device several times over
TIGHT = dict(scale=1 << 15, n_buckets=1 << 10, page_size=2048,
             chunk_bytes=16 << 10, group_size=32)
MAPREDUCE_TIGHT = dict(scale=1 << 15, n_buckets=1 << 10, page_size=2048)
MAPREDUCE_APPS = (WordCount, GeoLocation, PatentCitation)
RUNGS = ("forced-eviction", "chunk-shrink", "cpu-fallback",
         "budget-exhausted")


def _facts(table, report, resilience=None, journal=None):
    """Everything a finished run is held to, as one ``repr``-able tuple."""
    inner = getattr(table, "table", table)  # DegradedTable wraps the table
    seen = [
        table_digest(inner),
        sorted(getattr(table, "overflow", {}).items()),
        sorted(report.breakdown.items()),
        [astuple(rec) for rec in report.iteration_log],
        (report.iterations, report.total_records, report.elapsed_seconds,
         report.input_bytes_streamed, report.table_bytes),
    ]
    if resilience is not None:
        seen += [
            [astuple(ev) for ev in resilience.degradation_events],
            (resilience.checkpoints_written, resilience.resumed_from_iteration),
        ]
        meta, _arrays = read_journal(journal)
        seen.append(json.dumps(_as_recorded(meta), sort_keys=True))
    return seen


def _as_recorded(meta):
    """A journal's meta in the layout :data:`GOLDEN` was recorded under:
    archive version 1, whose table record carried a ``"version": 1`` of
    its own.  The version is the file format's, not the run's; every
    other key is digested as written."""
    assert meta["journal_version"] == 2 and "version" not in meta["table"]
    return {**meta, "journal_version": 1,
            "table": {**meta["table"], "version": 1}}


def _run_gpu(cls, tmp_path, monkeypatch):
    app = cls()
    out = app.run_gpu(app.generate_input(60_000, seed=11), **TIGHT)
    assert out.iterations > 1, "the table was expected not to fit"
    return _facts(out.table, out.report)


def _run_mapreduce(cls, tmp_path, monkeypatch):
    app = cls()
    data = app.generate_input(60_000, seed=9)
    out = MapReduceRuntime(app.make_job(), **MAPREDUCE_TIGHT).run(data)
    assert out.report.iterations > 1, "the table was expected not to fit"
    return _facts(out.table, out.report)


def _run_journaled_app(cls_options, tmp_path, monkeypatch):
    cls, options = cls_options
    app = cls()
    journal = tmp_path / "app.npz"
    every = options["checkpoint_every"]
    out = app.run_gpu(
        app.generate_input(60_000, seed=5), journal=journal, **options,
        **{**TIGHT, "scale": 1 << 16},
    )
    res = out.resilience
    assert res.checkpoints_written >= 2 // every
    return _facts(out.table, out.report, res, journal)


def _run_journaled_mutations(every, tmp_path, monkeypatch):
    """The crash harness's mutation schedule: delete-heavy batches into a
    basic table under a checkpointing resilient driver."""
    ops = make_op_workload("delete-heavy-uniform", 5000, seed=3)
    batches = make_mutation_batches(ops, "basic", batch_size=416)
    session = GpuSession(GTX_780TI, 1 << 16, 1 << 20)
    table, driver = session.build_table(
        n_buckets=512, organization=BasicOrganization(), page_size=4096,
        n_records=sum(len(b) for b in batches),
    )
    journal = tmp_path / f"mut-{every}.npz"
    res = ResilientDriver(
        driver, journal_path=journal, checkpoint_every=every
    ).run(batches)
    assert res.checkpoints_written >= 2 // every
    return _facts(res.table, res.sepo, res, journal)


def _grouping_workload():
    rng = np.random.default_rng(7)
    out = []
    for c in range(3):
        batch = RecordBatch.from_pairs([
            (b"k%02d" % rng.integers(0, 40), b"v%d-%d" % (c, i))
            for i in range(80)
        ])
        batch.input_bytes = 1024
        out.append(batch)
    return out


def _run_rung(rung, tmp_path, monkeypatch):
    """One stall per ladder rung (the set-ups of ``test_resilient_driver``),
    journaled, so the order of escalation, rearrangement and checkpoint is
    in the digest."""
    budget = 2 if rung == "budget-exhausted" else 500
    d, t = make_driver(CombiningOrganization(SUM_I64), max_iterations=budget)
    batches = workload()
    if rung == "forced-eviction":
        # a multi-valued table, whose pinned key pages outlive the stock
        # rearrangement, stalls after six pages until the ladder flushes
        # the heap: whether that lands before or after the rearrangement
        # of the same iteration is in the bytes
        d, t = make_driver(MultiValuedOrganization(), heap_bytes=4096)
        batches = _grouping_workload()
        takes = {"n": 0, "flushed": False}

        def stalled():
            takes["n"] += 1
            return takes["n"] > 6 and not takes["flushed"]

        block_pool(t, stalled)

        def unblocking_quiesce(table, bus=None):
            takes["flushed"] = True
            return quiesce_table(table, bus)

        monkeypatch.setattr(resilient_driver, "quiesce_table", unblocking_quiesce)
    elif rung == "chunk-shrink":
        # a heap that only absorbs bursts of 30 records a chunk: a run of
        # chunks is inserted chunk by chunk
        burst = {"n": 0}
        block_pool(t, lambda: burst["n"] > 30)
        insert_run = t.insert_run

        def gated_run(parts):
            results = []
            for batch, local in parts:
                burst["n"] = len(local)
                try:
                    results += insert_run([(batch, local)])
                finally:
                    burst["n"] = 0
            return results

        t.insert_run = gated_run
    elif rung == "cpu-fallback":
        # four pages, then starved for good: partial table plus overflow
        taken = {"n": 0}
        take = t.heap.pool.take

        def limited_take():
            if taken["n"] >= 4:
                return None
            taken["n"] += 1
            return take()

        t.heap.pool.take = limited_take
    journal = tmp_path / f"{rung}.npz"
    # every second iteration: the first escalation (second stuck pass)
    # and a checkpoint then share an iteration boundary
    res = ResilientDriver(
        d, journal_path=journal, checkpoint_every=2
    ).run(batches)
    actions = [ev.action for ev in res.degradation_events]
    want = "cpu-fallback" if rung == "budget-exhausted" else rung
    assert want in actions, actions
    return _facts(res.table, res.sepo, res, journal)


def cells():
    out = [("run_gpu", cls.name, _run_gpu, cls) for cls in ALL_APPS]
    out += [("mapreduce", cls.name, _run_mapreduce, cls)
            for cls in MAPREDUCE_APPS]
    for every in (1, 2):
        cadence = dict(checkpoint_every=every)
        out.append(("journal", f"wordcount/{every}", _run_journaled_app,
                    (WordCount, cadence)))
        out.append(("journal", f"geolocation/{every}", _run_journaled_app,
                    (GeoLocation, cadence)))
        out.append(("journal", f"mutations/{every}",
                    _run_journaled_mutations, every))
    out.append(("journal", "wordcount-scrub/1", _run_journaled_app,
                (WordCount, dict(checkpoint_every=1, integrity="scrub",
                                 scrub_budget=2))))
    out += [("rung", rung, _run_rung, rung) for rung in RUNGS]
    return out


def digest(run, arg, tmp_path, monkeypatch):
    facts = run(arg, tmp_path, monkeypatch)
    return hashlib.sha256(repr(facts).encode()).hexdigest()[:16]


#: recorded at the commit before the merge (see module docstring)
GOLDEN = {
    ("run_gpu", "Inverted Index"): "1da4283dbd1ecdad",
    ("run_gpu", "Page View Count"): "2656407349d40bd4",
    ("run_gpu", "DNA Assembly"): "6bbf03da68e0e3ac",
    ("run_gpu", "Netflix"): "d727f09a3fda63b7",
    ("run_gpu", "Word Count"): "c6d6a7fdd84725b2",
    ("run_gpu", "Patent Citation"): "c2d429c2fc04c219",
    ("run_gpu", "Geo Location"): "168d2b617325bfd3",
    ("mapreduce", "Word Count"): "c804f7475eb71d82",
    ("mapreduce", "Geo Location"): "5aaf599d1da5efad",
    ("mapreduce", "Patent Citation"): "0b5a083ed16cd477",
    ("journal", "wordcount/1"): "6918d651a71f8762",
    ("journal", "geolocation/1"): "fcf67c2225e5a2ba",
    ("journal", "mutations/1"): "958225bd517229a3",
    ("journal", "wordcount/2"): "fde1f50716f84768",
    ("journal", "geolocation/2"): "fa903f5f12fff16c",
    ("journal", "mutations/2"): "39bc3f5555b90b7e",
    ("journal", "wordcount-scrub/1"): "538a2eea6ee2f4a9",
    ("rung", "forced-eviction"): "42154527cde58f0c",
    ("rung", "chunk-shrink"): "c5493dfab7cae1bf",
    ("rung", "cpu-fallback"): "ee73abfa50d3cb28",
    ("rung", "budget-exhausted"): "0491ebb960c60c1c",
}


@pytest.mark.parametrize(
    "family,name,run,arg", cells(), ids=lambda v: v if isinstance(v, str) else ""
)
def test_whole_runs_reproduce_the_recorded_digests(
    family, name, run, arg, tmp_path, monkeypatch
):
    assert digest(run, arg, tmp_path, monkeypatch) == GOLDEN[family, name]


if __name__ == "__main__":
    import pathlib
    import tempfile

    for family, name, run, arg in cells():
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            sha = digest(run, arg, pathlib.Path(tmp), mp)
        print(f"    ({family!r}, {name!r}): {sha!r},".replace("'", '"'))
