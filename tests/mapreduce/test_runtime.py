"""MapReduce runtimes: ours (SEPO), Phoenix++ (CPU), MapCG (GPU, no SEPO)."""

import numpy as np
import pytest

from repro.apps import GeoLocation, PatentCitation, WordCount
from repro.core.combiners import SUM_I64
from repro.core.records import RecordBatch
from repro.mapreduce import (
    GpuOutOfMemory,
    JobSpec,
    MapCGRuntime,
    MapReduceRuntime,
    Mode,
    PhoenixRuntime,
)

SMALL = 30_000
GEOMETRY = dict(scale=1 << 11, n_buckets=1 << 11, page_size=4096, group_size=16)


def normalize(d):
    return {k: sorted(v) if isinstance(v, list) else v for k, v in d.items()}


def test_jobspec_validation():
    dummy = lambda c: RecordBatch.from_numeric([b"k"], np.array([1], dtype=np.int64))
    with pytest.raises(ValueError):
        JobSpec(name="x", mode=Mode.MAP_REDUCE, map_chunk=dummy)  # no combiner
    with pytest.raises(ValueError):
        JobSpec(name="x", mode=Mode.MAP_GROUP, map_chunk=dummy, combiner=SUM_I64)


def test_jobspec_chunks_uses_partitioner():
    job = WordCount().make_job()
    data = b"one two\nthree four\n" * 100
    chunks = job.chunks(data)
    assert b"".join(chunks) == data


@pytest.mark.parametrize("cls", [WordCount, GeoLocation, PatentCitation],
                         ids=lambda c: c.name)
def test_map_reduce_and_map_group_correctness(cls):
    app = cls()
    data = app.generate_input(SMALL, seed=9)
    result = MapReduceRuntime(app.make_job(), **GEOMETRY).run(data)
    assert normalize(result.output()) == normalize(app.reference(data))
    assert result.elapsed_seconds > 0


@pytest.mark.parametrize("cls", [WordCount, GeoLocation, PatentCitation],
                         ids=lambda c: c.name)
def test_phoenix_matches_reference(cls):
    app = cls()
    data = app.generate_input(SMALL, seed=9)
    result = PhoenixRuntime(app.make_job(), n_buckets=1 << 11).run(data)
    assert normalize(result.output()) == normalize(app.reference(data))


def test_mapcg_correct_when_data_fits():
    app = WordCount()
    data = app.generate_input(SMALL, seed=9)
    result = MapCGRuntime(app.make_job(), **GEOMETRY).run(data)
    assert normalize(result.output()) == normalize(app.reference(data))


def test_mapcg_fails_beyond_gpu_memory():
    """Section VI-C: MapCG's execution fails when memory runs out."""
    app = PatentCitation()
    data = app.generate_input(60_000, seed=9)
    tight = dict(scale=1 << 15, n_buckets=1 << 10, page_size=2048)
    with pytest.raises(GpuOutOfMemory):
        MapCGRuntime(app.make_job(), **tight).run(data)
    # Our runtime survives the exact same configuration.
    ours = MapReduceRuntime(app.make_job(), **tight).run(data)
    assert ours.report.iterations > 1
    assert normalize(ours.output()) == normalize(app.reference(data))


def test_sepo_runtime_processes_larger_than_memory_table():
    app = GeoLocation()
    data = app.generate_input(60_000, seed=2)
    tight = dict(scale=1 << 15, n_buckets=1 << 10, page_size=2048)
    result = MapReduceRuntime(app.make_job(), **tight).run(data)
    assert result.report.table_bytes > result.table.heap.pool.n_slots * 2048 / 2
    assert normalize(result.output()) == normalize(app.reference(data))


def test_mapcg_alloc_contention_charged():
    """Allocation-heavy MAP_GROUP jobs must run slower on MapCG than on our
    runtime (Table II's Geo Location / Patent Citation pattern)."""
    app = GeoLocation()
    data = app.generate_input(SMALL, seed=5)
    ours = MapReduceRuntime(app.make_job(), **GEOMETRY).run(data)
    mapcg = MapCGRuntime(app.make_job(), **GEOMETRY).run(data)
    assert mapcg.elapsed_seconds > ours.elapsed_seconds


def test_runtime_modes_pick_organizations():
    from repro.core.organizations import (
        CombiningOrganization,
        MultiValuedOrganization,
    )

    wc, geo = WordCount(), GeoLocation()
    assert isinstance(wc.make_job().make_organization(), CombiningOrganization)
    assert isinstance(geo.make_job().make_organization(), MultiValuedOrganization)
    # the application reads its label off the same choice
    assert (wc.organization, geo.organization) == ("combining", "multi-valued")
    tiny = dict(scale=1 << 11, n_buckets=64)
    for app, org in ((wc, CombiningOrganization), (geo, MultiValuedOrganization)):
        data = app.generate_input(2_000, seed=1)
        assert isinstance(MapReduceRuntime(app.make_job(), **tiny).run(data).table.org, org)
        assert isinstance(MapCGRuntime(app.make_job(), **tiny).run(data).table.org, org)
        assert isinstance(PhoenixRuntime(app.make_job()).run(data).table.table.org, org)


def test_journaled_run_matches_plain_run(tmp_path):
    app = WordCount()
    data = app.generate_input(SMALL, seed=9)
    tight = dict(scale=1 << 16, n_buckets=1 << 10, page_size=2048)
    journal = tmp_path / "wc.npz"

    runtime = MapReduceRuntime(app.make_job(), **tight)
    result = runtime.run(data, journal=journal, checkpoint_every=1)
    assert normalize(result.output()) == normalize(app.reference(data))
    assert result.resilience is not None
    assert result.resilience.checkpoints_written >= 1
    assert journal.exists()

    # the journal left behind holds a mid-run state; resuming replays the
    # tail of the run and converges on the same answer
    resumed = MapReduceRuntime(app.make_job(), **tight).run(
        data, journal=journal, checkpoint_every=1, resume=True
    )
    assert resumed.resilience.resumed_from_iteration is not None
    assert normalize(resumed.output()) == normalize(result.output())


def test_journaled_run_multivalued(tmp_path):
    app = GeoLocation()
    data = app.generate_input(SMALL, seed=2)
    tight = dict(scale=1 << 16, n_buckets=1 << 10, page_size=2048)
    result = MapReduceRuntime(app.make_job(), **tight).run(
        data, journal=tmp_path / "geo.npz", checkpoint_every=2
    )
    assert normalize(result.output()) == normalize(app.reference(data))


def test_runtime_sanitize_knob_reaches_table():
    app = WordCount()
    data = app.generate_input(10_000, seed=3)
    runtime = MapReduceRuntime(app.make_job(), sanitize="paranoid", **GEOMETRY)
    result = runtime.run(data)
    assert result.table.sanitize == "paranoid"
    assert normalize(result.output()) == normalize(app.reference(data))
