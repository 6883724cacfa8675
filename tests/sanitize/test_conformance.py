"""The oracle-backed conformance matrix as a pytest gate.

Every implementation x workload cell (plus at least one fault-injected
cell per implementation) must match the pure-dict oracle -- with the
arena sanitizer enabled throughout.
"""

import pytest

import repro.sanitize.conformance as C
from repro.sanitize.workloads import (
    WORKLOADS,
    make_batches,
    make_workload,
    oracle,
)


def test_registry_shape():
    names = [s.name for s in C.IMPLEMENTATIONS]
    assert len(names) == len(set(names))
    # the SEPO cells plus the CPU and pinned-heap baselines
    assert len(names) >= 8
    assert {"cpu-table", "pinned"} <= set(names)
    # every implementation has at least one fault-injected case, except
    # the sharded cells (whose extra bar is the cross-shard placement
    # check their runner performs on every run)
    assert all(
        s.fault_cases
        for s in C.IMPLEMENTATIONS
        if not s.name.startswith("sepo-shard")
    )
    # and at least 3 shared workloads
    assert len(C.WORKLOAD_NAMES) >= 3


# one pytest case per cell so a failure names its (impl, workload) pair;
# op-stream (sepo-mut-*) implementations consume the mutation workloads
@pytest.mark.parametrize(
    "impl,workload",
    [
        (s.name, w)
        for s in C.IMPLEMENTATIONS
        for w in (
            s.workloads
            or (C.MUTATION_WORKLOAD_NAMES if s.op_stream else C.WORKLOAD_NAMES)
        )
    ],
)
def test_conformance_cell(impl, workload):
    spec = next(s for s in C.IMPLEMENTATIONS if s.name == impl)
    outcome = C.run_case(spec, workload, n=300, seed=11, sanitize="iteration")
    assert outcome.ok, outcome.detail


@pytest.mark.parametrize(
    "impl,fault",
    [
        (s.name, fc[0])
        for s in C.IMPLEMENTATIONS
        for fc in s.fault_cases
    ],
)
def test_fault_injected_cell(impl, fault):
    spec = next(s for s in C.IMPLEMENTATIONS if s.name == impl)
    fault_case = next(fc for fc in spec.fault_cases if fc[0] == fault)
    # mutation fault cells run delete-heavy so the injected fault lands on
    # delete/update calls, mirroring run_matrix
    workload = "delete-heavy-uniform" if spec.op_stream else "uniform"
    outcome = C.run_case(
        spec, workload, n=300, seed=11, sanitize="end", fault_case=fault_case
    )
    assert outcome.ok, outcome.detail


# ----------------------------------------------------------------------
# harness plumbing
# ----------------------------------------------------------------------
def test_workloads_are_deterministic():
    a = make_workload("zipf", 200, seed=3)
    b = make_workload("zipf", 200, seed=3)
    assert a.keys == b.keys and a.values == b.values
    c = make_workload("zipf", 200, seed=4)
    assert a.keys != c.keys or a.values != c.values


def test_workload_shapes():
    n = 300
    uniform = make_workload("uniform", n, 0)
    zipf = make_workload("zipf", n, 0)
    dup = make_workload("all-duplicates", n, 0)
    assert len(uniform) == len(zipf) == len(dup) == n
    assert len(set(dup.keys)) == 1
    # zipf concentrates mass on few keys relative to uniform
    assert len(set(zipf.keys)) < len(set(uniform.keys))
    with pytest.raises(ValueError, match="unknown workload"):
        make_workload("gaussian", n, 0)
    assert set(WORKLOADS) == set(C.WORKLOAD_NAMES)


def test_oracle_matches_hand_computation():
    w = make_workload("all-duplicates", 5, 0)
    combined = oracle(w, "combining")
    assert combined == {w.keys[0]: sum(w.values)}
    grouped = oracle(w, "basic")
    assert list(grouped) == [w.keys[0]]
    assert len(grouped[w.keys[0]]) == 5


def test_batches_split_and_modes():
    w = make_workload("uniform", 100, 0)
    numeric = make_batches(w, "combining", batch_size=32)
    assert [len(b) for b in numeric] == [32, 32, 32, 4]
    assert all(b.numeric_values is not None for b in numeric)
    byte = make_batches(w, "basic", batch_size=64)
    assert all(b.values is not None for b in byte)


def test_diff_results_reports_each_class():
    expected = {b"a": 1, b"b": 2, b"c": 3}
    diffs = C.diff_results(expected, {b"a": 1, b"b": 9, b"d": 4})
    joined = "\n".join(diffs)
    assert "missing key b'c'" in joined
    assert "expected 2, got 9" in joined
    assert "unexpected key b'd'" in joined
    assert C.diff_results(expected, dict(expected)) == []


def test_cli_exit_codes(capsys):
    assert C.main(["--n", "120", "--seed", "5", "--no-faults"]) == 0
    out = capsys.readouterr().out
    assert "cells passed" in out
