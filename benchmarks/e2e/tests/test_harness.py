"""Determinism of the workloads and the command-line contract of run.py."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from conftest import E2E, QUICK, ROOT
from e2e.run import END_TO_END_UNITS, REFUSED_ENV, WORKLOAD_NAMES
from e2e.trace import PER_LAYER_METRICS, Tracer
from e2e.workloads import WORKLOADS, digest

RUN = [sys.executable, str(E2E / "run.py")]


def clean_env(**extra):
    env = {k: v for k, v in os.environ.items() if k not in REFUSED_ENV}
    env.update(extra)
    return env


def traced_pass(workload, seed):
    inputs = workload.setup(seed, QUICK)
    with Tracer() as tracer:
        result = workload.run_pass(inputs, tracer)
    return inputs, result, tracer.counts


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_same_run_other_seed_other_inputs(name):
    workload = WORKLOADS[name]
    inputs, result, counts = traced_pass(workload, 5)
    inputs2, result2, counts2 = traced_pass(workload, 5)
    assert inputs2["input_digest"] == inputs["input_digest"]
    assert result2.sim_s == result.sim_s
    assert result2.sim_breakdown == result.sim_breakdown
    assert counts2 == counts and counts
    assert digest(result2.outputs) == digest(result.outputs)
    assert result.sim_s == pytest.approx(sum(result.sim_breakdown.values()))
    other = workload.setup(6, QUICK)
    assert other["input_digest"] != inputs["input_digest"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_checks_catch_a_wrong_a_missing_and_an_extra_answer(name):
    workload = WORKLOADS[name]
    inputs = workload.setup(0, QUICK)
    result = workload.run_pass(inputs)
    attempted, failures = workload.check(inputs, result)
    assert attempted > 100 and failures == []
    table = next(v for v in result.outputs.values() if isinstance(v, dict) and len(v) > 2)
    wrong, missing = list(table)[:2]
    table[wrong] = b"not the answer"
    del table[missing]
    table[b"never inserted"] = 1
    attempted2, failures = workload.check(inputs, result)
    assert attempted2 == attempted + 1 and len(failures) == 3


def test_workload_names_agree_everywhere():
    assert tuple(WORKLOADS) == WORKLOAD_NAMES
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_METRICS
    assert spec["paths"] == [str(E2E.relative_to(ROOT))]


@pytest.mark.parametrize("trace, names", [(0, END_TO_END_UNITS), (1, PER_LAYER_METRICS)])
def test_one_run_prints_the_contracted_result_last(trace, names, tmp_path):
    done = subprocess.run(
        RUN + ["--workload", "kv_sharded", "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--quick", str(QUICK), "--out", str(tmp_path)],
        capture_output=True, text=True, env=clean_env(), cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(names)
    assert all(sorted(v) == ["unit", "value"] for v in result["metrics"].values())
    details = json.loads(lines[-2])["details"]
    env = details["env"]
    assert env["quick"] == QUICK and env["seed"] == 3 and "QUICK" in lines[0]
    assert {"python", "numpy", "numba", "nproc", "commit"} <= set(env)
    assert details["passes"] >= 3
    if trace:
        spans = json.loads((tmp_path / "trace-kv_sharded.json").read_text())
        assert spans["spans"] and spans["missing"] == []
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        layers = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        assert layers + metrics["bench.untraced_self_s"] == pytest.approx(
            metrics["bench.traced_wall_s"], rel=1e-6
        )
        assert metrics["bench.untraced_self_s"] < 0.1 * layers
        # exactly 0 where the workload has no such layer
        assert metrics["apps.parse.self_s"] == 0 == metrics["cpu.cputable.sim_s"]
        assert metrics["shard.router.flushes"] > 0
    else:
        assert not list(tmp_path.iterdir()), "a timed run writes nothing"
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", REFUSED_ENV)
def test_refuses_to_measure_under_an_override(name):
    done = subprocess.run(
        RUN + ["--workload", "kv_mixed", "--trace", "0", "--quick", str(QUICK)],
        capture_output=True, text=True, env=clean_env(**{name: "1"}),
    )
    assert done.returncode == 2 and name in done.stderr
    assert done.stdout == ""


def test_fails_without_the_checkout_around_it(tmp_path):
    """In a directory holding only the benchmark there is no program."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        E2E, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "apps_fit",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, env=clean_env(), cwd=tmp_path,
    )
    assert done.returncode != 0 and done.stdout == ""
    assert "not found" in done.stderr
