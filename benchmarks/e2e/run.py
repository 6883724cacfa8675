#!/usr/bin/env python3
"""The benchmark of record: whole runs, both clocks, every layer.

Two ways in, one measurement:

``python benchmarks/e2e/run.py [--workload W] [--seed S] [--seconds N] [--out DIR]``
    runs each workload in its own fresh single-threaded Python process, one
    after another -- a timed run, then a traced run -- prints every metric
    by name with its unit, writes ``DIR/results-seed<S>.json`` when asked,
    and exits non-zero if any output check failed.

``... --workload W --seed S --seconds N --trace 0|1``
    is one of those processes: it measures workload ``W`` in this process
    and prints its result as the last line of standard output, one JSON
    object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
    reports the end-to-end metrics, ``--trace 1`` the per-layer metrics of
    one traced pass.

See README.md for what each workload and metric means.
"""

from __future__ import annotations

import time

_IMPORT_START = time.perf_counter()

import argparse
import gc
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import NoReturn

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

WORKLOAD_NAMES = ("apps_fit", "apps_ltm", "kv_mixed", "kv_sharded")
#: each of these silently selects a different code path in ``repro``
REFUSED_ENV = ("REPRO_SANITIZE", "REPRO_INTEGRITY", "REPRO_SCALE", "REPRO_NO_NUMBA")
DEFAULT_SECONDS = 24
#: set-up is repeated so that ``setup_s`` is a median, not one sample
SETUP_REPEATS = 3
MIN_PASSES = 3
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "records_per_s": "rec/s",
    "sim_s": "sim_s",
    "peak_rss_mb": "MB",
}


def fail(message: str) -> NoReturn:
    print(f"benchmarks/e2e: {message}", file=sys.stderr)
    raise SystemExit(2)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="how long one run measures timed passes")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="measure in this process: 0 timed, 1 traced")
    parser.add_argument("--out", type=Path,
                        help="directory for results and trace-<workload>.json")
    parser.add_argument("--quick", type=int, default=1,
                        help="size divisor for the self-tests; flags the result")
    args = parser.parse_args(argv)
    if args.trace is not None and args.workload is None:
        parser.error("--trace needs --workload")
    if args.quick < 1 or args.seconds <= 0:
        parser.error("--quick and --seconds must be positive")
    return args


def environment(args: argparse.Namespace) -> dict:
    """Where and how this result was measured."""
    import numpy

    commit = "unknown"
    if (ROOT / ".git").exists():
        probe = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True,
        )
        if probe.returncode == 0:
            commit = probe.stdout.strip()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "commit": commit,
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
    }


# ----------------------------------------------------------------------
# one workload, measured in this process
# ----------------------------------------------------------------------
class Checker:
    """Counts output checks; the first pass's outputs are the yardstick."""

    def __init__(self, workload, inputs):
        self.workload, self.inputs = workload, inputs
        self.attempted = 0
        self.failures: list[str] = []
        self.first = None

    def check(self, result) -> None:
        if self.first is None:
            n, bad = self.workload.check(self.inputs, result)
            self.first = result
        else:
            # same inputs, deterministic program: every later pass must
            # reproduce the checked first pass and its simulated clock
            n, bad = 2, []
            if result.outputs != self.first.outputs:
                bad.append("pass output differs from the first pass's")
            if (result.sim_s, result.sim_breakdown) != (
                self.first.sim_s, self.first.sim_breakdown
            ):
                bad.append(
                    f"simulated clock {result.sim_s!r} differs from the "
                    f"first pass's {self.first.sim_s!r}"
                )
        self.attempted += n
        self.failures += bad


def measure(args: argparse.Namespace) -> int:
    from e2e.calibrate import calibrate, normalised
    from e2e.trace import PER_LAYER_METRICS, Tracer, layer_metrics
    from e2e.workloads import WORKLOADS, digest

    import_s = time.perf_counter() - _IMPORT_START
    workload = WORKLOADS[args.workload]

    setup_samples = []
    cal = calibrate()
    for _ in range(SETUP_REPEATS):
        gc.collect()
        start = time.perf_counter()
        inputs = workload.setup(args.seed, args.quick)
        took = time.perf_counter() - start
        cal, before = calibrate(), cal
        setup_samples.append(normalised(took, before, cal))
    setup_s = import_s + statistics.median(setup_samples)

    checker = Checker(workload, inputs)

    def one_pass(tracer=None) -> tuple[float, float, "PassResult"]:
        """(raw seconds, normalised seconds, result) of one checked pass."""
        nonlocal cal
        gc.collect()
        with tracer if tracer is not None else nullcontext():
            start = time.perf_counter()
            result = workload.run_pass(inputs, tracer)
            took = time.perf_counter() - start
        cal, before = calibrate(), cal
        checker.check(result)
        return took, normalised(took, before, cal), result

    raw, norm, traced, rounds = [], [], [], []
    measuring = time.perf_counter()
    deadline = measuring + args.seconds
    # stop while a further round would still end inside the budget
    while len(raw) < MIN_PASSES or (
        time.perf_counter() + statistics.median(rounds) < deadline
    ):
        round_start = time.perf_counter()
        took, took_norm, _ = one_pass()
        raw.append(took)
        norm.append(took_norm)
        if args.trace:
            tracer = Tracer()
            took, took_norm, _ = one_pass(tracer)
            traced.append((took_norm, took, tracer))
        rounds.append(time.perf_counter() - round_start)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall_s, raw_median = statistics.median(norm), statistics.median(raw)
    first = checker.first

    if args.trace:
        # the breakdown of record is one whole pass, the one of median wall
        # time, so that its self times add up to its wall time exactly
        traced.sort(key=lambda t: t[0])
        _, took, tracer = traced[(len(traced) - 1) // 2]
        metrics = layer_metrics(tracer.spans, tracer.counts, took)
        # every pass reproduced the first pass's simulated clock (checked)
        for category, seconds in first.sim_breakdown.items():
            if f"gpusim.sim.{category}_s" in metrics:
                metrics[f"gpusim.sim.{category}_s"] = seconds
        metrics.update(first.layer)
        metrics["bench.trace_overhead_pct"] = 100 * (
            statistics.median(t[0] for t in traced) / wall_s - 1
        )
        metrics["bench.wall_spread_pct"] = 100 * (max(norm) - min(norm)) / wall_s
        metrics["bench.wall_raw_s"] = raw_median
        metrics["bench.failed_share"] = len(checker.failures) / checker.attempted
        units = PER_LAYER_METRICS
        if args.out is not None:
            args.out.mkdir(parents=True, exist_ok=True)
            (args.out / f"trace-{args.workload}.json").write_text(json.dumps({
                "workload": args.workload, "seed": args.seed,
                "fields": ["name", "start", "end", "parent", "run"],
                "spans": tracer.spans, "counts": tracer.counts,
                "missing": tracer.missing,
            }))
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "records_per_s": first.records / wall_s,
            "sim_s": first.sim_s,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS

    details = {
        "workload": args.workload,
        "env": environment(args),
        "passes": len(raw),
        "wall_s_min": min(norm), "wall_s_max": max(norm),
        "wall_raw_s": raw_median,
        "wall_raw_s_min": min(raw), "wall_raw_s_max": max(raw),
        "import_s": import_s,
        "measured_s": time.perf_counter() - measuring,
        "records": first.records,
        "sim_s": first.sim_s,
        "input_digest": inputs["input_digest"],
        "output_digest": digest(first.outputs),
        "cells": {k: [f"{s:.2f}", i] for k, (s, i) in first.cells.items()},
        "failures": checker.failures[:20],
    }
    print(f"== {args.workload} seed {args.seed}"
          f"{' QUICK/' + str(args.quick) if args.quick > 1 else ''}: "
          f"{len(raw)} timed passes, wall_s median {wall_s:.4f} "
          f"(min {min(norm):.4f}, max {max(norm):.4f}; raw median "
          f"{raw_median:.4f})")
    return report(metrics, units, details, checker)


def report(metrics: dict, units: dict, details: dict, checker: Checker) -> int:
    """Every metric by name with its unit, then the two machine-read lines;
    the last line of standard output is the contracted result."""
    for name, value in metrics.items():
        print(f"{name:42s} {value:16.6f} {units[name]}")
    for failure in details["failures"]:
        print(f"FAILED {failure}")
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": not checker.failures,
        "attempted": checker.attempted,
        "failed": len(checker.failures),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if not checker.failures else 1


# ----------------------------------------------------------------------
# every workload, each in its own process
# ----------------------------------------------------------------------
def run_all(args: argparse.Namespace) -> int:
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    results = []
    status = 0
    for name in names:
        for trace in (0, 1):
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace), "--quick", str(args.quick),
            ]
            if args.out is not None:
                command += ["--out", str(args.out)]
            child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            lines = child.stdout.splitlines()
            print("\n".join(lines[:-2]), flush=True)
            if child.returncode not in (0, 1) or len(lines) < 2:
                print(f"== {name} --trace {trace} died with code "
                      f"{child.returncode}", flush=True)
                status = 1
                continue
            status = max(status, child.returncode)
            results.append({
                "trace": trace,
                **json.loads(lines[-2])["details"],
                **json.loads(lines[-1]),
            })
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        path = args.out / f"results-seed{args.seed}.json"
        path.write_text(json.dumps(results, indent=1) + "\n")
        print(f"wrote {path}")
    print("all checks passed" if status == 0 else "SOME CHECKS FAILED")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    overrides = [name for name in REFUSED_ENV if name in os.environ]
    if overrides:
        fail(f"refusing to measure with {', '.join(overrides)} set: each "
             "selects a different code path than the one of record")
    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        fail(f"{ROOT / 'src' / 'repro'} not found: the benchmark measures the "
             "checkout it is part of")
    if args.trace is None:
        return run_all(args)
    # The checkout's own ``repro`` first.  This directory is imported as the
    # package ``e2e`` and taken off the path: top-level, its trace.py would
    # shadow the standard library's.
    sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != HERE]
    sys.path[:0] = [str(ROOT / "src"), str(HERE.parent)]
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
