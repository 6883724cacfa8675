"""SIGKILL-and-resume conformance harness (``python -m repro.resilience.crashtest``).

The parent process runs seeded fault schedules against the WordCount
application, plus a basic and a multi-valued ``mutation`` schedule that
SIGKILL inside a delete-heavy :class:`~repro.core.mutations.MutationBatch`
pass (the journal must carry tombstone/mutation counters; the multi-valued
resumed run must skip chunks the gate refuses).  For each schedule it:

1. computes an *uninterrupted oracle* in-process -- a
   :class:`~repro.resilience.ResilientDriver` run with the schedule's
   ``checkpoint_every`` (checkpointing quiesces the table, so the oracle
   must checkpoint on the same cadence as the victim);
2. spawns a child that runs the same job journaled, and ``SIGKILL``\\ s
   itself mid-iteration -- a configurable number of chunks (insert or
   mutate) after the Nth checkpoint lands, so the journal is guaranteed to
   exist and the death is guaranteed to be mid-pass;
3. spawns a second child that resumes from the journal and prints its
   final table digest, result checksum, and simulated clock;
4. asserts the resumed run is byte-identical to the oracle (table
   digest), value-identical to the pure-Python dict oracle
   (``app.reference``), and clock-identical to the uninterrupted run.

Children run under ``REPRO_SANITIZE=paranoid`` so every structural
invariant is re-checked after restore.  A final in-process phase injects
a :class:`~repro.sanitize.TransientTransferFault` schedule and asserts
the run completes with the retry time visible in the simulated-clock
breakdown.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import zlib
from types import SimpleNamespace

from repro.apps.wordcount import WordCount
from repro.core.organizations import BasicOrganization, MultiValuedOrganization
from repro.core.session import wire
from repro.resilience.journal import table_digest
from repro.sanitize.workloads import (
    make_mutation_batches,
    make_op_workload,
    mutation_oracle,
)

__all__ = ["SCHEDULES", "main"]

#: (checkpoint cadence, kill after Nth checkpoint, + this many batch
#: calls).  ``mutation`` schedules stream delete-heavy MutationBatches into
#: that organization: the SIGKILL lands mid-mutation-run (after a skip).
#: The ``integrity`` schedule runs with checksums + background scrubbing
#: on and dies *inside* the scrub sweep -- after CRC work mutated the
#: scrub cursor but before the charge was drained or checkpointed -- so
#: resume must replay the torn maintenance from journaled integrity meta.
SCHEDULES = [
    {"checkpoint_every": 1, "after_checkpoint": 1, "inserts": 3},
    {"checkpoint_every": 1, "after_checkpoint": 2, "inserts": 5},
    {"checkpoint_every": 2, "after_checkpoint": 1, "inserts": 7},
    {"checkpoint_every": 1, "after_checkpoint": 1, "inserts": 2,
     "mutation": "basic"},
    {"checkpoint_every": 1, "after_checkpoint": 1, "inserts": 0,
     "integrity": "scrub", "scrub_budget": 2, "mid_scrub": True},
    {"checkpoint_every": 2, "after_checkpoint": 1, "inserts": 8,
     "mutation": "multi-valued"},
]


def _result_crc(result: dict) -> int:
    """Order-independent checksum of a table's result dictionary."""
    crc = 0
    for key in sorted(result):
        value = result[key]
        if isinstance(value, list):
            value = sorted(value)
        crc = zlib.crc32(key, crc)
        crc = zlib.crc32(repr(value).encode(), crc)
    return crc


def _mutation_stream(args):
    """Delete-heavy MutationBatch stream over an ``args.mutation`` table,
    as ``(job, batches, reference)``: the job described the way
    :func:`~repro.core.session.wire` takes one, and the dict model's answer
    (sorted value lists) in place of an application's ``reference``."""
    n_ops = max(600, args.size // 40)
    workload = make_op_workload("delete-heavy-uniform", n_ops, seed=args.seed)
    batches = make_mutation_batches(
        workload, args.mutation, batch_size=max(50, n_ops // 12)
    )
    job = SimpleNamespace(
        name="mutation stream", chunk_bytes=1 << 20,
        make_organization={
            "basic": BasicOrganization, "multi-valued": MultiValuedOrganization,
        }[args.mutation],
    )
    return job, batches, mutation_oracle(workload, args.mutation)[0]


def _chunk_log(table) -> list:
    """``(pass, skipped)`` of each chunk a pass applies or skips: the
    chunks the gate refuses, and those a mixed-op run stopped before
    without halting the pass (the gate refuses them from there on)."""
    log, refuses, apply = [], table.gate_refuses, table.apply_batch

    def logged_refuses(batch):
        if refuses(batch):
            log.append((table.iterations_completed, True))
            return True
        return False

    def logged_apply(parts):
        results = apply(parts)
        log.extend((table.iterations_completed, False) for _ in results)
        if not table.should_halt():
            log.extend(
                (table.iterations_completed, True)
                for _ in parts[len(results):])
        return results

    table.gate_refuses, table.apply_batch = logged_refuses, logged_apply
    return log


def _build(args, journal=None, resume=False):
    """The schedule's job wired like any other run; returns ``(wired,
    reference)`` with the wired run still open to instrumentation."""
    options = dict(
        scale=args.scale,
        n_buckets=args.buckets,
        page_size=4096,
        integrity="off",
        journal=journal,
        checkpoint_every=args.checkpoint_every,
        resume=resume,
    )
    if args.integrity:
        options.update(
            integrity=args.integrity, scrub_budget=args.scrub_budget
        )
    if args.mutation:
        job, batches, reference = _mutation_stream(args)
        return wire(job, batches=batches, **options), reference
    app = WordCount()
    data = app.generate_input(args.size, seed=args.seed)
    return wire(app, data, **options), app.reference(data)


def _child(args) -> int:
    wired, _ = _build(args, args.journal, args.resume)
    table, resilient = wired.table, wired.driver
    chunks = _chunk_log(table)
    if args.kill_after_checkpoint is not None:
        seen = {"checkpoints": 0, "inserts": 0}
        checkpoint = resilient.checkpoint

        def counting_checkpoint(batches_, state):
            checkpoint(batches_, state)
            seen["checkpoints"] += 1

        apply = table.apply_batch

        def killing(parts):
            armed = seen["checkpoints"] >= args.kill_after_checkpoint
            room = args.kill_inserts - seen["inserts"] if armed else len(parts)
            results = apply(parts[:room]) if room else []
            if armed:
                seen["inserts"] += len(results)
                if len(results) == room < len(parts):
                    # the kill lands inside this call: the chunks before
                    # it ran, now die the hard way (no atexit, no
                    # cleanup, no flush)
                    os.kill(os.getpid(), signal.SIGKILL)
            return results  # short where a mixed-op run stopped

        resilient.checkpoint = counting_checkpoint
        if args.kill_mid_scrub:
            # die inside the scrub sweep: the CRC pass has advanced the
            # cursor and accrued uncharged pending bytes, none of which
            # survives -- resume must rebuild them from journaled meta
            integ = table.heap.integrity
            scrub = integ.scrub

            def scrub_and_die(heap):
                swept = scrub(heap)
                if seen["checkpoints"] >= args.kill_after_checkpoint:
                    os.kill(os.getpid(), signal.SIGKILL)
                return swept

            integ.scrub = scrub_and_die
        else:
            # every run goes through apply_batch: the kill lands mid-pass,
            # counting the chunks of a joined run one by one
            table.apply_batch = killing

    outcome = wired.run()
    report = outcome.resilience
    print(json.dumps({
        "digest": table_digest(table),
        "result_crc": _result_crc(outcome.output()),
        "elapsed": outcome.elapsed_seconds,
        "iterations": outcome.iterations,
        "resumed_from": report.resumed_from_iteration,
        "checkpoints": report.checkpoints_written,
        "skipped": sum(skipped for _, skipped in chunks),
    }))
    return 0


def _spawn(args, journal, schedule, resume: bool):
    cmd = [
        sys.executable, "-m", "repro.resilience.crashtest", "--child",
        "--journal", journal,
        "--checkpoint-every", str(schedule["checkpoint_every"]),
        "--size", str(args.size), "--seed", str(args.seed),
        "--scale", str(args.scale), "--buckets", str(args.buckets),
    ]
    if schedule.get("mutation"):
        cmd += ["--mutation", schedule["mutation"]]
    if schedule.get("integrity"):
        cmd += [
            "--integrity", schedule["integrity"],
            "--scrub-budget", str(schedule["scrub_budget"]),
        ]
    if resume:
        cmd.append("--resume")
    else:
        cmd += [
            "--kill-after-checkpoint", str(schedule["after_checkpoint"]),
            "--kill-inserts", str(schedule["inserts"]),
        ]
        if schedule.get("mid_scrub"):
            cmd.append("--kill-mid-scrub")
    env = dict(os.environ, REPRO_SANITIZE="paranoid")
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


def _oracle(args, workdir: str):
    """Uninterrupted resilient run on the schedule's checkpoint cadence."""
    suffix = f"-{args.mutation}" if args.mutation else ""
    if args.integrity:
        suffix += f"-{args.integrity}"
    journal = os.path.join(
        workdir, f"oracle-{args.checkpoint_every}{suffix}.npz"
    )
    wired, reference = _build(args, journal)
    outcome = wired.run()
    # the mutation reference holds sorted value lists; the table's chains
    # are newest-first, so normalize before comparing
    actual = {
        k: sorted(v) if isinstance(v, list) else v
        for k, v in outcome.output().items()
    }
    assert actual == reference, (
        "oracle run disagrees with the pure-Python reference"
    )
    return {
        "digest": table_digest(wired.table),
        "result_crc": _result_crc(reference),
        "elapsed": outcome.elapsed_seconds,
        "iterations": outcome.iterations,
    }


def _retry_phase(args) -> None:
    from repro.sanitize import TransientTransferFault

    wired, _ = _build(args)
    fault = TransientTransferFault(every=5, failures=2)
    fault.install(wired.table, wired.driver)
    retry = wired.run().breakdown.get("retry", 0.0)
    bus = wired.session.bus
    assert bus.retries > 0, "fault schedule never fired"
    assert retry > 0.0, "retry time missing from the clock breakdown"
    print(f"retry phase: {bus.retries} retries, "
          f"{retry * 1e6:.2f}us charged to the simulated clock")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.resilience.crashtest")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--journal", help=argparse.SUPPRESS)
    parser.add_argument("--checkpoint-every", type=int, default=1,
                        help=argparse.SUPPRESS)
    parser.add_argument("--resume", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--kill-after-checkpoint", type=int, default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("--kill-inserts", type=int, default=0,
                        help=argparse.SUPPRESS)
    parser.add_argument("--mutation", help=argparse.SUPPRESS)
    parser.add_argument("--integrity", default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("--scrub-budget", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--kill-mid-scrub", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--size", type=int, default=200_000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", type=int, default=65_536)
    parser.add_argument("--buckets", type=int, default=512)
    args = parser.parse_args(argv)

    os.environ.setdefault("REPRO_SANITIZE", "paranoid")
    if args.child:
        return _child(args)

    oracles: dict[tuple, dict] = {}
    failures = 0
    with tempfile.TemporaryDirectory(prefix="crashtest-") as workdir:
        for i, schedule in enumerate(SCHEDULES, 1):
            args.checkpoint_every = schedule["checkpoint_every"]
            args.mutation = schedule.get("mutation")
            args.integrity = schedule.get("integrity")
            args.scrub_budget = schedule.get("scrub_budget")
            key = (args.checkpoint_every, args.mutation, args.integrity)
            if key not in oracles:
                oracles[key] = _oracle(args, workdir)
            oracle = oracles[key]
            journal = os.path.join(workdir, f"schedule-{i}.npz")

            victim = _spawn(args, journal, schedule, resume=False)
            if victim.returncode != -signal.SIGKILL:
                print(f"schedule {i}: victim exited {victim.returncode}, "
                      f"expected SIGKILL\n{victim.stderr}")
                failures += 1
                continue
            if not os.path.exists(journal):
                print(f"schedule {i}: victim died without writing a journal")
                failures += 1
                continue

            survivor = _spawn(args, journal, schedule, resume=True)
            if survivor.returncode != 0:
                print(f"schedule {i}: resume failed\n{survivor.stderr}")
                failures += 1
                continue
            out = json.loads(survivor.stdout)

            problems = []
            if out["digest"] != oracle["digest"]:
                problems.append(
                    f"table digest {out['digest']} != oracle {oracle['digest']}"
                )
            if out["result_crc"] != oracle["result_crc"]:
                problems.append("result differs from the dict oracle")
            if abs(out["elapsed"] - oracle["elapsed"]) > 1e-12:
                problems.append(
                    f"clock {out['elapsed']} != oracle {oracle['elapsed']}"
                )
            if out["resumed_from"] is None:
                problems.append("survivor did not resume from the journal")
            if schedule.get("mutation") == "multi-valued" and not out["skipped"]:
                problems.append("the resumed run skipped no chunk")
            if problems:
                failures += 1
                print(f"schedule {i}: FAIL ({'; '.join(problems)})")
            else:
                print(f"schedule {i}: OK -- killed after checkpoint "
                      f"{schedule['after_checkpoint']}+{schedule['inserts']} "
                      f"inserts, resumed at iteration {out['resumed_from']}, "
                      f"byte-identical through iteration {out['iterations']}")

    args.mutation = None
    args.integrity = None
    _retry_phase(args)
    if failures:
        print(f"{failures} schedule(s) failed")
        return 1
    print("all schedules byte-identical after SIGKILL + resume")
    return 0


if __name__ == "__main__":
    sys.exit(main())
