"""The SIGKILL harness itself: kill a real process, resume, compare.

These run the same orchestration CI uses (``python -m
repro.resilience.crashtest``) but at a reduced scale so the whole
kill/resume/verify cycle stays fast in the tier-1 suite.
"""

import json
import os
import signal
import subprocess
import sys

import pytest

from repro.resilience import crashtest


def parent_args(**over):
    ns = dict(size=120_000, seed=1, scale=65_536, buckets=512)
    ns.update(over)
    return ns


def spawn(tmp_path, schedule, resume, **over):
    ns = parent_args(**over)
    cmd = [
        sys.executable, "-m", "repro.resilience.crashtest", "--child",
        "--journal", str(tmp_path / "j.npz"),
        "--checkpoint-every", str(schedule["checkpoint_every"]),
        "--size", str(ns["size"]), "--seed", str(ns["seed"]),
        "--scale", str(ns["scale"]), "--buckets", str(ns["buckets"]),
    ]
    if resume:
        cmd.append("--resume")
    else:
        cmd += [
            "--kill-after-checkpoint", str(schedule["after_checkpoint"]),
            "--kill-inserts", str(schedule["inserts"]),
        ]
    env = dict(os.environ, REPRO_SANITIZE="paranoid",
               PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


def test_sigkill_and_resume_is_byte_identical(tmp_path):
    import argparse

    schedule = {"checkpoint_every": 1, "after_checkpoint": 1, "inserts": 3}
    # what the harness's own parser leaves on a parent's namespace
    ns = argparse.Namespace(
        **parent_args(), checkpoint_every=schedule["checkpoint_every"],
        mutation=None, integrity=None, scrub_budget=None,
    )

    victim = spawn(tmp_path, schedule, resume=False)
    assert victim.returncode == -signal.SIGKILL, victim.stderr
    assert (tmp_path / "j.npz").exists()

    survivor = spawn(tmp_path, schedule, resume=True)
    assert survivor.returncode == 0, survivor.stderr
    out = json.loads(survivor.stdout)
    assert out["resumed_from"] is not None

    oracle = crashtest._oracle(ns, str(tmp_path))
    assert out["digest"] == oracle["digest"]
    assert out["result_crc"] == oracle["result_crc"]
    assert out["elapsed"] == pytest.approx(oracle["elapsed"], abs=1e-12)


def test_crashtest_schedules_are_defined():
    assert len(crashtest.SCHEDULES) == 6
    for schedule in crashtest.SCHEDULES:
        assert schedule["checkpoint_every"] >= 1
        assert schedule["after_checkpoint"] >= 1
    # one schedule per organization kills mid-mutation-pass (delete-heavy
    # batches); the multi-valued one reaches every-group-failed
    assert sorted(
        s["mutation"] for s in crashtest.SCHEDULES if s.get("mutation")
    ) == ["basic", "multi-valued"]
    # exactly one dies inside an integrity scrub sweep
    assert sum(bool(s.get("mid_scrub")) for s in crashtest.SCHEDULES) == 1
    for s in crashtest.SCHEDULES:
        if s.get("mid_scrub"):
            assert s["integrity"] == "scrub"


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_the_multivalued_kill_and_resume_both_cross_skipped_chunks(
    tmp_path, seed
):
    """The multi-valued schedule's victim skips a chunk the gate would
    refuse after its checkpoint and before the batch call it dies on, and
    the passes a resume replays skip chunks too (the CI seeds)."""
    import argparse

    schedule = next(
        s for s in crashtest.SCHEDULES if s.get("mutation") == "multi-valued"
    )
    ns = argparse.Namespace(
        **parent_args(size=200_000, seed=seed),
        checkpoint_every=schedule["checkpoint_every"],
        mutation="multi-valued", integrity=None, scrub_budget=None,
    )
    wired, _ = crashtest._build(ns, str(tmp_path / "j.npz"))
    chunks = crashtest._chunk_log(wired.table)
    wired.run()
    resumed_at = schedule["after_checkpoint"] * schedule["checkpoint_every"]
    after = [skipped for p, skipped in chunks if p >= resumed_at]
    # the victim dies on the batch call after ``inserts`` more
    died_at = [i for i, skipped in enumerate(after) if not skipped][
        schedule["inserts"]
    ]
    assert any(after[:died_at])
