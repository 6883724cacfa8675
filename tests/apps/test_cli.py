"""The `python -m repro.apps` command-line runner."""

import inspect

import pytest

from repro.apps import WordCount
from repro.apps.__main__ import APPS, main
from repro.core import session
from repro.integrity import INTEGRITY_MODES
from repro.mapreduce import MapReduceRuntime
from repro.sanitize import LEVELS


def test_all_seven_apps_registered():
    assert len(APPS) == 7


@pytest.mark.parametrize("device", ["gpu", "cpu", "pinned"])
def test_cli_runs_and_verifies(device, capsys):
    rc = main(["pvc", "--size", "60000", "--device", device,
               "--scale", "8192", "--buckets", "1024"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Page View Count" in out
    assert "verified against the reference" in out
    assert "simulated time" in out


def test_cli_grouping_app(capsys):
    rc = main(["patent-citation", "--size", "40000", "--scale", "8192",
               "--buckets", "1024", "--top", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "top 3" in out


def test_cli_no_verify_skips_check(capsys):
    rc = main(["wordcount", "--size", "30000", "--scale", "8192",
               "--buckets", "1024", "--no-verify"])
    assert rc == 0
    assert "verified" not in capsys.readouterr().out


def test_cli_unknown_app_rejected():
    with pytest.raises(SystemExit):
        main(["not-an-app"])


@pytest.mark.parametrize("level", LEVELS)
def test_cli_offers_every_sanitize_level_the_table_takes(level, capsys):
    rc = main(["wordcount", "--size", "20000", "--scale", "8192",
               "--buckets", "1024", "--sanitize", level])
    assert rc == 0
    assert "verified against the reference" in capsys.readouterr().out


def test_cli_rejects_a_sanitize_level_the_table_rejects(capsys):
    with pytest.raises(SystemExit):
        main(["wordcount", "--sanitize", "cheap"])
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("mode", INTEGRITY_MODES)
def test_cli_offers_every_integrity_mode(mode, capsys):
    rc = main(["wordcount", "--size", "20000", "--scale", "8192",
               "--buckets", "1024", "--integrity", mode])
    assert rc == 0
    out = capsys.readouterr().out
    assert ("integrity       : mode " + mode in out) == (mode != "off")


@pytest.mark.parametrize("scrub_budget, checkpoint_every", [(None, None), (7, 3)])
def test_cli_help_shows_the_defaults_wire_declares(
    scrub_budget, checkpoint_every, capsys, monkeypatch
):
    """The help text reads the run options' defaults off ``wire``, so it
    follows a change there."""
    if scrub_budget is not None:
        monkeypatch.setattr(session.wire, "__kwdefaults__", dict(
            session.wire.__kwdefaults__, scrub_budget=scrub_budget,
            checkpoint_every=checkpoint_every,
        ))
    params = inspect.signature(session.wire).parameters
    with pytest.raises(SystemExit):
        main(["--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert f"per SEPO iteration (default {params['scrub_budget'].default};" in text
    assert f"N SEPO iterations (default {params['checkpoint_every'].default})" in text


def test_cli_resume_needs_a_journal(capsys):
    with pytest.raises(SystemExit):
        main(["wordcount", "--resume"])
    assert "--resume requires --journal" in capsys.readouterr().err


def test_library_resume_needs_a_journal_too():
    """``run_gpu(data, resume=True)`` used to run fresh without a word."""
    app = WordCount()
    data = app.generate_input(5_000, seed=0)
    with pytest.raises(ValueError, match="journal"):
        app.run_gpu(data, scale=8192, n_buckets=256, resume=True)
    job = MapReduceRuntime(app.make_job(), scale=8192, n_buckets=256)
    with pytest.raises(ValueError, match="journal"):
        job.run(data, resume=True)
