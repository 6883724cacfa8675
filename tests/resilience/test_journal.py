"""Journal format: atomic round-trips and loud rejection of corruption."""

import numpy as np
import pytest

from repro.core import CombiningOrganization, SUM_I64
from repro.core.checkpoint import CheckpointError, load_table
from repro.resilience import (
    JournalError,
    ResilientDriver,
    input_fingerprint,
    read_journal,
    table_digest,
    write_journal,
)
from tests.core.conftest import make_table, numeric_batch
from tests.resilience.test_resilient_driver import make_driver, workload


def sample():
    meta = {"driver": {"iteration": 3}, "fingerprint": {"n": 2}}
    arrays = {
        "pending": np.array([True, False, True]),
        "log": np.arange(14, dtype=np.int64).reshape(2, 7),
    }
    return meta, arrays


def test_roundtrip(tmp_path):
    path = tmp_path / "j.npz"
    meta, arrays = sample()
    write_journal(path, meta, arrays)
    got_meta, got_arrays = read_journal(path)
    assert got_meta["driver"] == meta["driver"]
    assert got_meta["journal_version"] == 2
    assert np.array_equal(got_arrays["pending"], arrays["pending"])
    assert np.array_equal(got_arrays["log"], arrays["log"])


def test_write_is_atomic_no_tmp_left_behind(tmp_path):
    path = tmp_path / "j.npz"
    write_journal(path, *sample())
    write_journal(path, *sample())  # overwrite goes through os.replace too
    assert sorted(p.name for p in tmp_path.iterdir()) == ["j.npz"]


def test_missing_file_rejected(tmp_path):
    with pytest.raises(JournalError, match="no journal"):
        read_journal(tmp_path / "absent.npz")


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "j.npz"
    write_journal(path, *sample())
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(JournalError):
        read_journal(path)


def test_journal_error_is_checkpoint_error():
    # callers that guard checkpoint reads with ``except CheckpointError``
    # must also catch journal damage without importing the resilience layer
    from repro.core import checkpoint
    from repro.core.checkpoint import CheckpointError
    from repro.resilience import journal

    assert issubclass(JournalError, CheckpointError)
    # one archive: the journal module's names are the checkpoint module's
    for name in ("JournalError", "read_journal", "write_journal"):
        assert getattr(journal, name) is getattr(checkpoint, name)


def test_truncated_tail_raises_checkpoint_error(tmp_path):
    """A crash mid-write that left a torn tail fails as a checkpoint error."""
    from repro.core.checkpoint import CheckpointError

    path = tmp_path / "j.npz"
    write_journal(path, *sample())
    raw = path.read_bytes()
    path.write_bytes(raw[:-64])  # lose the archive tail
    with pytest.raises(CheckpointError):
        read_journal(path)


def test_interrupted_rename_partial_target(tmp_path):
    """Half-replaced target (torn rename on a non-atomic FS) is rejected."""
    from repro.core.checkpoint import CheckpointError

    path = tmp_path / "j.npz"
    write_journal(path, *sample())
    raw = path.read_bytes()
    # simulate a filesystem that tore the replace: the first half of the
    # new journal over the old one
    path.write_bytes(raw[: len(raw) // 2] + b"\x00" * 8)
    with pytest.raises(CheckpointError):
        read_journal(path)


def test_interrupted_rename_tmp_left_behind(tmp_path):
    """Death between tmp write and os.replace: the previous checkpoint
    survives intact and the stale ``.tmp`` never shadows it."""
    path = tmp_path / "j.npz"
    meta, arrays = sample()
    write_journal(path, meta, arrays)
    # the crashed writer got as far as the sibling tmp file
    (tmp_path / "j.npz.tmp").write_bytes(b"partial next checkpoint \x00\x01")
    got_meta, got_arrays = read_journal(path)
    assert got_meta["driver"] == meta["driver"]
    assert np.array_equal(got_arrays["pending"], arrays["pending"])
    # the next successful checkpoint overwrites the stale tmp atomically
    write_journal(path, meta, arrays)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["j.npz"]
    read_journal(path)


def test_garbage_file_rejected(tmp_path):
    path = tmp_path / "j.npz"
    path.write_bytes(b"this is not an npz archive")
    with pytest.raises(JournalError, match="unreadable"):
        read_journal(path)


def test_tampered_array_fails_checksum(tmp_path):
    path = tmp_path / "j.npz"
    write_journal(path, *sample())
    import json

    with np.load(path) as a:
        meta = json.loads(bytes(a["meta"]).decode())
        arrays = {k: a[k] for k in a.files if k != "meta"}
    arrays["pending"] = ~arrays["pending"]
    np.savez(
        path,
        meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        **arrays,
    )
    with pytest.raises(JournalError, match="checksum"):
        read_journal(path)


def test_wrong_version_rejected(tmp_path):
    """A run's journal relabelled version 1 (the files whose multi-valued
    key entries may carry the SHADOW flag no reader interprets) or 99 is
    refused by the one version check, :func:`read_journal`, whichever way
    it is opened: read, loaded as a table, or resumed."""
    path = tmp_path / "j.npz"
    d, _ = make_driver(CombiningOrganization(SUM_I64))
    ResilientDriver(d, journal_path=path).run(workload())
    import json

    with np.load(path) as a:
        meta = json.loads(bytes(a["meta"]).decode())
        arrays = {k: a[k] for k in a.files if k != "meta"}
    for version in (1, 99):
        meta["journal_version"] = version
        np.savez(
            path,
            meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
            **arrays,
        )
        named = rf"unsupported journal version {version}$"
        with pytest.raises(JournalError, match=named):
            read_journal(path)
        with pytest.raises(CheckpointError, match=named):
            load_table(path)
        d, _ = make_driver(CombiningOrganization(SUM_I64))
        with pytest.raises(JournalError, match=named):
            ResilientDriver(d, journal_path=path).run(workload(), resume=True)


def test_missing_meta_member_rejected(tmp_path):
    path = tmp_path / "j.npz"
    np.savez(path, pending=np.zeros(3))
    with pytest.raises(JournalError):
        read_journal(path)


def test_input_fingerprint_distinguishes_inputs():
    a = [numeric_batch([(b"x", 1), (b"y", 2)])]
    b = [numeric_batch([(b"x", 1), (b"y", 2)])]
    c = [numeric_batch([(b"longer-key", 1), (b"y", 2)])]
    assert input_fingerprint(a) == input_fingerprint(b)
    assert input_fingerprint(a) != input_fingerprint(c)


def test_table_digest_tracks_content():
    t = make_table(CombiningOrganization(SUM_I64))
    empty = table_digest(t)
    t.insert_batch(numeric_batch([(b"a", 1)]))
    resident = table_digest(t)
    assert resident != empty
    t.end_iteration()
    assert table_digest(t) != empty
    # digest covers evicted segments too, not just resident pages
    assert not t.heap.resident_pages
