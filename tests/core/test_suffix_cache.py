"""In-stream lookups read stored chains through cached suffixes
(:class:`repro.core.suffixes.SuffixCache`).

Every cached read must equal a fresh walk of the CPU-side image, field for
field, on a seeded stream for each organization -- through a checkpoint
restore and ``LookupDriver`` page-ins in the middle of it.  Two planted
faults must fail: an eviction that does not bump its segments' store
versions (caught by the differential and by the paranoid sanitizer), and
a cache trusted over a segment ``StaleSegmentFault`` damaged with
integrity on.
"""

import numpy as np
import pytest

from repro.core import GpuHashTable
from repro.core.chainview import _LAYOUTS, match_cpu_chains
from repro.core.checkpoint import quiesce_table, restore_table, snapshot_table
from repro.core.lookup import LookupDriver
from repro.core import suffixes as S
from repro.core.suffixes import SuffixCache
from repro.gpusim import CostLedger, GTX_780TI, KernelModel, PCIeBus
from repro.integrity import CorruptionError
from repro.memalloc import GpuHeap
from repro.sanitize import faults as F
from repro.sanitize.sanitizer import SanitizerError
from tests.core.test_differential_vectorized import make_org
from tests.core.test_mutations import mut_batch, seeded_ops

KINDS = ("basic", "combining", "multi-valued")


def new_table(kind, **kwargs):
    """64 buckets over 24 pages of 512 bytes: a stream of a few thousand
    ops spills to the store every batch."""
    return GpuHashTable(64, make_org(kind, "vectorized"),
                        GpuHeap(24 * 512, 512), group_size=8,
                        ledger=CostLedger(), **kwargs)


def run_batch(table, kind, seed, n=512):
    """One mixed-op batch to completion (postponed ops retried after a
    boundary), then a boundary; returns its lookup answers."""
    batch = mut_batch(kind, seeded_ops(seed, n, 256, kind))
    pending = np.arange(len(batch))
    for _ in range(64):
        res = table.mutate_batch(batch, pending)
        pending = pending[~res.success]
        table.end_iteration()
        if not len(pending):
            return dict(batch.lookup_results)
    raise AssertionError("the batch does not converge")


def stream(kind, seed=0, n_batches=8, **kwargs):
    """A seeded stream: a checkpoint restore into a fresh table after the
    third batch, ``LookupDriver`` page-ins after the fifth.  Returns the
    final table and every batch's lookup answers."""
    table = new_table(kind, **kwargs)
    answers = []
    for i in range(n_batches):
        if i == 3:
            quiesce_table(table)
            restored = new_table(kind, **kwargs)
            restore_table(restored, *snapshot_table(table))
            table = restored
        if i == 5:
            bus = PCIeBus(table.ledger)
            found = LookupDriver(
                table, KernelModel(GTX_780TI, table.ledger), bus,
            ).lookup([b"k%04d" % k for k in range(0, 256, 3)])
            assert found.segments_paged_in
        answers.append(run_batch(table, kind, seed * 100 + i))
    return table, answers


@pytest.fixture
def cross_checked(monkeypatch):
    """Compare every cached read -- the kept image, then the matches read
    through it -- with a fresh ``cpu_image`` and a fresh walk of it;
    counts the reads, the nodes they parsed and the nodes a fresh read of
    their chains walks."""
    real = SuffixCache.match
    seen = {"reads": 0, "parsed": 0, "walked": 0}

    def match(self, image, heads, buckets, keys, key_lens):
        fresh = np.frombuffer(self.heap.cpu_image(), dtype=np.uint8)
        np.testing.assert_array_equal(image, fresh, err_msg="image")
        parsed = self.parsed
        got = real(self, image, heads, buckets, keys, key_lens)
        seen["parsed"] += self.parsed - parsed
        kind = "key" if self.layout is _LAYOUTS["key"] else "generic"
        want = match_cpu_chains(fresh, heads, kind, keys, key_lens)
        for field in want._fields:
            np.testing.assert_array_equal(
                getattr(got, field), getattr(want, field), err_msg=field)
        seen["reads"] += 1
        chains = np.unique(heads, return_index=True)[1]
        seen["walked"] += int(want.n_chain[chains].sum())
        return got

    monkeypatch.setattr(SuffixCache, "match", match)
    return seen


def _evict_without_a_version_bump(monkeypatch):
    real = GpuHeap.evict

    def evict(self, pages):
        before = self.versions.copy()
        moved = real(self, pages)
        self.versions[: len(before)] = before
        return moved

    monkeypatch.setattr(GpuHeap, "evict", evict)


@pytest.mark.parametrize("kind", KINDS)
def test_a_cached_read_equals_a_fresh_walk(kind, cross_checked):
    table, _ = stream(kind)
    assert cross_checked["reads"] >= 8
    # the stored part of a chain is parsed once per table, not per call
    assert 0 < cross_checked["parsed"] < cross_checked["walked"]
    assert (table.suffixes.start != -1).any()
    table.check_invariants()


@pytest.mark.parametrize("kind", KINDS)
def test_the_cache_changes_no_answer(kind, monkeypatch):
    _, cached = stream(kind, seed=1)
    monkeypatch.setattr(SuffixCache, "sync", _forget_everything)
    _, uncached = stream(kind, seed=1)
    assert cached == uncached


_sync = SuffixCache.sync


def _forget_everything(self):
    """``sync`` that drops every suffix: each read parses its chains whole."""
    _sync(self)
    self._forget(np.arange(len(self.start)))


@pytest.mark.parametrize("kind", KINDS)
def test_a_missing_version_bump_fails_the_differential(
        kind, cross_checked, monkeypatch):
    _evict_without_a_version_bump(monkeypatch)
    with pytest.raises(AssertionError):
        stream(kind)


@pytest.mark.parametrize("kind", KINDS)
def test_the_paranoid_sanitizer_reparses_every_cached_suffix(
        kind, monkeypatch):
    table = new_table(kind, sanitize="paranoid")
    for i in range(4):
        run_batch(table, kind, i)
    assert (table.suffixes.start != -1).any()
    # a suffix the store no longer holds is reported
    cache = table.suffixes
    b = int(np.flatnonzero(cache.start != -1)[0])
    cache._cols[2, cache._first[b]] += 1  # its first node's vlen
    with pytest.raises(SanitizerError, match="suffix-cache"):
        table.check_invariants()


@pytest.mark.parametrize("kind", KINDS)
def test_the_sanitizer_reports_a_missing_version_bump(kind, monkeypatch):
    _evict_without_a_version_bump(monkeypatch)
    table = new_table(kind, sanitize="iteration")
    with pytest.raises(SanitizerError, match="cpu-image"):
        run_batch(table, kind, 0)


def _stale_caught(kind, monkeypatch=None) -> bool:
    """Whether integrity catches the damage: a stream with integrity on,
    after whose warm reads the lowest stored segment (under a cached
    suffix) is overwritten with another's bytes, and the next batch reads
    it.  With ``monkeypatch``, the heap's verification skips the segments
    a suffix is cached on (the planted fault)."""
    table = new_table(kind, integrity="verify")
    if monkeypatch is not None:
        cache = table.suffixes

        def verify(heap):
            spanned = np.flatnonzero(cache._spanned).tolist()
            for seg in range(heap._next_segment):
                if seg not in heap._resident and seg not in spanned:
                    heap.integrity.check_read(heap, seg)

        monkeypatch.setattr(GpuHeap, "_verify_store", verify)
    for i in range(4):
        run_batch(table, kind, i)
    victim = min(table.heap._store)
    assert table.suffixes._spanned[victim]
    F.StaleSegmentFault()._corrupt(table.heap)
    try:
        run_batch(table, kind, 4)
    except CorruptionError:
        return True
    except Exception:  # the damage read as a table: anything may break
        return False
    return False


@pytest.mark.parametrize("kind", KINDS)
def test_a_stale_segment_under_a_cached_suffix_is_caught(kind, monkeypatch):
    assert _stale_caught(kind)
    assert not _stale_caught(kind, monkeypatch)


def _every_key_collides(words, klens):
    """``key_index`` under which every key shares one index key."""
    return np.zeros(len(klens), dtype=np.uint64)


@pytest.mark.parametrize("kind", KINDS)
def test_colliding_index_keys_are_told_apart_by_the_word_compare(
        kind, cross_checked, monkeypatch):
    monkeypatch.setattr(S, "key_index", _every_key_collides)
    stream(kind, n_batches=4)
    assert cross_checked["reads"] >= 4


@pytest.mark.parametrize("kind", KINDS)
def test_a_candidate_taken_unconfirmed_fails_the_differential(
        kind, cross_checked, monkeypatch):
    monkeypatch.setattr(S, "key_index", _every_key_collides)
    monkeypatch.setattr(S, "_same_keys", lambda *args: np.ones(
        len(args[-1]), dtype=bool))
    with pytest.raises(AssertionError):
        stream(kind, n_batches=4)
