"""The multi-valued insert kernel through pool exhaustion.

``kernel_insert._insert_multivalued`` is the closed form of the insert
loop with the exhausted pool included: a pure-insert batch that crosses
exhaustion, or enters with the pool already dry, postpones on the kernel.
Every case here runs ``impl="vectorized"`` with the organization's
``_scalar_loop`` patched to raise -- on a stock pool nothing may reach the
loop because of pool pressure -- and holds it, call by call, to
``slow_reference`` on the
success mask, the tally (``alloc_groups`` included), the allocator's
stats and failed groups, the table bytes and the pin state.

The fixed cases are the places where the two page kinds meet the dry
pool; a seeded fuzz runs whole ``SepoDriver`` runs of two iterations and
more; and planted faults -- one-line edits of the kernel's own source --
must each be caught by a fixed case.
"""

import inspect
import sys
from unittest import mock

import numpy as np
import pytest

from repro.core import (
    GpuHashTable,
    MultiValuedOrganization,
    RecordBatch,
    SepoDriver,
)
from repro.core import entries as E
from repro.core import hashtable
from repro.core.organizations import policy
from repro.gpusim import CostLedger, GTX_780TI, KernelModel, PCIeBus
from repro.memalloc import GpuHeap
from repro.sanitize.sanitizer import SanitizerError

PAGE = 256
KEY = E.key_entry_size(2)  # every fixed case uses two-byte keys
assert KEY == 48


def val(node_bytes: int, tag: int = 0) -> bytes:
    """A value whose node takes exactly ``node_bytes`` of a VALUE page."""
    body = b"%d" % tag
    out = body + b"." * (node_bytes - E.VALUE_NODE_HEADER - len(body))
    assert E.value_node_size(len(out)) == node_bytes
    return out


def observed(table):
    """A table with every insert call and ``end_iteration`` logged: what
    came back -- one entry per part of an ``insert_run`` (``insert_batch``
    is a run of one part) -- and the state the call left."""
    log = []
    org = table.org

    def state():
        return dict(
            image=table.heap.cpu_image(), pins=dict(org._pin_counts),
            pinned=sorted(
                p.segment for p in table.heap.resident_pages if p.pinned
            ),
            stats=table.alloc.stats.__dict__.copy(),
            failed=table.alloc.failed_groups.tolist(),
            n_free=table.heap.pool.n_free,
        )

    insert_run, end_iteration = table.insert_run, table.end_iteration

    def logged_insert(parts):
        results = insert_run(parts)
        after = state()
        for part, res in enumerate(results):
            t = res.tally
            log.append(dict(
                call="insert", part=part, mask=res.success.tolist(),
                tally=(t.attempted, t.succeeded, t.postponed, t.probe_steps,
                       t.bytes_touched, t.table_cycles),
                alloc_groups=t.alloc_groups.as_array().tolist(),
                hottest_alloc=res.stats.hottest_alloc, **after,
            ))
        return results

    def logged_end(*args):
        report = end_iteration(*args)
        log.append(dict(
            call="end", evicted=report.pages_evicted,
            retained=report.pages_retained, spliced=report.entries_spliced,
            forced=report.forced_full_eviction, **state(),
        ))
        return report

    table.insert_run, table.end_iteration = logged_insert, logged_end
    return log


def make_table(impl, heap_pages, page_size=PAGE, n_buckets=1, group_size=1,
               ledger=None):
    org = MultiValuedOrganization(impl=impl)
    if impl == "vectorized":
        def loop_reached(*args, **kwargs):
            raise AssertionError("the batch was handed to the scalar loop")
        org._scalar_loop = loop_reached
    return GpuHashTable(
        n_buckets, org, GpuHeap(heap_pages * page_size, page_size),
        group_size=group_size, ledger=ledger,
    )


def run_script(impl, steps, drain=True, **shape):
    """``steps``: lists of (key, value) pairs -- one ``insert_batch`` call
    each, the postponed records of the previous call in front -- and
    ``"end"`` for an ``end_iteration``; then (``drain``) evict and reissue
    what is still postponed until nothing is.  Returns the table and its
    log."""
    table = make_table(impl, **shape)
    log = observed(table)
    carried: list = []

    def insert(pairs):
        res = table.insert_batch(RecordBatch.from_pairs(pairs))
        return [p for p, ok in zip(pairs, res.success.tolist()) if not ok]

    for step in steps:
        if step == "end":
            table.end_iteration()
        else:
            carried = insert(carried + list(step))
    if drain:
        for _ in range(64):
            table.end_iteration()
            if not carried:
                break
            carried = insert(carried)
        else:
            raise AssertionError("workload does not converge")
    log.append(dict(call="census", nodes=table.check_invariants().n_value_nodes))
    return table, log


def both(steps, **shape):
    """Kernel and loop agree on every logged call; returns the kernel's
    table, its log, and its masks."""
    table, a = run_script("vectorized", steps, **shape)
    _, b = run_script("slow_reference", steps, **shape)
    assert len(a) == len(b)
    for n, (x, y) in enumerate(zip(a, b)):
        assert x == y, f"call {n} ({x['call']}) differs"
    return table, a, [x["mask"] for x in a if x["call"] == "insert"]


def pending_keys(table):
    """Resident key entries flagged ``PENDING``, by key."""
    out = set()
    for page in table.heap.resident_pages:
        if page.kind.name != "KEY":
            continue
        buf = table.heap.pool.slot_view(page.slot)
        for off in range(0, page.used, KEY):
            hdr = E.read_key_entry_header(buf, off)
            if hdr[5] & E.FLAG_PENDING:
                out.add(E.key_entry_key(buf, off, hdr[4]))
    return out


# ----------------------------------------------------------------------
# the fixed cases: one chain, one group, a KEY page and VALUE pages
# ----------------------------------------------------------------------
def case_crosses_exhaustion_then_enters_dry():
    """Three pages: the first batch takes them all and runs dry in the
    middle (values of resident keys denied, then new keys too once the KEY
    page is full); the second enters with ``n_free == 0``."""
    first = [(b"k%d" % (i % 4), val(64, i)) for i in range(12)]
    second = [(b"k%d" % (i % 7), val(32, i)) for i in range(14)]
    table, log, masks = both([first, second], heap_pages=3)
    assert masks[0] == [True] * 8 + [False] * 4  # two VALUE pages of four
    assert log[0]["n_free"] == 0, "the first batch was expected to drain the pool"
    # dry on entry: both VALUE pages are full, so nothing is stored, but
    # k4 still gets its key entry (room on the KEY page; k5 and k6 do not)
    assert not any(masks[1])
    assert log[1]["stats"]["postponed"] > log[0]["stats"]["postponed"]
    return table


def case_dry_between_a_records_key_and_value():
    """Two pages.  ``k1`` takes both (KEY page, VALUE page) and its second
    value fills the VALUE page to the byte; ``k2``'s KEY request then
    bump-fits and its VALUE request is the first denied page take -- the
    pool runs dry between the two requests of one record.  Every value of
    ``k2`` (and of ``k3`` behind it) is denied: the key entries exist,
    ``PENDING`` and empty, and pin the KEY page through the eviction.  In
    the next iteration ``k2``'s values are stored and release its pin while
    ``k3``'s are denied again."""
    batch = [
        (b"k1", val(128, 1)), (b"k1", val(128, 2)),
        (b"k2", val(128, 3)), (b"k2", val(128, 4)),
        (b"k3", val(64, 5)),
    ]
    after = {}
    for impl in ("vectorized", "slow_reference"):
        table, _ = run_script(impl, [batch, "end"], drain=False, heap_pages=2)
        after[impl] = (
            pending_keys(table), dict(table.org._pin_counts),
            [p.kind.name for p in table.heap.resident_pages],
        )
    assert after["vectorized"] == after["slow_reference"]
    pending, pins, resident = after["vectorized"]
    assert pending == {b"k2", b"k3"}
    assert list(pins.values()) == [2] and resident == ["KEY"]

    table, log, masks = both([batch], heap_pages=2)
    assert masks[0] == [True, True, False, False, False]
    # retry: k2's two values fill the VALUE page, k3's is denied again
    assert masks[1] == [True, True, False]
    assert log[3]["pins"] == {0: 1}, "k3 alone should still pin the KEY page"
    assert masks[2] == [True]
    assert not table.org._pin_counts
    return table


def case_smaller_value_fits_after_a_larger_was_denied():
    """Pool dry, 40 bytes left on the VALUE page: a 64-byte node is denied,
    the 32-byte node of the same key behind it fits -- ``PENDING`` is what
    the key's *last* VALUE request left, so the key ends the call clear."""
    fill = [(b"k0", val(216, 0))]
    batch = [(b"k1", val(64, 1)), (b"k1", val(32, 2)), (b"k2", val(64, 3))]
    table, log, masks = both([fill + batch], heap_pages=2)
    assert masks[0] == [True, False, True, False]
    assert log[0]["pins"] == {0: 1}, "k2 alone should pin the KEY page"
    assert masks[1] == [True, True]
    return table


def case_denied_key_repeats_five_times():
    """Pool dry, KEY page full (five entries), VALUE page half empty: the
    sixth key is denied its entry at all six of its occurrences -- six
    denied requests in the allocator's books -- and none of its values is
    asked for, room or no room."""
    fill = [(b"k%d" % i, val(32, i)) for i in range(5)]
    batch = [(b"k9", val(32, 10 + i)) for i in range(6)]
    table, log, masks = both([fill + batch], heap_pages=2)
    assert masks[0] == [True] * 5 + [False] * 6
    stats = log[0]["stats"]
    assert stats["requests"] == 10 + 6 and stats["postponed"] == 6
    return table


def case_pending_keys_carried_into_a_mixed_pass():
    """Several groups at once, three iterations: ``PENDING`` keys retained
    from one pass meet new keys, denied keys and granted ones in the next;
    some are completed, some denied again."""
    rng = np.random.default_rng(3)
    batch = [
        (b"k%d" % rng.integers(0, 30), val(int(rng.choice([32, 64, 128])), i))
        for i in range(90)
    ]
    table, log, masks = both(
        [batch], heap_pages=8, n_buckets=8, group_size=2
    )
    kept = [x["retained"] for x in log if x["call"] == "end"]
    assert any(kept), "a pinned KEY page was expected to be retained"
    assert sum(map(sum, masks)) == len(batch)
    return table


CASES = {
    "crosses, then enters dry": case_crosses_exhaustion_then_enters_dry,
    "dry between KEY and VALUE": case_dry_between_a_records_key_and_value,
    "smaller fits after larger": case_smaller_value_fits_after_a_larger_was_denied,
    "denied key repeats": case_denied_key_repeats_five_times,
    "pending keys carried over": case_pending_keys_carried_into_a_mixed_pass,
}


@pytest.mark.parametrize("case", CASES)
def test_kernel_matches_the_loop_under_pressure(case):
    table = CASES[case]()
    assert table.heap.pool.n_free == table.heap.pool.n_slots


def test_a_pool_that_denies_promised_takes_still_goes_to_the_loop():
    """The one pressure case left to the scalar loop: a fault injector
    whose ``take`` returns None while ``n_free`` still looks healthy.  The
    kernel plans around ``n_free``, so ``can_take`` sends the batch to the
    loop -- before anything was mutated, and with the same outcome."""
    from repro.memalloc.pages import PagePool

    batch = [(b"k%d" % (i % 5), val(64, i)) for i in range(16)]
    logs, reached = {}, []
    for impl in ("vectorized", "slow_reference"):
        org = MultiValuedOrganization(impl=impl)
        table = GpuHashTable(1, org, GpuHeap(6 * PAGE, PAGE), group_size=1)
        pool = table.heap.pool
        # the last three slots are never handed out
        pool.take = lambda: PagePool.take(pool) if pool.n_free > 3 else None
        if impl == "vectorized":
            loop = org._scalar_loop
            org._scalar_loop = (
                lambda *a, gated: reached.append(gated) or loop(*a, gated=gated)
            )
        logs[impl] = observed(table)
        res = table.insert_batch(RecordBatch.from_pairs(batch))
        assert not res.success.all() and pool.n_free == 3
    assert reached == [False], "one call, run ungated"
    assert logs["vectorized"] == logs["slow_reference"]


# ----------------------------------------------------------------------
# the bar: planted faults the fixed cases must catch
# ----------------------------------------------------------------------
#: one-line edits of ``_insert_multivalued``'s source, (the line as it
#: stands, the line with the fault)
FAULTS = {
    "issue the VALUE request of a key whose KEY was denied": (
        "serve(vslots[(vslots >= dry) & present[gpos]])",
        "serve(vslots[vslots >= dry])",
    ),
    "count a denied KEY once instead of per occurrence": (
        "int((counts[denied] - 1).sum())",
        "0",
    ),
    "link a denied node into a value list": (
        "stored = sub[vok[sub]]",
        "stored = sub[present[gpos[sub]]]",
    ),
    "leave PENDING from a key's first outcome instead of its last": (
        "~vok[sub[starts + counts - 1]]",
        "~vok[sub[starts]]",
    ),
    "take the dry point from n_free + 1": (
        "int(takes[n_free]) if len(takes) > n_free else total",
        "int(takes[n_free + 1]) if len(takes) > n_free + 1 else total",
    ),
}


def cases_that_fail():
    failed = []
    for name, case in CASES.items():
        try:
            case()
        except (AssertionError, SanitizerError):
            failed.append(name)
    return failed


@pytest.mark.parametrize("fault", FAULTS)
def test_cases_catch_planted_faults(fault, monkeypatch):
    sound, faulty = FAULTS[fault]
    kernel = policy._insert_multivalued  # where the dispatch reads it
    source = inspect.getsource(kernel)
    assert source.count(sound) == 1, "the kernel no longer reads this way"
    scope: dict = {}
    home = sys.modules[kernel.__module__]  # the globals its body reads
    exec(source.replace(sound, faulty), vars(home), scope)
    monkeypatch.setattr(policy, kernel.__name__, scope[kernel.__name__])
    assert cases_that_fail(), f"{fault}: every case still holds"


# ----------------------------------------------------------------------
# seeded fuzz: whole SEPO runs
# ----------------------------------------------------------------------
def test_kernel_matches_the_loop_on_stale_paged_in_key_pages():
    """ROADMAP 5(d): a forced full eviction stores key pages whose entries
    are still ``PENDING`` and clears the pin counts; paged back in, those
    bits are flags nobody counts.  Loop and kernel must still agree bit
    for bit -- pin counts floor at zero, so they are settled flip by flip
    in arrival order, not as sums."""
    stale = 0
    for case in range(30):
        logs = {}
        for impl in ("vectorized", "slow_reference"):
            rng = np.random.default_rng([23, case])
            table = make_table(
                impl, heap_pages=int(rng.integers(3, 9)), n_buckets=4,
                group_size=int(rng.choice([1, 2])),
            )
            table.org.pin_retention_limit = 0.05
            log = logs[impl] = observed(table)
            pairs = [
                (b"k%d" % k, val(int(rng.choice([32, 64, 96])), i))
                for i, k in enumerate(rng.integers(0, 24, size=80).tolist())
            ]
            for _ in range(24):  # not every case gets through; no matter
                res = table.insert_batch(RecordBatch.from_pairs(pairs))
                pairs = [p for p, ok in zip(pairs, res.success) if not ok]
                forced = table.end_iteration().forced_full_eviction
                if not pairs:
                    break
                stored = sorted(table.heap._store)
                for seg in rng.permutation(stored)[:2].tolist():
                    table.heap.page_in(seg)
                    stale += forced and impl == "vectorized"
        for n, (x, y) in enumerate(zip(*logs.values())):
            assert x == y, f"case {case}: call {n} ({x['call']}) differs"
    assert stale >= 10, "forced evictions were expected to leave stale pages"


def run_sepo(impl, spec, heap_pages, page_size, n_buckets, group_size,
             per_chunk=False):
    """A whole ``SepoDriver`` run; ``per_chunk`` gives every chunk a call
    of its own (a run cap of 0 records)."""
    ledger = CostLedger()
    table = make_table(
        impl, heap_pages, page_size, n_buckets, group_size, ledger
    )
    log = observed(table)
    driver = SepoDriver(
        table, KernelModel(GTX_780TI, ledger), PCIeBus(ledger),
        max_iterations=400,
    )
    with mock.patch.object(hashtable, "RUN_RECORDS", 0 if per_chunk else
                           hashtable.RUN_RECORDS):
        report = driver.run([RecordBatch.from_pairs(pairs) for pairs in spec])
    return log, report, ledger.breakdown(), table.result()


FUZZ_CASES = 30


def test_seeded_fuzz_through_whole_sepo_runs():
    """Page sizes 128-512, 2-10 pages, 1-8 buckets per group, value
    lengths spread over 1, 8 or 60 bytes, one to three batches: every
    insert call (each chunk's part of it) and ``end_iteration`` call of a
    ``SepoDriver`` run that takes at least two iterations, kernel against
    loop -- with the pass's chunks inserted by one call, and one call a
    chunk."""
    ran = dry_entries = 0
    for case in range(FUZZ_CASES):
        rng = np.random.default_rng([19, case])
        page = int(rng.choice([128, 256, 512]))
        n_buckets = int(rng.choice([1, 4, 16, 32]))
        shape = dict(
            heap_pages=int(rng.integers(2, 11)), page_size=page,
            n_buckets=n_buckets,
            group_size=int(rng.choice([g for g in (1, 2, 8) if g <= n_buckets])),
        )
        n_keys = int(rng.integers(1, 60))
        spread = int(rng.choice([1, 8, 60]))
        spec = [
            [
                (b"key%02d" % k + b"+" * int(k % 3 * 4),
                 b"v" * int(rng.integers(0, spread)) + b"%d" % i)
                for i, k in enumerate(rng.integers(
                    0, n_keys, size=int(rng.integers(20, 160))).tolist())
            ]
            for _ in range(int(rng.integers(1, 4)))
        ]
        for per_chunk in (False, True):
            try:
                a = run_sepo("vectorized", spec, **shape, per_chunk=per_chunk)
            except RuntimeError:  # heap too small for this stream
                with pytest.raises(RuntimeError):
                    run_sepo("slow_reference", spec, **shape,
                             per_chunk=per_chunk)
                continue
            b = run_sepo("slow_reference", spec, **shape, per_chunk=per_chunk)
            assert a[1].iterations == b[1].iterations
            assert a[1].elapsed_seconds == b[1].elapsed_seconds
            assert a[2:] == b[2:], f"fuzz case {case}: {shape}"
            for n, (x, y) in enumerate(zip(a[0], b[0])):
                assert x == y, f"fuzz case {case}: {shape}: call {n} ({x['call']})"
            if per_chunk:
                ran += a[1].iterations >= 2
                # an insert call that found the pool dry: n_free after the
                # call before it was 0 and no eviction came between
                calls = a[0]
                dry_entries += sum(
                    1 for prev, cur in zip(calls, calls[1:])
                    if prev["call"] == cur["call"] == "insert"
                    and prev["n_free"] == 0
                )
    assert ran >= FUZZ_CASES // 2, "the fuzz was expected to need evictions"
    assert dry_entries >= 10, "batches were expected to enter a dry pool"
