"""``allocate_many`` against sequential ``allocate`` at the scale the
kernels call it: hundreds of bucket groups, thousands of requests.

``test_allocate_many.py`` holds the two together on batches a person can
read (<= 120 requests, <= 5 groups, <= 8 pages).  The planner steps every
(group, kind) run a page at a time *together*, so what it can get wrong
only shows with many runs at different depths at once: runs over four and
more pages beside runs that never leave their current page, current pages
exactly full and exactly fitting, a pool that runs dry in mid-run with a
smaller later request still squeezing in, KEY and VALUE requests
interleaved, a second call of the same batch that starts where the first
left the pages and the pool, and a pool that denies a take while it still
holds slots.  Every scenario is built from a seed and five switches; bulk
calls on one allocator must leave everything a request-by-request replay
leaves on its twin.
"""

import inspect
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.memalloc import BucketGroupAllocator, GpuHeap
from repro.memalloc.pages import KIND_BY_CODE, PagePool

INJECTORS = (None, "from-kth", "hold-back")


def _batch(rng, page, n_groups, n, mixed):
    groups = rng.integers(0, n_groups, size=n)
    # four hot groups carry a third of the requests: runs over many pages
    hot = rng.choice(n_groups, size=4, replace=False)
    heavy = rng.random(n) < 0.33
    groups[heavy] = rng.choice(hot, size=int(heavy.sum()))
    sizes = rng.integers(1, page // 32 + 1, size=n) * 8
    sizes[rng.random(n) < 0.2] = 8  # what still squeezes into a full page
    sizes[rng.random(n) < 0.01] = page  # a request that is a page
    codes = rng.integers(0, 3, size=n) if mixed else None
    return groups.astype(np.int64), sizes.astype(np.int64), codes


def _prewarm(rng, page, n_groups, groups, sizes, codes):
    """Allocations made on both twins before the batch: per (group, kind)
    nothing, a part-filled page, a page exactly full, or a page with room
    for exactly the first one to three requests the batch sends it."""
    code_of = np.zeros(len(groups), np.int64) if codes is None else codes
    warm, shapes = [], {"part": 0, "full": 0, "fitting": 0}
    for g in range(n_groups):
        for code in ([0] if codes is None else [0, 1, 2]):
            mine = sizes[(groups == g) & (code_of == code)]
            shape = rng.choice(["none", "part", "full", "fitting"])
            if shape == "fitting":
                first = int(mine[: int(rng.integers(1, 4))].sum())
                if not 0 < first < page:
                    continue
                warm.append((g, page - first, code))
            elif shape == "part":
                warm.append((g, int(rng.integers(1, page // 8)) * 8, code))
            elif shape == "full":
                warm.append((g, page, code))
            else:
                continue
            shapes[shape] += 1
    return warm, shapes


def _twin(page, n_pages, n_groups, warm):
    alloc = BucketGroupAllocator(GpuHeap(n_pages * page, page), n_groups)
    for g, size, code in warm:
        assert alloc.allocate(g, size, KIND_BY_CODE[code]) is not None
    notes = []
    note_write = alloc.heap.note_write
    alloc.heap.note_write = lambda seg: (notes.append(seg), note_write(seg))[1]
    return alloc, notes


def _inject(pool, inject, k):
    if inject == "from-kth":  # the k-th take of the batch and all after it
        calls = [0]

        def take():
            calls[0] += 1
            return PagePool.take(pool) if calls[0] < k else None
    elif inject == "hold-back":  # the last k slots are never handed out
        def take():
            return PagePool.take(pool) if pool.n_free > k else None
    else:
        return
    pool.take = take


def _sequential(alloc, groups, sizes, kind, codes):
    """The twin's side: one ``allocate`` per request, as output columns."""
    n = len(groups)
    cols = {name: np.full(n, -1, dtype=np.int64)
            for name in ("slot", "segment", "offset", "cpu_addr", "gpu_addr")}
    kinds = [kind] * n if codes is None else [KIND_BY_CODE[c] for c in codes]
    for i, (g, size, k) in enumerate(zip(groups.tolist(), sizes.tolist(), kinds)):
        a = alloc.allocate(g, size, k)
        if a is not None:
            cols["slot"][i], cols["segment"][i] = a.page.slot, a.page.segment
            cols["offset"][i] = a.offset
            cols["cpu_addr"][i], cols["gpu_addr"][i] = a.cpu_addr, a.gpu_addr
    return cols


def _runs(composite):
    order = np.argsort(composite, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(composite[order])) + 1)


def _expected_notes(composite, segment, one_by_one):
    """The dirty-page notes a bulk call owes, from what the sequential twin
    did: one per page a run fills, run by run, up to the run's first denied
    request; behind it one per run that still squeezed something in (the
    batched retry on a dry pool) or, after an injected denial, one per
    request that did, in arrival order."""
    notes, late = [], []
    for run in _runs(composite):
        seg = segment[run]
        denied = np.flatnonzero(seg < 0)
        cut = int(denied[0]) if len(denied) else len(run)
        head = seg[:cut]
        notes += head[np.r_[True, head[1:] != head[:-1]][: len(head)]].tolist()
        squeezed = run[cut:][seg[cut:] >= 0]
        late += squeezed.tolist() if one_by_one else squeezed[:1].tolist()
    late = np.array(late, dtype=np.int64)
    return notes + segment[np.sort(late) if one_by_one else late].tolist()


def run_scenario(seed, dry, mixed, again, inject):
    """Build the scenario, run both sides, return (differences, facts)."""
    rng = np.random.default_rng(seed)
    page = int(rng.choice([256, 512, 1024]))
    n_groups = int(rng.integers(200, 600))
    n = int(rng.integers(2000, 5000))
    groups, sizes, codes = _batch(rng, page, n_groups, n, mixed)
    kind = KIND_BY_CODE[int(rng.integers(0, 3))]
    warm, shapes = _prewarm(rng, page, n_groups, groups, sizes, codes)
    composite = groups if codes is None else groups * 3 + codes

    # size the pool off a dry run on an unbounded one
    probe, _ = _twin(page, len(warm) + n, n_groups, warm)
    takes = len(probe.plan(groups, sizes, kind, kinds=codes).takes)
    granted = int(takes * rng.uniform(0.3, 0.8)) if dry else takes + 8
    # deny the later half of the takes, or hold the last slots back
    k = int(rng.integers(granted // 2, granted))
    k = k if inject == "from-kth" else granted - k

    sides = []
    for _ in range(2):
        alloc, notes = _twin(page, len(warm) + granted, n_groups, warm)
        _inject(alloc.heap.pool, inject, k)
        del notes[:]
        sides.append((alloc, notes))
    (a, a_notes), (b, b_notes) = sides
    diffs = []

    def same(what, got, want):
        if isinstance(want, np.ndarray):
            got, want = got.tolist(), want.tolist()
        if got != want:
            diffs.append(what)

    # ``again``: the batch a second time, from the pages, failures and
    # pool the first call left
    owed, seqs = [], []
    for _ in range(2 if again else 1):
        bulk = a.allocate_many(groups, sizes, kind, kinds=codes)
        seq = _sequential(b, groups, sizes, kind, codes)
        same("ok", bulk.ok, seq["segment"] >= 0)
        for name, want in seq.items():
            same(name, getattr(bulk, name), want)
        owed += _expected_notes(
            composite, seq["segment"], a.heap.pool.n_free != 0)
        seqs.append(seq)
    same("stats", a.stats, b.stats)
    same("failed groups", sorted(a._failed_groups), sorted(b._failed_groups))
    same("current pages",
         sorted((g, k_.value, p.segment, p.slot, p.used)
                for (g, k_), p in a._current.items()),
         sorted((g, k_.value, p.segment, p.slot, p.used)
                for (g, k_), p in b._current.items()))
    same("free slots", a.heap.pool._free_slots, b.heap.pool._free_slots)
    same("next segment", a.heap._next_segment, b.heap._next_segment)
    same("residency epoch", a.heap.residency_epoch, b.heap.residency_epoch)
    same("pages", sorted((p.segment, p.slot, p.kind.value, p.group, p.used)
                         for p in a.heap.resident_pages),
         sorted((p.segment, p.slot, p.kind.value, p.group, p.used)
                for p in b.heap.resident_pages))
    # the twin notes a write per request, the bulk call one per page span:
    # the same pages, in the order the spans were laid
    same("noted pages", sorted(set(a_notes)), sorted(set(b_notes)))
    same("note_write sequence", a_notes, owed)
    same("write epoch", a.heap.write_epoch - len(warm), len(owed))

    seq = seqs[0]
    per_run = [seq["segment"][run] for run in _runs(composite)]
    facts = dict(
        shapes,
        groups=n_groups, requests=n, runs=len(per_run),
        deepest=max(len(set(s[s >= 0].tolist())) for s in per_run),
        denied=int((seq["segment"] < 0).sum()),
        squeezed=sum(
            int((s[np.argmax(s < 0):] >= 0).sum()) for s in per_run
            if (s < 0).any()
        ),
        free_after=a.heap.pool.n_free,
    )
    return diffs, facts


FIXED = [
    # seed, dry, mixed, again, inject
    (0, False, False, False, None),
    (1, True, False, False, None),
    (2, True, True, True, None),
    (3, False, True, True, "from-kth"),
    (4, True, True, False, "hold-back"),
    (5, False, False, True, "hold-back"),
    (6, True, False, True, "from-kth"),
    (7, False, True, False, None),
]


@pytest.mark.parametrize("seed, dry, mixed, again, inject", FIXED)
def test_bulk_matches_sequential_at_kernel_scale(
    seed, dry, mixed, again, inject
):
    diffs, facts = run_scenario(seed, dry, mixed, again, inject)
    assert not diffs, (diffs, facts)
    # the scenario is the one the docstring promises
    assert facts["groups"] >= 200 and facts["requests"] >= 2000
    assert facts["deepest"] >= 4, "no run spans four pages"
    assert facts["part"] and facts["full"] and facts["fitting"]
    if dry or inject:
        assert facts["denied"] and facts["squeezed"], facts
    if dry and not inject:
        assert facts["free_after"] == 0
    if inject:
        assert facts["free_after"] > 0, "denied while slots remain"


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dry=st.booleans(),
    mixed=st.booleans(),
    again=st.booleans(),
    inject=st.sampled_from(INJECTORS),
)
def test_bulk_matches_sequential_property(seed, dry, mixed, again, inject):
    diffs, facts = run_scenario(seed, dry, mixed, again, inject)
    assert not diffs, (diffs, facts)


# ----------------------------------------------------------------------
# planted faults: one-line edits of allocate_many's own source
# ----------------------------------------------------------------------
FAULTS = {
    "fresh-span offsets not rebased to the page start": (
        "rebase = where[:, 2] - plan.before[lo]",
        "rebase = where[:, 2] - plan.before[lo] * ~plan.fresh",
    ),
    "pages granted in run order, not trigger order": (
        "in_turn = fresh[order[lo[fresh]].argsort()]",
        "in_turn = fresh",
    ),
}


@pytest.mark.parametrize("fault", FAULTS)
def test_scale_cases_catch_planted_faults(fault, monkeypatch):
    sound, faulty = FAULTS[fault]
    method = BucketGroupAllocator.allocate_many
    source = textwrap.dedent(inspect.getsource(method))
    assert source.count(sound) == 1, "allocate_many no longer reads this way"
    scope: dict = {}
    exec(source.replace(sound, faulty), vars(sys.modules[method.__module__]), scope)
    monkeypatch.setattr(BucketGroupAllocator, "allocate_many", scope["allocate_many"])
    caught = [case for case in FIXED if run_scenario(*case)[0]]
    assert len(caught) == len(FIXED), f"{fault}: agrees on {len(FIXED) - len(caught)} cases"
