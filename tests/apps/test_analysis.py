"""Second-phase analytics: SEPO query phases and de Bruijn assembly."""

import numpy as np
import pytest

from repro.apps import DnaAssembly, InvertedIndex, Netflix, PageViewCount
from repro.apps.analysis import (
    assemble_unitigs,
    build_debruijn_graph,
    inverted_index_query,
    netflix_similar_users,
    pvc_watchlist,
)
from repro.gpusim import CostLedger, GTX_780TI, KernelModel, PCIeBus


def run_tight(app, data, **kw):
    defaults = dict(scale=1 << 13, n_buckets=1 << 11, page_size=4096,
                    group_size=32)
    defaults.update(kw)
    outcome = app.run_gpu(data, **defaults)
    ledger = outcome.table.ledger
    return outcome, KernelModel(GTX_780TI, ledger), PCIeBus(ledger)


def test_pvc_watchlist_queries():
    app = PageViewCount()
    data = app.generate_input(120_000, seed=2)
    outcome, kernel, bus = run_tight(app, data)
    truth = outcome.output()
    watch = list(truth)[:20] + [b"http://nowhere.example/"]
    report = pvc_watchlist(outcome.table, kernel, bus, watch)
    for url in watch[:20]:
        assert report[url] == truth[url]
    assert report[b"http://nowhere.example/"] is None


def test_inverted_index_query_phase():
    app = InvertedIndex()
    data = app.generate_input(80_000, seed=4)
    outcome, kernel, bus = run_tight(app, data)
    truth = outcome.output()
    links = list(truth)[:10]
    postings = inverted_index_query(outcome.table, kernel, bus,
                                    links + [b"http://missing/"])
    for link in links:
        assert sorted(postings[link]) == sorted(truth[link])
    assert postings[b"http://missing/"] == []


def test_netflix_similarity_ranking():
    app = Netflix()
    data = app.generate_input(100_000, seed=6)
    outcome, kernel, bus = run_tight(app, data)
    truth = outcome.output()
    # Pick a user that actually appears in pair keys.
    some_key = next(iter(truth))
    user = int(some_key.split(b"&")[0])
    candidates = list(range(0, 60))
    ranking = netflix_similar_users(outcome.table, kernel, bus, user,
                                    candidates, top=5)
    assert ranking == sorted(ranking, key=lambda cs: -cs[1])
    for cand, score in ranking:
        a, b = sorted((user, cand))
        assert truth[b"%d&%d" % (a, b)] == pytest.approx(score)


# ----------------------------------------------------------------------
def edges_of(seq: bytes, k: int) -> dict[bytes, int]:
    """Reference k-mer/edge table of a linear sequence (step 1)."""
    out: dict[bytes, int] = {}
    code = {65: 0, 67: 1, 71: 2, 84: 3}
    for s in range(len(seq) - k + 1):
        kmer = seq[s:s + k]
        mask = 0
        if s > 0:
            mask |= 1 << code[seq[s - 1]]
        if s + k < len(seq):
            mask |= 16 << code[seq[s + k]]
        out[kmer] = out.get(kmer, 0) | mask
    return out


def test_debruijn_graph_structure():
    table = edges_of(b"ACGTACGGA", k=4)
    g = build_debruijn_graph(table)
    assert g.has_edge(b"ACGT", b"CGTA")
    assert g.number_of_nodes() == len(table)


def test_unitig_of_repeat_free_sequence_is_the_sequence():
    seq = b"ACGGTCATTGCAACGTTAGGCATCCAGT"
    unitigs = assemble_unitigs(edges_of(seq, k=6))
    assert unitigs[0] == seq


def test_unitigs_are_genome_substrings_end_to_end():
    """Full pipeline: reads -> SEPO table -> unitigs subset of the genome."""
    app = DnaAssembly(read_len=48, k=12, step=1, genome_per_byte=1 / 200)
    data = app.generate_input(60_000, seed=3)
    outcome, _, _ = run_tight(app, data, n_buckets=1 << 12)
    table = outcome.output()
    unitigs = assemble_unitigs(table, min_length=20)
    assert unitigs, "coverage should produce at least one unitig"
    # Reconstruct the genome reference for substring checks (circular).
    from repro.datagen.dna import BASES
    import numpy as np

    rng = np.random.default_rng(3)
    genome_len = max(4 * 48, int(60_000 / 200))
    genome = BASES[rng.integers(0, 4, size=genome_len)].tobytes()
    circular = genome + genome
    for u in unitigs[:10]:
        assert u in circular, f"unitig not in genome: {u[:30]}..."
    # Good coverage: the longest unitig spans a decent genome fraction.
    assert len(unitigs[0]) > genome_len // 4


def test_assemble_empty_table():
    assert assemble_unitigs({}) == []


def test_isolated_cycle_recovered():
    # A circular sequence with no branch points: one cyclic unitig.
    seq = b"ACGTTGCA"
    k = 4
    circ = seq + seq[: k - 1]
    table = {}
    code = {65: 0, 67: 1, 71: 2, 84: 3}
    for s in range(len(seq)):
        kmer = circ[s:s + k]
        prev = circ[(s - 1) % len(seq)]
        nxt = circ[s + k] if s + k < len(circ) else circ[(s + k) % len(seq)]
        mask = (1 << code[prev]) | (16 << code[nxt])
        table[kmer] = table.get(kmer, 0) | mask
    unitigs = assemble_unitigs(table)
    assert len(unitigs) == 1
    assert len(unitigs[0]) == len(seq) + k - 1 - 1 or len(unitigs[0]) >= len(seq)


def test_importing_the_apps_leaves_networkx_unloaded():
    """networkx is imported by the two functions that use it, so the
    applications and the key-value workloads do not pay for it."""
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    code = "import sys, repro.apps; sys.exit('networkx' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code],
                         env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 0
