"""Second-phase analytics over finished tables.

Section IV-C: the insert-heavy first phase is what SEPO accelerates, while
"subsequent phases use/analyze the results".  This module supplies those
phases for the applications -- query phases run through the SEPO
:class:`~repro.core.lookup.LookupDriver` (so they work against
larger-than-memory tables), and DNA assembly's graph phase builds and walks
an actual de Bruijn graph.

* :func:`pvc_watchlist` -- PVC: counts for a watch-list of URLs.
* :func:`inverted_index_query` -- Inverted Index: posting lists for links
  (multi-valued SEPO lookups).
* :func:`netflix_similar_users` -- Netflix: rank candidate partners for a
  user by accumulated similarity.
* :func:`assemble_unitigs` -- DNA: compress the k-mer/edge table into
  unitigs (maximal non-branching de Bruijn paths), Meraculous' next step.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.hashtable import GpuHashTable
from repro.core.lookup import LookupDriver, LookupResult
from repro.gpusim.kernel import KernelModel
from repro.gpusim.pcie import PCIeBus

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "pvc_watchlist",
    "inverted_index_query",
    "netflix_similar_users",
    "assemble_unitigs",
    "build_debruijn_graph",
]

_BASES = b"ACGT"


def _lookup(table: GpuHashTable, kernel: KernelModel, bus: PCIeBus,
            keys: list[bytes]) -> LookupResult:
    return LookupDriver(table, kernel, bus).lookup(keys)


# ----------------------------------------------------------------------
def pvc_watchlist(
    table: GpuHashTable,
    kernel: KernelModel,
    bus: PCIeBus,
    urls: list[bytes],
) -> dict[bytes, int | None]:
    """View counts for a watch-list of URLs (None = never seen)."""
    result = _lookup(table, kernel, bus, urls)
    return dict(zip(urls, result.values))


def inverted_index_query(
    table: GpuHashTable,
    kernel: KernelModel,
    bus: PCIeBus,
    links: list[bytes],
) -> dict[bytes, list[bytes]]:
    """Posting lists for the given hyperlinks (missing links -> [])."""
    result = _lookup(table, kernel, bus, links)
    return {
        link: (values if values is not None else [])
        for link, values in zip(links, result.values)
    }


def netflix_similar_users(
    table: GpuHashTable,
    kernel: KernelModel,
    bus: PCIeBus,
    user: int,
    candidates: list[int],
    top: int = 10,
) -> list[tuple[int, float]]:
    """Rank candidate users by accumulated similarity with ``user``.

    Queries the ``a&b`` pair keys the Netflix kernel produced; pairs never
    co-rated are skipped.
    """
    keys = []
    for cand in candidates:
        a, b = (user, cand) if user < cand else (cand, user)
        keys.append(b"%d&%d" % (a, b))
    result = _lookup(table, kernel, bus, keys)
    scored = [
        (cand, score)
        for cand, score in zip(candidates, result.values)
        if score is not None
    ]
    scored.sort(key=lambda cs: -cs[1])
    return scored[:top]


# ----------------------------------------------------------------------
# DNA assembly phase 2: de Bruijn unitigs
# ----------------------------------------------------------------------
def build_debruijn_graph(kmer_edges: dict[bytes, int]) -> "nx.DiGraph":
    """The de Bruijn graph encoded by the assembler's table.

    ``kmer_edges`` maps each k-mer to its edge bitmask (bits 0-3: observed
    preceding base A/C/G/T, bits 4-7: observed following base).  An edge
    ``K -> K[1:]+c`` exists when K saw following-base ``c`` and the
    successor k-mer is itself in the table.
    """
    import networkx as nx  # on use: not every importer of the package

    g = nx.DiGraph()
    g.add_nodes_from(kmer_edges)
    for kmer, mask in kmer_edges.items():
        mask = int(mask)
        for code in range(4):
            if mask & (16 << code):
                succ = kmer[1:] + _BASES[code : code + 1]
                if succ in kmer_edges:
                    g.add_edge(kmer, succ)
    return g


def assemble_unitigs(
    kmer_edges: dict[bytes, int], min_length: int | None = None
) -> list[bytes]:
    """Compress non-branching de Bruijn paths into unitig sequences.

    A unitig extends through nodes whose in- and out-degrees are exactly 1;
    it starts at a branch point (or anywhere on an isolated cycle) and ends
    at the next one.  Returns the unitig base strings, longest first.
    """
    g = build_debruijn_graph(kmer_edges)
    if not g:
        return []
    k = len(next(iter(kmer_edges)))
    min_length = k if min_length is None else min_length

    def is_through(node) -> bool:
        return g.in_degree(node) == 1 and g.out_degree(node) == 1

    unitigs: list[bytes] = []
    visited: set[bytes] = set()

    # Paths anchored at branch points / tips.
    for node in g.nodes:
        if is_through(node):
            continue
        for succ in g.successors(node):
            path = [node]
            cur = succ
            while is_through(cur) and cur not in visited and cur != node:
                visited.add(cur)
                path.append(cur)
                cur = next(iter(g.successors(cur)))
            path.append(cur)
            seq = path[0] + b"".join(n[-1:] for n in path[1:])
            if len(seq) >= min_length:
                unitigs.append(seq)
        visited.add(node)

    # Isolated simple cycles (a circular genome with no repeats is one).
    for node in g.nodes:
        if node in visited or not is_through(node):
            continue
        path = [node]
        visited.add(node)
        cur = next(iter(g.successors(node)))
        while cur != node:
            visited.add(cur)
            path.append(cur)
            cur = next(iter(g.successors(cur)))
        seq = path[0] + b"".join(n[-1:] for n in path[1:])
        if len(seq) >= min_length:
            unitigs.append(seq)

    unitigs.sort(key=len, reverse=True)
    return unitigs
