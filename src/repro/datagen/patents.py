"""Patent citation generator.

Citation graphs grow by preferential attachment -- famous patents accumulate
citations.  We generate a Barabási–Albert graph with :mod:`networkx`, orient
each edge from the newer node (the citing patent) to the older one (the
cited patent), and emit ``citing cited`` lines.  The reverse-citation
directory the application builds groups citing patents under each cited key.
"""

from __future__ import annotations

import numpy as np

__all__ = ["generate_patent_citations"]


def generate_patent_citations(
    size_bytes: int,
    seed: int = 0,
    citations_per_patent: int = 8,
) -> bytes:
    """Approximately ``size_bytes`` of citation-pair lines."""
    if size_bytes <= 0:
        raise ValueError(f"size must be positive: {size_bytes}")
    if citations_per_patent < 1:
        raise ValueError("each patent must cite at least one other")
    bytes_per_line = 16.0
    n_edges = max(1, int(size_bytes / bytes_per_line))
    n_nodes = max(citations_per_patent + 1, n_edges // citations_per_patent)
    import networkx as nx  # on use: not every importer of the package

    g = nx.barabasi_albert_graph(n_nodes, citations_per_patent, seed=seed)
    rng = np.random.default_rng(seed)
    base = 4_000_000  # USPTO-style 7-digit ids
    out = []
    for u, v in g.edges():
        citing, cited = (u, v) if u > v else (v, u)  # newer cites older
        out.append(b"%d %d" % (base + citing, base + cited))
    rng.shuffle(out)
    return b"\n".join(out) + b"\n"
