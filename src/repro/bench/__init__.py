"""Experiment harness: one driver per table/figure of the paper.

Run from the command line::

    python -m repro.bench table1     # Table I   dataset sizes
    python -m repro.bench fig6       # Figure 6  speedups, 7 apps x 4 datasets
    python -m repro.bench table2     # Table II  vs MapCG
    python -m repro.bench fig7       # Figure 7  vs pinned-CPU-memory heap
    python -m repro.bench table3     # Table III vs demand paging
    python -m repro.bench ablations  # threshold / bucket-group / vocabulary
    python -m repro.bench sensitivity  # conclusions under 2x perturbations
    python -m repro.bench all        # every section of results_scale1024.txt

``REPRO_SCALE`` (default 1024) selects how hard the paper's GB-scale
experiments are shrunk; see :mod:`repro.bench.config`.
"""

from repro.bench.config import BenchConfig, PAPER_DATASETS_GB
from repro.bench.datasets import render_table1, run_table1
from repro.bench.fig6 import render_fig6, run_fig6
from repro.bench.fig7 import render_fig7, run_fig7
from repro.bench.table2 import render_table2, run_table2
from repro.bench.table3 import render_table3, run_table3

__all__ = [
    "BenchConfig",
    "PAPER_DATASETS_GB",
    "render_fig6",
    "render_fig7",
    "render_table1",
    "render_table2",
    "render_table3",
    "run_fig6",
    "run_fig7",
    "run_table1",
    "run_table2",
    "run_table3",
]
