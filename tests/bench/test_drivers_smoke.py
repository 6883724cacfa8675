"""Smoke tests for every experiment driver at a micro scale.

These verify the drivers produce structurally valid results quickly.  The
paper's claims are checked on the committed scale-1024 run instead:
``tests/bench/test_paper_claims.py`` asserts its verdicts, and CI's
perf-smoke job diffs every section of ``results_scale1024.txt`` against a
fresh ``python -m repro.bench all --scale 1024``.
"""

import pytest

from repro.apps import PageViewCount, WordCount
from repro.bench.ablations import (
    render_bucket_group_ablation,
    render_threshold_ablation,
    render_vocab_ablation,
    run_bucket_group_ablation,
    run_threshold_ablation,
    run_vocab_ablation,
)
from repro.bench.config import BenchConfig
from repro.bench.datasets import render_table1, run_table1
from repro.bench.fig6 import render_fig6, run_app_dataset
from repro.bench.fig7 import Fig7Row, render_fig7
from repro.bench.table2 import render_table2, run_table2
from repro.bench.table3 import render_table3, run_table3
from repro.gpusim import GTX_1080, GTX_780TI

TINY = BenchConfig(scale=1 << 15)  # ~6-180 KB datasets


def test_table1_driver():
    rows = run_table1(TINY)
    assert len(rows) == 7
    out = render_table1(rows, TINY.scale)
    assert "Table I" in out and "Page View Count" in out


def test_fig6_cell_driver():
    cell = run_app_dataset(PageViewCount(), 1, TINY)
    assert cell.speedup > 0
    assert cell.iterations >= 1
    out = render_fig6([cell])
    assert "Figure 6" in out and "mean speedup" in out


def test_fig6_speedup_property():
    cell = run_app_dataset(WordCount(), 1, TINY)
    assert cell.speedup == pytest.approx(cell.cpu_seconds / cell.gpu_seconds)


def test_table2_driver():
    rows = run_table2(TINY)
    assert {r.app for r in rows} == {
        "Word Count", "Patent Citation", "Geo Location",
    }
    out = render_table2(rows)
    assert "MapCG" in out


def test_fig7_render():
    rows = [
        Fig7Row(app="X", cpu_seconds=1.0, sepo_seconds=0.5,
                pinned_seconds=2.0, sepo_iterations=3),
    ]
    out = render_fig7(rows)
    assert "2.00x" in out  # SEPO speedup
    assert "0.50x" in out  # pinned speedup
    assert "1 of 1" in out


def test_table3_driver_micro():
    rows = run_table3(TINY, input_bytes=40_000)
    assert len(rows) == 9
    assert all(t == 0.0 for t in rows[0].paging_seconds)
    mems = [r.memory_bytes for r in rows]
    assert mems == sorted(mems, reverse=True)
    assert "Table III" in render_table3(rows)


def test_threshold_ablation_driver():
    pts = run_threshold_ablation(TINY, thresholds=(0.25, 0.75), dataset=1)
    assert [p.threshold for p in pts] == [0.25, 0.75]
    assert "halt threshold" in render_threshold_ablation(pts)


def test_bucket_group_ablation_driver():
    pts = run_bucket_group_ablation(TINY, group_sizes=(64, 1024), dataset=1)
    assert pts[0].fragmented_bytes >= pts[1].fragmented_bytes
    assert "bucket-group" in render_bucket_group_ablation(pts).lower()


def test_vocab_ablation_driver():
    pts = run_vocab_ablation(TINY, vocab_sizes=(100, 2000), dataset=1)
    assert pts[0].speedup < pts[1].speedup
    assert "Word Count" in render_vocab_ablation(pts)


def test_cli_main_table1(capsys):
    from repro.bench.__main__ import main

    assert main(["table1", "--scale", str(1 << 15)]) == 0
    out = capsys.readouterr().out
    assert "Table I" in out
    assert "scale=1/32768" in out


def test_cli_rejects_unknown():
    from repro.bench.__main__ import main

    with pytest.raises(SystemExit):
        main(["nonsense"])


def test_gtx1080_needs_fewer_iterations():
    # The GTX 1080 of the paper's footnote: 8 GB and a higher clock need
    # fewer (or no) SEPO iterations for the same dataset, and finish sooner.
    config = BenchConfig(scale=1 << 14)
    app = PageViewCount()
    data = app.generate_input(config.dataset_bytes(app.name, 4),
                              seed=config.seed)
    old = app.run_gpu(data, device=GTX_780TI, **config.gpu_kwargs())
    new = app.run_gpu(data, device=GTX_1080, **config.gpu_kwargs())
    assert new.iterations <= old.iterations
    assert new.elapsed_seconds <= old.elapsed_seconds
    assert new.output() == old.output()
