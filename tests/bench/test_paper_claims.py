"""The paper's claims, checked on the committed scale-1024 run.

``results_scale1024.txt`` is the one record of every experiment: CI's
perf-smoke job diffs each of its sections against a fresh ``python -m
repro.bench all --scale 1024``, and this module asserts one predicate per
verdict of EXPERIMENTS.md's Summary on the committed text alone (no
simulation runs here).  The predicates read the printed digits.  A bound
the print can show exactly (``< 1.5x``), or two cells printed to the same
precision, compared strictly, holds of the unrounded values too; that is
why ordered series are checked strictly and the sensitivity section prints
three decimals.  Each planted fault edits the text in memory and must be
rejected.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import pytest

from repro.bench.__main__ import EXPERIMENTS
from repro.bench.config import PAPER_DATASETS_GB, BenchConfig
from repro.bench.reporting import fmt_bytes
from repro.bench.table3 import MEMORY_RATIOS

RESULTS = Path(__file__).resolve().parents[2] / "results_scale1024.txt"
TEXT = RESULTS.read_text()

_HEADER = re.compile(r"^=== (\w+) \(scale=1/(\d+), [0-9.]+s wall\) ===$", re.M)
_UNITS = {"": 1, "x": 1, "s": 1, "ms": 1e-3, "us": 1e-6,
          "B": 1, "KB": 1 << 10, "MB": 1 << 20, "GB": 1 << 30}


def sections(text: str) -> dict[str, tuple[int, str]]:
    """Section name -> (scale, body), in file order."""
    parts = _HEADER.split(text)
    assert parts[0] == "", "the file starts with a section header"
    triples = zip(parts[1::3], parts[2::3], parts[3::3])
    return {name: (int(scale), body) for name, scale, body in triples}


def tables(body: str) -> list[list[list[str]]]:
    """Every table of a section: the rows under each dashed rule, as cells."""
    found = []
    for block in body.split("\n\n"):
        lines = block.strip("\n").splitlines()
        for i, line in enumerate(lines):
            if line and set(line) <= {"-", " "}:
                found.append([re.split(r"\s{2,}", row.strip())
                              for row in lines[i + 1:]])
    return found


def num(cell: str) -> float:
    m = re.fullmatch(r"([0-9.,]+)([a-zA-Z]*)", cell)
    if m is None:
        raise ValueError(f"not a number: {cell!r}")
    return float(m[1].replace(",", "")) * _UNITS[m[2]]


def strictly_increasing(xs: list[float]) -> bool:
    return all(a < b for a, b in zip(xs, xs[1:]))


def table_i(secs):
    scale, body = secs["table1"]
    (rows,) = tables(body)
    assert sorted(r[0] for r in rows) == sorted(PAPER_DATASETS_GB)
    for name, *cells in rows:
        paper_gb = PAPER_DATASETS_GB[name]
        assert cells[:4] == [f"{gb:.1f}GB" for gb in paper_gb], name
        # The scaled sizes are the paper's divided by the scale, and grow.
        assert cells[4:8] == [fmt_bytes(int(gb * 1e9 / scale))
                              for gb in paper_gb], name
        assert strictly_increasing([num(c) for c in cells[4:8]]), name
        assert num(cells[8]) > 100, name


def figure_6(secs):
    _, body = secs["fig6"]
    (rows,) = tables(body)
    assert len(rows) == 28
    by_app: dict[str, list[dict]] = {}
    for app, ds, _input, gpu, cpu, speedup, iters, over in rows:
        by_app.setdefault(app, []).append(dict(
            ds=int(ds), gpu=num(gpu), cpu=num(cpu), speedup=num(speedup),
            iters=int(iters), over=float(over)))
    cells = [c for cs in by_app.values() for c in cs]

    def speedups(app):
        return [c["speedup"] for c in by_app[app]]

    for app, cs in by_app.items():
        assert [c["ds"] for c in cs] == [1, 2, 3, 4], app
        assert all(c["gpu"] > 0 and c["cpu"] > 0 for c in cs), app
        iters = [c["iters"] for c in cs]
        assert iters == sorted(iters), f"{app}: iterations fall with size"
    # The two pathologies: Word Count near parity in every cell (a mean
    # would hide one bad cell) and below every other application,
    # Inverted Index behind the leaders on every dataset; Netflix and DNA
    # Assembly lead by > 2x everywhere.
    wc = speedups("Word Count")
    assert all(s < 1.5 for s in wc)
    assert max(wc) < min(c["speedup"] for app, cs in by_app.items()
                         if app != "Word Count" for c in cs)
    for leader in ("DNA Assembly", "Netflix"):
        assert all(s > 2.0 for s in speedups(leader)), leader
        assert all(a < b for a, b in zip(speedups("Inverted Index"),
                                          speedups(leader))), leader
    # Tables grow past four times device memory; SEPO iterates there and
    # keeps the GPU ahead of the CPU wherever it iterates.
    assert max(c["over"] for c in cells) > 4.0
    iterated = [c for c in cells if c["iters"] > 1]
    assert iterated and all(c["speedup"] > 1.0 for c in iterated)
    mean = num(re.search(r"^mean speedup: (\S+)$", body, re.M)[1])
    assert abs(mean / 3.5 - 1) < 0.03, f"mean {mean}x vs the paper's 3.5x"


def table_ii(secs):
    _, body = secs["table2"]
    (rows,) = tables(body)
    by_app = {r[0]: r for r in rows}
    assert sorted(by_app) == ["Geo Location", "Patent Citation", "Word Count"]
    for app, _ours, _mapcg, speedup, paper, _at4 in rows:
        assert abs(num(speedup) / num(paper) - 1) < 0.07, app
    assert 0.7 < num(by_app["Word Count"][3]) < 1.6
    for app in ("Patent Citation", "Geo Location"):
        assert 1.5 < num(by_app[app][3]) < 4.0, app
        assert by_app[app][5] == "fails (OOM)", app


def figure_7(secs):
    _, body = secs["fig7"]
    (rows,) = tables(body)
    assert len(rows) == 7
    for app, _cpu, _sepo, _pinned, sepo, pinned in rows:
        assert num(sepo) > num(pinned), f"{app}: pinned beats SEPO"
    # At least the paper's 4 of 7 fall below the CPU baseline.
    assert sum(num(r[5]) < 1.0 for r in rows) >= 4


def table_iii(secs):
    _, body = secs["table3"]
    (rows,) = tables(body)
    assert len(rows) == 9
    paging = [[num(c) for c in r[1:4]] for r in rows]
    sepo = [num(r[4]) for r in rows]
    assert paging[0] == [0.0, 0.0, 0.0], "the table fits: no paging"
    for col in range(3):
        assert strictly_increasing([p[col] for p in paging]), col
    for p in paging[2:]:
        assert p[0] > p[1] > p[2], "coarser pages move more bytes"
    for ratio, p, s in zip(MEMORY_RATIOS, paging, sepo):
        if MEMORY_RATIOS[0] / ratio >= 1.5:
            assert p[0] > s and p[1] > s, "paging bound below SEPO's total"
    # The documented deviation: the finest pages never cross SEPO.
    assert all(p[2] < s for p, s in zip(paging, sepo))
    assert sepo[-1] < 5 * sepo[0], "SEPO's degradation is not gentle"


def _ablations(secs):
    scale, body = secs["ablations"]
    threshold, groups, vocabulary = tables(body)
    return scale, threshold, groups, vocabulary


def vocabulary_claim(secs):
    speedups = [num(r[3]) for r in _ablations(secs)[3]]
    assert strictly_increasing(speedups)
    assert speedups[-1] > 1.3 * speedups[0]
    assert speedups[0] < 1.0, "natural text collapses below parity"


def ablations_iv(secs):
    scale, threshold, groups, _ = _ablations(secs)
    by_th = {r[0]: (num(r[1]), int(r[2])) for r in threshold}
    assert by_th["10%"][1] >= by_th["95%"][1]
    times = {t for t, _ in by_th.values()}
    assert by_th["50%"][0] < max(times) or len(times) == 1
    n_buckets = BenchConfig(scale=scale).n_buckets
    for size, n_groups, *_ in groups:
        assert int(n_groups) == math.ceil(n_buckets / int(size)), size
    sizes = [int(r[0]) for r in groups]
    assert sizes == sorted(sizes)
    assert strictly_increasing([-num(r[3]) for r in groups]), (
        "fewer, larger groups fragment less")


def robustness(secs):
    _, body = secs["sensitivity"]
    (rows,) = tables(body)
    assert len(rows) == 7 and rows[0][0] == "baseline"
    by = {r[0]: [num(c) for c in r[1:]] for r in rows}
    for label, (pvc, netflix, wc, vs_pinned) in by.items():
        assert pvc > 1.0 and netflix > 1.0, label
        assert wc < 2.2 and wc < pvc and wc < netflix, label
        assert vs_pinned > 1.0, label
    pvc, _, wc, _ = by["baseline"]
    assert by["gpu lock /2"][2] > wc
    assert by["gpu lock x2"][2] < wc
    assert by["cpu ipc /2"][0] > pvc
    assert by["cpu ipc x2"][0] < pvc


#: EXPERIMENTS.md Summary row -> its predicate.
CLAIMS = {
    "Table I": table_i,
    "Figure 6": figure_6,
    "Table II": table_ii,
    "Figure 7": figure_7,
    "Table III": table_iii,
    "VI-B vocabulary claim": vocabulary_claim,
    "IV-A / IV-C ablations": ablations_iv,
    "Robustness": robustness,
}


def test_every_experiment_has_a_committed_section():
    secs = sections(TEXT)
    assert list(secs) == EXPERIMENTS
    assert {scale for scale, _ in secs.values()} == {1024}


@pytest.mark.parametrize("claim", CLAIMS)
def test_committed_run_meets_claim(claim):
    CLAIMS[claim](sections(TEXT))


def plant(old: str, new: str) -> str:
    assert TEXT.count(old) == 1, f"planted line not in the file: {old!r}"
    return TEXT.replace(old, new)


WC1 = "Word Count        1  155.0KB  209.3us  205.0us    {}x"

FAULTS = {
    "word count #1 at 2.50x": (
        "Figure 6", WC1.format("0.98"), WC1.format("2.50")),
    "pinned above SEPO": (
        "Figure 7",
        "Geo Location      7.08ms  1.63ms   5.79ms         4.34x           1.22x",
        "Geo Location      7.08ms  1.63ms   5.79ms         4.34x           4.40x"),
    "table2 cell 12 % off the paper": (
        "Table II",
        "Patent Citation   94.5us  236.7us    2.50x  2.42x",
        "Patent Citation   94.5us  236.7us    2.70x  2.42x"),
}


@pytest.mark.parametrize("fault", FAULTS)
def test_planted_fault_is_rejected(fault):
    claim, old, new = FAULTS[fault]
    planted = sections(plant(old, new))
    with pytest.raises(AssertionError):
        CLAIMS[claim](planted)


def test_word_count_fault_hides_under_the_mean():
    # Why Figure 6 checks Word Count per cell: the planted 2.50x leaves the
    # four-cell mean under the 1.5x bound.
    (rows,) = tables(sections(plant(WC1.format("0.98"), WC1.format("2.50")))
                     ["fig6"][1])
    wc = [num(r[5]) for r in rows if r[0] == "Word Count"]
    assert wc[0] == 2.50 and sum(wc) / len(wc) < 1.5
