"""Command-line entry point for the experiment harness."""

from __future__ import annotations

import argparse
import sys
import time

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
from repro.bench.fig6 import render_fig6, run_fig6
from repro.bench.fig7 import render_fig7, run_fig7
from repro.bench.sensitivity import render_sensitivity, run_sensitivity
from repro.bench.table2 import render_table2, run_table2
from repro.bench.table3 import render_table3, run_table3


def _run(name: str, config: BenchConfig) -> tuple[str, object]:
    """Returns (rendered text, raw rows for JSON export)."""
    if name == "table1":
        rows = run_table1(config)
        return render_table1(rows, config.scale), rows
    if name == "fig6":
        rows = run_fig6(config)
        return render_fig6(rows), rows
    if name == "table2":
        rows = run_table2(config)
        return render_table2(rows), rows
    if name == "fig7":
        rows = run_fig7(config)
        return render_fig7(rows), rows
    if name == "table3":
        rows = run_table3(config)
        return render_table3(rows), rows
    if name == "ablations":
        sections = {
            "threshold": run_threshold_ablation(config),
            "bucket_groups": run_bucket_group_ablation(config),
            "vocabulary": run_vocab_ablation(config),
        }
        text = "\n\n".join(
            [
                render_threshold_ablation(sections["threshold"]),
                render_bucket_group_ablation(sections["bucket_groups"]),
                render_vocab_ablation(sections["vocabulary"]),
            ]
        )
        return text, sections
    if name == "sensitivity":
        rows = run_sensitivity(config)
        return render_sensitivity(rows), rows
    raise ValueError(f"unknown experiment {name!r}")


EXPERIMENTS = [
    "table1", "fig6", "table2", "fig7", "table3", "ablations", "sensitivity",
]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment", choices=EXPERIMENTS + ["all"],
        help="which table/figure to regenerate",
    )
    parser.add_argument(
        "--scale", type=int, default=None,
        help="override REPRO_SCALE (divide the paper's bytes by this)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write raw results as JSON (one file; experiment name "
             "is appended when running 'all')",
    )
    args = parser.parse_args(argv)

    kwargs = {"seed": args.seed}
    if args.scale is not None:
        kwargs["scale"] = args.scale
    config = BenchConfig(**kwargs)

    names = EXPERIMENTS if args.experiment == "all" else [args.experiment]
    for name in names:
        start = time.perf_counter()
        output, rows = _run(name, config)
        wall = time.perf_counter() - start
        print(f"=== {name} (scale=1/{config.scale}, {wall:.1f}s wall) ===\n")
        print(output)
        print()
        if args.json:
            from repro.bench.export import write_json

            path = args.json
            if len(names) > 1:
                stem, dot, ext = path.rpartition(".")
                path = f"{stem}-{name}.{ext}" if dot else f"{path}-{name}"
            write_json(path, name, rows, config.scale, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
