"""Rendering SEPO run telemetry as a per-iteration timeline.

Makes Figure 5's rhythm visible for a concrete run: how many records each
pass attempted, how many the heap declined, what got evicted, and whether
the pass halted early (basic method, at its ``halt_threshold``) -- the
narrative behind every iteration-count annotation in Figure 6.
"""

from __future__ import annotations

from repro.bench.reporting import fmt_bytes, render_table
from repro.core.sepo import SepoReport

__all__ = ["render_timeline"]


def render_timeline(report: SepoReport, width: int = 40) -> str:
    """A textual per-iteration timeline of a SEPO run."""
    if not report.iteration_log:
        return "(no iterations recorded)"
    peak = max(r.attempted for r in report.iteration_log) or 1
    lines = []
    for rec in report.iteration_log:
        done = round(rec.succeeded / peak * width)
        post = round(rec.postponed / peak * width)
        bar = "#" * done + "~" * post
        flags = []
        if rec.halted_early:
            flags.append("halted early")
        if rec.pages_retained:
            flags.append(f"{rec.pages_retained} pages retained")
        note = f"  [{', '.join(flags)}]" if flags else ""
        lines.append(
            f"iter {rec.index:>2} |{bar:<{width + 2}} "
            f"{rec.succeeded:,}/{rec.attempted:,} stored, "
            f"{fmt_bytes(rec.evicted_bytes)} evicted{note}"
        )
    legend = "(# stored   ~ postponed; widths relative to the busiest pass)"
    table = render_table(
        ["iteration", "attempted", "stored", "postponed", "evicted",
         "halted", "retained"],
        [
            (r.index, f"{r.attempted:,}", f"{r.succeeded:,}",
             f"{r.postponed:,}", fmt_bytes(r.evicted_bytes),
             "yes" if r.halted_early else "", r.pages_retained or "")
            for r in report.iteration_log
        ],
    )
    return "\n".join(lines) + "\n" + legend + "\n\n" + table
