"""Run any of the seven applications from the command line.

::

    python -m repro.apps pvc --size 2000000 --device gpu --scale 1024
    python -m repro.apps wordcount --device cpu --top 10
    python -m repro.apps inverted-index --device pinned

Prints run telemetry (simulated time, SEPO iterations, table statistics)
and the top results, and verifies the output against the pure-Python
reference implementation.
"""

from __future__ import annotations

import argparse
import inspect
import sys

from repro.apps import (
    ALL_APPS,
    DnaAssembly,
    GeoLocation,
    InvertedIndex,
    Netflix,
    PageViewCount,
    PatentCitation,
    WordCount,
)
from repro.baselines.pinned import PinnedHashTable
from repro.bench.reporting import fmt_bytes, fmt_seconds
from repro.core import session
from repro.integrity import INTEGRITY_MODES
from repro.sanitize import LEVELS

APPS = {
    "pvc": PageViewCount,
    "inverted-index": InvertedIndex,
    "dna": DnaAssembly,
    "netflix": Netflix,
    "wordcount": WordCount,
    "geolocation": GeoLocation,
    "patent-citation": PatentCitation,
}

#: the flags forwarded to ``run_gpu`` as given (see ``main``)
RUN_OPTIONS = ("sanitize", "integrity", "scrub_budget", "journal", "resume",
               "checkpoint_every")


def _preview(value) -> str:
    if isinstance(value, list):
        shown = b", ".join(value[:3])
        more = f" (+{len(value) - 3} more)" if len(value) > 3 else ""
        return f"[{shown.decode(errors='replace')}]{more}"
    return str(value)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.apps",
        description="Run one of the paper's seven applications.",
    )
    parser.add_argument("app", choices=sorted(APPS))
    parser.add_argument("--size", type=int, default=500_000,
                        help="input size in bytes (default 500000)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--device", choices=["gpu", "cpu", "pinned"],
                        default="gpu")
    parser.add_argument("--scale", type=int, default=4096,
                        help="GPU memory shrink factor (default 4096)")
    parser.add_argument("--buckets", type=int, default=1 << 12)
    parser.add_argument("--top", type=int, default=5,
                        help="how many results to print")
    parser.add_argument("--no-verify", action="store_true",
                        help="skip the reference-implementation check")
    parser.add_argument("--timeline", action="store_true",
                        help="print the per-iteration SEPO timeline (gpu)")
    # Run options: declared (defaults included) by repro.core.session.wire;
    # a flag left off the command line is not passed at all.
    run = parser.add_argument_group(
        "run options (gpu only)", argument_default=argparse.SUPPRESS
    )
    wired = {
        name: p.default
        for name, p in inspect.signature(session.wire).parameters.items()
    }
    run.add_argument("--sanitize", choices=LEVELS,
                     help="sanitizer level (default: REPRO_SANITIZE)")
    run.add_argument("--integrity", choices=INTEGRITY_MODES,
                     help="checksum/scrub mode (default: REPRO_INTEGRITY, "
                          "falling back to off)")
    run.add_argument("--scrub-budget", type=int, metavar="N",
                     help="pages the background scrubber sweeps per SEPO "
                          f"iteration (default {wired['scrub_budget']}; "
                          "needs --integrity scrub)")
    run.add_argument("--journal", metavar="PATH",
                     help="journal checkpoints to PATH (enables "
                          "crash-recoverable execution)")
    run.add_argument("--resume", action="store_true",
                     help="resume from an existing --journal file")
    run.add_argument("--checkpoint-every", type=int,
                     metavar="N", help="checkpoint every N SEPO "
                     f"iterations (default {wired['checkpoint_every']})")
    args = parser.parse_args(argv)
    options = {k: getattr(args, k) for k in RUN_OPTIONS if hasattr(args, k)}
    if "resume" in options and "journal" not in options:
        parser.error("--resume requires --journal")

    app = APPS[args.app]()
    data = app.generate_input(args.size, seed=args.seed)
    print(f"{app.name}: {fmt_bytes(len(data))} of input "
          f"({app.organization} method)")

    if args.device == "gpu":
        outcome = app.run_gpu(data, scale=args.scale, n_buckets=args.buckets,
                              page_size=4096, **options)
    elif args.device == "cpu":
        outcome = app.run_cpu(data, n_buckets=args.buckets)
    else:
        outcome = PinnedHashTable(
            n_buckets=args.buckets, heap_bytes=1 << 26, page_size=4096,
        ).run(app, data)

    print(f"device          : {outcome.device}")
    print(f"simulated time  : {fmt_seconds(outcome.elapsed_seconds)}")
    print(f"SEPO iterations : {outcome.iterations}")
    if outcome.breakdown:
        spent = {k: v for k, v in outcome.breakdown.items() if v > 0}
        total = sum(spent.values()) or 1.0
        parts = ", ".join(
            f"{k} {v / total:.0%}" for k, v in
            sorted(spent.items(), key=lambda kv: -kv[1])
        )
        print(f"time breakdown  : {parts}")

    res = outcome.resilience
    if res is not None:
        resumed = (f"resumed at iteration {res.resumed_from_iteration}"
                   if res.resumed_from_iteration is not None else "fresh run")
        print(f"resilience      : {res.checkpoints_written} checkpoint(s), "
              f"{resumed}, {res.retries} transfer retries")
        for ev in res.degradation_events:
            detail = f" ({ev.detail})" if ev.detail else ""
            print(f"  degraded @ iter {ev.iteration}: {ev.action}{detail}")

    # The CPU baseline and a degraded run wrap the core table; unwrap it.
    inner = getattr(outcome.table, "table", outcome.table)
    integ = inner.heap.integrity
    if integ is not None:
        print(f"integrity       : mode {integ.mode}, {integ.seals} seals, "
              f"{integ.verifies} verifies, {integ.scrubbed_pages} pages "
              f"scrubbed, {integ.detected} detected, {integ.repaired} repaired")
        for ev in integ.events:
            print(f"  {ev.describe()}")

    if args.timeline and args.device == "gpu":
        from repro.bench.timeline import render_timeline

        print("\n" + render_timeline(outcome.report))

    from repro.core.introspection import collect_stats

    stats = collect_stats(inner)
    print(f"table           : {stats.total_entries:,} entries, "
          f"load factor {stats.load_factor:.2f}, "
          f"max chain {stats.max_chain_length}")

    output = outcome.output()
    ranked = sorted(
        output.items(),
        key=lambda kv: -(len(kv[1]) if isinstance(kv[1], list) else kv[1]),
    )[: args.top]
    print(f"\ntop {len(ranked)} of {len(output):,} keys:")
    for k, v in ranked:
        print(f"  {k.decode(errors='replace'):42s} {_preview(v)}")

    if not args.no_verify:
        ref = app.reference(data)
        norm = lambda d: {
            k: sorted(v) if isinstance(v, list) else v for k, v in d.items()
        }
        if norm(output) != norm(ref):
            print("\nERROR: output does not match the reference!")
            return 1
        print("\noutput verified against the reference implementation")
    return 0


if __name__ == "__main__":
    sys.exit(main())
