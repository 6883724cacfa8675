"""Oracle-backed conformance matrix over every table implementation.

Every implementation in the repo claims the same contract: feed it a
stream of (key, value) records and it produces the grouped/combined
mapping a plain Python dict would.  This module makes that claim
testable *as a matrix*: shared deterministic workloads
(:mod:`repro.sanitize.workloads`), one pure-dict oracle, and a registry
of adapters running

* the SEPO table under all three organizations x both insert-path
  implementations (vectorized and slow-reference),
* the CPU baseline (:class:`~repro.cpu.cputable.CpuHashTable`),
* the pinned-heap baseline (:class:`~repro.baselines.pinned.PinnedHashTable`),

each with the arena sanitizer enabled.  SEPO implementations also run
fault-injected cases (:mod:`repro.sanitize.faults`) that must *still*
produce oracle-identical output -- postponement is a protocol, not data
loss.  Baselines without a retry path run under-provisioned cases that
must fail with their documented clean exception, never silently drop
records.

SEPO implementations additionally run *mutation* cells
(``sepo-mut-*``): mixed-op and delete-heavy :class:`~repro.core.
mutations.MutationBatch` streams held to the dict-model oracle -- the
final mapping and every interleaved lookup's result must match, and the
delete-heavy fault cells land pool exhaustion / mid-iteration eviction
on delete calls.

Runnable as a CI gate (``--sanitize`` overrides the environment; with
neither, cells are checked at the end of each run)::

    REPRO_SANITIZE=paranoid python -m repro.sanitize.conformance --seed 1 --n 400
"""

from __future__ import annotations

import argparse
import os
from dataclasses import dataclass
from typing import Callable

from repro.sanitize import faults as F
from repro.sanitize.sanitizer import ENV_VAR, resolve_level
from repro.sanitize.workloads import (
    make_batches,
    make_mutation_batches,
    make_op_workload,
    make_workload,
    mutation_oracle,
    oracle,
)

__all__ = [
    "ImplSpec",
    "Outcome",
    "IMPLEMENTATIONS",
    "WORKLOAD_NAMES",
    "MUTATION_WORKLOAD_NAMES",
    "diff_results",
    "run_case",
    "run_matrix",
    "main",
]

WORKLOAD_NAMES = ("uniform", "zipf", "zipf105", "all-duplicates")

#: mixed-op cells: every op-stream spec runs each of these
MUTATION_WORKLOAD_NAMES = (
    "mixed-uniform",
    "mixed-zipf",
    "mixed-all-duplicates",
    "delete-heavy-uniform",
    "delete-heavy-zipf",
    "delete-heavy-all-duplicates",
    "delete-then-reinsert",
)

# -- SEPO table sizing: deliberately tiny so every workload overflows the
# -- heap and exercises postponement + eviction (the paths under test).
PAGE_SIZE = 512
HEAP_PAGES = 12
N_BUCKETS = 64
GROUP_SIZE = 16


@dataclass(frozen=True)
class ImplSpec:
    """One implementation in the conformance matrix."""

    name: str
    #: value semantics: "combining" | "basic" | "multi-valued"
    mode: str
    #: (batches, sanitize, fault) -> raw result mapping; op-stream specs
    #: return (result mapping, {global record index: lookup result})
    runner: Callable[..., dict]
    #: fault-injected cases: (fault_name, fault_or_none, override_or_none),
    #: an override being (substitute runner, expected_exc_or_none) --
    #: expected_exc None means the run must recover and match the oracle
    fault_cases: tuple = ()
    #: True: consumes MutationBatch streams (MUTATION_WORKLOAD_NAMES cells)
    op_stream: bool = False
    #: explicit workload subset; None = the full list for the stream kind
    workloads: tuple[str, ...] | None = None


@dataclass
class Outcome:
    """Result of one (implementation, workload[, fault]) cell."""

    impl: str
    workload: str
    fault: str | None
    ok: bool
    detail: str = ""

    def __str__(self) -> str:
        cell = f"{self.impl} / {self.workload}"
        if self.fault:
            cell += f" / {self.fault}"
        mark = "ok  " if self.ok else "FAIL"
        return f"[{mark}] {cell}" + (f": {self.detail}" if self.detail else "")


# ----------------------------------------------------------------------
# adapters
# ----------------------------------------------------------------------
def _run_sepo(org_factory, *, heap_pages=HEAP_PAGES):
    """Runner for the SEPO table with a deliberately small GPU heap."""

    def runner(batches, sanitize, fault=None):
        from repro.core.hashtable import GpuHashTable
        from repro.core.sepo import SepoDriver
        from repro.gpusim.clock import CostLedger
        from repro.gpusim.device import GTX_780TI
        from repro.gpusim.kernel import KernelModel
        from repro.gpusim.pcie import PCIeBus
        from repro.memalloc.heap import GpuHeap

        ledger = CostLedger()
        heap = GpuHeap(heap_pages * PAGE_SIZE, PAGE_SIZE)
        table = GpuHashTable(
            n_buckets=N_BUCKETS,
            organization=org_factory(),
            heap=heap,
            group_size=GROUP_SIZE,
            ledger=ledger,
            sanitize=sanitize,
        )
        driver = SepoDriver(
            table,
            KernelModel(GTX_780TI, ledger),
            PCIeBus(ledger),
            max_iterations=500,
        )
        if fault is not None:
            fault.install(table, driver)
        driver.run(batches)
        return table.result()

    return runner


def _run_sharded(org_factory, n_shards, *, heap_pages=HEAP_PAGES):
    """Runner for the sharded executor (:mod:`repro.shard`).

    Each shard gets a deliberately small private heap (the unsharded
    budget split across shards, floored so every organization can still
    make progress), so the single-shard cell stresses postponement
    exactly like ``sepo-*`` and the multi-shard cells stress the
    partition/merge path on top.  After the run the cross-shard
    placement invariant is checked in addition to the per-shard arena
    sanitize the executor's tables already carry.
    """

    def runner(batches, sanitize, fault=None):
        from repro.shard import ShardedExecutor

        per_shard_pages = max(6, heap_pages // n_shards)
        executor = ShardedExecutor(
            n_shards,
            org_factory,
            n_buckets=N_BUCKETS,
            heap_bytes=per_shard_pages * PAGE_SIZE,
            page_size=PAGE_SIZE,
            group_size=GROUP_SIZE,
            sanitize=sanitize,
            max_iterations=500,
        )
        executor.run(batches)
        executor.check_shards()
        return executor.result()

    return runner


def _run_sepo_mutation(org_factory, *, heap_pages=HEAP_PAGES):
    """Runner for MutationBatch streams: returns (result, lookups).

    Lookup results live on each batch keyed by batch-local index; they are
    re-keyed to global stream indices so the cell can hold them to the
    model's per-position answers.
    """
    base = _run_sepo(org_factory, heap_pages=heap_pages)

    def runner(batches, sanitize, fault=None):
        result = base(batches, sanitize, fault)
        lookups: dict[int, object] = {}
        offset = 0
        for batch in batches:
            for i, v in batch.lookup_results.items():
                lookups[offset + i] = v
            offset += len(batch)
        return result, lookups

    return runner


def _run_sepo_integrity(org_factory, *, journal=False, heap_pages=HEAP_PAGES):
    """Runner with the integrity layer in full-scrub mode.

    ``scrub_budget`` is set high enough to sweep every page each
    iteration, so an injected corruption is detected at the next
    iteration boundary at the latest (read/page-in verification usually
    catches it sooner).  ``journal=True`` wraps the run in a
    checkpointing :class:`~repro.resilience.ResilientDriver`, giving the
    integrity layer a repair source.  After the run the telemetry is
    audited: a clean run must have detected nothing (zero false
    positives), a faulted run must have detected the injection and
    repaired every event it recovered from.
    """

    def runner(batches, sanitize, fault=None):
        import os
        import tempfile

        from repro.core.hashtable import GpuHashTable
        from repro.core.sepo import SepoDriver
        from repro.gpusim.clock import CostLedger
        from repro.gpusim.device import GTX_780TI
        from repro.gpusim.kernel import KernelModel
        from repro.gpusim.pcie import PCIeBus
        from repro.memalloc.heap import GpuHeap

        ledger = CostLedger()
        heap = GpuHeap(heap_pages * PAGE_SIZE, PAGE_SIZE)
        table = GpuHashTable(
            n_buckets=N_BUCKETS,
            organization=org_factory(),
            heap=heap,
            group_size=GROUP_SIZE,
            ledger=ledger,
            sanitize=sanitize,
            integrity="scrub",
            scrub_budget=256,
        )
        driver = SepoDriver(
            table,
            KernelModel(GTX_780TI, ledger),
            PCIeBus(ledger),
            max_iterations=500,
        )
        integ = heap.integrity
        if journal:
            from repro.resilience import ResilientDriver

            with tempfile.TemporaryDirectory() as tmp:
                resilient = ResilientDriver(
                    driver,
                    journal_path=os.path.join(tmp, "conformance.journal"),
                    checkpoint_every=1,
                )
                if fault is not None:
                    fault.install(table, resilient)
                result = resilient.run(batches).table.result()
        else:
            if fault is not None:
                fault.install(table, driver)
            driver.run(batches)
            result = table.result()

        if fault is None:
            if integ.detected:
                raise RuntimeError(
                    "clean run false positive: "
                    + integ.events[0].describe()
                )
        else:
            fired = getattr(fault, "injected", None) or getattr(
                fault, "fired", None
            )
            if not fired:
                raise RuntimeError(
                    f"fault {fault.describe()} never fired; the cell "
                    "proves nothing -- retune it"
                )
            if integ.detected == 0:
                raise RuntimeError(
                    f"injected fault {fault.describe()} went UNDETECTED"
                )
            unrepaired = [e for e in integ.events if not e.repaired]
            if unrepaired:
                raise RuntimeError(
                    "recovering run left unrepaired damage: "
                    + unrepaired[0].describe()
                )
        return result

    return runner


def _run_cpu(batches, sanitize, fault=None, **overrides):
    from repro.core.combiners import SUM_I64
    from repro.core.organizations import CombiningOrganization
    from repro.cpu.cputable import CpuHashTable

    kwargs = dict(
        n_buckets=N_BUCKETS,
        organization=CombiningOrganization(SUM_I64),
        group_size=GROUP_SIZE,
        sanitize=sanitize,
    )
    kwargs.update(overrides)
    table = CpuHashTable(**kwargs)
    table.run(batches)
    return table.result()


class _PairsApp:
    """Minimal Application adapter feeding pre-built batches to the
    pinned-heap runner (which drives apps, not batch lists)."""

    name = "conformance-pairs"

    def __init__(self, batches):
        self._batches = batches

    def batches(self, data, chunk_bytes=None):
        return self._batches

    def make_organization(self):
        from repro.core.organizations import BasicOrganization

        return BasicOrganization()


def _run_pinned(batches, sanitize, fault=None, **overrides):
    from repro.baselines.pinned import PinnedHashTable

    kwargs = dict(
        n_buckets=512,
        group_size=GROUP_SIZE,
        page_size=4096,
        heap_bytes=1 << 20,
        sanitize=sanitize,
    )
    kwargs.update(overrides)
    outcome = PinnedHashTable(**kwargs).run(_PairsApp(batches), b"")
    return outcome.table.result()


def _with(runner, **overrides):
    return lambda batches, sanitize, fault=None: runner(
        batches, sanitize, fault, **overrides
    )


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------
def _sepo_fault_cases():
    """Faults every SEPO run must absorb without losing a record."""
    # deny_batches=1: the basic organization halts passes early under
    # pressure, so each pass may issue a single insert_batch call -- a
    # 2-batch denial window would starve two whole passes, which the
    # driver (correctly) reports as NoProgressError.
    return (
        ("pool-exhaustion", lambda: F.PoolExhaustion(after_batches=1, deny_batches=1), None),
        ("mid-iteration-eviction", lambda: F.MidIterationEviction(at_batch=1), None),
        ("zero-capacity-start", lambda: F.ZeroCapacityStart(), None),
    )


def _sepo_mutation_fault_cases():
    """Deletes must survive the same faults inserts do.

    These run against a delete-heavy stream (see ``run_matrix``), so the
    denial window and the forced mid-iteration rearrangement land on
    delete/update calls: a delete that hits pool exhaustion must postpone
    (or tombstone in place) and replay, and a delete over a just-evicted
    chain prefix must fall back to a born-dead tombstone entry.
    """
    return (
        ("pool-exhaustion", lambda: F.PoolExhaustion(after_batches=1, deny_batches=1), None),
        ("mid-iteration-eviction", lambda: F.MidIterationEviction(at_batch=1), None),
    )


def _sepo_integrity_fault_cases(org_for):
    """Injected corruption the integrity layer must detect -- and, when a
    journal checkpoint exists, heal to an oracle-identical table.

    The override tuples reuse the baseline-override plumbing: a runner to
    substitute, plus the exception the run must raise (``None`` = must
    recover and match the oracle).
    """
    from repro.integrity import CorruptionError

    plain = _run_sepo_integrity(org_for("vectorized"))
    journaled = _run_sepo_integrity(org_for("vectorized"), journal=True)
    return (
        # torn DMA: verify-on-arrival catches it, re-copy heals it
        ("torn-transfer", lambda: F.TornTransferFault(every=5), None),
        # tears past the retry budget are unrepairable by re-copying
        (
            "torn-persistent",
            lambda: F.TornTransferFault(every=3, failures=20),
            (plain, CorruptionError),
        ),
        # at-rest damage with a checkpoint to heal from: repaired
        (
            "bit-flip-repair",
            lambda: F.BitFlipFault(after_evictions=1),
            (journaled, None),
        ),
        (
            "stale-repair",
            lambda: F.StaleSegmentFault(after_evictions=1),
            (journaled, None),
        ),
        # the same damage with no journal: quarantine and refuse
        (
            "bit-flip-abort",
            lambda: F.BitFlipFault(after_evictions=1),
            (plain, CorruptionError),
        ),
        (
            "stale-abort",
            lambda: F.StaleSegmentFault(after_evictions=1),
            (plain, CorruptionError),
        ),
    )


def _org_basic(impl):
    def factory():
        from repro.core.organizations import BasicOrganization

        return BasicOrganization(impl=impl)

    return factory


def _org_combining(impl):
    def factory():
        from repro.core.combiners import SUM_I64
        from repro.core.organizations import CombiningOrganization

        return CombiningOrganization(SUM_I64, impl=impl)

    return factory


def _org_multivalued(impl):
    def factory():
        from repro.core.organizations import MultiValuedOrganization

        return MultiValuedOrganization(impl=impl)

    return factory


def _baseline_fault(name, runner_with_tiny_config, expected_exc):
    """Under-provisioned baselines must fail loudly, not drop data."""
    return (name, None, (runner_with_tiny_config, expected_exc))


def _build_registry() -> tuple[ImplSpec, ...]:
    specs = []
    for org_name, mode, org_for in (
        ("basic", "basic", _org_basic),
        ("combining", "combining", _org_combining),
        ("multivalued", "multi-valued", _org_multivalued),
    ):
        for impl, label in (
            ("vectorized", "vectorized"),
            ("slow_reference", "reference"),
        ):
            specs.append(
                ImplSpec(
                    name=f"sepo-{org_name}-{label}",
                    mode=mode,
                    runner=_run_sepo(org_for(impl)),
                    fault_cases=_sepo_fault_cases(),
                )
            )
            specs.append(
                ImplSpec(
                    name=f"sepo-mut-{org_name}-{label}",
                    mode=mode,
                    runner=_run_sepo_mutation(org_for(impl)),
                    fault_cases=_sepo_mutation_fault_cases(),
                    op_stream=True,
                )
            )
        specs.append(
            ImplSpec(
                name=f"sepo-int-{org_name}",
                mode=mode,
                runner=_run_sepo_integrity(org_for("vectorized")),
                fault_cases=_sepo_integrity_fault_cases(org_for),
            )
        )
        for n_shards in (1, 2, 4, 8):
            specs.append(
                ImplSpec(
                    name=f"sepo-shard-{org_name}-s{n_shards}",
                    mode=mode,
                    runner=_run_sharded(org_for("vectorized"), n_shards),
                    workloads=("uniform", "zipf"),
                )
            )
    specs.append(
        ImplSpec(
            name="cpu-table",
            mode="combining",
            runner=_run_cpu,
            fault_cases=(
                _baseline_fault(
                    "tiny-heap",
                    _with(_run_cpu, max_heap_bytes=8192, page_size=4096),
                    MemoryError,
                ),
            ),
        )
    )
    specs.append(
        ImplSpec(
            name="pinned",
            mode="basic",
            runner=_run_pinned,
            fault_cases=(
                _baseline_fault(
                    "tiny-heap",
                    _with(_run_pinned, heap_bytes=8192, page_size=4096),
                    MemoryError,
                ),
            ),
        )
    )
    return tuple(specs)


IMPLEMENTATIONS: tuple[ImplSpec, ...] = _build_registry()


# ----------------------------------------------------------------------
# comparison
# ----------------------------------------------------------------------
def _normalize(result: dict, mode: str) -> dict:
    """Canonical form: combining -> scalar; others -> sorted value list."""
    if mode == "combining":
        return {k: v for k, v in result.items()}
    return {k: sorted(vs) for k, vs in result.items()}


def diff_results(expected: dict, actual: dict, limit: int = 5) -> list[str]:
    """Human-readable differences between oracle and implementation."""
    diffs = []
    for k in expected:
        if k not in actual:
            diffs.append(f"missing key {k!r}")
        elif actual[k] != expected[k]:
            diffs.append(f"key {k!r}: expected {expected[k]!r}, got {actual[k]!r}")
        if len(diffs) >= limit:
            return diffs + ["..."]
    for k in actual:
        if k not in expected:
            diffs.append(f"unexpected key {k!r}")
            if len(diffs) >= limit:
                return diffs + ["..."]
    return diffs


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
def _diff_lookups(expected: dict, actual: dict, limit: int = 5) -> list[str]:
    """Differences between the model's and the table's lookup results."""
    diffs = []
    for i in sorted(set(expected) | set(actual)):
        if expected.get(i) != actual.get(i):
            diffs.append(
                f"lookup #{i}: expected {expected.get(i)!r}, "
                f"got {actual.get(i)!r}"
            )
            if len(diffs) >= limit:
                return diffs + ["..."]
    return diffs


def _run_op_stream_case(
    spec: ImplSpec,
    workload_name: str,
    n: int,
    seed: int,
    sanitize: str,
    batch_size: int,
    fault_case=None,
) -> Outcome:
    """One mutation cell: final mapping AND every lookup must match."""
    workload = make_op_workload(workload_name, n, seed)
    batches = make_mutation_batches(workload, spec.mode, batch_size)
    want_result, want_lookups = mutation_oracle(workload, spec.mode)
    fault_name = fault_case[0] if fault_case is not None else None
    try:
        actual, lookups = spec.runner(
            batches, sanitize,
            fault_case[1]() if fault_case is not None else None,
        )
    except Exception as exc:  # noqa: BLE001 -- report, don't crash
        return Outcome(
            spec.name, workload_name, fault_name, False,
            f"{type(exc).__name__}: {exc}",
        )
    diffs = diff_results(want_result, _normalize(actual, spec.mode))
    diffs += _diff_lookups(want_lookups, lookups)
    return Outcome(
        spec.name, workload_name, fault_name, not diffs, "; ".join(diffs)
    )


def run_case(
    spec: ImplSpec,
    workload_name: str,
    n: int = 600,
    seed: int = 0,
    sanitize: str = "end",
    batch_size: int = 150,
    fault_case=None,
) -> Outcome:
    """Run one matrix cell and compare against the dict oracle."""
    if spec.op_stream:
        return _run_op_stream_case(
            spec, workload_name, n, seed, sanitize, batch_size, fault_case
        )
    workload = make_workload(workload_name, n, seed)
    batches = make_batches(workload, spec.mode, batch_size)

    if fault_case is not None:
        fault_name, make_fault, override = fault_case
        if override is not None:
            # A substitute runner: either it must raise its documented
            # error (under-provisioned baselines, unrepairable corruption)
            # or -- expected_exc None -- recover and match the oracle
            # (e.g. corruption healed from a journal checkpoint).
            alt_runner, expected_exc = override
            fault = make_fault() if make_fault is not None else None
            if expected_exc is None:
                try:
                    actual = alt_runner(batches, sanitize, fault)
                except Exception as exc:  # noqa: BLE001
                    return Outcome(
                        spec.name, workload_name, fault_name, False,
                        f"did not recover: {type(exc).__name__}: {exc}",
                    )
                diffs = diff_results(
                    oracle(workload, spec.mode),
                    _normalize(actual, spec.mode),
                )
                return Outcome(
                    spec.name, workload_name, fault_name, not diffs,
                    "; ".join(diffs),
                )
            try:
                alt_runner(batches, sanitize, fault)
            except expected_exc:
                return Outcome(spec.name, workload_name, fault_name, True)
            except Exception as exc:  # noqa: BLE001 -- report, don't crash
                return Outcome(
                    spec.name, workload_name, fault_name, False,
                    f"expected {expected_exc.__name__}, got {type(exc).__name__}: {exc}",
                )
            return Outcome(
                spec.name, workload_name, fault_name, False,
                f"expected {expected_exc.__name__}, but the run completed",
            )
        # A SEPO fault: the run must recover AND match the oracle.
        try:
            actual = spec.runner(batches, sanitize, make_fault())
        except Exception as exc:  # noqa: BLE001
            return Outcome(
                spec.name, workload_name, fault_name, False,
                f"did not recover: {type(exc).__name__}: {exc}",
            )
        diffs = diff_results(
            oracle(workload, spec.mode), _normalize(actual, spec.mode)
        )
        return Outcome(
            spec.name, workload_name, fault_name, not diffs, "; ".join(diffs)
        )

    try:
        actual = spec.runner(batches, sanitize)
    except Exception as exc:  # noqa: BLE001
        return Outcome(
            spec.name, workload_name, None, False,
            f"{type(exc).__name__}: {exc}",
        )
    diffs = diff_results(oracle(workload, spec.mode), _normalize(actual, spec.mode))
    return Outcome(spec.name, workload_name, None, not diffs, "; ".join(diffs))


def run_matrix(
    seed: int = 0,
    n: int = 600,
    sanitize: str = "end",
    include_faults: bool = True,
    impls: tuple[str, ...] | None = None,
) -> list[Outcome]:
    """The full conformance sweep: every impl x every workload (+faults)."""
    outcomes = []
    for spec in IMPLEMENTATIONS:
        if impls is not None and spec.name not in impls:
            continue
        names = spec.workloads or (
            MUTATION_WORKLOAD_NAMES if spec.op_stream else WORKLOAD_NAMES
        )
        for workload_name in names:
            outcomes.append(run_case(spec, workload_name, n, seed, sanitize))
        if include_faults:
            # mutation fault cells run delete-heavy so the injected fault
            # lands on delete/update calls, not just inserts
            fault_workload = (
                "delete-heavy-uniform" if spec.op_stream else "uniform"
            )
            for fault_case in spec.fault_cases:
                outcomes.append(
                    run_case(
                        spec, fault_workload, n, seed, sanitize,
                        fault_case=fault_case,
                    )
                )
    return outcomes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the table-implementation conformance matrix."
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--n", type=int, default=600, help="records per workload")
    parser.add_argument(
        "--sanitize", default=None,
        help="sanitizer level for every run (default: $REPRO_SANITIZE, "
        "else 'end')",
    )
    parser.add_argument(
        "--no-faults", action="store_true", help="skip fault-injected cases"
    )
    parser.add_argument(
        "--impls", default=None,
        help="comma-separated implementation names (default: all)",
    )
    args = parser.parse_args(argv)

    impls = tuple(args.impls.split(",")) if args.impls else None

    # an explicit flag wins, then the environment (CI's REPRO_SANITIZE=
    # paranoid prefix), and a bare invocation still sanitizes at the end
    sanitize = resolve_level(
        args.sanitize or os.environ.get(ENV_VAR) or "end"
    )
    outcomes = run_matrix(
        seed=args.seed,
        n=args.n,
        sanitize=sanitize,
        include_faults=not args.no_faults,
        impls=impls,
    )
    failures = [o for o in outcomes if not o.ok]
    for o in outcomes:
        print(o)
    print(
        f"\n{len(outcomes) - len(failures)}/{len(outcomes)} cells passed "
        f"(seed={args.seed}, n={args.n}, sanitize={sanitize})"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
