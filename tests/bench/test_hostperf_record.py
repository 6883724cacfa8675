"""The committed host-perf record, ``BENCH_hostperf.json``, describes the
code it ships with."""

import json
from pathlib import Path

from repro.core.organizations import policy

RECORD = Path(__file__).resolve().parents[2] / "BENCH_hostperf.json"


def test_the_recorded_cut_over_is_the_shipped_one():
    """The ``mixed_sweep`` cell is the evidence behind
    ``policy.MIXED_KERNEL_MIN_OPS``: a record that names another cut-over
    was measured on other code (regenerate it with
    ``benchmarks/bench_hostperf.py``)."""
    tiers = json.loads(RECORD.read_text())["tiers"]
    assert tiers
    for n, tier in tiers.items():
        assert tier["mixed_sweep"]["cut_over_ops"] == (
            policy.MIXED_KERNEL_MIN_OPS), f"tier {n}"
