"""Span arithmetic, and that tracing leaves the program as it found it."""

import time
import warnings

import pytest

from conftest import QUICK
from e2e.trace import (
    PER_LAYER_METRICS,
    TRACE_POINTS,
    Tracer,
    _holders,
    layer_metrics,
    self_times,
)
from e2e.workloads import WORKLOADS, digest


# ----------------------------------------------------------------------
# a synthetic call tree: outer -> (inner -> leaf), leaf
# ----------------------------------------------------------------------
class Tree:
    def outer(self):
        self.inner()
        self.leaf()
        return "outer"

    def inner(self):
        return self.leaf()

    def leaf(self):
        return 7


class Bonsai(Tree):
    def leaf(self):  # an override must be wrapped too
        return 8


def _count_leaves(counts, args, result):
    counts["leaves"] = counts.get("leaves", 0) + result


SYNTHETIC = (
    ("core.sepo:outer", f"{__name__}.Tree.outer", None),
    ("core.lookup:inner", f"{__name__}.Tree.inner", None),
    ("gpusim.kernel:leaf", f"{__name__}.Tree.leaf", _count_leaves),
)


def test_self_time_is_duration_minus_direct_children():
    spans = [
        ["a", 0.0, 10.0, -1, 1],  # children b and d: 10 - 4 - 1
        ["b", 1.0, 5.0, 0, 1],    # child c: 4 - 2
        ["c", 2.0, 4.0, 1, 1],
        ["d", 6.0, 7.0, 0, 1],
        ["e", 11.0, 12.5, -1, 2],
    ]
    assert self_times(spans) == [5.0, 2.0, 2.0, 1.0, 1.5]
    assert sum(self_times(spans)) == 10.0 + 1.5  # the top-level durations


def test_spans_nest_and_self_times_add_up_to_the_wall_time():
    tree = Bonsai()
    with Tracer(SYNTHETIC) as tracer:
        tracer.run_id = 3
        start = time.perf_counter()
        assert tree.outer() == "outer"
        tree.leaf()
        wall = time.perf_counter() - start
    assert [s[0] for s in tracer.spans] == [
        "core.sepo:outer", "core.lookup:inner", "gpusim.kernel:leaf",
        "gpusim.kernel:leaf", "gpusim.kernel:leaf",
    ]
    assert [s[3] for s in tracer.spans] == [-1, 0, 1, 0, -1]
    assert {s[4] for s in tracer.spans} == {3}
    assert all(s[1] <= s[2] for s in tracer.spans)
    assert tracer.counts == {"leaves": 24}  # the subclass override ran
    metrics = layer_metrics(tracer.spans, tracer.counts, wall)
    layers = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert layers + metrics["bench.untraced_self_s"] == pytest.approx(wall, rel=1e-9)
    assert metrics["core.sepo.self_s"] > 0 and metrics["gpusim.kernel.self_s"] > 0
    assert set(metrics) == set(PER_LAYER_METRICS)


def test_wrappers_are_removed_also_when_the_traced_call_raises():
    def bound():
        return vars(Tree)["outer"], vars(Tree)["leaf"], vars(Bonsai)["leaf"]

    before = bound()
    tracer = Tracer(SYNTHETIC)
    tracer.install()
    assert all(now is not was for now, was in zip(bound(), before))
    tracer.remove()
    assert bound() == before

    def boom(self):
        raise KeyError("boom")

    original, Tree.inner = Tree.inner, boom
    try:
        with pytest.raises(KeyError), Tracer(SYNTHETIC) as tracer:
            Tree().outer()
        assert not tracer._stack, "the span stack unwinds with the exception"
        assert vars(Tree)["inner"] is boom and bound() == before
    finally:
        Tree.inner = original


def test_a_trace_point_that_no_longer_exists_is_reported_not_fatal():
    gone = (
        ("core.sepo:gone", "repro.core.sepo.SepoDriver.no_such_method", None),
        ("core.sepo:nowhere", "repro.no_such_module.thing", None),
    )
    tracer = Tracer(gone + SYNTHETIC)
    with pytest.warns(UserWarning, match="no longer exists"):
        tracer.install()
    try:
        assert tracer.missing == [target for _, target, _ in gone]
        assert Tree().outer() == "outer" and len(tracer.spans) == 4
    finally:
        tracer.remove()


# ----------------------------------------------------------------------
# the real table of trace points
# ----------------------------------------------------------------------
def _bindings():
    """Every place a TRACE_POINTS wrapper goes, with what is bound there."""
    return {
        (holder, attr): vars(holder)[attr]
        for _name, target, _counter in TRACE_POINTS
        for holder, attr in _holders(target)
    }


def test_every_trace_point_resolves_and_has_a_self_time_metric():
    tracer = Tracer()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tracer.install()
    tracer.remove()
    assert tracer.missing == []
    for name, _target, _counter in TRACE_POINTS:
        assert name.split(":")[0] + ".self_s" in PER_LAYER_METRICS, name


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tracing_is_removed_and_the_next_pass_is_unchanged(name):
    workload = WORKLOADS[name]
    inputs = workload.setup(0, QUICK)
    before = _bindings()
    plain = workload.run_pass(inputs)
    with Tracer() as tracer:
        traced = workload.run_pass(inputs, tracer)
    assert tracer.spans and not tracer.missing
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before), "a wrapper was left behind"
    again = workload.run_pass(inputs)
    for result in (traced, again):
        assert result.sim_s == plain.sim_s
        assert result.sim_breakdown == plain.sim_breakdown
        assert digest(result.outputs) == digest(plain.outputs)
    attempted, failures = workload.check(inputs, traced)
    assert attempted > 0 and failures == []
