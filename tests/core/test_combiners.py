import warnings

import numpy as np
import pytest

from repro.core import (
    BITOR_U64,
    CallbackCombiner,
    Combiner,
    MAX_I64,
    MIN_I64,
    MaxCombiner,
    MinCombiner,
    SUM_F64,
    SUM_I64,
)


def test_sum_i64():
    assert SUM_I64.combine(2, 3) == 5
    assert SUM_I64.dtype == np.int64
    assert SUM_I64.value_size == 8


def test_sum_f64():
    assert SUM_F64.combine(0.5, 0.25) == pytest.approx(0.75)
    assert SUM_F64.dtype == np.float64


def test_max_min():
    assert MAX_I64.combine(2, 9) == 9
    assert MIN_I64.combine(2, 9) == 2


def test_bitor():
    assert BITOR_U64.combine(0b0101, 0b0011) == 0b0111


def test_pack_unpack_roundtrip():
    for comb, v in [(SUM_I64, -7), (SUM_F64, 3.5), (BITOR_U64, 2**63)]:
        assert comb.unpack(comb.pack(v)) == v
        assert len(comb.pack(v)) == 8


def test_callback_combiner():
    c = CallbackCombiner(lambda a, b: a * b, scalar="i64", name="prod")
    assert c.combine(3, 4) == 12
    assert c.name == "prod"


def test_unsupported_scalar_rejected():
    with pytest.raises(ValueError):
        Combiner("bad", "i32", lambda a, b: a)


def test_combiner_is_frozen():
    with pytest.raises(AttributeError):
        SUM_I64.name = "x"  # type: ignore[misc]


# ----------------------------------------------------------------------
# vectorized fold hooks (the pre-aggregating insert kernel's contract)
# ----------------------------------------------------------------------
def test_supports_vector_reduce_gate():
    assert SUM_I64.supports_vector_reduce
    assert MAX_I64.supports_vector_reduce
    assert MIN_I64.supports_vector_reduce
    assert BITOR_U64.supports_vector_reduce
    # f64 included: fold_segments combines in the scalar loop's order
    assert SUM_F64.supports_vector_reduce
    # ... except where the ufunc is not the builtin (NaN, signed zeros)
    assert not MaxCombiner("f64").supports_vector_reduce
    assert not MinCombiner("f64").supports_vector_reduce
    # callbacks excluded: no ufunc to fold with
    cb = CallbackCombiner("first", "i64", lambda a, b: a)
    assert not cb.supports_vector_reduce


def _scalar_fold(comb, vals, starts, seeds=None, seeded=None, acc_right=False):
    """The one-record-at-a-time loop ``fold_segments`` must reproduce."""
    out = []
    for g, (s, e) in enumerate(zip(starts, list(starts[1:]) + [len(vals)])):
        seq = vals[s:e].tolist()
        if seeds is not None and seeded[g]:
            seq.insert(0, seeds[g].item())
        acc = seq[0]
        for v in seq[1:]:
            acc = comb.combine(v, acc) if acc_right else comb.combine(acc, v)
        out.append(comb.pack(acc))
    return out


def _mixed_magnitudes(rng, n):
    vals = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)
    vals[rng.integers(0, n, 4)] = [np.inf, -0.0, 1e308, 1e308]
    return vals


#: non-commutative, so the operand order ``acc_right`` selects is visible
SUB_I64 = Combiner("sub", "i64", lambda a, b: a - b, ufunc=np.subtract)


@pytest.mark.parametrize(
    "comb", [SUM_I64, MAX_I64, MIN_I64, BITOR_U64, SUM_F64, SUB_I64],
    ids=lambda c: f"{c.name}-{c.scalar}",
)
@pytest.mark.parametrize("acc_right", [False, True])
def test_fold_segments_matches_scalar_fold(comb, acc_right):
    """Bit-exact against the scalar loop: unseeded, seeded, either operand
    order, with segments on both sides of the rounds/accumulate cut-over
    (many 1-4 value segments, three of 50-400)."""
    rng = np.random.default_rng(7)
    counts = rng.integers(1, 5, 40)
    counts[[3, 11, 29]] = [400, 50, 173]
    starts = np.cumsum(counts) - counts
    n = int(counts.sum())
    if comb.scalar == "f64":
        vals, seeds = _mixed_magnitudes(rng, n), _mixed_magnitudes(rng, 40)
    else:
        vals = rng.integers(0, 1 << 40, n).astype(comb.dtype)
        seeds = rng.integers(0, 1 << 40, 40).astype(comb.dtype)
    seeded = rng.random(40) < 0.5
    for sd, mask in ((None, None), (seeds, seeded)):
        got = comb.fold_segments(vals, starts, sd, mask, acc_right)
        assert got.dtype == comb.dtype
        assert [comb.pack(x) for x in got.tolist()] == _scalar_fold(
            comb, vals, starts, sd, mask, acc_right
        )


def test_fold_segments_f64_special_values_stay_silent():
    """Overflow to inf and inf - inf are the scalar loop's silent
    behaviour: the fold raises no RuntimeWarning and lands on the same
    bits, in the rounds and in the accumulate tail."""
    vals = np.array([1e308, 1e308, -np.inf, 1.0] + [np.inf, -np.inf] * 40)
    starts = np.array([0, 2, 4])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = SUM_F64.fold_segments(vals, starts)
    assert [SUM_F64.pack(x) for x in got.tolist()] == _scalar_fold(
        SUM_F64, vals, starts
    )
    assert got[0] == np.inf and got[1] == -np.inf and np.isnan(got[2])


def test_fold_segments_without_ufunc_raises():
    cb = CallbackCombiner("first", "i64", lambda a, b: a)
    with pytest.raises(ValueError):
        cb.fold_segments(np.zeros(2, np.int64), np.zeros(1, np.int64))
