"""Combiner callbacks for the combining bucket organization.

The paper's combining method invokes an application-supplied callback every
time a pair with a duplicate key is inserted (Section IV-B).  A
:class:`Combiner` fixes the stored value's binary format (a fixed-width
scalar -- combining updates values in place, so they cannot grow) and the
reduction applied on duplicates.

The library ships the reductions its applications need (sum for PVC / Word
Count / Netflix, bitwise-or for DNA Assembly's edge sets, min/max for
completeness) plus a wrapper for arbitrary Python callables.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Combiner",
    "SumCombiner",
    "MaxCombiner",
    "MinCombiner",
    "BitOrCombiner",
    "CallbackCombiner",
    "SUM_I64",
    "SUM_F64",
    "MAX_I64",
    "MIN_I64",
    "BITOR_U64",
]

_FMT = {"i64": "<q", "u64": "<Q", "f64": "<d"}
_DTYPE = {"i64": np.int64, "u64": np.uint64, "f64": np.float64}


@dataclass(frozen=True)
class Combiner:
    """Fixed-width scalar reduction applied to duplicate keys."""

    name: str
    scalar: str  # one of 'i64', 'u64', 'f64'
    fn: Callable[[float | int, float | int], float | int]
    #: extra per-combine ALU cost in cycles (callback bodies vary)
    cycles: float = 4.0
    #: numpy ufunc computing the same reduction over arrays, or None when
    #: the reduction has no vectorized form (arbitrary callbacks)
    ufunc: object | None = None

    def __post_init__(self) -> None:
        if self.scalar not in _FMT:
            raise ValueError(f"unsupported scalar type {self.scalar!r}")

    @property
    def fmt(self) -> struct.Struct:
        return struct.Struct(_FMT[self.scalar])

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(_DTYPE[self.scalar])

    @property
    def value_size(self) -> int:
        return 8

    def pack(self, value: float | int) -> bytes:
        return self.fmt.pack(value)

    def unpack(self, raw: bytes) -> float | int:
        return self.fmt.unpack(raw)[0]

    def combine(self, stored, new):
        return self.fn(stored, new)

    @property
    def supports_vector_reduce(self) -> bool:
        """True when batched kernels may pre-aggregate duplicates in-batch.

        Requires a ufunc computing exactly :attr:`fn` (any scalar type:
        :meth:`fold_segments` combines in the scalar loop's order, so f64
        rounding comes out the same) and integer-valued cycles so
        vectorized cost sums match the scalar accumulation bit for bit.
        """
        return self.ufunc is not None and float(self.cycles).is_integer()

    def fold_segments(
        self,
        values: np.ndarray,
        starts: np.ndarray,
        seeds: np.ndarray | None = None,
        seeded: np.ndarray | None = None,
        acc_right: bool = False,
    ) -> np.ndarray:
        """Order-exact segmented left fold: one folded value per segment.

        ``values`` is group-contiguous and ``starts`` holds the segment
        start offsets.  Segment ``g`` folds to ``((v0 . v1) . v2) ...``,
        or to ``((seeds[g] . v0) . v1) ...`` where ``seeded[g]`` -- the
        very sequence of combines a one-record-at-a-time loop performs, so
        the result is bit for bit what that loop stores, f64 included.
        With ``acc_right`` every combine is ``v . acc`` instead of
        ``acc . v`` (the finished-table reader folds older values in from
        the left).

        The fold is vectorised *across* segments by occurrence rank: round
        ``r`` combines the ``r``-th value of every segment that has one,
        and with segments sorted by length each round is a prefix slice.
        The few long segments still live once further rounds would cost
        more dispatches than they save finish with one ``ufunc.accumulate``
        each -- sequential, unlike ``reduce``/``reduceat``, whose float
        loops sum pairwise.  ``accumulate`` keeps the accumulator on the
        left, so an ``acc_right`` fold runs its rounds to the end.
        """
        ufunc = self.ufunc
        if ufunc is None:
            raise ValueError(f"combiner {self.name!r} has no vectorized reduction")
        counts = np.diff(np.concatenate((starts, [len(values)])))
        if seeds is None:
            acc = values[starts]
            todo = counts - 1
        else:
            acc = np.where(seeded, seeds, values[starts])
            todo = counts - 1 + seeded
        busy = np.flatnonzero(todo)
        if not len(busy):
            return acc
        order = busy[np.argsort(-todo[busy])]
        todo_s = todo[order]
        out, acc = acc, acc[order]
        nxt = (starts + counts)[order] - todo_s  # first value still to fold
        # live[r]: segments owing more than r combines (a prefix of the sort)
        live = len(order) - np.cumsum(np.bincount(todo_s))
        # a round and an accumulate are one numpy dispatch each: run the
        # rounds that leave the fewest dispatches, rounds plus survivors
        rounds = len(live) - 1
        if not acc_right:
            rounds = int(np.argmin(np.arange(len(live)) + live))
        # overflow to inf and inf - inf are the scalar loop's silent behaviour
        with np.errstate(over="ignore", invalid="ignore"):
            for r in range(rounds):
                head = acc[: live[r]]
                v = values[nxt[: live[r]] + r]
                if acc_right:
                    ufunc(v, head, out=head)
                else:
                    ufunc(head, v, out=head)
            for g in range(int(live[rounds])):
                rest = values[nxt[g] + rounds : nxt[g] + todo_s[g]]
                run = np.concatenate((acc[g : g + 1], rest))
                acc[g] = ufunc.accumulate(run)[-1]
        out[order] = acc
        return out

def SumCombiner(scalar: str = "i64") -> Combiner:
    return Combiner("sum", scalar, lambda a, b: a + b, ufunc=np.add)


def _int_only(ufunc, scalar: str):
    """``np.maximum``/``np.minimum`` are Python's ``max``/``min`` on integers
    only: on f64 they propagate NaN and order signed zeros, the builtins
    return whichever operand the comparison leaves standing."""
    return None if scalar == "f64" else ufunc


def MaxCombiner(scalar: str = "i64") -> Combiner:
    return Combiner("max", scalar, max, ufunc=_int_only(np.maximum, scalar))


def MinCombiner(scalar: str = "i64") -> Combiner:
    return Combiner("min", scalar, min, ufunc=_int_only(np.minimum, scalar))


def BitOrCombiner(scalar: str = "u64") -> Combiner:
    if scalar == "f64":
        raise ValueError("bitwise-or is undefined for f64 scalars")
    return Combiner("bitor", scalar, lambda a, b: a | b, ufunc=np.bitwise_or)


def CallbackCombiner(
    fn: Callable, scalar: str = "i64", name: str = "callback", cycles: float = 8.0
) -> Combiner:
    """Wrap an arbitrary reduction callable (the paper's callback hook)."""
    return Combiner(name, scalar, fn, cycles)


#: Ready-made instances for the seven applications.
SUM_I64 = SumCombiner("i64")
SUM_F64 = SumCombiner("f64")
MAX_I64 = MaxCombiner("i64")
MIN_I64 = MinCombiner("i64")
BITOR_U64 = BitOrCombiner()
