"""Record batches: the unit of work between applications and the hash table.

A :class:`RecordBatch` is columns, not objects: a zero-padded key matrix
with a length vector, plus either numeric values (the combining fast path,
where values are fixed-width scalars updated in place) or a padded byte
value matrix (basic and multi-valued methods, where values are
variable-length blobs).  There are two ways to build the matrices:

* **from offsets** -- :meth:`RecordBatch.from_spans` / :func:`gather_spans`
  take one buffer and ``(starts, lens)`` vectors and gather the rows
  straight out of it.  This is what every application's ``parse_chunk``
  uses: the chunk is viewed once as ``uint8``, delimiters become spans, and
  no ``bytes`` object exists per record.
* **from a list** -- :func:`pack_byte_rows` behind
  :meth:`RecordBatch.from_pairs`, :meth:`RecordBatch.from_numeric` and
  ``MutationBatch.from_ops``, for callers that hold their records as
  Python ``bytes`` (kv workloads, tests, examples).

Both build the same matrix from the same records.  :class:`BatchCache`
derives what the kernels need from it -- hashes, bucket ids, duplicate-key
grouping -- once per batch, however often SEPO re-visits it.

Keys are padded to the batch's longest key; this is a *host-side staging*
convenience and does not inflate the hash table itself, which stores each
key at its exact length (Section IV, third advantage of dynamic allocation).
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
from typing import TYPE_CHECKING, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.memalloc.allocator import _stable_order

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.buckets import BucketArray

__all__ = [
    "BatchCache",
    "BatchGrouping",
    "RecordBatch",
    "gather_spans",
    "hash_groups",
    "pack_str_keys",
    "pack_byte_rows",
]


@dataclass(frozen=True)
class BatchGrouping:
    """Duplicate-key grouping of one batch for one table's bucket count.

    The pre-aggregated insert kernels need every record of the same key to
    land in one segment so a segmented fold can combine duplicates
    in-batch before the table is touched.  Groups are keyed on (bucket id,
    64-bit hash) with a byte-exact key verification pass: if two records
    share a (bucket, hash) pair but differ in key bytes -- a genuine 64-bit
    FNV-1a collision -- :attr:`has_collision` is set and callers must fall
    back to the scalar loop, which compares full keys.

    Group ids are assigned in (bucket, hash, arrival) order; within a group
    records keep arrival order, which is what makes segmented reductions
    match the scalar left-to-right combine sequence.
    """

    #: (n,) int64 -- key-group id per record
    gid: np.ndarray
    #: (G,) int64 -- first-arrival record index per group
    rep: np.ndarray
    n_groups: int
    #: a 64-bit hash collision was detected; grouping is unusable
    has_collision: bool

    def subset(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Re-group a (possibly reissued) subset of record indices.

        Returns ``(order, starts)``: ``order`` permutes subset *positions*
        group-major while preserving arrival order inside each group, and
        ``starts`` are the segment start offsets into the ordered subset
        (directly usable as ``fold_segments`` bounds).  Cost is one stable
        sort over the cached group ids -- reissued SEPO subsets never
        re-hash or re-compare keys.
        """
        if len(idx) == 0:
            return np.empty(0, np.int64), np.empty(0, np.int64)
        g = self.gid[idx]
        order = _stable_order(g)
        sg = g[order]
        starts = np.concatenate(([True], sg[1:] != sg[:-1])).nonzero()[0]
        return order, starts


class BatchCache:
    """Cross-iteration memoization of a batch's derived materializations.

    The SEPO driver re-visits every batch once per iteration until its
    pending bitmap is clean; without a cache, each pass re-hashes and
    re-packs every still-pending record.  The cache computes FNV-1a hashes,
    bucket ids, and key/value byte materializations once for the *full*
    batch and lets reissued subsets index into them.

    While a cache is attached, the batch's payload arrays are frozen
    (``writeable = False``) so a stale cache cannot silently diverge from
    mutated data; call :meth:`RecordBatch.invalidate_cache` before mutating.
    """

    def __init__(self, batch: "RecordBatch"):
        self._batch = batch
        self._hashes: np.ndarray | None = None
        self._bucket_ids: dict[int, np.ndarray] = {}
        self._keys: list[bytes] | None = None
        self._values: list[bytes] | None = None
        self._groupings: dict[int, BatchGrouping] = {}

    def hashes(self) -> np.ndarray:
        """Full-batch FNV-1a hashes, computed once."""
        if self._hashes is None:
            from repro.core.hashing import fnv1a_batch

            b = self._batch
            self._hashes = fnv1a_batch(b.keys, b.key_lens)
        return self._hashes

    def bucket_ids(self, buckets: "BucketArray") -> np.ndarray:
        """Full-batch bucket ids for a table's bucket array, memoized per
        bucket count (the same batch can feed differently sized tables)."""
        cached = self._bucket_ids.get(buckets.n_buckets)
        if cached is None:
            cached = buckets.bucket_of_hash(self.hashes()).astype(np.int64)
            self._bucket_ids[buckets.n_buckets] = cached
        return cached

    def grouping(self, buckets: "BucketArray") -> BatchGrouping:
        """Full-batch duplicate-key grouping, memoized per bucket count."""
        cached = self._groupings.get(buckets.n_buckets)
        if cached is None:
            cached = self._build_grouping(buckets)
            self._groupings[buckets.n_buckets] = cached
        return cached

    def _build_grouping(self, buckets: "BucketArray") -> BatchGrouping:
        b = self._batch
        bids = self.bucket_ids(buckets)
        h = self.hashes()
        n = len(bids)
        if n == 0:
            empty = np.empty(0, np.int64)
            return BatchGrouping(empty, empty, 0, False)
        gid, first, has_collision = hash_groups(h, b.keys, b.key_lens)
        # Groups come out in hash order; ids go in (bucket, hash) order, so
        # rank the groups by bucket with a stable sort of one row each.
        by_bucket = _stable_order(bids[first])
        rank = np.empty(len(by_bucket), dtype=np.int64)
        rank[by_bucket] = np.arange(len(by_bucket))
        gid = rank[gid]
        rep = first[by_bucket]
        return BatchGrouping(gid, rep, len(rep), has_collision)

    def key_bytes_list(self) -> list[bytes]:
        """All keys as exact-length ``bytes``, computed once."""
        if self._keys is None:
            b = self._batch
            lens = b.key_lens.tolist()
            rows = b.keys
            self._keys = [rows[i, : lens[i]].tobytes() for i in range(len(lens))]
        return self._keys

    def value_bytes_list(self) -> list[bytes]:
        """All byte values as exact-length ``bytes``, computed once."""
        if self._values is None:
            b = self._batch
            if b.values is None:
                raise ValueError("batch carries numeric values")
            lens = b.val_lens.tolist()
            rows = b.values
            self._values = [
                rows[i, : lens[i]].tobytes() for i in range(len(lens))
            ]
        return self._values


def hash_groups(
    h: np.ndarray, keys: np.ndarray, key_lens: np.ndarray
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Rows grouped by key: ``(gid, first, has_collision)``.

    ``gid[i]`` is row ``i``'s group, groups numbered in the order of their
    hashes ``h``, and ``first[g]`` is group ``g``'s first row.  Equal keys
    have equal hashes, so one sort by hash finds the groups; neighbours in
    it that share a hash must share key bytes (compared as 8-byte words:
    length first, then the zero-padded rows of ``keys``), else it is a
    64-bit collision and the run is split there -- which leaves the
    grouping unusable, as the sort need not keep one key's rows together
    across the other key.  Needs at least one row.
    """
    order = h.argsort()
    sh = h[order]
    same = sh[1:] == sh[:-1]
    has_collision = False
    cand = same.nonzero()[0]
    if len(cand):
        a, p = order[cand + 1], order[cand]
        eq = key_lens[a] == key_lens[p]
        for col in _word_columns(keys):
            eq &= col[a] == col[p]
        if not eq.all():
            has_collision = True
            same[cand[~eq]] = False
    n = len(h)
    gid = np.empty(n, dtype=np.int64)
    gid[order] = np.concatenate(([0], (~same).cumsum()))
    # first row per group: written last when filling back to front
    first = np.empty(int(gid[order[-1]]) + 1, dtype=np.int64)
    first[gid[::-1]] = np.arange(n - 1, -1, -1)
    return gid, first, has_collision


def _word_columns(mat: np.ndarray) -> list[np.ndarray]:
    """Every byte of a uint8 matrix's rows as columns of 8-byte words: a
    word at byte 0, 8, ... and, where the width is no multiple of 8, one
    more ending at the last byte (overlapping the one before it).  Two
    rows are equal iff all their words are; from 8 bytes wide on the
    columns are views, not copies."""
    w = mat.shape[1]
    if 0 < w < 8:
        mat, w = np.pad(mat, ((0, 0), (0, 8 - w))), 8
    mat = np.ascontiguousarray(mat)
    at = list(range(0, w - 7, 8)) + ([w - 8] if w % 8 else [])
    return [mat[:, s:s + 8].view(np.uint64)[:, 0] for s in at]


def pack_byte_rows(rows: list[bytes]) -> tuple[np.ndarray, np.ndarray]:
    """Pack variable-length byte strings into a padded uint8 matrix.

    The list path: one fixed-width ``S<width>`` array built from the rows
    and viewed as bytes, which is the zero-padded matrix (NULs inside or at
    the end of a row are payload; ``lens`` is what tells them from padding).
    """
    n = len(rows)
    lens = np.fromiter(map(len, rows), dtype=np.int32, count=n)
    width = max(int(lens.max()), 1) if n else 1
    mat = np.array(rows, dtype=f"S{width}").view(np.uint8).reshape(n, width)
    return mat, lens


def _byte_view(buf) -> np.ndarray:
    """``buf`` (bytes-like, or already a uint8 vector) as a 1-D uint8 view."""
    if isinstance(buf, np.ndarray):
        if buf.dtype != np.uint8 or buf.ndim != 1:
            raise ValueError("a span buffer must be a 1-D uint8 array")
        return buf
    return np.frombuffer(buf, dtype=np.uint8)


def _checked_spans(
    size: int, starts, lens
) -> tuple[np.ndarray, np.ndarray, int]:
    """Spans as ``(int64 starts, int32 lens, matrix width)``, every one of
    them inside a buffer of ``size`` bytes."""
    starts = np.asarray(starts, dtype=np.int64)
    lens = np.asarray(lens)
    if starts.ndim != 1 or starts.shape != lens.shape:
        raise ValueError("starts and lens must be 1-D and of equal length")
    if not len(starts):
        return starts, lens.astype(np.int32), 1
    ends = starts + lens
    if starts.min() < 0 or (ends < starts).any() or ends.max() > size:
        raise ValueError(f"a span lies outside the {size}-byte buffer")
    lens = lens.astype(np.int32, copy=False)
    return starts, lens, max(int(lens.max()), 1)


def _zero_extended(view: np.ndarray, *spans) -> np.ndarray:
    """``view``, with a zero tail if a full-width window at some span's
    start would run off its end (one copy, for all the span sets)."""
    reach = max((int(s.max()) + w for s, _, w in spans if len(s)), default=0)
    if reach <= len(view):
        return view
    return np.concatenate((view, np.zeros(reach - len(view), np.uint8)))


def _span_rows(
    view: np.ndarray, starts: np.ndarray, lens: np.ndarray, width: int
) -> np.ndarray:
    """The zero-padded row matrix of checked spans: every row is read as a
    ``width``-byte window at its start, then masked to its length."""
    if not len(starts):
        return np.zeros((0, width), dtype=np.uint8)
    mat = sliding_window_view(view, width)[starts]
    if lens.min() < width:
        # compared in the narrowest type that holds a column number
        cols = np.arange(width, dtype=np.min_scalar_type(width))
        mat *= cols < lens.astype(cols.dtype)[:, None]
    return mat


def gather_spans(buf, starts, lens) -> tuple[np.ndarray, np.ndarray]:
    """Gather ``buf[starts[i] : starts[i] + lens[i]]`` into a padded matrix.

    The offset-based sibling of :func:`pack_byte_rows`: the same
    ``(matrix, int32 lens)`` -- as wide as the longest span, at least one
    column, rows left-justified and zero-padded -- without a ``bytes``
    object per row.  ``buf`` is anything with the buffer protocol or a 1-D
    uint8 array; spans may overlap, repeat and be empty, and one that
    leaves the buffer raises ``ValueError``.
    """
    view = _byte_view(buf)
    span = _checked_spans(len(view), starts, lens)
    return _span_rows(_zero_extended(view, span), *span), span[1]


def _stack_padded(mats: Sequence[np.ndarray]) -> np.ndarray:
    """Stack padded uint8 row matrices, zero-padded to the widest (one
    matrix is returned as is, equally wide ones are one concatenate)."""
    if len(mats) == 1:
        return mats[0]
    width = max(m.shape[1] for m in mats)
    if all(m.shape[1] == width for m in mats):
        return np.concatenate(mats)
    out = np.zeros((sum(m.shape[0] for m in mats), width), dtype=np.uint8)
    row = 0
    for m in mats:
        out[row : row + m.shape[0], : m.shape[1]] = m
        row += m.shape[0]
    return out


def pack_str_keys(keys: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Pack unicode strings (UTF-8) into a padded uint8 matrix."""
    return pack_byte_rows([k.encode("utf-8") for k in keys])


@dataclass
class RecordBatch:
    """Parsed records ready for hash-table insertion.

    Exactly one of ``numeric_values`` / (``values``, ``val_lens``) is set.
    """

    keys: np.ndarray  # (n, kw) uint8, left-justified
    key_lens: np.ndarray  # (n,) int32
    numeric_values: np.ndarray | None = None  # (n,) fixed-width scalars
    values: np.ndarray | None = None  # (n, vw) uint8
    val_lens: np.ndarray | None = None  # (n,) int32
    #: raw input bytes this batch was parsed from (PCIe + parse-cost basis)
    input_bytes: int = 0
    #: per-record parse cost in cycles (application-specific)
    parse_cycles: float = 50.0
    #: warp-divergence factor of the parse kernel (Section VI-B)
    divergence: float = 1.0

    def __post_init__(self) -> None:
        n = len(self.key_lens)
        if self.keys.shape[0] != n:
            raise ValueError("keys and key_lens disagree on record count")
        has_numeric = self.numeric_values is not None
        has_bytes = self.values is not None
        if has_numeric == has_bytes:
            raise ValueError("set exactly one of numeric_values / values")
        if has_numeric and self.numeric_values.shape != (n,):
            raise ValueError("numeric_values must be (n,)")
        if has_bytes:
            if self.val_lens is None or self.val_lens.shape != (n,):
                raise ValueError("byte values require matching val_lens")
            if self.values.shape[0] != n:
                raise ValueError("values and val_lens disagree on record count")
        if not self.input_bytes:
            self.input_bytes = self.staged_bytes

    def __len__(self) -> int:
        return len(self.key_lens)

    @property
    def pure_insert(self) -> bool:
        """Every record is an insert.  Trivially true here; mixed-op
        batches (:class:`~repro.core.mutations.MutationBatch`) override
        this, and dispatch sites branch on it rather than on type --
        pure-insert batches keep legacy insert-batch semantics, including
        exemption from the sticky-group postponement gate."""
        return True

    @property
    def staged_bytes(self) -> int:
        """Actual (unpadded) payload bytes in this batch."""
        total = int(self.key_lens.sum())
        if self.numeric_values is not None:
            total += self.numeric_values.dtype.itemsize * len(self)
        else:
            total += int(self.val_lens.sum())
        return total

    # ------------------------------------------------------------------
    # derived-data cache (see BatchCache)
    # ------------------------------------------------------------------
    @property
    def cache(self) -> BatchCache:
        """The batch's :class:`BatchCache`, created (and payload arrays
        frozen) on first access."""
        cached = self.__dict__.get("_cache")
        if cached is None:
            cached = BatchCache(self)
            self.__dict__["_cache"] = cached
            self.__dict__["_frozen"] = self._set_writeable(False)
        return cached

    def invalidate_cache(self) -> None:
        """Drop every memoized materialization and re-allow mutation.

        Must be called before mutating ``keys``/``values``/``key_lens``/
        ``val_lens``/``numeric_values`` once the batch has been inserted;
        the arrays are read-only while a cache is attached, so forgetting
        to do so raises instead of silently using stale data.
        """
        self.__dict__.pop("_cache", None)
        restore = self.__dict__.pop("_frozen", None)
        if restore:
            self._set_writeable(True, restore)

    def _set_writeable(self, flag: bool, only: list | None = None) -> list:
        """(Un)freeze payload arrays; returns the arrays actually toggled."""
        arrays = only
        if arrays is None:
            arrays = [
                a
                for a in (
                    self.keys, self.key_lens, self.values, self.val_lens,
                    self.numeric_values,
                )
                if a is not None and a.flags.writeable != flag
            ]
        for a in arrays:
            a.flags.writeable = flag
        return arrays

    # ------------------------------------------------------------------
    def take(self, indices: np.ndarray) -> "RecordBatch":
        """A fresh batch holding rows ``indices``, in the given order.

        The shard partitioner (:func:`repro.bigkernel.partitioner.
        partition_by_shard`) splits batches with this: :meth:`concat` of
        this batch alone with ``indices`` as its rows.  Fancy indexing
        copies, so the sub-batch owns its arrays; ``input_bytes`` is
        recomputed from the sub-batch's own staged payload so per-shard
        PCIe accounting sums to (at most) the parent's, and rows whose
        hashes are computed arrive with them.
        """
        return RecordBatch.concat([self], [np.asarray(indices, dtype=np.int64)])

    def copy(self) -> "RecordBatch":
        """This batch with a copy of every array it holds, as it is: no
        re-padding, no re-validation, none of :meth:`concat`'s work.  Of
        the cache only the computed hashes come along (copied); per-batch
        state with a default (a ``MutationBatch``'s ``lookup_results``)
        starts fresh.  The copy owns its arrays, so the router keeps one
        of every client batch and the client may reuse its own at once.
        """
        out = object.__new__(type(self))
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, np.ndarray):
                value = value.copy()
            elif f.default_factory is not MISSING:
                value = f.default_factory()
            setattr(out, f.name, value)
        hashes = self._known_hashes()
        if hashes is not None:
            out.cache._hashes = hashes.copy()
        return out

    def _known_hashes(self) -> np.ndarray | None:
        """The hashes the attached cache has computed, else ``None``
        (never computes them, never attaches a cache)."""
        cached = self.__dict__.get("_cache")
        return None if cached is None else cached._hashes

    # ------------------------------------------------------------------
    @property
    def concat_key(self) -> tuple:
        """What two batches must share for :meth:`concat` to join them:
        class, value kind (numeric dtype, or ``None`` for byte values) and
        the per-batch parse-cost terms the kernel model charges with."""
        dtype = None if self.numeric_values is None else self.numeric_values.dtype
        return (type(self), dtype, self.parse_cycles, self.divergence)

    @staticmethod
    def concat(
        parts: Sequence["RecordBatch"],
        rows: Sequence[np.ndarray] | None = None,
    ) -> "RecordBatch":
        """One batch holding every row of ``parts``, in order -- or, with
        ``rows``, rows ``rows[p]`` of part ``p`` (in that order).

        How the request router turns a queue of small slices into one
        kernel launch, how the table joins a run of chunks into one
        organization call, and (one part with rows) :meth:`take`: key/value
        matrices are zero-padded to the widest part and the per-row
        vectors are concatenated.  Whole parts sum their ``input_bytes``,
        so the merged batch costs one transfer of exactly the parts'
        bytes; selected rows count their own staged payload.  When every
        part's hashes are computed the merged batch arrives with them.
        Parts must agree on :attr:`concat_key`; a single whole part is
        returned as is.
        """
        if not parts:
            raise ValueError("concat needs at least one batch")
        first = parts[0]
        if len(parts) == 1 and rows is None:
            return first
        key = first.concat_key
        for part in parts:
            if part.concat_key != key:
                raise ValueError(
                    f"cannot concat incompatible batches: {part.concat_key} != {key}"
                )
        whole = rows is None
        if whole:
            rows = [slice(None)] * len(parts)

        def joined(name):
            return np.concatenate(
                [getattr(p, name)[r] for p, r in zip(parts, rows)])

        kwargs: dict = dict(
            keys=_stack_padded([p.keys[r] for p, r in zip(parts, rows)]),
            key_lens=joined("key_lens"),
            parse_cycles=first.parse_cycles,
            divergence=first.divergence,
        )
        if whole:
            kwargs["input_bytes"] = sum(p.input_bytes for p in parts)
        if first.numeric_values is not None:
            kwargs["numeric_values"] = joined("numeric_values")
        else:
            kwargs["values"] = _stack_padded(
                [p.values[r] for p, r in zip(parts, rows)])
            kwargs["val_lens"] = joined("val_lens")
        kwargs.update(first._concat_extra(parts, rows))
        merged = type(first)(**kwargs)
        hashes = [p._known_hashes() for p in parts]
        if all(h is not None for h in hashes):
            merged.cache._hashes = np.concatenate(
                [h[r] for h, r in zip(hashes, rows)])
        return merged

    def _concat_extra(self, parts, rows) -> dict:
        """Subclass hook: extra constructor kwargs for :meth:`concat`
        (part ``p`` contributes its rows ``rows[p]``)."""
        return {}

    def key_bytes(self, i: int) -> bytes:
        return self.keys[i, : self.key_lens[i]].tobytes()

    def key_bytes_list(self) -> list[bytes]:
        """All keys as bytes, computed once and cached.

        The SEPO driver re-visits batches every iteration; the insert hot
        loops read keys through this cache instead of slicing per record.
        """
        return self.cache.key_bytes_list()

    def value_bytes(self, i: int) -> bytes:
        if self.values is None:
            raise ValueError("batch carries numeric values")
        return self.values[i, : self.val_lens[i]].tobytes()

    def value_bytes_list(self) -> list[bytes]:
        """All byte values as bytes, computed once and cached."""
        return self.cache.value_bytes_list()

    @classmethod
    def from_spans(
        cls,
        buf,
        key_starts,
        key_lens,
        val_starts=None,
        val_lens=None,
        *,
        numeric_values: np.ndarray | None = None,
    ) -> "RecordBatch":
        """Build a batch from byte offsets into one buffer (the parsers).

        Keys are the spans ``buf[key_starts[i] : key_starts[i] +
        key_lens[i]]``; values are either a second set of spans over the
        same buffer (byte-valued) or ``numeric_values``.  The matrices are
        the ones :meth:`from_pairs` / :meth:`from_numeric` build from the
        same records as ``bytes`` (see :func:`gather_spans`), and the
        buffer is zero-extended at most once for both gathers.
        """
        if (numeric_values is None) == (val_starts is None or val_lens is None):
            raise ValueError("set exactly one of numeric_values / value spans")
        view = _byte_view(buf)
        kspan = _checked_spans(len(view), key_starts, key_lens)
        if numeric_values is not None:
            return cls(
                keys=_span_rows(_zero_extended(view, kspan), *kspan),
                key_lens=kspan[1],
                numeric_values=np.asarray(numeric_values),
            )
        vspan = _checked_spans(len(view), val_starts, val_lens)
        view = _zero_extended(view, kspan, vspan)
        return cls(
            keys=_span_rows(view, *kspan), key_lens=kspan[1],
            values=_span_rows(view, *vspan), val_lens=vspan[1],
        )

    @classmethod
    def from_pairs(
        cls,
        pairs: list[tuple[bytes, bytes]],
        *,
        input_bytes: int = 0,
        parse_cycles: float = 50.0,
        divergence: float = 1.0,
    ) -> "RecordBatch":
        """Build a byte-valued batch from (key, value) pairs (tests/examples)."""
        keys, klens = pack_byte_rows([k for k, _ in pairs])
        vals, vlens = pack_byte_rows([v for _, v in pairs])
        return cls(
            keys=keys, key_lens=klens, values=vals, val_lens=vlens,
            input_bytes=input_bytes, parse_cycles=parse_cycles,
            divergence=divergence,
        )

    @classmethod
    def from_numeric(
        cls,
        keys: list[bytes],
        values: np.ndarray,
        *,
        input_bytes: int = 0,
        parse_cycles: float = 50.0,
        divergence: float = 1.0,
    ) -> "RecordBatch":
        """Build a numeric-valued batch (combining method fast path)."""
        kmat, klens = pack_byte_rows(keys)
        return cls(
            keys=kmat, key_lens=klens, numeric_values=np.asarray(values),
            input_bytes=input_bytes, parse_cycles=parse_cycles,
            divergence=divergence,
        )
