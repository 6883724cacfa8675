"""Binary entry layouts for the three bucket organizations.

Entries live in heap pages as packed little-endian records.  Every linked
structure stores the paper's *two* pointers (Section III-B): ``*_gpu`` is the
flat GPU address (slot-based, valid while the target is resident) and
``*_cpu`` is the flat CPU address (segment-based, valid forever).

Generic entry (basic & combining methods -- key and value contiguous)::

    0   next_gpu   i64    next entry in the bucket chain
    8   next_cpu   i64
    16  klen       u32    low 30 bits: key length; bit 31: TOMBSTONE,
                          bit 30: SHADOW (mutation flags, see below)
    20  vlen       u32
    24  key bytes
    24+klen        value bytes

Keys are bounded well below 2**30 bytes, so the top two bits of the
``klen`` word carry the mutation flags without growing the header:
``GFLAG_TOMBSTONE`` marks a logically deleted entry (the slot stays
allocated -- reclaim is an accounting matter, see the bucket-group
allocator) and ``GFLAG_SHADOW`` marks a replacing update whose value
supersedes every older same-key entry further down the chain.
:func:`read_entry_header` always returns the *masked* key length;
callers that care about liveness read :func:`entry_flags`.

Multi-valued key entry (keys on KEY pages)::

    0   next_gpu   i64    next key entry in the bucket chain
    8   next_cpu   i64
    16  vhead_gpu  i64    head of this key's value list
    24  vhead_cpu  i64
    32  klen       u32
    36  flags      u32    bit 0: PENDING (a value insert was postponed:
                          a GPU-side request to pin the page)
                          bit 1: TOMBSTONE   bit 2: unused
    40  key bytes

Value node (values on VALUE pages)::

    0   vnext_gpu  i64
    8   vnext_cpu  i64
    16  vlen       u32
    20  (pad)      u32
    24  value bytes

All allocations are rounded up to 8-byte alignment (:func:`aligned`), and
heap pages are whole multiples of 8 bytes (the page pool rejects any other
size), so every entry and value node starts on an 8-byte boundary of the
arena.  The bulk writers and readers store and gather the header fields
through native ``int64`` / ``uint32`` views of it, which assumes a
little-endian host, as the packed records do.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.memalloc.address import NULL

__all__ = [
    "ENTRY_HEADER",
    "KEY_ENTRY_HEADER",
    "VALUE_NODE_HEADER",
    "FLAG_PENDING",
    "FLAG_TOMBSTONE",
    "GFLAG_TOMBSTONE",
    "GFLAG_SHADOW",
    "GKLEN_MASK",
    "entry_flags",
    "set_entry_flag",
    "aligned",
    "entry_size",
    "entry_sizes_bulk",
    "key_entry_sizes_bulk",
    "value_node_sizes_bulk",
    "scatter_rows",
    "gather_field",
    "gather_bytes",
    "scatter_field",
    "or_entry_flags",
    "write_entries_bulk",
    "write_key_entries_bulk",
    "write_value_nodes_bulk",
    "key_entry_size",
    "value_node_size",
    "write_entry",
    "read_entry_header",
    "entry_key",
    "entry_value",
    "set_entry_value",
    "set_next_ptrs",
    "write_key_entry",
    "read_key_entry_header",
    "key_entry_key",
    "set_vhead",
    "key_entry_unborn",
    "get_flags",
    "set_flags",
    "write_value_node",
    "read_value_node_header",
    "value_node_value",
]

ENTRY_HEADER = 24
KEY_ENTRY_HEADER = 40
VALUE_NODE_HEADER = 24
FLAG_PENDING = 0x1
#: multi-valued key-entry mutation flags (flags u32 at offset 36)
FLAG_TOMBSTONE = 0x2
#: generic-entry mutation flags, carried in the top bits of the klen word
GFLAG_TOMBSTONE = 1 << 31
GFLAG_SHADOW = 1 << 30
GKLEN_MASK = (1 << 30) - 1

_QQ = struct.Struct("<qq")
_II = struct.Struct("<II")
_QQII = struct.Struct("<qqII")
_QQQQII = struct.Struct("<qqqqII")
_QQI = struct.Struct("<qqI")
_Q = struct.Struct("<q")
_I = struct.Struct("<I")


def aligned(nbytes: int) -> int:
    """Round an allocation size up to 8-byte alignment."""
    return (nbytes + 7) & ~7


def entry_size(klen: int, vlen: int) -> int:
    return aligned(ENTRY_HEADER + klen + vlen)


def key_entry_size(klen: int) -> int:
    return aligned(KEY_ENTRY_HEADER + klen)


def value_node_size(vlen: int) -> int:
    return aligned(VALUE_NODE_HEADER + vlen)


# ----------------------------------------------------------------------
# generic entries (basic & combining)
# ----------------------------------------------------------------------
def write_entry(
    buf: np.ndarray,
    off: int,
    next_gpu: int,
    next_cpu: int,
    key: bytes,
    value: bytes,
) -> None:
    _QQ.pack_into(buf, off, next_gpu, next_cpu)
    _II.pack_into(buf, off + 16, len(key), len(value))
    ko = off + ENTRY_HEADER
    buf[ko : ko + len(key)] = np.frombuffer(key, dtype=np.uint8)
    vo = ko + len(key)
    if value:
        buf[vo : vo + len(value)] = np.frombuffer(value, dtype=np.uint8)


def read_entry_header(buf: np.ndarray, off: int) -> tuple[int, int, int, int]:
    """Returns (next_gpu, next_cpu, klen, vlen); klen is flag-masked."""
    next_gpu, next_cpu, kl, vlen = _QQII.unpack_from(buf, off)
    return next_gpu, next_cpu, kl & GKLEN_MASK, vlen


def entry_flags(buf: np.ndarray, off: int) -> int:
    """Mutation flag bits of a generic entry (GFLAG_TOMBSTONE|GFLAG_SHADOW)."""
    return _I.unpack_from(buf, off + 16)[0] & ~GKLEN_MASK


def set_entry_flag(buf: np.ndarray, off: int, flag: int) -> None:
    """OR a mutation flag into a generic entry's klen word."""
    kl = _I.unpack_from(buf, off + 16)[0]
    _I.pack_into(buf, off + 16, kl | flag)


def entry_key(buf: np.ndarray, off: int, klen: int) -> bytes:
    ko = off + ENTRY_HEADER
    return buf[ko : ko + klen].tobytes()


def entry_value(buf: np.ndarray, off: int, klen: int, vlen: int) -> bytes:
    vo = off + ENTRY_HEADER + klen
    return buf[vo : vo + vlen].tobytes()


def set_entry_value(buf: np.ndarray, off: int, klen: int, value: bytes) -> None:
    """Overwrite an entry's value in place (combining method)."""
    vo = off + ENTRY_HEADER + klen
    buf[vo : vo + len(value)] = np.frombuffer(value, dtype=np.uint8)


def set_next_ptrs(buf: np.ndarray, off: int, next_gpu: int, next_cpu: int) -> None:
    """Rewrite an entry's chain pointers (eviction-time splicing)."""
    _QQ.pack_into(buf, off, next_gpu, next_cpu)


# ----------------------------------------------------------------------
# bulk (slab-style) generic-entry kernels over the flat heap arena
# ----------------------------------------------------------------------
def entry_sizes_bulk(klens: np.ndarray, vlens: np.ndarray) -> np.ndarray:
    """Vectorized :func:`entry_size` over length arrays."""
    return (ENTRY_HEADER + klens + vlens + 7) & ~7


def scatter_rows(
    arena: np.ndarray,
    starts: np.ndarray,
    rows: np.ndarray,
    lens: np.ndarray,
) -> None:
    """Scatter variable-length byte rows into a flat buffer.

    ``rows`` is a padded ``(m, width)`` uint8 matrix; row ``j``'s first
    ``lens[j]`` bytes land at ``arena[starts[j]:]``.  Vectorized over the
    record axis, looping only over the (short) width axis, like
    :func:`~repro.core.hashing.fnv1a_batch`.
    """
    if len(lens) == 0:
        return
    full = int(lens.min())
    for col in range(full):
        arena[starts + col] = rows[:, col]
    for col in range(full, int(lens.max())):
        live = lens > col
        arena[starts[live] + col] = rows[live, col]


def gather_field(arena: np.ndarray, pos: np.ndarray, dtype: str) -> np.ndarray:
    """One little-endian ``dtype`` field per byte position, any alignment
    (combining scalars sit right after variable-length keys)."""
    width = np.dtype(dtype).itemsize
    return arena[pos[:, None] + np.arange(width)].view(dtype).ravel()


def gather_bytes(arena: np.ndarray, pos: np.ndarray, lens: np.ndarray) -> list[bytes]:
    """``arena[pos[j] : pos[j] + lens[j]]`` as one ``bytes`` per row: a
    padded matrix gather, then slices of its one blob."""
    if len(pos) == 0:
        return []
    width = max(int(lens.max()), 1)
    idx = np.minimum(pos[:, None] + np.arange(width), arena.size - 1)
    blob = arena[idx].tobytes()
    lo = range(0, len(pos) * width, width)
    return [blob[a : a + n] for a, n in zip(lo, lens.tolist())]


def scatter_field(arena: np.ndarray, pos: np.ndarray, values: np.ndarray) -> None:
    """Store row ``j`` of ``values`` (scalars, or rows of adjacent fields,
    little-endian) at ``arena[pos[j]:]``; the inverse of :func:`gather_field`."""
    if len(pos) == 0:
        return
    le = np.ascontiguousarray(values, dtype=values.dtype.newbyteorder("<"))
    rows = le.view(np.uint8).reshape(len(pos), -1)
    arena[pos[:, None] + np.arange(rows.shape[1])] = rows


def or_entry_flags(arena: np.ndarray, pos: np.ndarray, flags: np.ndarray) -> None:
    """OR mutation flag bits into the klen words of the generic entries at
    byte positions ``pos`` (distinct); the bulk :func:`set_entry_flag`."""
    if len(pos):
        word = gather_field(arena, pos + 16, "<u4")
        scatter_field(arena, pos + 16, word | flags.astype(np.uint32))


def _scatter_payload_words(
    arena: np.ndarray,
    starts: np.ndarray,
    keys: np.ndarray,
    klen: int,
    values: np.ndarray,
    vlen: int,
) -> None:
    """Store uniform-width key+value payloads as whole 64-bit words.

    Callers guarantee 8-byte-aligned ``starts`` and that each row's padded
    extent (``klen + vlen`` rounded up to a word) is exclusively owned by
    its entry.  Pool pages are born zeroed and entries are written once at
    fresh bump offsets, so scattering a zero-padded staging matrix through
    the arena's word view is byte-identical to the column-loop scatters.
    """
    m = len(starts)
    width = (klen + vlen + 7) & ~7
    if width == 0:
        return
    staging = np.zeros((m, width), dtype=np.uint8)
    if klen:
        staging[:, :klen] = keys[:, :klen]
    if vlen:
        staging[:, klen : klen + vlen] = values[:, :vlen]
    w64 = arena.view(np.int64)
    w64[(starts >> 3)[:, None] + np.arange(width >> 3)] = staging.view(np.int64)


def _uniform_width(lens: np.ndarray) -> int:
    """The single width shared by every row, or -1 when widths vary."""
    if len(lens) == 0:
        return -1
    w = int(lens[0])
    return w if bool((lens == w).all()) else -1


def write_entries_bulk(
    arena: np.ndarray,
    pos: np.ndarray,
    next_gpu: np.ndarray,
    next_cpu: np.ndarray,
    keys: np.ndarray,
    klens: np.ndarray,
    values: np.ndarray,
    vlens: np.ndarray,
    flags: np.ndarray | int = 0,
) -> None:
    """Vectorized :func:`write_entry` for ``m`` entries at flat positions.

    ``pos`` holds each entry's 8-aligned byte position in ``arena`` (for
    heap pages: ``slot * page_size + offset``); ``keys``/``values`` are
    padded uint8 matrices with true lengths ``klens``/``vlens``, and
    ``flags`` the mutation flag bits of each entry's klen word.  Headers
    are stored as whole words through wider views of the arena -- 4
    scatters.
    """
    if len(pos) == 0:
        return
    w64 = arena.view(np.int64)
    p8 = pos >> 3
    w64[p8] = next_gpu
    w64[p8 + 1] = next_cpu
    w32 = arena.view(np.uint32)
    p4 = pos >> 2
    w32[p4 + 4] = klens | flags
    w32[p4 + 5] = vlens
    ko = pos + ENTRY_HEADER
    kw, vw = _uniform_width(klens), _uniform_width(vlens)
    if kw >= 0 and vw >= 0:
        # uniform-width batch: one word-granular scatter covers key, value
        # and alignment pad together (~3x faster than the column loops)
        _scatter_payload_words(arena, ko, keys, kw, values, vw)
    else:
        scatter_rows(arena, ko, keys, klens)
        scatter_rows(arena, ko + klens, values, vlens)


def key_entry_sizes_bulk(klens: np.ndarray) -> np.ndarray:
    """Vectorized :func:`key_entry_size` over a length array."""
    return (KEY_ENTRY_HEADER + klens + 7) & ~7


def value_node_sizes_bulk(vlens: np.ndarray) -> np.ndarray:
    """Vectorized :func:`value_node_size` over a length array."""
    return (VALUE_NODE_HEADER + vlens + 7) & ~7


def write_key_entries_bulk(
    arena: np.ndarray,
    pos: np.ndarray,
    next_gpu: np.ndarray,
    next_cpu: np.ndarray,
    vhead_gpu: np.ndarray,
    vhead_cpu: np.ndarray,
    keys: np.ndarray,
    klens: np.ndarray,
    flags: np.ndarray | int = 0,
) -> None:
    """Vectorized :func:`write_key_entry` that also stores each entry's
    final value-list head and flag word, so the batched multi-valued
    kernels never rewrite either for keys they create."""
    if len(pos) == 0:
        return
    w64 = arena.view(np.int64)
    p8 = pos >> 3
    w64[p8] = next_gpu
    w64[p8 + 1] = next_cpu
    w64[p8 + 2] = vhead_gpu
    w64[p8 + 3] = vhead_cpu
    w32 = arena.view(np.uint32)
    p4 = pos >> 2
    w32[p4 + 8] = klens
    w32[p4 + 9] = flags
    kw = _uniform_width(klens)
    if kw >= 0:
        _scatter_payload_words(arena, pos + KEY_ENTRY_HEADER, keys, kw, keys, 0)
    else:
        scatter_rows(arena, pos + KEY_ENTRY_HEADER, keys, klens)


def write_value_nodes_bulk(
    arena: np.ndarray,
    pos: np.ndarray,
    vnext_gpu: np.ndarray,
    vnext_cpu: np.ndarray,
    values: np.ndarray,
    vlens: np.ndarray,
) -> None:
    """Vectorized :func:`write_value_node` for ``m`` nodes at flat positions."""
    if len(pos) == 0:
        return
    w64 = arena.view(np.int64)
    p8 = pos >> 3
    w64[p8] = vnext_gpu
    w64[p8 + 1] = vnext_cpu
    w32 = arena.view(np.uint32)
    p4 = pos >> 2
    w32[p4 + 4] = vlens
    w32[p4 + 5] = 0  # pad
    vw = _uniform_width(vlens)
    if vw >= 0:
        _scatter_payload_words(arena, pos + VALUE_NODE_HEADER, values, 0, values, vw)
    else:
        scatter_rows(arena, pos + VALUE_NODE_HEADER, values, vlens)


# ----------------------------------------------------------------------
# multi-valued key entries
# ----------------------------------------------------------------------
def write_key_entry(
    buf: np.ndarray,
    off: int,
    next_gpu: int,
    next_cpu: int,
    key: bytes,
) -> None:
    _QQ.pack_into(buf, off, next_gpu, next_cpu)
    _QQ.pack_into(buf, off + 16, NULL, NULL)  # empty value list
    _II.pack_into(buf, off + 32, len(key), 0)
    ko = off + KEY_ENTRY_HEADER
    buf[ko : ko + len(key)] = np.frombuffer(key, dtype=np.uint8)


def read_key_entry_header(
    buf: np.ndarray, off: int
) -> tuple[int, int, int, int, int, int]:
    """Returns (next_gpu, next_cpu, vhead_gpu, vhead_cpu, klen, flags)."""
    return _QQQQII.unpack_from(buf, off)


def key_entry_key(buf: np.ndarray, off: int, klen: int) -> bytes:
    ko = off + KEY_ENTRY_HEADER
    return buf[ko : ko + klen].tobytes()


def set_vhead(buf: np.ndarray, off: int, vhead_gpu: int, vhead_cpu: int) -> None:
    _QQ.pack_into(buf, off + 16, vhead_gpu, vhead_cpu)


def key_entry_unborn(flags, vhead_cpu):
    """Is a key entry allocated but unacknowledged -- invisible to every
    reader?  While it has no value list and is not a tombstone: an
    acknowledged write leaves a value, a delete the flag.  ``PENDING`` does
    not enter into it: that is a GPU-side pin request, and page-in clears
    it (DESIGN.md, "Residency and chain maintenance").  Scalars or columns."""
    return (vhead_cpu == NULL) & ((flags & FLAG_TOMBSTONE) == 0)


def get_flags(buf: np.ndarray, off: int) -> int:
    return _I.unpack_from(buf, off + 36)[0]


def set_flags(buf: np.ndarray, off: int, flags: int) -> None:
    _I.pack_into(buf, off + 36, flags)


# ----------------------------------------------------------------------
# value nodes
# ----------------------------------------------------------------------
def write_value_node(
    buf: np.ndarray,
    off: int,
    vnext_gpu: int,
    vnext_cpu: int,
    value: bytes,
) -> None:
    _QQ.pack_into(buf, off, vnext_gpu, vnext_cpu)
    _II.pack_into(buf, off + 16, len(value), 0)
    vo = off + VALUE_NODE_HEADER
    if value:
        buf[vo : vo + len(value)] = np.frombuffer(value, dtype=np.uint8)


def read_value_node_header(buf: np.ndarray, off: int) -> tuple[int, int, int]:
    """Returns (vnext_gpu, vnext_cpu, vlen)."""
    return _QQI.unpack_from(buf, off)


def value_node_value(buf: np.ndarray, off: int, vlen: int) -> bytes:
    vo = off + VALUE_NODE_HEADER
    return buf[vo : vo + vlen].tobytes()
