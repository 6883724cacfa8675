"""Key hashing.

FNV-1a (64-bit) over key bytes: simple, decent dispersion, and cheap enough
to model as a handful of cycles per byte on both devices.  The batch variant
is vectorized column-wise over a padded 2-D key matrix, which is how every
kernel in this reproduction hashes its records (per the HPC guide: loop over
the short axis, vectorize the long one).
"""

from __future__ import annotations

import numpy as np

__all__ = ["FNV_OFFSET", "FNV_PRIME", "fnv1a", "fnv1a_batch"]

FNV_OFFSET = np.uint64(0xCBF29CE484222325)
FNV_PRIME = np.uint64(0x100000001B3)
_U64 = np.uint64
_MASK64 = (1 << 64) - 1


def fnv1a(key: bytes) -> int:
    """64-bit FNV-1a of a byte string (scalar reference implementation)."""
    h = int(FNV_OFFSET)
    prime = int(FNV_PRIME)
    for b in key:
        h = ((h ^ b) * prime) & _MASK64
    return h


def fnv1a_batch(keys: np.ndarray, key_lens: np.ndarray) -> np.ndarray:
    """Vectorized 64-bit FNV-1a over a padded key matrix.

    ``keys`` is ``(n, width)`` uint8 with each row's key left-justified;
    ``key_lens`` gives the true lengths.  Padding bytes are ignored.
    Returns an ``(n,)`` uint64 array equal element-wise to :func:`fnv1a` on
    the unpadded rows.
    """
    if keys.ndim != 2 or keys.dtype != np.uint8:
        raise ValueError("keys must be a 2-D uint8 matrix")
    n, width = keys.shape
    if key_lens.shape != (n,):
        raise ValueError("key_lens must match the number of rows")
    if n and int(key_lens.max()) > width:
        raise ValueError("a key length exceeds the matrix width")
    h = np.full(n, FNV_OFFSET, dtype=np.uint64)
    if not n:
        return h
    # array integer arithmetic wraps silently: the uint64 wraparound is
    # the algorithm, and every step writes into ``h`` or ``step`` in place
    full = int(key_lens.min())
    # columns where every key is still live: no mask, no gather/scatter
    for col in range(full):
        np.bitwise_xor(h, keys[:, col], out=h)
        np.multiply(h, FNV_PRIME, out=h)
    # ragged columns: step every row, keep the step where the key is still
    # live (cheaper than gathering and scattering the live rows)
    step = np.empty_like(h)
    for col in range(full, int(key_lens.max())):
        np.bitwise_xor(h, keys[:, col], out=step)
        np.multiply(step, FNV_PRIME, out=step)
        np.copyto(h, step, where=key_lens > col)
    return h
