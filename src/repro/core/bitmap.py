"""Pending-record bitmap.

SEPO requires the requestor to "track requests that have been declined and
then reissue these postponed requests at a later time" (Section I).  The
paper, and this reproduction, use a bitmap with one bit per input record
(Section III-B): a set bit means the record still needs processing.

The bitmap is numpy-backed so that per-iteration scans ("which records in
this chunk are still pending?") are vectorized.
"""

from __future__ import annotations

import numpy as np

__all__ = ["PendingBitmap"]


class PendingBitmap:
    """One pending bit per input record; starts all-pending."""

    def __init__(self, n_records: int):
        if n_records < 0:
            raise ValueError(f"negative record count: {n_records}")
        self.n_records = n_records
        self._pending = np.ones(n_records, dtype=bool)

    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Footprint of the real bitmap (one *bit* per record)."""
        return (self.n_records + 7) // 8

    @property
    def pending_count(self) -> int:
        return int(self._pending.sum())

    def any_pending(self) -> bool:
        return bool(self._pending.any())

    # ------------------------------------------------------------------
    def mark_done(self, indices: np.ndarray) -> None:
        """Clear the pending bit of the given (global) record indices."""
        self._check(indices)
        self._pending[indices] = False

    def pending_in(self, start: int, stop: int) -> np.ndarray:
        """Global indices of pending records within ``[start, stop)``."""
        if not 0 <= start <= stop <= self.n_records:
            raise ValueError(f"range [{start}, {stop}) out of bounds")
        return start + self._pending[start:stop].nonzero()[0]

    # ------------------------------------------------------------------
    def snapshot(self) -> np.ndarray:
        """An owned copy of the pending mask (for journaling)."""
        return self._pending.copy()

    def restore(self, mask: np.ndarray) -> None:
        """Overwrite the pending mask from a journal snapshot."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.n_records,):
            raise ValueError(
                f"snapshot covers {mask.size} records, bitmap has "
                f"{self.n_records}"
            )
        self._pending[:] = mask

    def _check(self, indices: np.ndarray) -> None:
        if len(indices) == 0:
            return
        indices = np.asarray(indices)
        if (np.minimum.reduce(indices) < 0
                or np.maximum.reduce(indices) >= self.n_records):
            raise IndexError("record index out of range")
