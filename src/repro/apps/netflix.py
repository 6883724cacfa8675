"""Netflix user-similarity (combining method).

For every pair of users who rated the same movie, insert
``<userA&userB, similarity contribution>`` and sum contributions across
movies (the paper's form: "<userA&userB, similarity score between two users
for a movie>").  The per-movie contribution is ``1 - |rA - rB| / 4`` -- 1.0
for identical star ratings, 0.0 for opposite extremes.

Pairing is windowed (each rater pairs with the next ``pair_window`` raters
of the same movie) to keep the pair volume linear in the input, and the
input partitioner never splits a movie across chunks, so chunked and
unchunked executions emit identical pair sets.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import Application, line_spans
from repro.core.combiners import SUM_F64
from repro.core.records import RecordBatch, gather_spans
from repro.datagen.ratings import generate_ratings

__all__ = ["Netflix"]

#: a user id or a star rating is 1 to ``_MAX_DIGITS`` ASCII digits (what an
#: int64 holds whatever the digits are); a line where one is not is skipped
_MAX_DIGITS = 18
_POW10 = 10 ** np.arange(_MAX_DIGITS + 1, dtype=np.int64)


def _is_count(field: bytes) -> bool:
    return 0 < len(field) <= _MAX_DIGITS and field.isdigit()


def _parse_counts(
    view: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The decimal fields ``view[starts[i]:ends[i]]`` as ``(int64 values,
    which of them are 1 to _MAX_DIGITS digits)``; the value of a field that
    is not is meaningless."""
    lens = ends - starts
    ok = (lens > 0) & (lens <= _MAX_DIGITS)
    digits, lens = gather_spans(view, starts, np.where(ok, lens, 0))
    width = digits.shape[1]
    digits -= 48  # wraps: every byte that is not a digit reads 10 or more
    digits[np.arange(width) >= lens[:, None]] = 0
    ok &= (digits < 10).all(axis=1)
    # left-justified digits read as a width-digit number: drop the zeros
    # the padding appended
    values = (digits * _POW10[:width][::-1]).sum(axis=1) // _POW10[width - lens]
    return values, ok


class Netflix(Application):
    name = "Netflix"
    organization = "combining"
    combiner = SUM_F64
    # Pair formation + float math per emitted pair.
    parse_cycles = 560.0
    divergence = 1.2
    # Each rater pairs with the next ``pair_window`` raters of its movie.
    pair_window = 2
    # Generator shape: raters per movie.
    raters_per_movie = 24

    def generate_input(self, size_bytes: int, seed: int = 0) -> bytes:
        # Distinct user pairs bound table growth; scale the user pool so the
        # table grows with the dataset (larger datasets need more SEPO
        # iterations, as in Figure 6).
        n_users = max(60, int((0.045 * size_bytes) ** 0.5))
        return generate_ratings(
            size_bytes,
            seed=seed,
            n_users=n_users,
            raters_per_movie=self.raters_per_movie,
        )

    # ------------------------------------------------------------------
    def partition(self, data: bytes, chunk_bytes: int) -> list[bytes]:
        """Line chunks, then movie groups are kept whole across boundaries."""
        from repro.bigkernel.partitioner import partition_lines

        rough = partition_lines(data, chunk_bytes)
        chunks: list[bytes] = []
        carry = b""
        for i, chunk in enumerate(rough):
            chunk = carry + chunk
            carry = b""
            if i < len(rough) - 1:
                # Move the trailing (possibly split) movie group forward.
                lines = chunk.rstrip(b"\n").split(b"\n")
                last_movie = lines[-1].split(b",", 1)[0]
                cut = len(lines)
                while cut > 0 and lines[cut - 1].split(b",", 1)[0] == last_movie:
                    cut -= 1
                if cut == 0:
                    carry = chunk
                    continue
                carry = b"\n".join(lines[cut:]) + b"\n"
                chunk = b"\n".join(lines[:cut]) + b"\n"
            chunks.append(chunk)
        if carry:
            chunks.append(carry)
        return [c for c in chunks if c.strip()]

    def _emit_pairs(self, lines: list[bytes]):
        """Yield (key, contribution) for windowed same-movie user pairs."""
        group_movie = None
        group: list[tuple[int, int]] = []
        w = self.pair_window
        for line in lines:
            if not line:
                continue
            parts = line.split(b",")
            if len(parts) != 3:
                continue  # malformed line: skip, don't crash the job
            movie, user, stars = parts
            if not (_is_count(user) and _is_count(stars)):
                continue  # a field that is not a number: malformed as well
            if movie != group_movie:
                yield from self._pairs_of(group, w)
                group_movie, group = movie, []
            group.append((int(user), int(stars)))
        yield from self._pairs_of(group, w)

    @staticmethod
    def _pairs_of(group, w):
        for i in range(len(group)):
            ui, ri = group[i]
            for j in range(i + 1, min(i + 1 + w, len(group))):
                uj, rj = group[j]
                a, b = (ui, uj) if ui < uj else (uj, ui)
                yield b"%d&%d" % (a, b), 1.0 - abs(ri - rj) / 4.0

    def parse_chunk(self, chunk: bytes) -> RecordBatch:
        view = np.frombuffer(chunk, dtype=np.uint8)
        # "movie,user,stars": lines with exactly two commas ...
        starts, ends = line_spans(view)
        commas = np.flatnonzero(view == 44)
        first = np.searchsorted(commas, starts)
        three = np.searchsorted(commas, ends) - first == 2
        starts, ends, first = starts[three], ends[three], first[three]
        cut1, cut2 = commas[first], commas[first + 1]
        # ... whose user and stars are numbers
        users, ok = _parse_counts(view, cut1 + 1, cut2)
        stars, ok_stars = _parse_counts(view, cut2 + 1, ends)
        ok &= ok_stars
        users, stars = users[ok], stars[ok]
        n = len(users)
        # a movie group is a run of such lines with byte-equal movie fields
        movies, movie_lens = gather_spans(view, starts[ok], (cut1 - starts)[ok])
        opens = np.ones(n, dtype=bool)
        opens[1:] = (movie_lens[1:] != movie_lens[:-1]) | (
            movies[1:] != movies[:-1]
        ).any(axis=1)
        group_end = np.append(np.flatnonzero(opens)[1:], n)[np.cumsum(opens) - 1]
        # every rater pairs with the next pair_window raters of the group
        i = np.repeat(np.arange(n), self.pair_window)
        j = i + np.tile(np.arange(1, self.pair_window + 1), n)
        paired = j < group_end[i]
        i, j = i[paired], j[paired]
        swap = users[i] >= users[j]
        low, high = np.where(swap, j, i), np.where(swap, i, j)
        # keys "low&high" in decimal: every user's digits once, flush right
        # and flush left, then one row per pair -- low's digits, "&",
        # high's digits -- in which the key is one span
        n_digits = np.maximum(np.searchsorted(_POW10, users, side="right"), 1)
        width = int(n_digits.max()) if n else 1
        right = ((users[:, None] // _POW10[:width][::-1]) % 10 + 48).astype(np.uint8)
        left, _ = gather_spans(
            right.ravel(), np.arange(n) * width + width - n_digits, n_digits
        )
        rows = np.empty((len(i), 2 * width + 1), dtype=np.uint8)
        rows[:, :width] = right[low]
        rows[:, width] = ord("&")
        rows[:, width + 1 :] = left[high]
        return RecordBatch.from_spans(
            rows.ravel(),
            np.arange(len(i)) * rows.shape[1] + width - n_digits[low],
            n_digits[low] + 1 + n_digits[high],
            numeric_values=1.0 - np.abs(stars[i] - stars[j]) / 4.0,
        )

    def reference(self, data: bytes) -> dict[bytes, float]:
        out: dict[bytes, float] = {}
        for k, v in self._emit_pairs(data.split(b"\n")):
            out[k] = out.get(k, 0.0) + v
        return out
