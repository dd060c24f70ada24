"""Positional seed-word index over the target genome.

The seeding stage looks up every query seed word in the target.  The index
stores the target's seed words in sorted order with their positions, and
in front of that table a *presence bitmap*: one bit per (folded) seed
word, set when the target carries the word.  Darwin-WGA's host software
keeps the seed-position table direct-addressed by seed word, so an absent
word costs one probe and nothing more; the bitmap is the software
stand-in for that pointer table.  A lookup tests every word against the
bitmap with one gather and one shift, and only the survivors — true hits
plus the fold's false positives — reach the ``searchsorted`` range search.
The bitmap is derived from ``sorted_words`` whenever an index is
constructed (built, loaded from the cache, unpickled); it is never stored,
and it can only ever *skip* a search whose answer is "no hit", so no
result depends on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from ..genome.sequence import Sequence
from .patterns import SpacedSeed

#: Presence-bitmap bits per indexed word (rounded up to a power of two,
#: capped at one bit per possible word).  At 64 a random absent word
#: passes the probe about once in 64 lookups.
_BITMAP_BITS_PER_WORD = 64


@dataclass(frozen=True)
class SeedIndex:
    """Sorted seed-word table of one target sequence."""

    seed: SpacedSeed
    sorted_words: np.ndarray
    sorted_positions: np.ndarray
    target_length: int
    #: log2 of the presence bitmap's size in bits.
    bitmap_bits: int = field(init=False, repr=False, compare=False)
    #: The presence bitmap, bit ``k & 7`` of byte ``k >> 3`` for key ``k``.
    bitmap: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        wanted = max(_BITMAP_BITS_PER_WORD * self.size, 8)
        bits = min(max(self.seed.word_bits, 3), (wanted - 1).bit_length())
        object.__setattr__(self, "bitmap_bits", bits)
        # One byte per key, then packed: faster than np.bitwise_or.at at
        # every index size, for a transient of 8x the bitmap.
        present = np.zeros(1 << bits, dtype=bool)
        present[self._bitmap_keys(self.sorted_words)] = True
        object.__setattr__(
            self, "bitmap", np.packbits(present, bitorder="little")
        )

    def __reduce__(self):
        # Ship the tables only; the receiver derives its own bitmap.
        return (
            SeedIndex,
            (
                self.seed,
                self.sorted_words,
                self.sorted_positions,
                self.target_length,
            ),
        )

    @classmethod
    def build(cls, target: Sequence, seed: SpacedSeed) -> "SeedIndex":
        """Index every valid seed position of ``target``."""
        words, valid = seed.words(target)
        positions = np.flatnonzero(valid)
        words = words[positions]
        order = np.argsort(words, kind="stable")
        return cls(
            seed=seed,
            sorted_words=words[order],
            sorted_positions=positions[order].astype(np.int64),
            target_length=len(target),
        )

    @property
    def size(self) -> int:
        """Number of indexed seed positions."""
        return int(self.sorted_words.size)

    def _bitmap_keys(self, words: np.ndarray) -> np.ndarray:
        """Bitmap key of each word: the word itself, xor-folded when the
        table is narrower than the word."""
        bits = self.bitmap_bits
        keys = words
        for shift in range(bits, self.seed.word_bits, bits):
            keys = keys ^ (words >> np.int64(shift))
        return keys & np.int64((1 << bits) - 1)

    def word_ranges(
        self, words: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Locate ``words`` in the sorted table, bitmap first.

        Returns ``(kept, left, counts)``: ``kept`` indexes (ascending) the
        words that pass the presence bitmap, and ``sorted_words[left[i] :
        left[i] + counts[i]]`` all equal ``words[kept[i]]``.  Every word
        not in ``kept`` is absent from the target; a kept word may still
        have a count of zero (a fold collision).
        """
        keys = self._bitmap_keys(words)
        kept = np.flatnonzero((self.bitmap[keys >> 3] >> (keys & 7)) & 1)
        probe = words[kept]
        left = np.searchsorted(self.sorted_words, probe, side="left")
        right = np.searchsorted(self.sorted_words, probe, side="right")
        return kept, left, right - left

    def expand_ranges(
        self, left: np.ndarray, counts: np.ndarray, query_positions: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Seed hits of the table ranges ``[left, left + counts)``.

        Returns ``(target_hits, query_hits)`` — parallel arrays with one
        entry per seed hit, in range order then target order;
        ``query_positions[i]`` is repeated for every hit of range ``i``.
        """
        total = int(counts.sum())
        if total == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy()
        # CSR-style expansion: for a range [l, l + c) emit the target
        # positions sorted_positions[l : l + c].
        starts = np.repeat(left, counts)
        offsets = np.arange(total) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        target_hits = self.sorted_positions[starts + offsets]
        query_hits = np.repeat(query_positions, counts)
        return target_hits, query_hits

    def lookup_batch(
        self, query_words: np.ndarray, query_positions: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Resolve a batch of query seed words to seed hits.

        Args:
            query_words: words to look up.
            query_positions: the query position of each word (same length).

        Returns:
            ``(target_hits, query_hits)`` — parallel arrays with one entry
            per seed hit, in query order then target order.
        """
        if query_words.size != query_positions.size:
            raise ValueError("words and positions must be parallel arrays")
        kept, left, counts = self.word_ranges(query_words)
        return self.expand_ranges(left, counts, query_positions[kept])

    def word_frequency(self, word: int) -> int:
        """Number of target positions carrying ``word``."""
        _, _, counts = self.word_ranges(np.array([word], dtype=np.int64))
        return int(counts.sum())
