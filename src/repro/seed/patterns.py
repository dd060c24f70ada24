"""Spaced seed patterns.

A spaced seed is a pattern over ``{1, 0}`` where ``1`` positions must match
exactly and ``0`` positions are "don't care".  LASTZ and Darwin-WGA share
the default ``12of19`` pattern (12 match positions spread over 19 bases,
paper Figure 5).  Optionally one match position may instead contain a
*transition* substitution (A<->G or C<->T): empirically transitions occur
at above-random frequency, so tolerating one raises sensitivity at the
cost of ``m + 1`` times more seed-word lookups.

Seed words pack the 2-bit base codes of the match positions; because the
code layout puts transition partners two apart (``code ^ 2``), a transition
at match slot ``k`` is exactly a flip of word bit ``2k + 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..genome import alphabet
from ..genome.sequence import Sequence

#: LASTZ's default seed pattern: 12 match positions over 19 bases.
DEFAULT_PATTERN = "1110100110010101111"


@dataclass(frozen=True)
class SpacedSeed:
    """A spaced seed pattern with optional transition tolerance."""

    pattern: str = DEFAULT_PATTERN
    transitions: bool = True

    def __post_init__(self) -> None:
        if not self.pattern or set(self.pattern) - {"0", "1"}:
            raise ValueError("pattern must be a non-empty string of 0/1")
        if self.pattern[0] != "1" or self.pattern[-1] != "1":
            raise ValueError("pattern must start and end with a 1")

    @property
    def span(self) -> int:
        """Total pattern length in bases."""
        return len(self.pattern)

    @property
    def weight(self) -> int:
        """Number of match (``1``) positions."""
        return self.pattern.count("1")

    @property
    def match_offsets(self) -> Tuple[int, ...]:
        """Offsets of the match positions within the pattern."""
        return tuple(
            i for i, char in enumerate(self.pattern) if char == "1"
        )

    @property
    def word_bits(self) -> int:
        return 2 * self.weight

    def words(self, seq: Sequence) -> Tuple[np.ndarray, np.ndarray]:
        """Seed words at every start position of ``seq``.

        Returns ``(words, valid)``: ``words[p]`` packs the match-position
        codes of the seed starting at ``p`` (two bits per position, first
        match position in the lowest bits); ``valid[p]`` is False when the
        window contains an ambiguous base at a match position or runs off
        the end.  Both arrays have length ``len(seq) - span + 1`` (empty
        when the sequence is shorter than the pattern).
        """
        n = len(seq) - self.span + 1
        if n <= 0:
            return (
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=bool),
            )
        codes = seq.codes
        words = np.zeros(n, dtype=np.int64)
        valid = np.ones(n, dtype=bool)
        for k, offset in enumerate(self.match_offsets):
            window = codes[offset : offset + n].astype(np.int64)
            ambiguous = window >= alphabet.NUM_NUCLEOTIDES
            valid &= ~ambiguous
            words |= (window & 3) << (2 * k)
        return words, valid

    @property
    def transition_flips(self) -> Tuple[int, ...]:
        """One xor mask per match slot: bit ``2k + 1`` of a word, whose
        flip substitutes the base at slot ``k`` with its transition
        partner."""
        return tuple(2 << (2 * k) for k in range(self.weight))

    def transition_neighbours(self, words: np.ndarray) -> List[np.ndarray]:
        """All one-transition variants of each word (one array per slot).

        The returned list has ``weight`` arrays; together with the
        original words this gives the ``m + 1`` lookups per position the
        paper describes.
        """
        return [words ^ np.int64(flip) for flip in self.transition_flips]

    def word_of(self, text: str) -> int:
        """Seed word of a single ``span``-length string (for tests)."""
        seq = Sequence.from_string(text)
        if len(seq) != self.span:
            raise ValueError("text length must equal the pattern span")
        words, valid = self.words(seq)
        if not valid[0]:
            raise ValueError("window contains an ambiguous base")
        return int(words[0])
