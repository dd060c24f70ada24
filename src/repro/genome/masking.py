"""Repeat and low-complexity masking.

Whole genome aligners mask repetitive sequence before seeding: tandem and
interspersed repeats otherwise flood the seed table with false hits (the
paper's section III-A notes the high false-positive seed rate).  This
module provides two standard maskers:

* **entropy masking** (DUST-like): windows whose k-mer entropy falls
  below a threshold are low-complexity;
* **frequency masking** (WindowMasker-like): positions whose seed word
  occurs more often than a multiple of the genome-wide expectation.

Masks are boolean arrays; :func:`apply_soft_mask` produces a sequence
with masked positions replaced by ``N`` so they can never seed (LASTZ's
hard-masking mode), while the D-SOFT seeding layer can alternatively
consult the mask directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from . import alphabet
from .sequence import Sequence
from .shuffle import kmer_counts


@dataclass(frozen=True)
class MaskStats:
    """Summary of a masking pass."""

    masked_bases: int
    total_bases: int
    intervals: Tuple[Tuple[int, int], ...]

    @property
    def fraction(self) -> float:
        return (
            self.masked_bases / self.total_bases if self.total_bases else 0.0
        )


def window_entropy(seq: Sequence, window: int, k: int = 2) -> np.ndarray:
    """Per-window k-mer Shannon entropy (bits), one value per window
    start position."""
    if window <= k:
        raise ValueError("window must exceed k")
    codes = seq.codes
    n = len(seq) - window + 1
    if n <= 0:
        return np.empty(0)
    entropies = np.empty(n)
    # Sliding entropy via incremental counts would be exact; a strided
    # recomputation every ``stride`` positions is enough for masking.
    for start in range(n):
        counts = kmer_counts(
            Sequence(codes[start : start + window]), k
        ).astype(float)
        total = counts.sum()
        if total == 0:
            entropies[start] = 0.0
            continue
        p = counts[counts > 0] / total
        entropies[start] = float(-(p * np.log2(p)).sum())
    return entropies


def entropy_mask(
    seq: Sequence,
    window: int = 32,
    k: int = 2,
    min_entropy: float = 2.2,
    stride: int = 8,
) -> np.ndarray:
    """Boolean mask of low-complexity positions (DUST-like).

    Windows are evaluated every ``stride`` positions; a window below
    ``min_entropy`` bits masks its whole span.
    """
    codes = seq.codes
    mask = np.zeros(len(seq), dtype=bool)
    if len(seq) < window:
        return mask
    for start in range(0, len(seq) - window + 1, stride):
        counts = kmer_counts(
            Sequence(codes[start : start + window]), k
        ).astype(float)
        total = counts.sum()
        if total == 0:
            continue
        p = counts[counts > 0] / total
        entropy = float(-(p * np.log2(p)).sum())
        if entropy < min_entropy:
            mask[start : start + window] = True
    return mask


def frequency_mask(
    seq: Sequence,
    word_length: int = 12,
    threshold_multiple: float = 50.0,
) -> np.ndarray:
    """Boolean mask of over-represented words (WindowMasker-like).

    A position is masked when the ``word_length``-mer starting there
    occurs more than ``threshold_multiple`` times its uniform-random
    expectation in the sequence.  ``word_length`` must be 1..32: a word
    is one base-4 ``int64``, and ``4 ** 32`` wraps to zero.
    """
    if not 1 <= word_length <= 32:
        raise ValueError(
            f"word_length must be between 1 and 32, got {word_length}"
        )
    codes = seq.codes.astype(np.int64)
    n = len(seq) - word_length + 1
    mask = np.zeros(len(seq), dtype=bool)
    if n <= 0:
        return mask
    weights = np.int64(4) ** np.arange(
        word_length - 1, -1, -1, dtype=np.int64
    )
    windows = np.lib.stride_tricks.sliding_window_view(codes, word_length)
    valid = (windows < alphabet.NUM_NUCLEOTIDES).all(axis=1)
    words = (windows & 3) @ weights
    unique, inverse, counts = np.unique(
        words[valid], return_inverse=True, return_counts=True
    )
    occurrences = np.zeros(words.size, dtype=np.int64)
    occurrences[valid] = counts[inverse]
    expected = max(n / 4.0**word_length, 1e-9)
    limit = max(threshold_multiple * expected, 2.0)
    for pos in np.flatnonzero(occurrences > limit):
        mask[pos : pos + word_length] = True
    return mask


def mask_intervals(mask: np.ndarray) -> List[Tuple[int, int]]:
    """Maximal runs of True in a boolean mask, as half-open intervals."""
    if mask.size == 0:
        return []
    padded = np.concatenate([[False], mask, [False]])
    changes = np.flatnonzero(padded[1:] != padded[:-1])
    return list(zip(changes[::2].tolist(), changes[1::2].tolist()))


def apply_soft_mask(seq: Sequence, mask: np.ndarray) -> Sequence:
    """Replace masked positions with ``N`` (they can no longer seed)."""
    if mask.shape != (len(seq),):
        raise ValueError("mask length must equal sequence length")
    codes = seq.codes.copy()
    codes[mask] = alphabet.N
    return Sequence(codes, name=seq.name)


def mask_stats(mask: np.ndarray) -> MaskStats:
    return MaskStats(
        masked_bases=int(mask.sum()),
        total_bases=int(mask.size),
        intervals=tuple(mask_intervals(mask)),
    )
