"""Scoring schemes for DNA alignment.

Darwin-WGA and LASTZ share their default scoring (paper Table IIa): an
asymmetric-looking 4x4 substitution matrix that rewards matches with 91/100,
penalises transitions mildly (-25) and transversions heavily (-90/-100),
plus affine gap penalties with the recurrence of the paper's equations 1-3:
a gap of length ``L`` costs ``gap_open + (L - 1) * gap_extend``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..genome import alphabet


def _expand_matrix(matrix4: np.ndarray, ambiguous_score: int) -> np.ndarray:
    """Extend a 4x4 nucleotide matrix with an N row/column."""
    full = np.full(
        (alphabet.ALPHABET_SIZE, alphabet.ALPHABET_SIZE),
        ambiguous_score,
        dtype=np.int32,
    )
    full[:4, :4] = matrix4
    return full


@dataclass(frozen=True)
class ScoringScheme:
    """Substitution matrix plus affine gap penalties.

    ``matrix`` is a 5x5 ``int32`` array indexed by base codes (A, C, G, T,
    N); gap penalties are stored as positive magnitudes and subtracted in
    the recurrences, so ``gap_open=430, gap_extend=30`` reproduces the
    paper's Table IIa exactly.
    """

    matrix: np.ndarray
    gap_open: int
    gap_extend: int

    def __post_init__(self) -> None:
        matrix = np.asarray(self.matrix, dtype=np.int32)
        if matrix.shape == (4, 4):
            matrix = _expand_matrix(matrix, ambiguous_score=-100)
        if matrix.shape != (
            alphabet.ALPHABET_SIZE,
            alphabet.ALPHABET_SIZE,
        ):
            raise ValueError("substitution matrix must be 4x4 or 5x5")
        object.__setattr__(self, "matrix", matrix)
        if self.gap_open < 0 or self.gap_extend < 0:
            raise ValueError("gap penalties are positive magnitudes")
        if self.gap_open < self.gap_extend:
            raise ValueError(
                "affine scoring requires gap_open >= gap_extend"
            )

    def score(self, a: int, b: int) -> int:
        """Substitution score for aligning base codes ``a`` and ``b``."""
        return int(self.matrix[a, b])

    def gap_cost(self, length: int) -> int:
        """Positive cost of a gap of ``length`` bases."""
        if length <= 0:
            return 0
        return self.gap_open + (length - 1) * self.gap_extend

    def max_match_score(self) -> int:
        """The largest score on the matrix diagonal."""
        return int(np.max(np.diag(self.matrix[:4, :4])))

    @property
    def matrix64(self) -> np.ndarray:
        """The substitution matrix widened to ``int64``, memoised.

        Every DP kernel accumulates in ``int64``; widening the matrix once
        here (instead of ``astype`` per call or per row) keeps the hot
        loops allocation free.  The array is read-only so the cache can be
        shared safely.
        """
        cached = self.__dict__.get("_matrix64")
        if cached is None:
            cached = self.matrix.astype(np.int64)
            cached.setflags(write=False)
            self.__dict__["_matrix64"] = cached
        return cached

    def row_scores(self, base: int, codes: np.ndarray) -> np.ndarray:
        """Vector of substitution scores of ``base`` against ``codes``."""
        return self.matrix64[base, codes]
