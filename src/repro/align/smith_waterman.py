"""Full-matrix Smith-Waterman local alignment.

This is the reference implementation the whole library is tested against:
banded, X-dropped, and tiled kernels must agree with it whenever their
restrictions are inactive.  It is O(n*m) in time, so it is meant for
tiles and tests, not genomes.  GACT (:mod:`repro.core.gact`) aligns each
of its tiles with :func:`align_local`.

The kernel is GACT-X's tile engine (:func:`repro.align.xdrop.full_tile`)
in local mode with no ``Y``: every row spans the tile, ``V`` is clamped
at zero, and the traceback walk over the packed 4-bit flags starts at
the best cell and stops where a fifth flag plane marks ``V == 0``.  The
original row-at-a-time code is the oracle ``align_local_reference`` et
al. in :mod:`repro.align._reference`, and
``tests/align/test_differential.py`` holds the two equal.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..genome.sequence import Sequence
from .alignment import Alignment
from .scoring import ScoringScheme
from .xdrop import full_tile


def score_matrix(
    target: Sequence, query: Sequence, scoring: ScoringScheme
) -> np.ndarray:
    """The full (qlen+1, rlen+1) Smith-Waterman V matrix (scores only)."""
    m = len(target)
    n = len(query)
    v = np.zeros((n + 1, m + 1), dtype=np.int64)
    if m and n:
        full_tile(
            target,
            query,
            scoring,
            local=True,
            with_traceback=False,
            rows_out=v,
        )
    return v


def align_local(
    target: Sequence, query: Sequence, scoring: ScoringScheme
) -> Optional[Alignment]:
    """Best local alignment of ``query`` against ``target``.

    Returns ``None`` when no cell scores above zero (e.g. empty inputs or
    all-mismatch sequences under a matrix with no positive off-diagonal).
    """
    if len(target) == 0 or len(query) == 0:
        return None
    best = full_tile(target, query, scoring, local=True)
    if best.score <= 0:
        return None
    cigar = best.cigar
    return Alignment(
        target_name=target.name,
        query_name=query.name,
        target_start=best.max_j - cigar.target_span,
        target_end=best.max_j,
        query_start=best.max_i - cigar.query_span,
        query_end=best.max_i,
        score=best.score,
        cigar=cigar,
    )


def best_score(
    target: Sequence, query: Sequence, scoring: ScoringScheme
) -> int:
    """Maximum local alignment score (no traceback, O(m) memory)."""
    if len(target) == 0 or len(query) == 0:
        return 0
    return full_tile(
        target, query, scoring, local=True, with_traceback=False
    ).score
