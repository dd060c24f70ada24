"""Full-matrix Needleman-Wunsch global alignment with affine gaps.

Nothing in the pipeline calls it; it is a library entry point (exported
by :mod:`repro.align`) that tests pin to its oracle.

The kernel is GACT-X's lane engine (:func:`repro.align.xdrop.full_tile`)
with no ``Y`` and no clamp: every row spans the tile, the score is
``V(n, m)`` read back from the engine's row ring, and the traceback walk
over the packed 4-bit flags starts at that corner and pads to the
origin.  The original row-at-a-time code is preserved as
``align_global_reference`` in :mod:`repro.align._reference` and fuzzed
against this implementation by ``tests/align/test_differential.py``.
"""

from __future__ import annotations

from ..genome.sequence import Sequence
from .alignment import Alignment
from .cigar import Cigar
from .scoring import ScoringScheme
from .xdrop import full_tile


def align_global(
    target: Sequence, query: Sequence, scoring: ScoringScheme
) -> Alignment:
    """Optimal global alignment of the two full sequences."""
    m = len(target)
    n = len(query)
    if m == 0 or n == 0:
        # One gap run over whichever sequence is non-empty (or nothing).
        score = -scoring.gap_cost(max(m, n))
        cigar = Cigar.from_runs([("I" if m == 0 else "D", max(m, n))])
    else:
        corner = full_tile(target, query, scoring, local=False)
        score = corner.score
        cigar = corner.cigar
    return Alignment(
        target_name=target.name,
        query_name=query.name,
        target_start=0,
        target_end=m,
        query_start=0,
        query_end=n,
        score=score,
        cigar=cigar,
    )


def global_score(
    target: Sequence, query: Sequence, scoring: ScoringScheme
) -> int:
    """Optimal global alignment score (O(m) memory, no traceback)."""
    m = len(target)
    n = len(query)
    if m == 0 or n == 0:
        return -scoring.gap_cost(max(m, n))
    return full_tile(
        target, query, scoring, local=False, with_traceback=False
    ).score
