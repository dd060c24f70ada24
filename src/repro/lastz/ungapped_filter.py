"""Ungapped X-drop filtering — LASTZ's HSP stage.

Every seed hit is extended along its diagonal with no indels (section
III-C).  Hits whose ungapped score reaches the threshold become extension
anchors; hits falling inside an already-found HSP on the same diagonal are
deduplicated (LASTZ's anchor absorption within the ungapped stage).

Extensions are batched and vectorised, each hit scored only as far as
X-drop lets it run; the cell count (scored diagonal positions) is the
stage's workload unit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..align.alignment import AnchorHit
from ..align.scoring import ScoringScheme
from ..align.ungapped import ungapped_extend_batch
from ..genome.sequence import Sequence

#: LASTZ's default HSP X-drop, ten times the strongest match score.
DEFAULT_XDROP = 910

#: Hits extended per kernel call; bounds the kernel's per-chunk arrays.
LANES_PER_CALL = 8192


@dataclass(frozen=True)
class UngappedFilterParams:
    """Ungapped filter knobs (LASTZ ``--hspthresh`` and ``--xdrop``)."""

    threshold: int = 3000
    xdrop: int = DEFAULT_XDROP
    max_extension: int = 512

    def __post_init__(self) -> None:
        if self.threshold < 0:
            raise ValueError("threshold must be non-negative")
        if self.xdrop < 0:
            raise ValueError("xdrop must be non-negative")
        if self.max_extension <= 0:
            raise ValueError("max_extension must be positive")


@dataclass(frozen=True)
class UngappedFilterResult:
    """Qualifying anchors plus stage workload."""

    anchors: List[AnchorHit]
    hits: int
    cells: int


def ungapped_filter(
    target: Sequence,
    query: Sequence,
    target_positions: np.ndarray,
    query_positions: np.ndarray,
    scoring: ScoringScheme,
    params: UngappedFilterParams,
    strand: int = 1,
) -> UngappedFilterResult:
    """Filter seed hits by ungapped X-drop extension.

    Anchors are placed at the seed-hit position; duplicates (hits whose
    extended segment coincides with an earlier hit's segment on the same
    diagonal) are merged, keeping the highest-scoring representative.
    """
    k = int(target_positions.size)
    if k == 0:
        return UngappedFilterResult(anchors=[], hits=0, cells=0)

    scores = np.empty(k, dtype=np.int64)
    left_spans = np.empty(k, dtype=np.int64)
    right_spans = np.empty(k, dtype=np.int64)
    cells = 0
    for start in range(0, k, LANES_PER_CALL):
        stop = min(start + LANES_PER_CALL, k)
        batch_scores, lspans, rspans = ungapped_extend_batch(
            target,
            query,
            target_positions[start:stop],
            query_positions[start:stop],
            scoring,
            params.xdrop,
            max_length=params.max_extension,
        )
        scores[start:stop] = batch_scores
        left_spans[start:stop] = lspans
        right_spans[start:stop] = rspans
        # Actual work: scored positions until X-drop termination (spans
        # plus the short overshoot the X-drop rule needs to detect death).
        overshoot = 2 * (params.xdrop // 91 + 1)
        cells += int(lspans.sum() + rspans.sum()) + overshoot * (
            stop - start
        )

    passing = np.flatnonzero(scores >= params.threshold)
    if passing.size == 0:
        return UngappedFilterResult(anchors=[], hits=k, cells=cells)

    # Deduplicate: hits on the same diagonal whose extended segments
    # coincide describe the same HSP; keep the best-scoring one.
    diagonals = target_positions[passing] - query_positions[passing]
    segment_starts = target_positions[passing] - left_spans[passing]
    keys = np.stack([diagonals, segment_starts], axis=1)
    order = np.lexsort((-scores[passing], keys[:, 1], keys[:, 0]))
    anchors: List[AnchorHit] = []
    previous_key = None
    for idx in order:
        key = (int(keys[idx, 0]), int(keys[idx, 1]))
        if key == previous_key:
            continue
        previous_key = key
        hit = int(passing[idx])
        anchors.append(
            AnchorHit(
                target_pos=int(target_positions[hit]),
                query_pos=int(query_positions[hit]),
                filter_score=int(scores[hit]),
                strand=strand,
            )
        )
    return UngappedFilterResult(anchors=anchors, hits=k, cells=cells)
