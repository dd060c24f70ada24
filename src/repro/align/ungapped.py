"""Ungapped X-drop extension — LASTZ's filtering stage.

LASTZ filters seed hits by extending them along the diagonal, with no
indels allowed, until the running score drops ``xdrop`` below the running
maximum (Zhang et al.'s X-drop criterion).  The paper's Figure 2 argument
is exactly about this stage: between indels, diverged genomes only offer
short ungapped blocks, so requiring a ~30-match-equivalent ungapped score
discards many true alignments.  Darwin-WGA replaces this stage with banded
Smith-Waterman; both are implemented so the pipelines can be compared.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..genome.sequence import Sequence
from . import _dp
from .scoring import ScoringScheme


#: Columns every live lane advances between retirements of dead lanes.
#: Noise hits die within ~15 columns of LASTZ's default X-drop, so one
#: chunk retires most of a batch; wider chunks score more dead columns,
#: narrower ones pay the per-chunk dispatch more often.
CHUNK = 64


@dataclass(frozen=True)
class UngappedResult:
    """An ungapped extension around a seed hit.

    Coordinates are half-open on the target; the query interval has the
    same length on the hit diagonal.  ``cells`` counts scored positions
    (the software-cost unit for this stage).
    """

    score: int
    target_start: int
    target_end: int
    query_start: int
    query_end: int
    cells: int


def _extend_scores(scores: np.ndarray, xdrop: int) -> Tuple[int, int]:
    """Best prefix sum of ``scores`` under the X-drop termination rule.

    Returns ``(best_score, length_of_best_prefix)``.  Scanning stops at the
    first position where the running score falls more than ``xdrop`` below
    the running maximum; the best prefix is taken among positions up to and
    including the stopping point.
    """
    if scores.size == 0:
        return 0, 0
    cumulative = np.cumsum(scores)
    running_max = np.maximum.accumulate(np.maximum(cumulative, 0))
    dropped = np.flatnonzero(running_max - cumulative > xdrop)
    limit = int(dropped[0]) if dropped.size else scores.size
    if limit == 0:
        return 0, 0
    window = cumulative[:limit]
    best_idx = int(np.argmax(window))
    best = int(window[best_idx])
    if best <= 0:
        return 0, 0
    return best, best_idx + 1


def ungapped_extend(
    target: Sequence,
    query: Sequence,
    target_pos: int,
    query_pos: int,
    scoring: ScoringScheme,
    xdrop: int,
    max_length: int = 4096,
) -> UngappedResult:
    """Extend a seed hit along its diagonal in both directions.

    ``(target_pos, query_pos)`` is any position on the hit diagonal
    (conventionally the seed start).  Extension proceeds rightwards from
    that position inclusive and leftwards from the previous position, each
    direction independently under the X-drop rule, and the two best scores
    are summed.
    """
    t = target.codes
    q = query.codes
    matrix = scoring.matrix64

    right_len = min(len(target) - target_pos, len(query) - query_pos, max_length)
    left_len = min(target_pos, query_pos, max_length)

    right_scores = (
        matrix[
            t[target_pos : target_pos + right_len],
            q[query_pos : query_pos + right_len],
        ]
        if right_len > 0
        else np.empty(0, dtype=np.int64)
    )
    left_scores = (
        matrix[
            t[target_pos - left_len : target_pos][::-1],
            q[query_pos - left_len : query_pos][::-1],
        ]
        if left_len > 0
        else np.empty(0, dtype=np.int64)
    )

    right_best, right_span = _extend_scores(right_scores, xdrop)
    left_best, left_span = _extend_scores(left_scores, xdrop)
    return UngappedResult(
        score=right_best + left_best,
        target_start=target_pos - left_span,
        target_end=target_pos + right_span,
        query_start=query_pos - left_span,
        query_end=query_pos + right_span,
        cells=right_len + left_len,
    )


def _scan(
    target: Sequence,
    query: Sequence,
    t_from: np.ndarray,
    q_from: np.ndarray,
    step: int,
    limits: np.ndarray,
    matrix: np.ndarray,
    xdrop: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(best, spans)`` of every lane's X-drop extension in one direction.

    Lane ``i`` scores ``target[t_from[i] + step * j]`` against
    ``query[q_from[i] + step * j]`` for ``j < limits[i]``, in the dtype
    of ``matrix``.  All live lanes advance :data:`CHUNK` columns at a
    time, carrying the cumulative score and the running maximum — which
    starts at 0, so it *is* the best prefix score so far.  A lane is
    retired after the chunk in which it falls more than ``xdrop`` below
    that maximum or reaches its limit.
    """
    best = np.zeros(limits.size, dtype=matrix.dtype)
    spans = np.zeros(limits.size, dtype=np.int64)
    live = np.flatnonzero(limits > 0)
    cumulative = np.zeros(live.size, dtype=matrix.dtype)
    columns = step * np.arange(CHUNK)
    scores, alphabet = matrix.ravel(), np.uint8(matrix.shape[1])
    done = 0
    while live.size:
        # Reads past a lane's limit are clipped into range and never
        # counted: ``stop`` below ends the lane at its limit.
        pairs = target.codes.take(t_from[live, None] + columns, mode="clip")
        pairs *= alphabet
        pairs += query.codes.take(q_from[live, None] + columns, mode="clip")
        chunk = scores.take(pairs)
        chunk[:, 0] += cumulative
        np.cumsum(chunk, axis=1, out=chunk)
        running = np.maximum.accumulate(chunk, axis=1)
        np.maximum(running, best[live, None], out=running)
        dropped = running - chunk > xdrop
        left = limits[live] - done
        stop = np.where(dropped.any(axis=1), dropped.argmax(axis=1), CHUNK)
        np.minimum(stop, left, out=stop)
        # The running maximum at a lane's last counted column is its best
        # so far.  It moves the span only when strictly greater than the
        # carried best, and the first column equal to it is the first
        # argmax: ties keep the earlier, shorter span.
        rows = np.flatnonzero(stop > 0)
        peak = running[rows, stop[rows] - 1]
        better = peak > best[live[rows]]
        rows, peak = rows[better], peak[better]
        best[live[rows]] = peak
        first = (chunk[rows] == peak[:, None]).argmax(axis=1)
        spans[live[rows]] = done + first + 1
        keep = np.flatnonzero((stop == CHUNK) & (left > CHUNK))
        live, cumulative = live[keep], chunk[keep, -1]
        columns += step * CHUNK
        done += CHUNK
    return best.astype(np.int64), spans


def ungapped_extend_batch(
    target: Sequence,
    query: Sequence,
    target_positions: np.ndarray,
    query_positions: np.ndarray,
    scoring: ScoringScheme,
    xdrop: int,
    max_length: int = 4096,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised ungapped extension of many seed hits at once.

    Returns ``(scores, left_spans, right_spans)`` arrays.  A position past
    either sequence end ends extension there, exactly as X-drop ends it
    anywhere else, so a hit on or beyond an end scores nothing that way.
    """
    n_t, n_q = len(target), len(query)
    tp = np.asarray(target_positions, dtype=np.int64)
    qp = np.asarray(query_positions, dtype=np.int64)
    # Narrowest exact dtype: a lane's cumulative score runs at most one
    # chunk past ``max_length`` columns before it is retired.
    dtype = _dp.kernel_dtype(scoring, max_length + CHUNK, slack=xdrop)
    matrix = _dp.matrix_for(scoring, dtype)
    right_limits = np.where(
        (tp >= 0) & (qp >= 0), np.minimum(n_t - tp, n_q - qp), 0
    ).clip(0, max_length)
    left_limits = np.where(
        (tp <= n_t) & (qp <= n_q), np.minimum(tp, qp), 0
    ).clip(0, max_length)
    right_best, right_spans = _scan(
        target, query, tp, qp, 1, right_limits, matrix, xdrop
    )
    left_best, left_spans = _scan(
        target, query, tp - 1, qp - 1, -1, left_limits, matrix, xdrop
    )
    return right_best + left_best, left_spans, right_spans
