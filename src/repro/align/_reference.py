"""Frozen row-at-a-time DP kernels — the differential-testing oracles.

These are the original, row-sequential implementations of every DP
kernel in :mod:`repro.align`, preserved verbatim when the production
kernels were rewritten as wavefront sweeps.  They exist so that
``tests/align/test_differential.py`` can fuzz the fast kernels against
an executable specification: for any input, the wavefront kernels must
produce *identical* scores, CIGARs, maxima, cell counts and per-row
windows.

**Freeze policy** (see CONTRIBUTING.md): this module only changes for
bugfixes, and any bugfix must be mirrored in the production kernel in
the same commit so the two implementations never diverge on purpose.
It is deliberately self-contained — it shares only leaf data types
(:class:`Sequence`, :class:`Cigar`, :class:`ScoringScheme` and the
result dataclasses) with the live kernels, never DP machinery.

The module is exempt from the kernel-hygiene scans of
``tests/test_invariants.py`` (``narrow-dp-dtype``, ``nested-dp-loop``):
its whole purpose is to stay the readable, loop-shaped specification
the fast kernels are measured against.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..genome.sequence import Sequence
from .alignment import Alignment
from .banded_sw import BswResult
from .cigar import Cigar
from .scoring import ScoringScheme
from .xdrop import XDropExtension

#: Effectively minus infinity, with headroom so ``NEG_INF + k*e`` cannot
#: overflow or accidentally win a maximum.
NEG_INF = np.int64(-(2**42))

#: Pointer encoding (low two bits): how V was obtained.
DIR_NONE = 0  # local zero / boundary: traceback stops
DIR_DIAG = 1
DIR_HORIZ = 2  # from H: gap consuming target ('D')
DIR_VERT = 3  # from U: gap consuming query ('I')

#: Pointer flags (high bits): whether the gap state extends a prior gap.
FLAG_H_EXTEND = 4
FLAG_U_EXTEND = 8

_DIR_MASK = 3


def substitution_columns(
    target: Sequence, scoring: ScoringScheme
) -> np.ndarray:
    """Precomputed substitution rows against a fixed target, ``int64``."""
    columns = scoring.matrix64[:, target.codes]
    columns.setflags(write=False)
    return columns


def boundary_scores(
    length: int, scoring: ScoringScheme, free: bool
) -> np.ndarray:
    """V values along a DP boundary (row 0 or column 0), index 0..length.

    ``free=True`` (local alignment) gives zeros; otherwise position ``k``
    costs an affine gap of length ``k`` from the origin.
    """
    values = np.zeros(length + 1, dtype=np.int64)
    if not free and length > 0:
        k = np.arange(1, length + 1, dtype=np.int64)
        values[1:] = -(scoring.gap_open + (k - 1) * scoring.gap_extend)
    return values


def row_update(
    v_prev: np.ndarray,
    u_prev: np.ndarray,
    substitution_row: np.ndarray,
    scoring: ScoringScheme,
    v_boundary: np.int64,
    local: bool,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Compute one DP row (the original shared kernel, kept verbatim).

    Args:
        v_prev: V of the previous row, length ``m + 1`` (index 0 is the
            left boundary of that row).
        u_prev: U of the previous row, same shape.
        substitution_row: substitution scores ``W(q_i, r_j)`` for
            ``j = 1..m`` (length ``m``).
        scoring: gap penalties.
        v_boundary: V value of this row's column-0 boundary cell.
        local: clamp scores at zero (Smith-Waterman) when True.

    Returns:
        ``(v_row, u_row, h_row, pointers)`` — value arrays of length
        ``m + 1`` and a ``uint8`` pointer array of the same length
        (index 0 is always ``DIR_NONE``).
    """
    o = np.int64(scoring.gap_open)
    e = np.int64(scoring.gap_extend)
    m = substitution_row.size

    u_row = np.empty(m + 1, dtype=np.int64)
    u_row[0] = NEG_INF
    np.maximum(v_prev[1:] - o, u_prev[1:] - e, out=u_row[1:])
    u_extends = u_row[1:] == u_prev[1:] - e

    diag = v_prev[:-1] + substitution_row
    v0 = np.empty(m + 1, dtype=np.int64)
    v0[0] = v_boundary
    np.maximum(u_row[1:], diag, out=v0[1:])
    from_vert = v0[1:] == u_row[1:]
    if local:
        np.maximum(v0[1:], 0, out=v0[1:])

    # Prefix-scan computation of H over the row: because ``o >= e``,
    # H(i,j) = max_{k<j} (V'(i,k) + k*e) - o - (j-1)*e.
    k = np.arange(m + 1, dtype=np.int64)
    running = np.maximum.accumulate(v0 + k * e)
    h_row = np.empty(m + 1, dtype=np.int64)
    h_row[0] = NEG_INF
    h_row[1:] = running[:-1] - o - (k[1:] - 1) * e
    h_extends = np.zeros(m + 1, dtype=bool)
    if m > 1:
        h_extends[2:] = h_row[2:] == h_row[1:-1] - e

    v_row = np.maximum(v0, h_row)
    v_row[0] = v_boundary
    if local:
        np.maximum(v_row, 0, out=v_row)

    pointers = np.zeros(m + 1, dtype=np.uint8)
    # Priority on ties: horizontal gap, then vertical gap, then diagonal —
    # any consistent order yields a valid optimal path.
    from_horiz = v_row[1:] == h_row[1:]
    took_vert = from_vert & ~from_horiz
    took_diag = ~from_horiz & ~took_vert & (v_row[1:] == diag)
    dirs = np.zeros(m, dtype=np.uint8)
    dirs[took_diag] = DIR_DIAG
    dirs[from_horiz] = DIR_HORIZ
    dirs[took_vert] = DIR_VERT
    if local:
        dirs[v_row[1:] == 0] = DIR_NONE
    pointers[1:] = (
        dirs
        | (h_extends[1:].astype(np.uint8) * FLAG_H_EXTEND)
        | (u_extends.astype(np.uint8) * FLAG_U_EXTEND)
    )
    return v_row, u_row, h_row, pointers


def traceback(
    pointers: List[np.ndarray],
    row_offsets: List[int],
    target: Sequence,
    query: Sequence,
    start_i: int,
    start_j: int,
    pad_to_origin: bool,
) -> Tuple[Cigar, int, int]:
    """Walk pointer rows from cell ``(start_i, start_j)`` back to a stop.

    Args:
        pointers: per-row pointer arrays; ``pointers[i - 1]`` covers row
            ``i`` and its index 0 corresponds to column ``row_offsets[i-1]``.
        row_offsets: the column index of pointer slot 0 for each row.
        target, query: the tile sequences (0-indexed; cell ``(i, j)``
            aligns ``query[i-1]`` with ``target[j-1]``).
        start_i, start_j: 1-based cell to start from.
        pad_to_origin: extension mode — when the walk reaches row 0 or
            column 0 away from the origin, pad with gap columns so the
            path starts exactly at ``(0, 0)``.

    Returns:
        ``(cigar, end_i, end_j)`` where the CIGAR reads forward (from the
        path start to ``(start_i, start_j)``) and ``(end_i, end_j)`` is the
        1-based cell *after* which the path begins (``(0, 0)`` when padded).
    """
    ops: List[str] = []
    i, j = start_i, start_j
    state = "V"
    t_codes = target.codes
    q_codes = query.codes

    def pointer_at(row: int, col: int) -> int:
        base = row_offsets[row - 1]
        idx = col - base
        row_ptrs = pointers[row - 1]
        if idx < 0 or idx >= row_ptrs.size:
            return DIR_NONE
        return int(row_ptrs[idx])

    while i > 0 and j > 0:
        ptr = pointer_at(i, j)
        if state == "V":
            direction = ptr & _DIR_MASK
            if direction == DIR_NONE:
                break
            if direction == DIR_DIAG:
                same = t_codes[j - 1] == q_codes[i - 1] and t_codes[j - 1] < 4
                ops.append("=" if same else "X")
                i -= 1
                j -= 1
            elif direction == DIR_HORIZ:
                state = "H"
            else:
                state = "U"
        elif state == "H":
            ops.append("D")
            state = "H" if ptr & FLAG_H_EXTEND else "V"
            j -= 1
        else:  # state == "U"
            ops.append("I")
            state = "U" if ptr & FLAG_U_EXTEND else "V"
            i -= 1

    if pad_to_origin:
        ops.extend("D" * j)
        ops.extend("I" * i)
        i = 0
        j = 0

    return Cigar.from_ops(reversed(ops)), i, j


def xdrop_extend_reference(
    target: Sequence,
    query: Sequence,
    scoring: ScoringScheme,
    ydrop: int,
    with_traceback: bool = True,
) -> XDropExtension:
    """The original row-at-a-time X-drop tile extension (oracle)."""
    if ydrop < 0:
        raise ValueError("ydrop must be non-negative")
    m = len(target)
    n = len(query)
    if m == 0 or n == 0:
        return XDropExtension(
            score=0,
            max_i=0,
            max_j=0,
            cigar=Cigar(()) if with_traceback else None,
            cells=0,
            row_windows=(),
        )

    gap_slack = ydrop // max(1, scoring.gap_extend) + 1
    sub_columns = substitution_columns(target, scoring)

    v_full = boundary_scores(m, scoring, free=False)
    u_full = np.full(m + 1, NEG_INF)
    best = np.int64(0)
    best_i, best_j = 0, 0

    # Row 0 live set under the initial V_max = 0.
    live = np.flatnonzero(v_full >= -ydrop)
    prev_first_live = 1
    prev_last_live = int(live.max()) if live.size else 0

    pointer_rows: List[np.ndarray] = []
    row_offsets: List[int] = []
    row_windows: List[Tuple[int, int]] = []
    cells = 0

    for i in range(1, n + 1):
        lo = max(1, prev_first_live)
        hi = min(m, prev_last_live + 1 + gap_slack)
        if hi < lo:
            break
        subs = sub_columns[query.codes[i - 1], lo - 1 : hi]
        left_boundary = (
            np.int64(-scoring.gap_cost(i)) if lo == 1 else NEG_INF
        )
        v_row, u_row, _, pointers = row_update(
            v_full[lo - 1 : hi + 1],
            u_full[lo - 1 : hi + 1],
            subs,
            scoring,
            left_boundary,
            local=False,
        )

        row_max_idx = int(np.argmax(v_row[1:]))
        row_max = v_row[1 + row_max_idx]
        if row_max > best:
            best = row_max
            best_i = i
            best_j = lo + row_max_idx

        threshold = best - ydrop
        live_rel = np.flatnonzero(v_row[1:] >= threshold)
        # Trim the stored window to the live extent so that traceback
        # memory accounting matches what the hardware would keep.
        if live_rel.size == 0:
            row_windows.append((lo, hi))
            cells += hi - lo + 1
            break
        first_live = lo + int(live_rel[0])
        last_live = lo + int(live_rel[-1])

        v_full.fill(NEG_INF)
        u_full.fill(NEG_INF)
        v_full[lo - 1 : hi + 1] = v_row
        u_full[lo - 1 : hi + 1] = u_row
        if lo == 1:
            v_full[0] = left_boundary

        if with_traceback:
            pointer_rows.append(pointers[1:])
            row_offsets.append(lo)
        row_windows.append((lo, hi))
        cells += hi - lo + 1
        prev_first_live = first_live
        prev_last_live = last_live

    cigar: Optional[Cigar] = None
    if with_traceback:
        if best > 0:
            cigar, _, _ = traceback(
                pointer_rows,
                row_offsets,
                target,
                query,
                best_i,
                best_j,
                pad_to_origin=True,
            )
        else:
            cigar = Cigar(())
    return XDropExtension(
        score=int(best),
        max_i=best_i if best > 0 else 0,
        max_j=best_j if best > 0 else 0,
        cigar=cigar,
        cells=cells,
        row_windows=tuple(row_windows),
    )


def _band_cells(rows: int, cols: int, band: int) -> int:
    """Number of in-band cells of a ``rows x cols`` tile with band ``B``."""
    total = 0
    for i in range(1, rows + 1):
        lo = max(1, i - band)
        hi = min(cols, i + band)
        if hi >= lo:
            total += hi - lo + 1
    return total


def bsw_batch_reference(
    target_tiles: np.ndarray,
    query_tiles: np.ndarray,
    scoring: ScoringScheme,
    band: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The original row-at-a-time batched banded Smith-Waterman (oracle)."""
    if target_tiles.ndim != 2 or query_tiles.ndim != 2:
        raise ValueError("tile stacks must be 2-D (K, length)")
    if target_tiles.shape[0] != query_tiles.shape[0]:
        raise ValueError("target and query stacks disagree on tile count")
    if band < 0:
        raise ValueError("band must be non-negative")
    k, m = target_tiles.shape
    n = query_tiles.shape[1]
    o = np.int64(scoring.gap_open)
    e = np.int64(scoring.gap_extend)
    matrix = scoring.matrix64

    v_prev = np.zeros((k, m + 1), dtype=np.int64)
    u_prev = np.full((k, m + 1), NEG_INF, dtype=np.int64)
    best = np.zeros(k, dtype=np.int64)
    best_i = np.zeros(k, dtype=np.int64)
    best_j = np.zeros(k, dtype=np.int64)

    for i in range(1, n + 1):
        lo = max(1, i - band)
        hi = min(m, i + band)
        if hi < lo:
            continue
        width = hi - lo + 1
        subs = matrix[
            query_tiles[:, i - 1][:, None], target_tiles[:, lo - 1 : hi]
        ]

        u_row = np.maximum(
            v_prev[:, lo : hi + 1] - o, u_prev[:, lo : hi + 1] - e
        )
        diag = v_prev[:, lo - 1 : hi] + subs
        v0 = np.maximum(np.maximum(u_row, diag), 0)

        # H via prefix scan over the row window; a zero boundary on the
        # left models the local-alignment restart outside the band.
        offsets = np.arange(width, dtype=np.int64) * e
        running = np.maximum.accumulate(v0 + offsets, axis=1)
        h_row = np.empty_like(v0)
        h_row[:, 0] = NEG_INF
        h_row[:, 1:] = running[:, :-1] - o - offsets[:-1][None, :]
        v_row = np.maximum(np.maximum(v0, h_row), 0)

        v_prev[:, lo : hi + 1] = v_row
        u_prev[:, lo : hi + 1] = u_row

        row_best_idx = np.argmax(v_row, axis=1)
        row_best = v_row[np.arange(k), row_best_idx]
        improved = row_best > best
        best[improved] = row_best[improved]
        best_i[improved] = i
        best_j[improved] = row_best_idx[improved] + lo
    return best, best_i, best_j


def bsw_tile_reference(
    target: Sequence,
    query: Sequence,
    scoring: ScoringScheme,
    band: int,
) -> BswResult:
    """Banded Smith-Waterman over a single tile (oracle)."""
    if len(target) == 0 or len(query) == 0:
        return BswResult(score=0, max_i=0, max_j=0, cells=0)
    scores, max_i, max_j = bsw_batch_reference(
        target.codes[np.newaxis, :],
        query.codes[np.newaxis, :],
        scoring,
        band,
    )
    return BswResult(
        score=int(scores[0]),
        max_i=int(max_i[0]),
        max_j=int(max_j[0]),
        cells=_band_cells(len(query), len(target), band),
    )


def score_matrix_reference(
    target: Sequence, query: Sequence, scoring: ScoringScheme
) -> np.ndarray:
    """The full (qlen+1, rlen+1) Smith-Waterman V matrix (oracle)."""
    m = len(target)
    n = len(query)
    v = np.zeros((n + 1, m + 1), dtype=np.int64)
    u_prev = np.full(m + 1, NEG_INF)
    sub_columns = substitution_columns(target, scoring)
    for i in range(1, n + 1):
        subs = sub_columns[query.codes[i - 1]]
        v[i], u_prev, _, _ = row_update(
            v[i - 1], u_prev, subs, scoring, np.int64(0), local=True
        )
    return v


def align_local_reference(
    target: Sequence, query: Sequence, scoring: ScoringScheme
) -> Optional[Alignment]:
    """Best local alignment of ``query`` against ``target`` (oracle)."""
    m = len(target)
    n = len(query)
    if m == 0 or n == 0:
        return None

    v_prev = boundary_scores(m, scoring, free=True)
    u_prev = np.full(m + 1, NEG_INF)
    pointer_rows = []
    best = (np.int64(0), 0, 0)  # score, i, j
    sub_columns = substitution_columns(target, scoring)
    for i in range(1, n + 1):
        subs = sub_columns[query.codes[i - 1]]
        v_prev, u_prev, _, pointers = row_update(
            v_prev, u_prev, subs, scoring, np.int64(0), local=True
        )
        pointer_rows.append(pointers)
        j = int(np.argmax(v_prev))
        if v_prev[j] > best[0]:
            best = (v_prev[j], i, j)

    score, end_i, end_j = best
    if score <= 0:
        return None
    cigar, start_i, start_j = traceback(
        pointer_rows,
        [0] * n,
        target,
        query,
        end_i,
        end_j,
        pad_to_origin=False,
    )
    return Alignment(
        target_name=target.name,
        query_name=query.name,
        target_start=start_j,
        target_end=end_j,
        query_start=start_i,
        query_end=end_i,
        score=int(score),
        cigar=cigar,
    )


def best_score_reference(
    target: Sequence, query: Sequence, scoring: ScoringScheme
) -> int:
    """Maximum local alignment score (oracle, no traceback)."""
    m = len(target)
    n = len(query)
    if m == 0 or n == 0:
        return 0
    v_prev = boundary_scores(m, scoring, free=True)
    u_prev = np.full(m + 1, NEG_INF)
    best = np.int64(0)
    sub_columns = substitution_columns(target, scoring)
    for i in range(1, n + 1):
        subs = sub_columns[query.codes[i - 1]]
        v_prev, u_prev, _, _ = row_update(
            v_prev, u_prev, subs, scoring, np.int64(0), local=True
        )
        best = max(best, v_prev.max())
    return int(best)


def align_global_reference(
    target: Sequence, query: Sequence, scoring: ScoringScheme
) -> Alignment:
    """Optimal global alignment of the two full sequences (oracle)."""
    m = len(target)
    n = len(query)
    if m == 0 and n == 0:
        return Alignment(
            target_name=target.name,
            query_name=query.name,
            target_start=0,
            target_end=0,
            query_start=0,
            query_end=0,
            score=0,
            cigar=Cigar(()),
        )
    if m == 0 or n == 0:
        length = max(m, n)
        op = "I" if m == 0 else "D"
        return Alignment(
            target_name=target.name,
            query_name=query.name,
            target_start=0,
            target_end=m,
            query_start=0,
            query_end=n,
            score=-scoring.gap_cost(length),
            cigar=Cigar.from_runs([(op, length)]),
        )

    v_prev = boundary_scores(m, scoring, free=False)
    u_prev = np.full(m + 1, NEG_INF)
    pointer_rows = []
    sub_columns = substitution_columns(target, scoring)
    for i in range(1, n + 1):
        subs = sub_columns[query.codes[i - 1]]
        boundary = np.int64(-scoring.gap_cost(i))
        v_prev, u_prev, _, pointers = row_update(
            v_prev, u_prev, subs, scoring, boundary, local=False
        )
        pointer_rows.append(pointers)

    score = int(v_prev[m])
    cigar, _, _ = traceback(
        pointer_rows, [0] * n, target, query, n, m, pad_to_origin=True
    )
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


def global_score_reference(
    target: Sequence, query: Sequence, scoring: ScoringScheme
) -> int:
    """Optimal global alignment score (oracle, no traceback)."""
    m = len(target)
    n = len(query)
    if m == 0 or n == 0:
        return -scoring.gap_cost(max(m, n))
    v_prev = boundary_scores(m, scoring, free=False)
    u_prev = np.full(m + 1, NEG_INF)
    sub_columns = substitution_columns(target, scoring)
    for i in range(1, n + 1):
        subs = sub_columns[query.codes[i - 1]]
        v_prev, u_prev, _, _ = row_update(
            v_prev,
            u_prev,
            subs,
            scoring,
            np.int64(-scoring.gap_cost(i)),
            local=False,
        )
    return int(v_prev[m])
