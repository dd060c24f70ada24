"""Banded Smith-Waterman (BSW) — the gapped filtering kernel.

Darwin-WGA replaces LASTZ's ungapped filter with a banded Smith-Waterman
pass (paper section III-C): a tile of size ``T_f`` is placed with the seed
hit at its centre, scores are computed only within a band of ``B`` cells on
either side of the tile diagonal, and the tile's maximum score ``V_max``
and its position ``x_max`` are reported.  Hits with ``V_max >= H_f``
proceed to extension, anchored at ``x_max``.

Because every filter tile has the same geometry, the kernel is also
provided in *batched* form: ``K`` tiles are stacked and each DP row is one
vectorised update over a ``(K, band_width)`` slab.  This mirrors how the
hardware processes many independent tiles across its 50-64 BSW arrays and
is what makes genome-scale runs feasible in Python.

The batched sweep runs in the narrowest exact dtype of a three-tier
ladder of 16-, 32- and 64-bit integers
(:func:`repro.align._dp.banded_local_dtype`).  The 16-bit tier is taken
whenever the tile provably fits: no cell exceeds ``min(n, m) * W+``
(32,000 for the paper's ``T_f = 320`` under the LASTZ matrix), no gap
state falls below ``-(o + 2B*e)``, and the in-row prefix scan is
biased by ``-(width - 1) * e`` so that ``V + c*e`` never climbs past the
tile's top score.  The bias cancels when H is read back, so it applies
on every tier and there is one sweep.  Halving the word halves the bytes
each row op streams; a 2048-tile slab of the paper's filter tiles runs
about 1.45x faster than in 32 bits.  The sweep also uses a transposed
``(width, K)`` layout: every elementwise row op then streams contiguous
``K``-wide vectors (SIMD-friendly) instead of strided ``width``-slices of
``(K, width)`` slabs, the within-row H prefix scan becomes a log-step
shifted-maximum ladder over full lanes, and the per-row best is tracked
with a cheap lane-wise ``max`` plus a first-index recovery that runs only
on rows where some tile actually improves.  The original row kernel is
preserved as ``bsw_batch_reference`` in :mod:`repro.align._reference`
and fuzzed against this one by ``tests/align/test_differential.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..genome.sequence import Sequence
from . import _dp
from .scoring import ScoringScheme


@dataclass(frozen=True)
class BswResult:
    """Outcome of one banded-Smith-Waterman filter tile.

    ``max_i``/``max_j`` are 1-based row/column indices of ``x_max`` within
    the tile (0 when the tile scored nowhere above zero); ``cells`` is the
    number of DP cells evaluated, which the hardware model converts into
    cycles.
    """

    score: int
    max_i: int
    max_j: int
    cells: int


def band_cells(rows: int, cols: int, band: int) -> int:
    """Number of in-band cells of a ``rows x cols`` tile with band ``B``."""
    total = 0
    for i in range(1, rows + 1):
        lo = max(1, i - band)
        hi = min(cols, i + band)
        if hi >= lo:
            total += hi - lo + 1
    return total


def bsw_batch(
    target_tiles: np.ndarray,
    query_tiles: np.ndarray,
    scoring: ScoringScheme,
    band: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run banded Smith-Waterman over a stack of equally sized tiles.

    Args:
        target_tiles: ``(K, m)`` uint8 code array (pad with N at edges).
        query_tiles: ``(K, n)`` uint8 code array.
        scoring: substitution matrix and affine gap penalties.
        band: band half-width ``B``; cells with ``|i - j| > band`` are
            never computed.

    Returns:
        ``(scores, max_i, max_j)`` arrays of length ``K``.  Positions are
        1-based within the tile; tiles whose best score is 0 report
        position ``(0, 0)``.
    """
    if target_tiles.ndim != 2 or query_tiles.ndim != 2:
        raise ValueError("tile stacks must be 2-D (K, length)")
    if target_tiles.shape[0] != query_tiles.shape[0]:
        raise ValueError("target and query stacks disagree on tile count")
    if band < 0:
        raise ValueError("band must be non-negative")
    k, m = target_tiles.shape
    n = query_tiles.shape[1]
    dtype = _dp.banded_local_dtype(scoring, n, m, band)
    negf = _dp.neg_inf(dtype)
    o = int(scoring.gap_open)
    e = int(scoring.gap_extend)
    matrix = _dp.matrix_for(scoring, dtype)
    alphabet = matrix.shape[0]
    width_cap = min(m, 2 * band + 1)
    # The scan's gap ladders, both biased by -(width_cap - 1) * e so
    # that ``V + c*e`` never climbs past the tile's top score (the
    # 16-bit tier depends on it); the bias cancels in ``acc - okec``.
    ladder = np.arange(width_cap, dtype=np.int64) * e - (width_cap - 1) * e
    kec = ladder.astype(dtype)[:, np.newaxis]
    okec = (ladder + o).astype(dtype)[:, np.newaxis]

    # Substitution planes, column-major: planes[j, b, :] is
    # W[b, target[:, j]].  Each DP row then gathers its (width, K) slab
    # with one fancy index whose leading axis is a plain slice.
    target_cols = np.ascontiguousarray(target_tiles.T)
    planes = np.empty((m, alphabet, k), dtype=dtype)
    for base in range(alphabet):
        np.take(matrix[base], target_cols, out=planes[:, base, :])
    query_cols = query_tiles.T.astype(np.intp)
    lanes = np.arange(k)

    ws = _dp.acquire_workspace()
    try:
        v_prev = ws.array("bsw_v", (m + 1, k), dtype)
        u_prev = ws.array("bsw_u", (m + 1, k), dtype)
        ua = ws.array("bsw_ua", (width_cap, k), dtype)
        ub = ws.array("bsw_ub", (width_cap, k), dtype)
        v0 = ws.array("bsw_v0", (width_cap, k), dtype)
        hh = ws.array("bsw_h", (width_cap, k), dtype)
        acc = ws.array("bsw_acc", (width_cap, k), dtype)
        scan = ws.array("bsw_scan", (width_cap, k), dtype)
        rowmax = ws.array("bsw_rowmax", (k,), dtype)
        improved = ws.array("bsw_imp", (k,), np.dtype(bool))
        atmax = ws.array("bsw_atmax", (width_cap, k), np.dtype(bool))
        jbuf = ws.array("bsw_jbuf", (k,), np.dtype(np.int64))
        v_prev[:] = 0
        u_prev[:] = negf
        best = np.zeros(k, dtype=dtype)
        best_i = np.zeros(k, dtype=np.int64)
        best_j = np.zeros(k, dtype=np.int64)

        for i in range(1, n + 1):
            lo = max(1, i - band)
            hi = min(m, i + band)
            if hi < lo:
                continue
            w = hi - lo + 1
            subs = planes[lo - 1 : hi, query_cols[i - 1], lanes]

            np.subtract(v_prev[lo : hi + 1], o, out=ua[:w])
            np.subtract(u_prev[lo : hi + 1], e, out=ub[:w])
            np.maximum(ua[:w], ub[:w], out=ua[:w])
            np.add(v_prev[lo - 1 : hi], subs, out=subs)
            np.maximum(ua[:w], subs, out=v0[:w])
            np.maximum(v0[:w], 0, out=v0[:w])

            # H via a prefix max over the row window (a zero boundary on
            # the left models the local-alignment restart outside the
            # band), computed as a log-step shifted-maximum ladder: a
            # max-scan is idempotent, so each doubling pass may read
            # already-updated entries without changing the result.
            np.add(v0[:w], kec[:w], out=acc[:w])
            shift = 1
            while shift < w:
                np.maximum(
                    acc[shift:w], acc[: w - shift], out=scan[: w - shift]
                )
                acc[shift:w] = scan[: w - shift]
                shift *= 2
            hh[0] = negf
            np.subtract(acc[: w - 1], okec[: w - 1], out=hh[1:w])
            np.maximum(v0[:w], hh[:w], out=v0[:w])

            v_prev[lo : hi + 1] = v0[:w]
            u_prev[lo : hi + 1] = ua[:w]

            # Track the batch-wide best lazily: a lane-wise max is cheap;
            # the first-index recovery (the oracle's argmax tie rule)
            # runs only when some tile actually improved this row.
            np.max(v0[:w], axis=0, out=rowmax)
            np.greater(rowmax, best, out=improved)
            hits = np.flatnonzero(improved)
            if hits.size:
                if hits.size * 4 < k:
                    # Few improving tiles: recover first-max indices on
                    # just their columns.
                    sub = v0[:w, hits]
                    first = np.argmax(sub == rowmax[hits], axis=0)
                    best[hits] = rowmax[hits]
                    best_i[hits] = i
                    best_j[hits] = first + lo
                else:
                    np.equal(v0[:w], rowmax, out=atmax[:w])
                    first = np.argmax(atmax[:w], axis=0)
                    np.copyto(best, rowmax, where=improved)
                    np.copyto(best_i, i, where=improved)
                    np.add(first, lo, out=jbuf)
                    np.copyto(best_j, jbuf, where=improved)
    finally:
        _dp.release_workspace(ws)
    return best.astype(np.int64), best_i, best_j


def bsw_tile(
    target: Sequence,
    query: Sequence,
    scoring: ScoringScheme,
    band: int,
) -> BswResult:
    """Banded Smith-Waterman over a single tile."""
    if len(target) == 0 or len(query) == 0:
        return BswResult(score=0, max_i=0, max_j=0, cells=0)
    scores, max_i, max_j = bsw_batch(
        target.codes[np.newaxis, :],
        query.codes[np.newaxis, :],
        scoring,
        band,
    )
    return BswResult(
        score=int(scores[0]),
        max_i=int(max_i[0]),
        max_j=int(max_j[0]),
        cells=band_cells(len(query), len(target), band),
    )
