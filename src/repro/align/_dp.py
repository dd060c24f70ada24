"""Shared dynamic-programming machinery for the alignment kernels.

All kernels use the affine-gap recurrences of the paper (equations 1-3)::

    H(i,j) = max(V(i,j-1) - o, H(i,j-1) - e)      # gap along the target
    U(i,j) = max(V(i-1,j) - o, U(i-1,j) - e)      # gap along the query
    V(i,j) = max(H(i,j), U(i,j), V(i-1,j-1) + W(q_i, r_j))

with rows ``i`` over the query and columns ``j`` over the target.  The
paper calls ``H`` "insertion" and ``U`` "deletion"; CIGAR emission maps a
horizontal move (consuming a target base) to ``D`` and a vertical move
(consuming a query base) to ``I``, the SAM query-centric convention.

The production kernels are two vectorised row sweeps: the lane engine
of :mod:`repro.align.xdrop`, which runs X-drop, Smith-Waterman and
Needleman-Wunsch tiles and keeps their 4-bit traceback flags, and the
banded batch of :mod:`repro.align.banded_sw`, which keeps none.  Both
resolve each row's in-row ``H`` chain with a prefix scan; the
row-at-a-time originals live on as oracles in
:mod:`repro.align._reference`.  This module holds no DP loop and no
traceback state, only what the sweeps share:

* the within-row prefix-scan identity for ``H``: because ``o >= e``,
  ``H(i,j) = max_{k<j} (V'(i,k) + k*e) - o - (j-1)*e``, so one
  ``np.maximum.accumulate`` replaces the column-sequential chain;
* narrow-dtype selection, a ladder of exact tiers: kernels run in
  ``int32`` when every reachable DP value (plus the minus-infinity
  sentinel's headroom) provably fits, falling back to ``int64``
  otherwise; the banded local kernel alone has a 16-bit tier below
  both (:func:`banded_local_dtype`), taken when its tile's score range,
  gap floor and sentinel all fit — the paper's 320 bp filter tile with
  band 32 under the LASTZ matrix tops out at 32,000.  For that tier the
  banded kernel biases its prefix-scan input by ``-(width - 1) * e``
  (and its unbias ladder by the same), so ``V + c*e`` never exceeds the
  tile's top score; the bias cancels, so it runs on every tier.  Scores
  are exact on every tier;
* grow-only scratch workspaces so hot kernels never touch fresh pages
  (first-touch page faults dominate fresh-slab allocation costs).  A
  slab is never released, so what a kernel asks for is what the process
  keeps: slabs are row buffers, rings of a fixed number of rows and
  packed pointer stores — nothing sized rows x columns of a tile in a
  score dtype (X-drop's six such matrices were 89 MB of a 133 MB
  ``repro align``).
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import numpy as np

from .scoring import ScoringScheme

#: Effectively minus infinity for ``int64`` state, with headroom so
#: ``NEG_INF + k*e`` cannot overflow or accidentally win a maximum.
NEG_INF = np.int64(-(2**42))

#: The ``int32`` sentinel.  Chosen so that sentinel-derived garbage stays
#: strictly below every reachable real value *and* every live threshold
#: whenever :func:`kernel_dtype` selects ``int32`` (see REAL_VALUE_CAP).
NEG_INF32 = np.int32(-(2**28))

#: The 16-bit sentinel: below every real value of a banded local tile
#: that :func:`banded_local_dtype` admits, with room for one ``- e``.
NEG_INF16 = -(2**14)

#: ``int32`` kernels are only selected while every reachable DP value and
#: X-drop threshold is provably below this bound; sentinel arithmetic
#: then stays in ``[NEG_INF32 - CAP, NEG_INF32 + CAP]`` — disjoint from
#: the real-value range, so comparisons agree with the ``int64`` oracle.
REAL_VALUE_CAP = 2**26


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


# ---------------------------------------------------------------------------
# Narrow-dtype selection


def scoring_peak(scoring: ScoringScheme) -> int:
    """Largest per-step score magnitude under ``scoring``."""
    return int(
        max(
            np.abs(scoring.matrix64).max(),
            scoring.gap_open + scoring.gap_extend,
            1,
        )
    )


def kernel_dtype(
    scoring: ScoringScheme, max_len: int, slack: int = 0
) -> np.dtype:
    """The narrowest exact dtype for a DP over tiles up to ``max_len``.

    ``slack`` covers kernel-specific extra headroom (the X-drop ``Y``
    enters live-threshold comparisons).  ``int32`` is returned only when
    every reachable value — bounded by ``(rows + cols + 4) * peak`` — and
    threshold stays under :data:`REAL_VALUE_CAP`, which keeps
    sentinel-derived garbage values in a range disjoint from real ones;
    all comparisons then agree bit-for-bit with ``int64`` arithmetic.
    """
    bound = (2 * max_len + 4) * scoring_peak(scoring) + slack
    return np.dtype(np.int32) if bound < REAL_VALUE_CAP else np.dtype(
        np.int64
    )


def banded_local_dtype(
    scoring: ScoringScheme, rows: int, cols: int, band: int
) -> np.dtype:
    """The narrowest exact dtype for a banded local sweep.

    Below :func:`kernel_dtype`'s tiers sits a 16-bit one, exact when
    every value the sweep can hold fits (``W+``/``W-`` are the largest
    and smallest matrix entries):

    * ``V`` lies in ``[0, min(rows, cols) * W+]``; the diagonal
      candidate ``V(i-1, j-1) + W`` obeys the same upper bound and is
      at least ``W-``;
    * ``U`` and ``H`` are at least ``-(o + 2B*e)``;
    * the in-row prefix scan is biased by ``-(width - 1) * e`` with
      ``width <= 2B + 1``, so it stays in ``[-2B*e, V+]``;
    * the sentinel :data:`NEG_INF16` sits below every real value and
      keeps headroom for one ``- e`` (``e <= o`` is below it too).

    Otherwise the tile falls back to :func:`kernel_dtype`.
    """
    matrix = scoring.matrix64
    o = int(scoring.gap_open)
    e = int(scoring.gap_extend)
    top = min(rows, cols) * max(int(matrix.max()), 0)
    floor = max(o + 2 * band * e, -int(matrix.min()))
    if top <= 2**15 - 1 and floor < -NEG_INF16:
        # repro: allow[KER001] 0 <= V <= top < 2**15, U/H/scan >= -floor > NEG_INF16
        return np.dtype(np.int16)
    return kernel_dtype(scoring, max(rows, cols))


def neg_inf(dtype: np.dtype) -> int:
    """The minus-infinity sentinel for a kernel dtype."""
    return {2: NEG_INF16, 4: int(NEG_INF32)}.get(
        np.dtype(dtype).itemsize, int(NEG_INF)
    )


_MATRIX_CACHE: Dict[Tuple[int, str], Tuple[ScoringScheme, np.ndarray]] = {}


def matrix_for(scoring: ScoringScheme, dtype: np.dtype) -> np.ndarray:
    """The substitution matrix cast to the kernel dtype (memoised).

    The cache also pins the scoring object so a recycled ``id()`` can
    never alias a different scheme.
    """
    key = (id(scoring), np.dtype(dtype).str)
    hit = _MATRIX_CACHE.get(key)
    if hit is not None and hit[0] is scoring:
        return hit[1]
    matrix = scoring.matrix64.astype(dtype)
    matrix.setflags(write=False)
    if len(_MATRIX_CACHE) > 16:
        _MATRIX_CACHE.clear()
    _MATRIX_CACHE[key] = (scoring, matrix)
    return matrix


_LADDER_CACHE: Dict[Tuple[int, int, str], Tuple[np.ndarray, np.ndarray]] = {}


def gap_ladders(
    scoring: ScoringScheme, length: int, dtype: np.dtype
) -> Tuple[np.ndarray, np.ndarray]:
    """Read-only ``(ke, oke)`` ladders of at least ``length + 1`` slots.

    ``ke[c] = c * e`` biases the prefix-scan input; ``oke[c] = o + c * e``
    unbiases the resulting H row (``H(slot s) = running[s-1] - oke[s-1]``).
    Grow-only and shared across calls, keyed by the gap penalties.
    """
    key = (scoring.gap_open, scoring.gap_extend, np.dtype(dtype).str)
    hit = _LADDER_CACHE.get(key)
    if hit is not None and hit[0].size >= length + 1:
        return hit
    size = max(length + 1, 2048)
    c = np.arange(size, dtype=dtype)
    ke = c * dtype.type(scoring.gap_extend)
    oke = ke + dtype.type(scoring.gap_open)
    ke.setflags(write=False)
    oke.setflags(write=False)
    _LADDER_CACHE[key] = (ke, oke)
    return ke, oke


# ---------------------------------------------------------------------------
# Grow-only workspaces


class KernelWorkspace:
    """A bundle of named, grow-only scratch arrays.

    Hot kernels must not allocate fresh multi-megabyte slabs per call:
    on this container class of machine the first touch of every new page
    costs more than the arithmetic on it.  A workspace hands out views
    of persistent slabs that only ever grow, so steady-state kernel
    calls run entirely on already-mapped memory.
    """

    def __init__(self) -> None:
        self._slabs: Dict[Tuple[str, str], np.ndarray] = {}

    def array(
        self, name: str, shape: Tuple[int, ...], dtype: np.dtype
    ) -> np.ndarray:
        """An uninitialised, C-contiguous ``shape`` view of the named slab.

        Slabs are flat, so a request smaller than the slab is a prefix
        of it, never a strided corner: a ``(w, K)`` corner of a wider
        slab ran ``bsw_batch`` 1.6x slower, because numpy walks a
        strided view row by row instead of as one contiguous loop.
        """
        key = (name, np.dtype(dtype).str)
        size = math.prod(shape)
        slab = self._slabs.get(key)
        if slab is None or slab.size < size:
            slab = np.empty(max(size, 1), dtype=dtype)
            self._slabs[key] = slab
        return slab[:size].reshape(shape)


_WORKSPACES: List[KernelWorkspace] = []


def acquire_workspace() -> KernelWorkspace:
    """Borrow a workspace from the module pool (reentrancy-safe)."""
    if _WORKSPACES:
        return _WORKSPACES.pop()
    return KernelWorkspace()


def release_workspace(workspace: KernelWorkspace) -> None:
    """Return a borrowed workspace so later calls reuse its pages."""
    if len(_WORKSPACES) < 8:
        _WORKSPACES.append(workspace)
