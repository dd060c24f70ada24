"""Shared dynamic-programming machinery for the alignment kernels.

All kernels use the affine-gap recurrences of the paper (equations 1-3)::

    H(i,j) = max(V(i,j-1) - o, H(i,j-1) - e)      # gap along the target
    U(i,j) = max(V(i-1,j) - o, U(i-1,j) - e)      # gap along the query
    V(i,j) = max(H(i,j), U(i,j), V(i-1,j-1) + W(q_i, r_j))

with rows ``i`` over the query and columns ``j`` over the target.  The
paper calls ``H`` "insertion" and ``U`` "deletion"; CIGAR emission maps a
horizontal move (consuming a target base) to ``D`` and a vertical move
(consuming a query base) to ``I``, the SAM query-centric convention.

The production kernels are vectorised row sweeps (the full-matrix and
banded kernels resolve each row's in-row ``H`` chain with a prefix scan,
and X-drop is a lane-lockstep row pipeline — see the kernel modules);
the row-at-a-time originals live on as oracles in
:mod:`repro.align._reference`.  This module holds what they share:

* the pointer/flag bit encoding (mirroring the 4-bit hardware pointers:
  2 bits of direction, 2 bits of affine-gap origin), plus helpers to
  pack two such nibbles per byte (Scrooge-style packed traceback state);
* the within-row prefix-scan identity for ``H``: because ``o >= e``,
  ``H(i,j) = max_{k<j} (V'(i,k) + k*e) - o - (j-1)*e``, so one
  ``np.maximum.accumulate`` replaces the column-sequential chain;
* narrow-dtype selection: kernels run in ``int32`` when every reachable
  DP value (plus the minus-infinity sentinel's headroom) provably fits,
  falling back to ``int64`` otherwise — scores are exact either way;
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
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..genome.sequence import Sequence
from .cigar import Cigar
from .scoring import ScoringScheme

#: Effectively minus infinity for ``int64`` state, with headroom so
#: ``NEG_INF + k*e`` cannot overflow or accidentally win a maximum.
NEG_INF = np.int64(-(2**42))

#: The ``int32`` sentinel.  Chosen so that sentinel-derived garbage stays
#: strictly below every reachable real value *and* every live threshold
#: whenever :func:`kernel_dtype` selects ``int32`` (see REAL_VALUE_CAP).
NEG_INF32 = np.int32(-(2**28))

#: ``int32`` kernels are only selected while every reachable DP value and
#: X-drop threshold is provably below this bound; sentinel arithmetic
#: then stays in ``[NEG_INF32 - CAP, NEG_INF32 + CAP]`` — disjoint from
#: the real-value range, so comparisons agree with the ``int64`` oracle.
REAL_VALUE_CAP = 2**26

#: Pointer encoding (low two bits): how V was obtained.
DIR_NONE = 0  # local zero / boundary: traceback stops
DIR_DIAG = 1
DIR_HORIZ = 2  # from H: gap consuming target ('D')
DIR_VERT = 3  # from U: gap consuming query ('I')

#: Pointer flags (high bits): whether the gap state extends a prior gap.
FLAG_H_EXTEND = 4
FLAG_U_EXTEND = 8

_DIR_MASK = 3


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


def neg_inf(dtype: np.dtype) -> int:
    """The minus-infinity sentinel for a kernel dtype."""
    return int(NEG_INF32) if np.dtype(dtype) == np.int32 else int(NEG_INF)


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


# ---------------------------------------------------------------------------
# Packed-nibble traceback state (Scrooge-style)


def pack_nibbles(codes: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Pack 4-bit pointer codes two-per-byte along the last axis.

    ``codes`` is a ``uint8`` array of nibble values (< 16); ``out`` must
    have at least ``ceil(len / 2)`` slots.  Even indices land in the low
    nibble, odd indices in the high nibble.
    """
    n = codes.shape[-1]
    half = (n + 1) // 2
    view = out[..., :half]
    np.copyto(view, codes[..., 0::2])
    odd = codes[..., 1::2]
    view[..., : odd.shape[-1]] |= odd << np.uint8(4)
    return view


def nibble_at(packed: np.ndarray, index: int) -> int:
    """Read one 4-bit pointer code back out of a packed row."""
    byte = int(packed[index >> 1])
    return (byte >> ((index & 1) * 4)) & 0xF


# ---------------------------------------------------------------------------
# Full-matrix affine sweep (Smith-Waterman / Needleman-Wunsch)


def affine_sweep(
    target: Sequence,
    query: Sequence,
    scoring: ScoringScheme,
    local: bool,
    track_best: bool,
    keep_pointers: bool,
    ws: KernelWorkspace,
    matrix_out: Optional[np.ndarray] = None,
) -> Tuple[int, int, int, int, Optional[np.ndarray]]:
    """Vectorised full-matrix affine-gap sweep, exact vs the oracle.

    One batch of vector ops per DP row, in the narrowest exact dtype; the
    intra-row H dependency is resolved with the prefix-scan identity (the
    CPU analogue of a wavefront's diagonal reordering — see the module
    docstring).  Traceback state is assembled as 4-bit nibbles (2-bit
    direction + the two gap-extension flags) packed two cells per byte,
    and every tie is broken exactly as the reference ``row_update`` does:
    horizontal gap first, then vertical, then diagonal, with gap
    "extends" flags resolved in favour of extension on equality.

    Returns ``(best, best_i, best_j, final, packed)`` where ``best*``
    track the argmax-first row maxima (meaningful when ``track_best``),
    ``final`` is ``V(n, m)``, and ``packed`` is the ``(n, ceil((m+1)/2))``
    packed pointer slab (a workspace view — consume before the workspace
    is released) or ``None``.  ``matrix_out``, when given, receives every
    V row (shape ``(n+1, m+1)``, any integer dtype).
    """
    m = len(target)
    n = len(query)
    dtype = kernel_dtype(scoring, max(m, n))
    negf = neg_inf(dtype)
    o = int(scoring.gap_open)
    e = int(scoring.gap_extend)
    sub_cols = matrix_for(scoring, dtype)[:, target.codes]
    ke, oke = gap_ladders(scoring, m + 1, dtype)
    q_codes = query.codes

    v_prev = ws.array("fs_v", (m + 1,), dtype)
    u_prev = ws.array("fs_u", (m + 1,), dtype)
    a = ws.array("fs_a", (m,), dtype)  # v_prev - o, then the U row
    b = ws.array("fs_b", (m,), dtype)  # u_prev - e
    c = ws.array("fs_c", (m,), dtype)  # diagonal candidates
    g = ws.array("fs_g", (m,), dtype)  # V0 = max(U, diag)
    h = ws.array("fs_h", (m,), dtype)  # the H row
    acc = ws.array("fs_acc", (m + 1,), dtype)  # prefix-scan state
    if local:
        v_prev[:] = 0
    else:
        v_prev[:] = boundary_scores(m, scoring, free=False)
    u_prev[0] = negf
    u_prev[1:] = negf
    if matrix_out is not None:
        matrix_out[0] = v_prev

    packed: Optional[np.ndarray] = None
    if keep_pointers:
        half = (m + 2) // 2
        packed = ws.array("fs_pk", (max(n, 1), half), np.uint8)
        boolmap = np.dtype(bool)
        ue = ws.array("fs_ue", (m,), boolmap)
        fv = ws.array("fs_fv", (m,), boolmap)
        fh = ws.array("fs_fh", (m,), boolmap)
        vd = ws.array("fs_vd", (m,), boolmap)
        tv = ws.array("fs_tv", (m,), boolmap)
        tb = ws.array("fs_tb", (m,), boolmap)
        hx = ws.array("fs_hx", (m,), boolmap)
        nz = ws.array("fs_nz", (m,), boolmap)
        codes = ws.array("fs_codes", (m + 1,), np.uint8)
        t8 = ws.array("fs_t8", (m,), np.uint8)
        codes[0] = DIR_NONE
        dirs = codes[1:]

    best = 0
    best_i = 0
    best_j = 0
    for i in range(1, n + 1):
        boundary = 0 if local else -scoring.gap_cost(i)
        np.subtract(v_prev[1:], o, out=a)
        np.subtract(u_prev[1:], e, out=b)
        if keep_pointers:
            # U extends a vertical gap iff the extension side wins the
            # max (ties side with extension, as in the oracle).
            np.greater_equal(b, a, out=ue)
        np.maximum(a, b, out=a)
        np.add(v_prev[:-1], sub_cols[q_codes[i - 1]], out=c)
        if keep_pointers:
            # V0 == U (pre-clamp), i.e. the vertical candidate wins.
            np.greater_equal(a, c, out=fv)
        np.maximum(a, c, out=g)
        if local:
            np.maximum(g, 0, out=g)
        acc[0] = boundary
        np.add(g, ke[1 : m + 1], out=acc[1:])
        np.maximum.accumulate(acc, out=acc)
        np.subtract(acc[:m], oke[:m], out=h)
        if keep_pointers:
            hx[0] = False
            if m > 1:
                # H(j) == H(j-1) - e collapses to equal prefix maxima.
                np.equal(acc[1:m], acc[: m - 1], out=hx[1:])
        # All reads of the previous row are done: write V in place.
        np.maximum(g, h, out=v_prev[1:])
        v_prev[0] = boundary
        u_prev[1:] = a
        if keep_pointers:
            np.equal(v_prev[1:], h, out=fh)
            np.equal(v_prev[1:], c, out=vd)
            np.greater(fv, fh, out=tv)  # vertical, unless horizontal won
            np.bitwise_or(fh, tv, out=tb)
            np.greater(vd, tb, out=tb)  # diagonal is what's left
            fh8 = fh.view(np.uint8)
            tv8 = tv.view(np.uint8)
            td8 = tb.view(np.uint8)
            np.left_shift(fh8, 1, out=dirs)  # DIR_HORIZ
            np.add(dirs, td8, out=dirs)  # DIR_DIAG
            np.multiply(tv8, 3, out=t8)  # DIR_VERT
            np.add(dirs, t8, out=dirs)
            if local:
                np.not_equal(v_prev[1:], 0, out=nz)
                np.multiply(dirs, nz.view(np.uint8), out=dirs)
            np.left_shift(hx.view(np.uint8), 2, out=t8)  # FLAG_H_EXTEND
            np.bitwise_or(dirs, t8, out=dirs)
            np.left_shift(ue.view(np.uint8), 3, out=t8)  # FLAG_U_EXTEND
            np.bitwise_or(dirs, t8, out=dirs)
            pack_nibbles(codes, packed[i - 1])
        if matrix_out is not None:
            matrix_out[i] = v_prev
        if track_best:
            j = int(np.argmax(v_prev))
            vj = int(v_prev[j])
            if vj > best:
                best = vj
                best_i = i
                best_j = j
    return best, best_i, best_j, int(v_prev[m]), packed


def packed_traceback(
    packed: np.ndarray,
    target: Sequence,
    query: Sequence,
    start_i: int,
    start_j: int,
    pad_to_origin: bool,
) -> Tuple[Cigar, int, int]:
    """Walk packed-nibble pointer rows (same contract as the oracle walk).

    ``packed[i - 1]`` holds row ``i`` as 4-bit codes for columns 0..m.
    Returns ``(cigar, end_i, end_j)`` exactly like the reference
    ``traceback`` with zero row offsets.
    """
    ops: List[str] = []
    i, j = start_i, start_j
    state = "V"
    t_codes = target.codes
    q_codes = query.codes
    while i > 0 and j > 0:
        ptr = nibble_at(packed[i - 1], j)
        if state == "V":
            direction = ptr & _DIR_MASK
            if direction == DIR_NONE:
                break
            if direction == DIR_DIAG:
                same = (
                    t_codes[j - 1] == q_codes[i - 1] and t_codes[j - 1] < 4
                )
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
