"""One tile engine for X-drop (GACT-X), Smith-Waterman and Needleman-Wunsch.

One affine-gap row pipeline (paper equations 1-3) with one 4-bit-per-cell
traceback store (GACT-X, paper section III-D and Fig. 10) serves three
kernels, which differ only in the two parameters of the oracle
(``row_update(local)`` and the traceback's start cell in
:mod:`repro.align._reference`) and in whether rows are pruned:

* **X-drop extension** (:func:`xdrop_extend`, :class:`TileEngine`):
  Needleman-Wunsch scoring (values may go negative), anchored at the
  tile origin: the path starts at cell (0, 0), with any leading gaps
  charged against the origin boundary, and ends wherever the maximum
  score ``V_max`` is found.  Rows are pruned with the X-drop rule: a
  cell stays *live* while its score is at least ``V_max - Y``; each row
  is computed from the first live column of the previous row to just
  past its last live column plus the maximal reach of a surviving
  horizontal gap run (``Y // gap_extend``).  The per-row
  ``(j_start, j_stop)`` windows are recorded: they are exactly what the
  hardware's stripe sequencer computes, so the cycle model in
  :mod:`repro.hw.gactx_array` replays them instead of re-running the DP.
* **Smith-Waterman** (:mod:`repro.align.smith_waterman`): no ``Y``, so
  every row spans the whole tile; a zero boundary row and column, ``V``
  clamped at zero before the prefix scan, and the walk starts at the
  best cell and stops where ``V == 0``, without padding.
* **Needleman-Wunsch** (:mod:`repro.align.needleman_wunsch`): no ``Y``
  and no clamp; the walk starts at the corner ``(n, m)``, whose ``V`` is
  the score, and pads to the origin.

Implementation notes (the row-at-a-time originals are preserved as the
oracles in :mod:`repro.align._reference`):

* Because each X-drop row's window depends on the previous row's live
  set, the recurrence is row-sequential by construction; the speed comes
  from a *one-tile row sweep* instead of an anti-diagonal sweep.  Each
  DP row is a fixed sequence of vector ops over its window, in the
  narrowest exact dtype (:func:`repro.align._dp.kernel_dtype`), that
  reads the previous row straight from the row rings and writes the
  current row straight into them (``out=``); nothing is gathered into
  or copied out of a batch buffer.  ``H`` uses the prefix-scan identity
  from :mod:`repro.align._dp`.  Batching the two extension directions
  of a GACT-X anchor as lanes of one ``(L, W)`` slab costs more in
  per-lane gathers and copy-backs than it saves in calls
  (EXPERIMENTS.md, "One tile at a time").
* The row stores are *shifted*: ``v_store`` holds ``V - o``,
  ``u_store`` holds ``U - e`` and ``h_store`` holds ``H - o``, so the
  next row's gap candidate ``U(i,j) = max(V(i-1,j)-o, U(i-1,j)-e)`` is
  a single elementwise ``max`` of two stored rows — no subtractions in
  the hot loop — and the gap ``o``/``e`` charges are paid once, inside
  the store writes the recurrence needs anyway (``H - o`` comes straight
  out of the prefix scan's unbias ladder).  The diagonal term
  compensates with a ``+o``-baked substitution matrix:
  ``(V-o) + (W+o) = V + W``.
* Traceback state is four bits per cell of the computed window, as in
  the hardware, written a block of ``_BLOCK`` rows at a time.  The
  forward pass keeps only ``(_BLOCK + 1)``-row *rings* of ``V - o``,
  ``U - e`` and ``H - o`` (slot 0 carries the previous block's last
  row); a score-only run keeps no ``H`` ring, only one scratch row.
  When a block fills, or the tile finishes, ``_flush`` derives
  the flags for all of its rows in one bulk pass over the union of
  their windows — ``H == V`` (horizontal move; the tie priority puts it
  first), ``V == U`` (vertical move), ``H(i,j) == H(i,j-1) - e`` (the H
  run extends; equal to the prefix-scan test
  ``running[j-1] == running[j-2]``) and ``U(i-1,j) - e >= V(i-1,j) - o``
  (the U run extends; ties side with extension, as in the oracle), plus
  a fifth *zero plane* ``V == 0`` in local mode (where a local path
  starts) — and appends them, bit-packed, to one flat ``uint8`` store
  per tile.  ``_walk`` is then the reference pointer walk over those
  bits.  Deriving the flags per row inside the sweep instead reaches
  the same memory but adds 14 numpy calls to every row; deferred to
  the block they cost 4 compares and 2 integer ops per 64 rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..genome.sequence import Sequence
from . import _dp
from .cigar import Cigar
from .scoring import ScoringScheme

#: Rows per traceback block: the V/U/H rings hold this many rows (plus
#: the carried one) between two bulk pointer derivations.
_BLOCK = 64

#: Spare ring columns past the tile, so a block's flag rectangle can be
#: widened to a whole number of bytes without leaving the ring.
_BYTE_PAD = 7


@dataclass(frozen=True)
class XDropExtension:
    """Result of one X-drop tile extension.

    ``max_i``/``max_j`` locate ``V_max`` (1-based; 0,0 when nothing scored
    above zero).  ``cigar`` spans from the tile origin to the maximum and
    is ``None`` when traceback was not requested.  ``row_windows`` holds
    the inclusive computed column range per row; ``cells`` is their total
    size (the traceback-memory and cycle cost unit).  ``traceback_bytes``
    is what the kernel actually wrote as packed pointer state.
    :func:`full_tile` returns one too, for a whole Smith-Waterman or
    Needleman-Wunsch tile.
    """

    score: int
    max_i: int
    max_j: int
    cigar: Optional[Cigar]
    cells: int
    row_windows: Tuple[Tuple[int, int], ...]
    traceback_bytes: int = 0

    @property
    def rows_computed(self) -> int:
        return len(self.row_windows)


def _empty_extension(with_traceback: bool) -> XDropExtension:
    return XDropExtension(
        score=0,
        max_i=0,
        max_j=0,
        cigar=Cigar(()) if with_traceback else None,
        cells=0,
        row_windows=(),
    )


class TileEngine:
    """Sweeps tiles, one at a time, through the affine-gap row pipeline.

    One engine holds one workspace: the row rings, the pointer store and
    the row scratch are reused by every tile it extends, so a GACT-X
    direction's tile chain (:func:`repro.core.gact_x.gact_x_extend`)
    calls :meth:`extend` once per tile on the same memory.  Tiles
    longer than ``max_tile_len`` are rejected (the dtype and the
    scratch are sized from it).

    ``ydrop=None`` computes every row over the whole tile, with no
    threshold, live set or window update; ``local`` is the oracle's
    Smith-Waterman switch (zero boundaries, ``V`` clamped at zero, a
    walk that stops at a zero).  With neither, the tile is
    Needleman-Wunsch: the score is ``V(n, m)`` and the walk starts
    there.
    """

    def __init__(
        self,
        scoring: ScoringScheme,
        ydrop: Optional[int],
        max_tile_len: int,
        with_traceback: bool = True,
        local: bool = False,
    ) -> None:
        if ydrop is not None and ydrop < 0:
            raise ValueError("ydrop must be non-negative")
        self.scoring = scoring
        self.ydrop = ydrop
        self.with_traceback = with_traceback
        self.prune = ydrop is not None
        self.local = local
        self.corner = not (self.prune or local)
        slack = ydrop if self.prune else 0
        self.gap_slack = slack // max(1, scoring.gap_extend) + 1
        self.planes = 5 if local else 4
        self.dtype = _dp.kernel_dtype(scoring, max_tile_len, slack=slack)
        self.negf = _dp.neg_inf(self.dtype)
        self.o = int(scoring.gap_open)
        self.e = int(scoring.gap_extend)
        # +o baked in: diagonal candidates read shifted V rows (V - o),
        # so (V - o) + (W + o) restores the true V + W.
        matrix = _dp.matrix_for(scoring, self.dtype)
        self.matrix_o = matrix + self.dtype.type(self.o)
        self.ke, oke = _dp.gap_ladders(
            scoring, max_tile_len + 2, self.dtype
        )
        # The scan's unbias ladder shifted by one more o: it yields the
        # stored H - o directly.
        self.oke_o = oke[: max_tile_len + 2] + self.dtype.type(self.o)
        self.max_tile_len = max_tile_len
        self.ws = ws = _dp.acquire_workspace()
        wc = max_tile_len + 2
        self.dg = ws.array("dg", (wc,), self.dtype)
        self.acc = ws.array("acc", (wc,), self.dtype)
        self.live = ws.array("live", (wc,), np.dtype(bool))
        if with_traceback:
            # One block's flag planes and integer scratch.
            wide = wc + _BYTE_PAD
            self.flags = ws.array(
                "flags", (self.planes * _BLOCK * wide,), np.dtype(bool)
            )
            self.diff = ws.array(
                "diff", ((_BLOCK + 1) * wide,), self.dtype
            )
        else:
            self.h_row = ws.array("h", (wc,), self.dtype)

    def close(self) -> None:
        _dp.release_workspace(self.ws)

    def __enter__(self) -> "TileEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def extend(
        self,
        target: Sequence,
        query: Sequence,
        rows_out: Optional[np.ndarray] = None,
    ) -> XDropExtension:
        """Sweep one ``target x query`` tile from its origin.

        ``rows_out``, when set, receives every ``V`` row of the tile.
        """
        m = len(target)
        n = len(query)
        if max(m, n) > self.max_tile_len:
            raise ValueError(
                f"tile of {max(m, n)} bp exceeds max_tile_len "
                f"{self.max_tile_len}"
            )
        if m == 0 or n == 0:
            return _empty_extension(self.with_traceback)
        ws = self.ws
        dtype = self.dtype
        ring = (_BLOCK + 1, m + 2 + _BYTE_PAD)
        self.v_store = v_store = ws.array("xv", ring, dtype)
        self.u_store = u_store = ws.array("xu", ring, dtype)
        with_traceback = self.with_traceback
        if with_traceback:
            self.h_store = h_store = ws.array("xh", ring, dtype)
            # Worst case: every row's block spans all m columns.
            self.pointers = ws.array(
                "xp", (n * self.planes * ((m + 7) // 8),), np.uint8
            )
            h_rows = list(h_store)
        else:
            # Score-only: every slot is the one scratch H row.
            h_rows = [self.h_row] * (_BLOCK + 1)
        negf = self.negf
        o = self.o
        e = self.e
        ydrop = self.ydrop
        gap_slack = self.gap_slack
        prune = self.prune
        local = self.local
        track_best = not self.corner
        ke = self.ke
        oke_o = self.oke_o
        dg_buf = self.dg
        acc_buf = self.acc
        live_buf = self.live
        sub_rows = list(self.matrix_o[:, target.codes])
        q_codes = query.codes.tolist()
        # Ring rows as 1-D views: a row step slices them and never
        # indexes a 2-D ring.
        v_rows = list(v_store)
        u_rows = list(u_store)

        boundary = _dp.boundary_scores(m, self.scoring, free=local)
        v_store[0, : m + 1] = boundary - o
        u_store[0, : m + 1] = negf
        lo = 1
        hi = m
        if prune:
            # Row 0 live set under the initial V_max = 0.
            live = np.flatnonzero(boundary >= -ydrop)
            last0 = int(live[-1]) if live.size else 0
            hi = min(m, last0 + 1 + gap_slack)
        best = best_i = best_j = 0
        windows: List[Tuple[int, int]] = []
        cells = 0
        blocks: List[Tuple[int, int, int, int]] = []
        pointer_bytes = 0
        stored = 0
        for row in range(1, n + 1):
            # Row ``i`` lives in ring slot ``(i - 1) % _BLOCK + 1``, its
            # predecessor one below.  Windows are absolute column
            # slices, so every op is a contiguous 1-D one.
            prev = (row - 1) % _BLOCK
            slot = prev + 1
            w = hi - lo + 1
            v_prev = v_rows[prev]
            v_cur = v_rows[slot]
            u_cur = u_rows[slot]
            v_row = v_cur[lo : hi + 1]
            u_row = u_cur[lo : hi + 1]
            h_row = h_rows[slot][lo : hi + 1]
            dg = dg_buf[:w]
            acc = acc_buf[:w]
            # The stores hold V - o and U - e: U is one max of two
            # stored rows, and V before the H term is its max with the
            # +o-baked diagonal.
            np.maximum(
                v_prev[lo : hi + 1], u_rows[prev][lo : hi + 1], out=u_row
            )
            np.add(
                v_prev[lo - 1 : hi],
                sub_rows[q_codes[row - 1]][lo - 1 : hi],
                out=dg,
            )
            np.maximum(dg, u_row, out=dg)
            np.subtract(u_row, e, out=u_row)
            if local:
                np.maximum(dg, 0, out=dg)
            if lo > 1:
                left = negf
            elif local:
                left = 0
            else:
                left = -(o + (row - 1) * e)
            acc[0] = left
            np.add(dg[: w - 1], ke[1:w], out=acc[1:])
            np.maximum.accumulate(acc, out=acc)
            np.subtract(acc, oke_o[:w], out=h_row)
            np.subtract(dg, o, out=v_row)
            np.maximum(v_row, h_row, out=v_row)
            windows.append((lo, hi))
            cells += w
            if track_best:
                j = int(v_row.argmax())
                row_max = int(v_row[j]) + o
                if row_max > best:
                    best = row_max
                    best_i = row
                    best_j = lo + j
                if prune and row_max < best - ydrop:
                    # A row whose maximum misses the threshold has no
                    # live cell: the extension dies there.  The row
                    # still counts (window + cells) but is not stored,
                    # exactly like the reference's early break.
                    break
            v_cur[lo - 1] = left - o
            if rows_out is not None:
                np.add(v_row, o, out=rows_out[row, lo : hi + 1])
            stored = row
            if row == n:
                break
            if prune:
                live = live_buf[:w]
                np.greater_equal(v_row, best - ydrop - o, out=live)
                next_lo = lo + int(live.argmax())
                next_hi = min(
                    m, lo + w - int(live[::-1].argmax()) + gap_slack
                )
                if next_hi < next_lo:
                    break
                if next_hi > hi:
                    # The next row reads past this row's written window
                    # where the reference sees NEG_INF; seed that margin.
                    v_cur[hi + 1 : next_hi + 1] = negf
                    u_cur[hi + 1 : next_hi + 1] = negf
                lo = next_lo
                hi = next_hi
            if slot == _BLOCK:
                # Block full: pack its pointers, then carry this row
                # into slot 0 as the next block's predecessor.
                if with_traceback:
                    pointer_bytes = self._flush(
                        windows, blocks, _BLOCK, pointer_bytes
                    )
                v_store[0] = v_store[_BLOCK]
                u_store[0] = u_store[_BLOCK]

        if self.corner:
            # Needleman-Wunsch: the score is V(n, m), read back from the
            # ring, and the walk starts there.
            best = int(v_store[(n - 1) % _BLOCK + 1, m]) + o
            best_i = n
            best_j = m
        cigar: Optional[Cigar] = None
        if with_traceback:
            unpacked = stored - len(blocks) * _BLOCK
            if unpacked:
                pointer_bytes = self._flush(
                    windows, blocks, unpacked, pointer_bytes
                )
            # best_i stays 0 until a row beats the initial V_max = 0.
            cigar = (
                self._walk(target, q_codes, windows, blocks, best_i, best_j)
                if best_i
                else Cigar(())
            )
        return XDropExtension(
            score=best,
            max_i=best_i,
            max_j=best_j,
            cigar=cigar,
            cells=cells,
            row_windows=tuple(windows),
            traceback_bytes=pointer_bytes,
        )

    # -- traceback --------------------------------------------------------

    def _flush(
        self,
        windows: List[Tuple[int, int]],
        blocks: List[Tuple[int, int, int, int]],
        k: int,
        start: int,
    ) -> int:
        """Pack the traceback flags of block ``len(blocks)``'s ``k`` rows.

        They sit in ring slots ``1..k``.  Each flag (see the module
        docstring) is one compare over the ``k x width`` rectangle
        spanning the union of the rows' windows, widened to whole bytes;
        cells of the rectangle outside a row's own window hold stale
        values and yield bits the walk never reads.  With
        ``D = (U - e) - (V - o)`` per stored row, "V == U" is
        ``D == o - e`` and "U extends" is ``D >= 0`` one row up, so both
        cost one subtraction.  The block is written to the pointer store
        at byte ``start`` as four bit-planes of ``k`` rows (five in local
        mode: ``V == 0`` is ``V - o == -o``), located by the
        ``(offset, first column, row bytes, plane bytes)`` appended to
        ``blocks``; the next free byte is returned.
        """
        first = len(blocks) * _BLOCK
        lo = windows[first][0]  # windows never move left
        hi = max([window[1] for window in windows[first : first + k]])
        row_bytes = (hi - lo + 8) // 8
        width = row_bytes * 8
        stop = lo + width  # at most _BYTE_PAD columns past the tile
        vs = self.v_store
        hs = self.h_store
        h = hs[1 : k + 1, lo:stop]
        planes = self.planes
        flags = self.flags[: planes * k * width].reshape(planes, k, width)
        diff = self.diff[: (k + 1) * width].reshape(k + 1, width)
        np.equal(h, vs[1 : k + 1, lo:stop], out=flags[0])
        np.subtract(
            self.u_store[: k + 1, lo:stop], vs[: k + 1, lo:stop], out=diff
        )
        np.equal(diff[1:], self.o - self.e, out=flags[1])
        np.greater_equal(diff[:k], 0, out=flags[3])
        np.subtract(h, hs[1 : k + 1, lo - 1 : stop - 1], out=diff[:k])
        np.equal(diff[:k], -self.e, out=flags[2])
        if self.local:
            np.equal(vs[1 : k + 1, lo:stop], -self.o, out=flags[4])
        bits = np.packbits(flags.reshape(-1), bitorder="little")
        self.pointers[start : start + bits.size] = bits
        blocks.append((start, lo, row_bytes, k * row_bytes))
        return start + bits.size

    def _walk(
        self,
        target: Sequence,
        q_codes: List[int],
        windows: List[Tuple[int, int]],
        blocks: List[Tuple[int, int, int, int]],
        i: int,
        j: int,
    ) -> Cigar:
        """The reference pointer walk over the packed flag planes.

        Starts at cell ``(i, j)``.  A cell outside its row's window
        reads as ``DIR_NONE`` with no flags, as in the oracle: the walk
        stops there in state V, and a gap run ends there.  The H-extend
        flag of a window's first column is never set (the oracle has no
        ``H(i, lo - 1)``).  In local mode the walk also stops, in state
        V, on the zero plane, and it does not pad.
        """
        local = self.local
        bits = memoryview(self.pointers)
        t_codes = target.codes.tolist()
        ops: List[str] = []
        state = "V"
        floor = i  # first step looks its block up
        while i > 0 and j > 0:
            if i <= floor:
                floor = (i - 1) // _BLOCK * _BLOCK
                start, col0, row_bytes, plane = blocks[floor // _BLOCK]
            lo, hi = windows[i - 1]
            if lo <= j <= hi:
                col = j - col0
                at = start + (i - 1 - floor) * row_bytes + (col >> 3)
                bit = 1 << (col & 7)
                if state == "V":
                    if local and bits[at + 4 * plane] & bit:
                        break
                    if bits[at] & bit:
                        state = "H"
                    elif bits[at + plane] & bit:
                        state = "U"
                    else:
                        same = (
                            t_codes[j - 1] == q_codes[i - 1]
                            and t_codes[j - 1] < 4
                        )
                        ops.append("=" if same else "X")
                        i -= 1
                        j -= 1
                elif state == "H":
                    ops.append("D")
                    if j == lo or not bits[at + 2 * plane] & bit:
                        state = "V"
                    j -= 1
                else:  # state == "U"
                    ops.append("I")
                    if not bits[at + 3 * plane] & bit:
                        state = "V"
                    i -= 1
            elif state == "V":
                break
            elif state == "H":
                ops.append("D")
                state = "V"
                j -= 1
            else:
                ops.append("I")
                state = "V"
                i -= 1
        if not local:
            # Pad with gap columns back to the tile origin.
            ops.extend("D" * j)
            ops.extend("I" * i)
        return Cigar.from_ops(reversed(ops))


def xdrop_extend(
    target: Sequence,
    query: Sequence,
    scoring: ScoringScheme,
    ydrop: int,
    with_traceback: bool = True,
) -> XDropExtension:
    """Extend from the tile origin under the X-drop rule.

    Args:
        target: target tile (columns).
        query: query tile (rows).
        scoring: substitution matrix and affine gaps.
        ydrop: the ``Y`` parameter; cells below ``V_max - Y`` die.
        with_traceback: record traceback state and reconstruct the path.

    Returns:
        An :class:`XDropExtension`; its CIGAR starts exactly at the tile
        origin (leading gaps included, paper section III-D).
    """
    longest = max(len(target), len(query))
    with TileEngine(scoring, ydrop, longest, with_traceback) as engine:
        return engine.extend(target, query)


def full_tile(
    target: Sequence,
    query: Sequence,
    scoring: ScoringScheme,
    local: bool,
    with_traceback: bool = True,
    rows_out: Optional[np.ndarray] = None,
) -> XDropExtension:
    """One whole ``target x query`` tile through the engine, unpruned.

    ``local`` selects Smith-Waterman: ``score`` and ``max_i``/``max_j``
    are the best cell, and the CIGAR ends there and starts where the
    walk met a zero.  Otherwise the tile is Needleman-Wunsch: ``score``
    is ``V(n, m)`` and the CIGAR spans the whole tile.  ``rows_out``, an
    ``(n + 1, m + 1)`` array, receives every ``V`` row past row 0 and
    column 0.  Both sequences must be non-empty.
    """
    longest = max(len(target), len(query))
    with TileEngine(scoring, None, longest, with_traceback, local) as engine:
        return engine.extend(target, query, rows_out)
