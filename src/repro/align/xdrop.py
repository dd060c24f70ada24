"""One lane engine for X-drop (GACT-X), Smith-Waterman and Needleman-Wunsch.

One affine-gap row pipeline (paper equations 1-3) with one 4-bit-per-cell
traceback store (GACT-X, paper section III-D and Fig. 10) serves three
kernels, which differ only in the two parameters of the oracle
(``row_update(local)`` and the traceback's start cell in
:mod:`repro.align._reference`) and in whether rows are pruned:

* **X-drop extension** (:func:`xdrop_extend`, :func:`run_tile_streams`):
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
  from a *lane-lockstep* engine instead of an anti-diagonal sweep.  Every
  DP row of up to ``L`` concurrent tiles (the two extension directions of
  a GACT-X anchor run in lockstep) becomes one batch of vector ops over a
  ``(L, W)`` window slab, computed in the narrowest exact dtype
  (:func:`repro.align._dp.kernel_dtype`) on persistent, cache-resident
  workspace buffers.  ``H`` uses the prefix-scan identity from
  :mod:`repro.align._dp`.
* The row stores are *shifted*: ``v_store`` holds ``V - o`` and
  ``u_store`` holds ``U - e``, so the next row's gap candidate
  ``U(i,j) = max(V(i-1,j)-o, U(i-1,j)-e)`` is a single elementwise
  ``max`` of two stored rows — no subtractions in the hot loop — and
  the gap ``o``/``e`` charges are paid once, inside the store writes
  the recurrence needs anyway.  The diagonal term compensates with a
  ``+o``-baked substitution matrix: ``(V-o) + (W+o) = V + W``.
* Traceback state is four bits per cell of the computed window, as in
  the hardware, written a block of ``_BLOCK`` rows at a time.  The
  forward pass keeps only ``(_BLOCK + 1)``-row *rings* of ``V - o``,
  ``U - e`` and ``H - o`` (slot 0 carries the previous block's last
  row).  When a block fills, or the lane finishes, ``_flush`` derives
  the flags for all of its rows in one bulk pass over the union of
  their windows — ``H == V`` (horizontal move; the tie priority puts it
  first), ``V == U`` (vertical move), ``H(i,j) == H(i,j-1) - e`` (the H
  run extends; equal to the prefix-scan test
  ``running[j-1] == running[j-2]``) and ``U(i-1,j) - e >= V(i-1,j) - o``
  (the U run extends; ties side with extension, as in the oracle), plus
  a fifth *zero plane* ``V == 0`` in local mode (where a local path
  starts) — and appends them, bit-packed, to one flat ``uint8`` store
  per lane.  ``_walk`` is then the reference pointer walk over those
  bits.  Deriving the flags per row inside ``_step`` instead reaches
  the same memory but adds 14 numpy calls to a 29-call row step;
  deferred to the block they cost 4 compares and 2 integer ops per 64
  rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

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


class _Lane:
    """Per-tile DP state of one lockstep lane."""

    __slots__ = (
        "stream",
        "slot",
        "target",
        "query",
        "q_codes",
        "m",
        "n",
        "i",
        "lo",
        "hi",
        "boundary",
        "best",
        "best_i",
        "best_j",
        "sub_cols",
        "v_store",
        "u_store",
        "h_store",
        "stored",
        "pointers",
        "pointer_bytes",
        "blocks",
        "row_windows",
        "cells",
    )


class _LaneEngine:
    """Runs tile streams through the lockstep row pipeline.

    A *stream* yields tiles one at a time (``next_tile``) and receives
    each tile's :class:`XDropExtension` back (``consume``) before being
    asked for the next — which lets GACT-X's tile chaining decide the
    next tile from the previous tile's maximum while the other stream's
    lane keeps advancing.  Lanes at heterogeneous rows/windows are
    batched per row into shared ``(L, W)`` buffers.

    ``ydrop=None`` computes every row over the whole tile, with no
    threshold, live set or window update; ``local`` is the oracle's
    Smith-Waterman switch (zero boundaries, ``V`` clamped at zero, a
    walk that stops at a zero).  With neither, the tile is
    Needleman-Wunsch: the score is ``V(n, m)`` and the walk starts
    there.  ``rows_out``, when set, receives every ``V`` row of a
    single-lane run.
    """

    def __init__(
        self,
        scoring: ScoringScheme,
        ydrop: Optional[int],
        max_tile_len: int,
        with_traceback: bool,
        local: bool = False,
    ) -> None:
        self.scoring = scoring
        self.ydrop = ydrop
        self.with_traceback = with_traceback
        self.prune = ydrop is not None
        self.local = local
        self.corner = not (self.prune or local)
        self.rows_out: Optional[np.ndarray] = None
        slack = ydrop if self.prune else 0
        self.gap_slack = slack // max(1, scoring.gap_extend) + 1
        self.planes = 5 if local else 4
        self.dtype = _dp.kernel_dtype(scoring, max_tile_len, slack=slack)
        self.negf = _dp.neg_inf(self.dtype)
        self.o = int(scoring.gap_open)
        self.e = int(scoring.gap_extend)
        self.matrix = _dp.matrix_for(scoring, self.dtype)
        # +o baked in: diagonal candidates read shifted V rows (V - o),
        # so (V - o) + (W + o) restores the true V + W.
        self.matrix_o = self.matrix + self.dtype.type(self.o)
        self.ke, self.oke = _dp.gap_ladders(
            scoring, max_tile_len + 2, self.dtype
        )
        self.max_tile_len = max_tile_len
        self.ws = _dp.acquire_workspace()
        self._next_slot = 0
        self._free_slots: List[int] = []

    def close(self) -> None:
        _dp.release_workspace(self.ws)

    # -- lane lifecycle ---------------------------------------------------

    def _alloc_slot(self) -> int:
        if self._free_slots:
            return self._free_slots.pop()
        slot = self._next_slot
        self._next_slot += 1
        return slot

    def _admit(self, stream, lanes: List[_Lane], slot: int) -> None:
        """Pull tiles from ``stream`` until one starts a lane (or none)."""
        while True:
            tile = stream.next_tile()
            if tile is None:
                self._free_slots.append(slot)
                return
            t_tile, q_tile = tile
            longest = max(len(t_tile), len(q_tile))
            if longest > self.max_tile_len:
                raise ValueError(
                    f"tile of {longest} bp exceeds max_tile_len "
                    f"{self.max_tile_len}"
                )
            if len(t_tile) == 0 or len(q_tile) == 0:
                stream.consume(_empty_extension(self.with_traceback))
                continue
            lane = _Lane()
            lane.stream = stream
            lane.slot = slot
            self._start_tile(lane, t_tile, q_tile)
            lanes.append(lane)
            return

    def _start_tile(
        self, lane: _Lane, target: Sequence, query: Sequence
    ) -> None:
        m = len(target)
        n = len(query)
        lane.target = target
        lane.query = query
        lane.q_codes = query.codes.tolist()
        lane.m = m
        lane.n = n
        lane.sub_cols = self.matrix_o[:, target.codes]
        key = str(lane.slot)
        ring = (_BLOCK + 1, m + 2 + _BYTE_PAD)
        lane.v_store = self.ws.array("xv" + key, ring, self.dtype)
        lane.u_store = self.ws.array("xu" + key, ring, self.dtype)
        if self.with_traceback:
            lane.h_store = self.ws.array("xh" + key, ring, self.dtype)
            # Worst case: every row's block spans all m columns.
            lane.pointers = self.ws.array(
                "xp" + key, (n * self.planes * ((m + 7) // 8),), np.uint8
            )
        else:
            lane.h_store = None
            lane.pointers = None
        lane.pointer_bytes = 0
        lane.blocks = []
        lane.stored = 0
        boundary = _dp.boundary_scores(m, self.scoring, free=self.local)
        lane.v_store[0, : m + 1] = boundary - self.o
        lane.u_store[0, : m + 1] = self.negf
        lane.i = 1
        lane.lo = 1
        lane.hi = m
        if self.prune:
            # Row 0 live set under the initial V_max = 0.
            live = np.flatnonzero(boundary >= -self.ydrop)
            last0 = int(live[-1]) if live.size else 0
            lane.hi = min(m, last0 + 1 + self.gap_slack)
        lane.best = 0
        lane.best_i = 0
        lane.best_j = 0
        lane.row_windows = []
        lane.cells = 0

    def _finish_lane(self, lane: _Lane, lanes: List[_Lane]) -> None:
        if self.corner:
            # Needleman-Wunsch: the score is V(n, m), read back from the
            # ring, and the walk starts there.
            last = lane.v_store[(lane.n - 1) % _BLOCK + 1, lane.m]
            lane.best = int(last) + self.o
            lane.best_i = lane.n
            lane.best_j = lane.m
        cigar: Optional[Cigar] = None
        if self.with_traceback:
            self._flush(lane)
            # best_i stays 0 until a row beats the initial V_max = 0.
            cigar = self._walk(lane) if lane.best_i else Cigar(())
        result = XDropExtension(
            score=lane.best,
            max_i=lane.best_i,
            max_j=lane.best_j,
            cigar=cigar,
            cells=lane.cells,
            row_windows=tuple(lane.row_windows),
            traceback_bytes=lane.pointer_bytes,
        )
        stream = lane.stream
        slot = lane.slot
        stream.consume(result)
        self._admit(stream, lanes, slot)

    # -- the row pipeline -------------------------------------------------

    def run(self, streams: Iterable) -> None:
        lanes: List[_Lane] = []
        for stream in streams:
            self._admit(stream, lanes, self._alloc_slot())
        if not lanes:
            return
        cap = len(lanes)
        wc = self.max_tile_len + 2
        ws = self.ws
        self.dg = ws.array("dg", (cap, wc), self.dtype)
        self.uu = ws.array("uu", (cap, wc), self.dtype)
        self.vb = ws.array("vb", (cap, wc), self.dtype)
        self.acc = ws.array("acc", (cap, wc), self.dtype)
        self.hh = ws.array("hh", (cap, wc), self.dtype)
        self.vv = ws.array("vv", (cap, wc), self.dtype)
        self.thr = ws.array("thr", (cap, 1), self.dtype)
        self.liveb = ws.array("liveb", (cap, wc), np.dtype(bool))
        self.views_for = None
        if self.with_traceback:
            # One block's flag planes and integer scratch, shared by the
            # lanes (a flush runs one lane at a time).
            wide = wc + _BYTE_PAD
            self.flags = ws.array(
                "flags", (self.planes * _BLOCK * wide,), np.dtype(bool)
            )
            self.diff = ws.array(
                "diff", ((_BLOCK + 1) * wide,), self.dtype
            )
        while lanes:
            self._step(lanes)

    def _step(self, lanes: List[_Lane]) -> None:
        negf = self.negf
        o = self.o
        e = self.e
        ydrop = self.ydrop
        gap_slack = self.gap_slack
        with_traceback = self.with_traceback
        prune, local, rows_out = self.prune, self.local, self.rows_out
        n_lanes = len(lanes)
        width = 0
        for lane in lanes:
            w = lane.hi - lane.lo + 1
            if w > width:
                width = w
        if (n_lanes, width) != self.views_for:
            # A row as wide as the last one reuses its slab views.
            self.views_for = (n_lanes, width)
            self.views = (
                self.uu[:n_lanes, :width],
                self.dg[:n_lanes, :width],
                self.vb[:n_lanes, :width],
                self.hh[:n_lanes, :width],
                self.vv[:n_lanes, :width],
                self.acc[:n_lanes, : width + 1],
                self.thr[:n_lanes],
                self.liveb[:n_lanes, :width],
            )
        uu, dg, vb, hh, vv, acc, thr, live = self.views

        # Per-lane gathers from the stored previous row into the batch
        # slabs.  The stores hold ``V - o`` and ``U - e``, so the whole
        # gap-candidate max ``U(i,j) = max(V(i-1,j)-o, U(i-1,j)-e)`` is
        # one elementwise max of two stored rows, and the diagonal term
        # uses the ``+o``-baked substitution volume; windows are
        # absolute column slices, so each gather is a contiguous 1-D
        # op.  Short lanes get a NEG-filled tail.  Row ``i`` lives in
        # ring slot ``(i - 1) % _BLOCK + 1``, its predecessor one below.
        for idx, lane in enumerate(lanes):
            lo = lane.lo
            hi = lane.hi
            row = lane.i
            w = hi - lo + 1
            prev = (row - 1) % _BLOCK
            vs_prev = lane.v_store[prev]
            np.maximum(
                vs_prev[lo : hi + 1],
                lane.u_store[prev, lo : hi + 1],
                out=uu[idx, :w],
            )
            np.add(
                vs_prev[lo - 1 : hi],
                lane.sub_cols[lane.q_codes[row - 1], lo - 1 : hi],
                out=dg[idx, :w],
            )
            if w < width:
                uu[idx, w:] = negf
                dg[idx, w:] = negf
            if lo > 1:
                lane.boundary = negf
            elif local:
                lane.boundary = 0
            else:
                lane.boundary = -(o + (row - 1) * e)
            acc[idx, 0] = lane.boundary

        # One batched affine-gap row update for every lane (same op
        # sequence as the reference row_update, minus pointer assembly).
        np.maximum(uu, dg, out=vb)
        if local:
            np.maximum(vb, 0, out=vb)
        np.add(vb, self.ke[1 : width + 1], out=acc[:, 1:])
        np.maximum.accumulate(acc, axis=1, out=acc)
        np.subtract(acc[:, :width], self.oke[:width], out=hh)
        np.maximum(vb, hh, out=vv)

        # Best update must precede the live threshold (the row's own
        # maximum tightens it), so the threshold compare is a second
        # batched pass.  A row whose maximum misses the threshold has no
        # live cell: the extension dies there.
        # With no Y there is no threshold, live set or window update.
        dead = [False] * n_lanes
        if not self.corner:
            amax = vv.argmax(axis=1).tolist()
            for idx, lane in enumerate(lanes):
                j = amax[idx]
                row_max = int(vv[idx, j])
                if row_max > lane.best:
                    lane.best = row_max
                    lane.best_i = lane.i
                    lane.best_j = lane.lo + j
                if prune:
                    threshold = lane.best - ydrop
                    thr[idx, 0] = threshold
                    dead[idx] = row_max < threshold
        if prune:
            np.greater_equal(vv, thr, out=live)
            first = live.argmax(axis=1).tolist()
            last = live[:, ::-1].argmax(axis=1).tolist()

        finished: List[_Lane] = []
        for idx, lane in enumerate(lanes):
            lo = lane.lo
            hi = lane.hi
            row = lane.i
            w = hi - lo + 1
            lane.row_windows.append((lo, hi))
            lane.cells += w
            if dead[idx]:
                # The dead row still counts (window + cells) but stores
                # nothing, exactly like the reference's early break.
                finished.append(lane)
                continue
            slot = (row - 1) % _BLOCK + 1
            vs = lane.v_store[slot]
            us = lane.u_store[slot]
            vs[lo - 1] = lane.boundary - o
            np.subtract(vv[idx, :w], o, out=vs[lo : hi + 1])
            np.subtract(uu[idx, :w], e, out=us[lo : hi + 1])
            if with_traceback:
                np.subtract(
                    hh[idx, :w], o, out=lane.h_store[slot, lo : hi + 1]
                )
            if rows_out is not None:
                rows_out[row, lo : hi + 1] = vv[idx, :w]
            lane.stored = row
            if row == lane.n:
                finished.append(lane)
                continue
            if prune:
                next_lo = lo + first[idx]
                next_hi = min(lane.m, lo + width - last[idx] + gap_slack)
                if next_hi < next_lo:
                    finished.append(lane)
                    continue
                if next_hi > hi:
                    # The next row reads past this row's written window
                    # where the reference sees NEG_INF; seed that margin.
                    vs[hi + 1 : next_hi + 1] = negf
                    us[hi + 1 : next_hi + 1] = negf
                lane.lo = next_lo
                lane.hi = next_hi
            if slot == _BLOCK:
                # Block full: pack its pointers, then carry this row
                # into slot 0 as the next block's predecessor.
                if with_traceback:
                    self._flush(lane)
                lane.v_store[0] = vs
                lane.u_store[0] = us
            lane.i = row + 1

        for lane in finished:
            lanes.remove(lane)
            self._finish_lane(lane, lanes)

    # -- traceback --------------------------------------------------------

    def _flush(self, lane: _Lane) -> None:
        """Pack the traceback flags of the ring's not yet packed rows.

        The rows are block ``len(lane.blocks)``: ring slots ``1..k``.
        Each flag (see the module docstring) is one compare over the
        ``k x width`` rectangle spanning the union of the rows' windows,
        widened to whole bytes; cells of the rectangle outside a row's
        own window hold stale values and yield bits the walk never
        reads.  With ``D = (U - e) - (V - o)`` per stored row, "V == U"
        is ``D == o - e`` and "U extends" is ``D >= 0`` one row up, so
        both cost one subtraction.  The block is appended to
        ``lane.pointers`` as four bit-planes of ``k`` rows (five in local
        mode: ``V == 0`` is ``V - o == -o``) and located by its
        ``(offset, first column, row bytes, plane bytes)``.
        """
        first = len(lane.blocks) * _BLOCK
        k = lane.stored - first
        if k <= 0:
            return
        windows = lane.row_windows
        lo = windows[first][0]  # windows never move left
        hi = max([window[1] for window in windows[first : first + k]])
        row_bytes = (hi - lo + 8) // 8
        width = row_bytes * 8
        stop = lo + width  # at most _BYTE_PAD columns past the tile
        vs = lane.v_store
        h = lane.h_store[1 : k + 1, lo:stop]
        planes = self.planes
        flags = self.flags[: planes * k * width].reshape(planes, k, width)
        diff = self.diff[: (k + 1) * width].reshape(k + 1, width)
        np.equal(h, vs[1 : k + 1, lo:stop], out=flags[0])
        np.subtract(
            lane.u_store[: k + 1, lo:stop], vs[: k + 1, lo:stop], out=diff
        )
        np.equal(diff[1:], self.o - self.e, out=flags[1])
        np.greater_equal(diff[:k], 0, out=flags[3])
        np.subtract(
            h, lane.h_store[1 : k + 1, lo - 1 : stop - 1], out=diff[:k]
        )
        np.equal(diff[:k], -self.e, out=flags[2])
        if self.local:
            np.equal(vs[1 : k + 1, lo:stop], -self.o, out=flags[4])
        packed = np.packbits(flags.reshape(-1), bitorder="little")
        start = lane.pointer_bytes
        lane.pointers[start : start + packed.size] = packed
        lane.blocks.append((start, lo, row_bytes, k * row_bytes))
        lane.pointer_bytes = start + packed.size

    def _walk(self, lane: _Lane) -> Cigar:
        """The reference pointer walk over the packed flag planes.

        A cell outside its row's window reads as ``DIR_NONE`` with no
        flags, as in the oracle: the walk stops there in state V, and a
        gap run ends there.  The H-extend flag of a window's first
        column is never set (the oracle has no ``H(i, lo - 1)``).  In
        local mode the walk also stops, in state V, on the zero plane,
        and it does not pad.
        """
        local = self.local
        i = lane.best_i
        j = lane.best_j
        windows = lane.row_windows
        blocks = lane.blocks
        bits = memoryview(lane.pointers)
        t_codes = lane.target.codes.tolist()
        q_codes = lane.q_codes
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


def run_tile_streams(
    streams: Iterable,
    scoring: ScoringScheme,
    ydrop: int,
    max_tile_len: int,
    with_traceback: bool = True,
) -> None:
    """Drive tile streams through one shared lockstep engine.

    Each stream must provide ``next_tile() -> (target, query) | None``
    and ``consume(XDropExtension)``; tiles longer than ``max_tile_len``
    are not allowed (the engine sizes its batch buffers from it).
    GACT-X uses this to run an anchor's left and right extensions in
    lockstep, halving the per-row Python overhead.
    """
    if ydrop < 0:
        raise ValueError("ydrop must be non-negative")
    engine = _LaneEngine(scoring, ydrop, max_tile_len, with_traceback)
    try:
        engine.run(streams)
    finally:
        engine.close()


class _SingleTile:
    """A one-tile stream backing ``xdrop_extend`` and ``full_tile``."""

    def __init__(self, target: Sequence, query: Sequence) -> None:
        self._tile: Optional[Tuple[Sequence, Sequence]] = (target, query)
        self.result: Optional[XDropExtension] = None

    def next_tile(self) -> Optional[Tuple[Sequence, Sequence]]:
        tile = self._tile
        self._tile = None
        return tile

    def consume(self, extension: XDropExtension) -> None:
        self.result = extension


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
    if ydrop < 0:
        raise ValueError("ydrop must be non-negative")
    m = len(target)
    n = len(query)
    if m == 0 or n == 0:
        return _empty_extension(with_traceback)
    stream = _SingleTile(target, query)
    run_tile_streams((stream,), scoring, ydrop, max(m, n), with_traceback)
    return stream.result


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
    stream = _SingleTile(target, query)
    longest = max(len(target), len(query))
    engine = _LaneEngine(scoring, None, longest, with_traceback, local)
    engine.rows_out = rows_out
    try:
        engine.run((stream,))
    finally:
        engine.close()
    return stream.result
