"""GACT-X: tiled, X-dropped extension of anchors (paper section III-D).

GACT-X aligns arbitrarily long regions with constant traceback memory by
processing overlapping tiles of size ``T_e``.  Within a tile the X-drop
kernel (:mod:`repro.align.xdrop`) computes a Needleman-Wunsch-scored
extension from the tile origin; the alignment path is stitched across
tiles with these rules:

* traceback pointers within the trailing *overlap region* (the last ``O``
  rows/columns) are ignored — the next tile recomputes that region;
* if ``x_max`` falls before the overlap region the extension has
  naturally slowed and the next tile starts exactly at ``x_max``;
* extension in a direction terminates when a tile's ``V_max`` is zero or
  negative, or when the tile makes no forward progress.

Left extension reuses the same rules on reversed sequences.  An anchor is
extended both ways and the merged path is rescored from its CIGAR, so gap
runs that straddle the anchor or a tile boundary are charged correctly.

The two directions run *in lockstep*: each is a :class:`_DirectionStream`
that feeds tiles to — and receives extensions back from — the shared
lane engine in :func:`repro.align.xdrop.run_tile_streams`, which batches
one DP row of both directions' current tiles into a single set of vector
ops.  Tile chaining is unaffected (a stream is asked for its next tile
only after consuming the previous tile's result), so the stitched output
is identical to running the directions one after the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..align.alignment import Alignment, AnchorHit
from ..align.cigar import Cigar
from ..align.scoring import ScoringScheme
from ..align.xdrop import XDropExtension, run_tile_streams
from ..genome.sequence import Sequence
from ..obs.tracer import NULL_TRACER
from .config import ExtensionParams


@dataclass(frozen=True)
class TileTrace:
    """Workload record of one extension tile (feeds the hardware model).

    ``traceback_bytes`` is what the software kernel wrote as packed
    pointer state for the tile — the counterpart of the model's
    ``GactXArrayModel.pointer_bytes``.
    """

    rows: int
    cells: int
    row_windows: Tuple[Tuple[int, int], ...]
    traceback_bytes: int = 0


@dataclass(frozen=True)
class ExtensionResult:
    """A stitched two-sided extension of one anchor."""

    alignment: Optional[Alignment]
    tiles: Tuple[TileTrace, ...]

    @property
    def tile_count(self) -> int:
        return len(self.tiles)

    @property
    def cells(self) -> int:
        return sum(tile.cells for tile in self.tiles)


def truncate_cigar(cigar: Cigar, boundary: int) -> Tuple[Cigar, int, int]:
    """Cut a tile path at the overlap boundary.

    Walks the CIGAR from the tile origin and stops before either the row
    or the column index would exceed ``boundary``.  Returns the truncated
    prefix and the (row, column) cell it ends on.
    """
    runs = []
    i = j = 0
    for op, length in cigar:
        di = 1 if op in ("=", "X", "I") else 0
        dj = 1 if op in ("=", "X", "D") else 0
        take = length
        if di:
            take = min(take, boundary - i)
        if dj:
            take = min(take, boundary - j)
        if take < length:
            if take > 0:
                runs.append((op, take))
                i += di * take
                j += dj * take
            break
        runs.append((op, length))
        i += di * length
        j += dj * length
    return Cigar.from_runs(runs), i, j


def score_cigar(
    cigar: Cigar,
    target: Sequence,
    query: Sequence,
    target_start: int,
    query_start: int,
    scoring: ScoringScheme,
) -> int:
    """Score an alignment path against the actual sequences."""
    matrix = scoring.matrix64
    ti, qi = target_start, query_start
    total = 0
    for op, length in cigar:
        if op in ("=", "X"):
            total += int(
                matrix[
                    target.codes[ti : ti + length],
                    query.codes[qi : qi + length],
                ].sum()
            )
            ti += length
            qi += length
        else:
            total -= scoring.gap_cost(length)
            if op == "D":
                ti += length
            else:
                qi += length
    return total


class _DirectionStream:
    """One direction's tile chain, expressed as a stream for the engine.

    ``next_tile``/``consume`` carry the stitched state machine of the
    original per-direction loop: the engine asks for the next tile only
    after the previous tile's extension has been consumed, so the chain
    still decides each tile origin from the previous tile's maximum.
    """

    def __init__(
        self,
        target: Sequence,
        query: Sequence,
        params: ExtensionParams,
    ) -> None:
        self._target = target
        self._query = query
        self._tile_size = params.tile_size
        self._boundary = params.tile_size - params.overlap
        self.cur_t = 0
        self.cur_q = 0
        self.pieces: List[Cigar] = []
        self.traces: List[TileTrace] = []
        self._done = False
        self._t_tile: Optional[Sequence] = None
        self._q_tile: Optional[Sequence] = None

    def next_tile(self) -> Optional[Tuple[Sequence, Sequence]]:
        if self._done or not (
            self.cur_t < len(self._target)
            and self.cur_q < len(self._query)
        ):
            self._done = True
            return None
        self._t_tile = self._target.slice(
            self.cur_t, self.cur_t + self._tile_size
        )
        self._q_tile = self._query.slice(
            self.cur_q, self.cur_q + self._tile_size
        )
        return self._t_tile, self._q_tile

    def consume(self, extension: XDropExtension) -> None:
        t_tile = self._t_tile
        q_tile = self._q_tile
        self.traces.append(
            TileTrace(
                rows=extension.rows_computed,
                cells=extension.cells,
                row_windows=extension.row_windows,
                traceback_bytes=extension.traceback_bytes,
            )
        )
        if extension.score <= 0 or extension.max_i == 0:
            self._done = True
            return
        boundary = self._boundary
        in_overlap = (
            extension.max_i > boundary or extension.max_j > boundary
        )
        # A path is at the sequence edge only when its tile is truncated
        # by the sequence end and the maximum reached that end — a
        # full-size tile boundary is handled by the overlap logic instead.
        target_exhausted = (
            self.cur_t + len(t_tile) >= len(self._target)
            and extension.max_j >= len(t_tile)
        )
        query_exhausted = (
            self.cur_q + len(q_tile) >= len(self._query)
            and extension.max_i >= len(q_tile)
        )
        at_edge = target_exhausted or query_exhausted
        if in_overlap and not at_edge:
            piece, di, dj = truncate_cigar(extension.cigar, boundary)
            if di == 0 and dj == 0:
                # The whole path lives in the overlap region; keep it and
                # stop rather than loop without progress.
                self.pieces.append(extension.cigar)
                self.cur_t += extension.max_j
                self.cur_q += extension.max_i
                self._done = True
                return
        else:
            piece, di, dj = (
                extension.cigar,
                extension.max_i,
                extension.max_j,
            )
        self.pieces.append(piece)
        self.cur_t += dj
        self.cur_q += di
        if not in_overlap or at_edge:
            # x_max before the overlap region means X-drop ended the
            # alignment inside the tile; at a sequence edge there is
            # nothing left to extend into.
            self._done = True

    def merged_cigar(self) -> Cigar:
        merged = Cigar(())
        for piece in self.pieces:
            merged = merged + piece
        return merged


def _reversed_sequence(seq: Sequence) -> Sequence:
    return Sequence(seq.codes[::-1], name=seq.name)


def gact_x_extend(
    target: Sequence,
    query: Sequence,
    anchor: AnchorHit,
    scoring: ScoringScheme,
    params: ExtensionParams,
    tracer=NULL_TRACER,
) -> ExtensionResult:
    """Extend an anchor in both directions with GACT-X.

    The right extension includes the anchor base pair; the left extension
    runs on the reversed prefixes.  Both directions advance through one
    lockstep lane engine (see the module docstring).  The merged
    alignment is rescored from its CIGAR and reported only when it
    reaches ``params.threshold`` (``H_e``).  When a tracer is supplied,
    one ``extend_anchor`` span is recorded per call with a single paired
    ``extend_direction`` child covering the lockstep run.
    """
    with tracer.span(
        "extend_anchor",
        target_pos=anchor.target_pos,
        query_pos=anchor.query_pos,
    ) as span:
        right = _DirectionStream(
            target.slice(anchor.target_pos, len(target)),
            query.slice(anchor.query_pos, len(query)),
            params,
        )
        left = _DirectionStream(
            _reversed_sequence(target.slice(0, anchor.target_pos)),
            _reversed_sequence(query.slice(0, anchor.query_pos)),
            params,
        )
        with tracer.span(
            "extend_direction", direction="paired"
        ) as dspan:
            run_tile_streams(
                (right, left), scoring, params.ydrop, params.tile_size
            )
            dspan.inc(
                "extension_tiles", len(right.traces) + len(left.traces)
            )
            dspan.inc(
                "extension_cells",
                sum(t.cells for t in right.traces)
                + sum(t.cells for t in left.traces),
            )

        right_cigar, right_t, right_q = (
            right.merged_cigar(),
            right.cur_t,
            right.cur_q,
        )
        left_cigar, left_t, left_q = (
            left.merged_cigar(),
            left.cur_t,
            left.cur_q,
        )
        cigar = left_cigar.reversed() + right_cigar
        tiles = tuple(left.traces) + tuple(right.traces)
        span.inc("extension_tiles", len(tiles))
        span.inc("extension_cells", sum(t.cells for t in tiles))
        span.inc("traceback_bytes", sum(t.traceback_bytes for t in tiles))
        if len(cigar) == 0:
            return ExtensionResult(alignment=None, tiles=tiles)

        target_start = anchor.target_pos - left_t
        query_start = anchor.query_pos - left_q
        score = score_cigar(
            cigar, target, query, target_start, query_start, scoring
        )
        span.set(score=score)
        if score < params.threshold:
            return ExtensionResult(alignment=None, tiles=tiles)
        alignment = Alignment(
            target_name=target.name,
            query_name=query.name,
            target_start=target_start,
            target_end=anchor.target_pos + right_t,
            query_start=query_start,
            query_end=anchor.query_pos + right_q,
            score=score,
            cigar=cigar,
            strand=anchor.strand,
        )
        return ExtensionResult(alignment=alignment, tiles=tiles)
