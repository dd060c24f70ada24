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
  negative, when the tile makes no forward progress, or when its path
  does not reach back to the tile origin (a local path restarted).

Left extension reuses the same rules on reversed sequences.  An anchor is
extended both ways and the merged path is rescored from its CIGAR, so gap
runs that straddle the anchor or a tile boundary are charged correctly.

Each direction is a plain loop (:func:`_extend_direction`) that decides
a tile's origin from the previous tile's maximum and sweeps the tile
through :class:`repro.align.xdrop.TileEngine`.  :func:`extend_anchor`
runs the right chain, then the left one, on one open engine whose kernel
it does not know: GACT-X opens it with its ``Y``, GACT
(:mod:`repro.core.gact`) in local mode — the one variable of Figure 10.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional, Tuple

from ..align.alignment import Alignment, AnchorHit
from ..align.cigar import Cigar
from ..align.scoring import ScoringScheme
from ..align.xdrop import TileEngine, XDropExtension
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


class _Chain(NamedTuple):
    """One direction's stitched tile chain."""

    cigar: Cigar
    target_span: int
    query_span: int
    traces: List[TileTrace]


def _extend_direction(
    target: Sequence,
    query: Sequence,
    params: ExtensionParams,
    extend: Callable[[Sequence, Sequence], XDropExtension],
) -> _Chain:
    """Extend from the origin of ``target``/``query``, one tile at a time.

    ``extend`` computes one tile (:meth:`TileEngine.extend` in
    production); each tile's origin is decided from the previous tile's
    maximum by the rules in the module docstring.
    """
    tile_size = params.tile_size
    boundary = tile_size - params.overlap
    cur_t = cur_q = 0
    pieces: List[Cigar] = []
    traces: List[TileTrace] = []
    while cur_t < len(target) and cur_q < len(query):
        t_tile = target.slice(cur_t, cur_t + tile_size)
        q_tile = query.slice(cur_q, cur_q + tile_size)
        extension = extend(t_tile, q_tile)
        traces.append(
            TileTrace(
                rows=extension.rows_computed,
                cells=extension.cells,
                row_windows=extension.row_windows,
                traceback_bytes=extension.traceback_bytes,
            )
        )
        if extension.score <= 0 or extension.max_i == 0:
            break
        if (
            extension.cigar.query_span != extension.max_i
            or extension.cigar.target_span != extension.max_j
        ):
            # A local path restarted after a zero clamp: it does not
            # reach the tile origin, so stitching must stop.
            break
        in_overlap = (
            extension.max_i > boundary or extension.max_j > boundary
        )
        # A path is at the sequence edge only when its tile is truncated
        # by the sequence end and the maximum reached that end — a
        # full-size tile boundary is handled by the overlap logic instead.
        target_exhausted = (
            cur_t + len(t_tile) >= len(target)
            and extension.max_j >= len(t_tile)
        )
        query_exhausted = (
            cur_q + len(q_tile) >= len(query)
            and extension.max_i >= len(q_tile)
        )
        at_edge = target_exhausted or query_exhausted
        if in_overlap and not at_edge:
            piece, di, dj = truncate_cigar(extension.cigar, boundary)
            if di == 0 and dj == 0:
                # The whole path lives in the overlap region; keep it and
                # stop rather than loop without progress.
                pieces.append(extension.cigar)
                cur_t += extension.max_j
                cur_q += extension.max_i
                break
        else:
            piece, di, dj = (
                extension.cigar,
                extension.max_i,
                extension.max_j,
            )
        pieces.append(piece)
        cur_t += dj
        cur_q += di
        if not in_overlap or at_edge:
            # x_max before the overlap region means X-drop ended the
            # alignment inside the tile; at a sequence edge there is
            # nothing left to extend into.
            break
    merged = Cigar(())
    for piece in pieces:
        merged = merged + piece
    return _Chain(merged, cur_t, cur_q, traces)


def _reversed_sequence(seq: Sequence) -> Sequence:
    return Sequence(seq.codes[::-1], name=seq.name)


def extend_anchor(
    engine: TileEngine,
    target: Sequence,
    query: Sequence,
    anchor: AnchorHit,
    params: ExtensionParams,
    tracer=NULL_TRACER,
) -> ExtensionResult:
    """Extend an anchor in both directions on an open tile engine.

    The right extension includes the anchor base pair; the left extension
    runs on the reversed prefixes, after it.  The merged alignment is
    rescored from its CIGAR and reported only when it reaches
    ``params.threshold`` (``H_e``); ``tile_size``, ``overlap`` and
    ``threshold`` are all it reads, so ``GactParams`` serve too.  One
    ``extend_anchor`` span is recorded per call with one
    ``extend_direction`` child per direction.
    """
    with tracer.span(
        "extend_anchor",
        target_pos=anchor.target_pos,
        query_pos=anchor.query_pos,
    ) as span:
        directions = (
            (
                "right",
                target.slice(anchor.target_pos, len(target)),
                query.slice(anchor.query_pos, len(query)),
            ),
            (
                "left",
                _reversed_sequence(target.slice(0, anchor.target_pos)),
                _reversed_sequence(query.slice(0, anchor.query_pos)),
            ),
        )
        chains = []
        for direction, t_dir, q_dir in directions:
            with tracer.span(
                "extend_direction", direction=direction
            ) as dspan:
                chain = _extend_direction(
                    t_dir, q_dir, params, engine.extend
                )
                dspan.inc("extension_tiles", len(chain.traces))
                dspan.inc(
                    "extension_cells", sum(t.cells for t in chain.traces)
                )
            chains.append(chain)
        right, left = chains
        cigar = left.cigar.reversed() + right.cigar
        tiles = tuple(left.traces) + tuple(right.traces)
        span.inc("extension_tiles", len(tiles))
        span.inc("extension_cells", sum(t.cells for t in tiles))
        span.inc("traceback_bytes", sum(t.traceback_bytes for t in tiles))
        if len(cigar) == 0:
            return ExtensionResult(alignment=None, tiles=tiles)

        target_start = anchor.target_pos - left.target_span
        query_start = anchor.query_pos - left.query_span
        score = score_cigar(
            cigar, target, query, target_start, query_start, engine.scoring
        )
        span.set(score=score)
        if score < params.threshold:
            return ExtensionResult(alignment=None, tiles=tiles)
        alignment = Alignment(
            target_name=target.name,
            query_name=query.name,
            target_start=target_start,
            target_end=anchor.target_pos + right.target_span,
            query_start=query_start,
            query_end=anchor.query_pos + right.query_span,
            score=score,
            cigar=cigar,
            strand=anchor.strand,
        )
        return ExtensionResult(alignment=alignment, tiles=tiles)


def gact_x_extend(
    target: Sequence,
    query: Sequence,
    anchor: AnchorHit,
    scoring: ScoringScheme,
    params: ExtensionParams,
    tracer=NULL_TRACER,
) -> ExtensionResult:
    """Extend an anchor in both directions with GACT-X's X-drop tiles."""
    with TileEngine(scoring, params.ydrop, params.tile_size) as engine:
        return extend_anchor(engine, target, query, anchor, params, tracer)
