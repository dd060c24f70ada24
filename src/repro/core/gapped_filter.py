"""Gapped filtering with banded Smith-Waterman tiles (paper section III-C).

Each D-SOFT candidate hit gets a ``T_f``-sized tile with the seed hit at
its centre; a banded Smith-Waterman pass (band ``B``) produces the tile
maximum ``V_max`` and its position ``x_max``.  Candidates with
``V_max >= H_f`` and ``V_max > 0`` become extension anchors at
``x_max`` (a tile that scored nothing has no ``x_max``).

Tiles have identical geometry, so they are processed in stacked batches —
the software mirror of the hardware's 50-64 parallel BSW arrays — with
genome edges padded by ``N`` (which scores like a transversion and thus
cannot create spurious anchors).  A tile's strand does not matter to the
arrays, so every strand of a unit feeds one tile stream
(:func:`gapped_filter_stream`): a strand with a handful of candidates
rides in the slab of its neighbour instead of paying a whole sweep of
its own.  :func:`gapped_filter` is the one-strand case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from ..align.alignment import AnchorHit
from ..align.banded_sw import band_cells, bsw_batch
from ..align.scoring import ScoringScheme
from ..genome import alphabet
from ..genome.sequence import Sequence
from ..obs.tracer import NULL_TRACER
from .config import FilterParams

#: Tiles per ``bsw_batch`` call (memory knob only: lanes are independent).
SLAB_TILES = 2048

#: One strand's candidates: ``(query, target_positions, query_positions,
#: strand)`` with ``query`` already oriented to ``strand``.
StrandCandidates = Tuple[Sequence, np.ndarray, np.ndarray, int]


@dataclass(frozen=True)
class GappedFilterResult:
    """Anchors that passed the filter plus stage workload accounting."""

    anchors: List[AnchorHit]
    tiles: int
    cells: int

    @property
    def pass_rate(self) -> float:
        return len(self.anchors) / self.tiles if self.tiles else 0.0


def _gather_tiles(
    seq: Sequence, centers: np.ndarray, tile_size: int
) -> np.ndarray:
    """Stack tile windows centred on ``centers``, N-padded at the edges."""
    half = tile_size // 2
    offsets = np.arange(tile_size, dtype=np.int64) - half
    idx = centers[:, None] + offsets[None, :]
    valid = (idx >= 0) & (idx < len(seq))
    tiles = np.full(idx.shape, alphabet.N, dtype=np.uint8)
    tiles[valid] = seq.codes[idx[valid]]
    return tiles


def _slab_tiles(
    target: Sequence,
    strands: List[StrandCandidates],
    starts: List[int],
    lo: int,
    hi: int,
    tile_size: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Target and query tiles of stream positions ``[lo, hi)``.

    The slab may straddle strands; each strand's share is gathered from
    its own oriented query, in stream order.
    """
    target_parts, query_parts = [], []
    for begin, (query, t_pos, q_pos, _strand) in zip(starts, strands):
        first = max(lo - begin, 0)
        last = min(hi - begin, int(t_pos.size))
        if first < last:
            target_parts.append(
                _gather_tiles(target, t_pos[first:last], tile_size)
            )
            query_parts.append(
                _gather_tiles(query, q_pos[first:last], tile_size)
            )
    return np.concatenate(target_parts), np.concatenate(query_parts)


def gapped_filter_stream(
    target: Sequence,
    strands: List[StrandCandidates],
    scoring: ScoringScheme,
    params: FilterParams,
    batch_size: Optional[int] = None,
    tracer=NULL_TRACER,
) -> Iterator[GappedFilterResult]:
    """Filter every strand's candidates as one stream of BSW tiles.

    Candidates are concatenated in strand order and scored in slabs of
    ``batch_size`` tiles (default :data:`SLAB_TILES`); a slab may hold
    the tail of one strand and the head of the next.  One result per
    strand is yielded, in strand order, as soon as the slab holding its
    last tile has been scored — a consumer may extend strand ``+``
    while strand ``-``'s remaining slabs wait.  Each result equals
    :func:`gapped_filter` on that strand alone, tile for tile.

    Traced, each strand's step is one ``gapped_filter`` span (carrying
    that strand's ``filter_tiles``/``filter_cells``/``anchors``) holding
    a ``bsw_batch`` child per slab it scored.
    """
    batch_size = batch_size or SLAB_TILES
    tile = params.tile_size
    half = tile // 2
    per_tile_cells = band_cells(tile, tile, params.band)
    starts = [0]
    for _query, t_pos, _q_pos, _strand in strands:
        starts.append(starts[-1] + int(t_pos.size))
    total = starts[-1]
    scores = np.empty(total, dtype=np.int64)
    max_i = np.empty(total, dtype=np.int64)
    max_j = np.empty(total, dtype=np.int64)
    scored = 0
    for begin, (query, t_pos, q_pos, strand) in zip(starts, strands):
        end = begin + int(t_pos.size)
        with tracer.span(
            "gapped_filter",
            tile_size=tile,
            band=params.band,
            threshold=params.threshold,
        ) as span:
            while scored < end:
                stop = min(scored + batch_size, total)
                with tracer.span("bsw_batch") as batch_span:
                    batch_span.inc("filter_tiles", stop - scored)
                    batch_span.inc(
                        "filter_cells", (stop - scored) * per_tile_cells
                    )
                    target_tiles, query_tiles = _slab_tiles(
                        target, strands, starts, scored, stop, tile
                    )
                    (
                        scores[scored:stop],
                        max_i[scored:stop],
                        max_j[scored:stop],
                    ) = bsw_batch(
                        target_tiles, query_tiles, scoring, params.band
                    )
                scored = stop
            anchors: List[AnchorHit] = []
            # A tile that scored nothing has no x_max to anchor at
            # (bsw_batch reports (0, 0)), whatever H_f is.
            passing = np.flatnonzero(
                scores[begin:end] >= max(params.threshold, 1)
            )
            for idx in passing:
                # x_max in genome coordinates: tile origin + offset.
                at = begin + idx
                anchor_t = int(t_pos[idx]) - half + int(max_j[at]) - 1
                anchor_q = int(q_pos[idx]) - half + int(max_i[at]) - 1
                if 0 <= anchor_t < len(target) and 0 <= anchor_q < len(
                    query
                ):
                    anchors.append(
                        AnchorHit(
                            target_pos=anchor_t,
                            query_pos=anchor_q,
                            filter_score=int(scores[at]),
                            strand=strand,
                        )
                    )
            k = end - begin
            span.inc("filter_tiles", k)
            span.inc("filter_cells", k * per_tile_cells)
            span.inc("anchors", len(anchors))
        yield GappedFilterResult(
            anchors=anchors, tiles=k, cells=k * per_tile_cells
        )


def gapped_filter(
    target: Sequence,
    query: Sequence,
    target_positions: np.ndarray,
    query_positions: np.ndarray,
    scoring: ScoringScheme,
    params: FilterParams,
    strand: int = 1,
    batch_size: int = SLAB_TILES,
    tracer=NULL_TRACER,
) -> GappedFilterResult:
    """Filter candidate seed hits with banded Smith-Waterman tiles.

    The one-strand case of :func:`gapped_filter_stream`.

    Args:
        target, query: full (strand-adjusted) genome sequences.
        target_positions, query_positions: parallel candidate arrays
            (tile centres — conventionally the seed-hit start).
        scoring: substitution matrix and affine gaps.
        params: tile size ``T_f``, band ``B``, threshold ``H_f``.
        strand: recorded on the emitted anchors.
        batch_size: tiles per vectorised batch (memory knob only).
        tracer: optional :class:`repro.obs.Tracer`; records one
            ``gapped_filter`` span with a ``bsw_batch`` child per batch.

    Returns:
        Qualifying anchors positioned at each tile's ``x_max`` plus the
        tile/cell workload (the paper's Table V "Filter tiles" column).
    """
    return next(
        gapped_filter_stream(
            target,
            [(query, target_positions, query_positions, strand)],
            scoring,
            params,
            batch_size=batch_size,
            tracer=tracer,
        )
    )
