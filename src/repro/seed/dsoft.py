"""D-SOFT seeding with diagonal-band binning (paper section III-B).

Darwin-WGA uses a modified D-SOFT: the query is cut into *chunks* of size
``c``; target positions are grouped into *bins* of size ``b``; a chunk and
a bin together define a *diagonal band* (paper Figure 4a).  The threshold
``h`` is the number of seed hits a band must collect, and — unlike the
original D-SOFT — **at most one seed hit is extended per diagonal band**,
eliminating redundant filter tiles for nearby hits on the same diagonal.

The implementation is fully vectorised: chunk ids and band ids are computed
arithmetically for every raw hit, bands are aggregated with ``np.unique``,
and one representative hit (the first in query order) is emitted per
qualifying band.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..genome.sequence import Sequence
from ..obs.tracer import NULL_TRACER
from .index import SeedIndex


@dataclass(frozen=True)
class DsoftParams:
    """D-SOFT seeding parameters.

    ``chunk_size``/``bin_size`` trade duplicate suppression against the
    risk of merging distinct nearby alignments; ``threshold`` is the
    minimum seed hits per diagonal band (``h``).
    """

    chunk_size: int = 128
    bin_size: int = 128
    threshold: int = 1

    def __post_init__(self) -> None:
        if self.chunk_size <= 0 or self.bin_size <= 0:
            raise ValueError("chunk and bin sizes must be positive")
        if self.threshold < 1:
            raise ValueError("threshold must be at least 1")


@dataclass(frozen=True)
class SeedingResult:
    """Output of the seeding stage.

    ``target_positions``/``query_positions`` are parallel arrays with one
    candidate (representative hit) per qualifying diagonal band.
    ``raw_hit_count`` counts every seed-table hit enumerated — the
    workload number reported in the paper's Table V "Seeds" column.
    """

    target_positions: np.ndarray
    query_positions: np.ndarray
    raw_hit_count: int
    band_count: int

    @property
    def candidate_count(self) -> int:
        return int(self.target_positions.size)


def _seed_hits(
    index: SeedIndex, query: Sequence, seed_limit: int, span
) -> Tuple[np.ndarray, np.ndarray]:
    """Every seed hit of ``query`` in the indexed target.

    Each valid query position contributes one exact word plus — when the
    seed tolerates transitions — ``weight`` one-transition variants (the
    ``m + 1`` lookups per position of paper section III-B).  The exact
    words and each variant are looked up one slab at a time and only the
    words the index's presence bitmap lets through are kept, so the
    ``(m + 1)``-fold word array never exists.  Hits come out variant by
    variant, then in query order, then in target order.  ``seed_limit > 0``
    drops words occurring more often than the limit in the target.

    Returns ``(target_hits, query_hits)`` and records the lookup funnel
    (``seed_lookups`` -> ``seed_probe_pass`` -> ``seed_hits``) on ``span``.
    """
    seed = index.seed
    exact, valid = seed.words(query)
    positions = np.flatnonzero(valid).astype(np.int64)
    exact = exact[positions]
    flips = (0,) + seed.transition_flips if seed.transitions else (0,)
    slabs = []
    for flip in flips:
        kept, left, counts = index.word_ranges(exact ^ np.int64(flip))
        slabs.append((left, counts, positions[kept]))
    left, counts, kept_positions = map(np.concatenate, zip(*slabs))
    span.inc("seed_lookups", int(exact.size) * len(flips))
    span.inc("seed_probe_pass", int(left.size))
    if seed_limit > 0:
        rare = counts <= seed_limit
        left, counts = left[rare], counts[rare]
        kept_positions = kept_positions[rare]
    target_hits, query_hits = index.expand_ranges(
        left, counts, kept_positions
    )
    span.inc("seed_hits", int(target_hits.size))
    return target_hits, query_hits


def dsoft_seed(
    index: SeedIndex,
    query: Sequence,
    params: DsoftParams,
    tracer=NULL_TRACER,
) -> SeedingResult:
    """Run D-SOFT seeding of ``query`` against an indexed target.

    Returns one candidate hit per diagonal band with at least
    ``params.threshold`` seed hits.
    """
    with tracer.span("seed", method="dsoft") as span:
        target_hits, query_hits = _seed_hits(index, query, 0, span)
        raw = int(target_hits.size)
        if raw == 0:
            empty = np.empty(0, dtype=np.int64)
            return SeedingResult(empty, empty.copy(), 0, 0)

        chunk_ids = query_hits // params.chunk_size
        # The band-defining coordinate: the target position shifted back
        # to the chunk origin, so hits on nearby diagonals within a chunk
        # share a band (Figure 4a).  Offset by the query length so ids
        # stay positive.
        band_coord = (
            target_hits - (query_hits % params.chunk_size) + len(query)
        )
        bin_ids = band_coord // params.bin_size
        n_bins = (index.target_length + len(query)) // params.bin_size + 2
        band_keys = chunk_ids * n_bins + bin_ids

        order = np.argsort(band_keys, kind="stable")
        sorted_keys = band_keys[order]
        unique_keys, first_index, counts = np.unique(
            sorted_keys, return_index=True, return_counts=True
        )
        qualifying = counts >= params.threshold
        representatives = order[first_index[qualifying]]
        span.inc("bands", int(unique_keys.size))
        span.inc("candidates", int(representatives.size))
        return SeedingResult(
            target_positions=target_hits[representatives],
            query_positions=query_hits[representatives],
            raw_hit_count=raw,
            band_count=int(unique_keys.size),
        )


def all_seed_hits(
    index: SeedIndex,
    query: Sequence,
    seed_limit: int = 0,
    tracer=NULL_TRACER,
) -> SeedingResult:
    """Enumerate every seed hit without band filtering (LASTZ-style).

    LASTZ does not use D-SOFT; its filter examines each seed hit
    individually.  ``seed_limit`` optionally discards words occurring more
    often than the limit in the target (LASTZ's word-count filtering of
    over-represented seeds), with 0 meaning unlimited.
    """
    with tracer.span("seed", method="all_hits") as span:
        target_hits, query_hits = _seed_hits(
            index, query, seed_limit, span
        )
        span.inc("candidates", int(target_hits.size))
        return SeedingResult(
            target_positions=target_hits,
            query_positions=query_hits,
            raw_hit_count=int(target_hits.size),
            band_count=0,
        )
