"""Serial anchor extension: the oracle every schedule reproduces.

The extension stage is *almost* embarrassingly parallel: each anchor's
GACT-X extension is independent, but the pipelines consult a
:class:`~repro.core.anchors.CoverageGrid` so anchors already covered by
an earlier (higher filter score) alignment are absorbed without being
extended.  That check is a serial dependency — the only cross-anchor
dependency in the seed-filter-extend graph — so a naive fan-out would
change which anchors are extended.

:func:`extend_anchors` is that dependency written down in its simplest
form: walk the anchors in priority order, skip the absorbed ones,
extend the rest, commit each result (:func:`_commit`) before looking at
the next anchor.  The streamed parallel schedule
(:mod:`repro.core.stream`) keeps these semantics exactly — byte for
byte, for any worker count — by **speculative dispatch and in-order
replay**: anchors the grid already absorbs are skipped when a batch is
formed (the grid only ever grows, so the skip is always correct),
results are replayed in dispatch order with ``absorbs`` re-checked
against the now-complete grid, and the replayed commit is literally
:func:`_commit`, so ordering-sensitive state evolves identically.
"""

from __future__ import annotations

from typing import List

from ..align.alignment import Alignment
from ..obs.tracer import NULL_TRACER
from .gact_x import gact_x_extend

__all__ = ["extend_anchors"]


def extend_anchors(
    target,
    query,
    anchors,
    scoring,
    params,
    grid,
    workload,
    tracer=NULL_TRACER,
    keep_tile_traces: bool = True,
) -> List[Alignment]:
    """Extend ``anchors`` (already in serial priority order) with GACT-X.

    Mutates ``grid`` and ``workload`` and returns the alignments in
    serial order.
    """
    with tracer.span("extend") as extend_span:
        alignments: List[Alignment] = []
        seen_spans: set = set()
        for anchor in anchors:
            if grid.absorbs(anchor):
                workload.absorbed_anchors += 1
                continue
            extension = gact_x_extend(
                target, query, anchor, scoring, params, tracer=tracer
            )
            _commit(
                extension,
                grid,
                workload,
                alignments,
                seen_spans,
                keep_tile_traces,
            )
        extend_span.inc("extension_tiles", workload.extension_tiles)
        extend_span.inc("extension_cells", workload.extension_cells)
        extend_span.inc("absorbed_anchors", workload.absorbed_anchors)
        extend_span.inc("alignments", len(alignments))
        return alignments


def _commit(
    extension, grid, workload, alignments, seen_spans, keep_tile_traces
) -> None:
    """The serial loop body for one surviving extension result."""
    workload.extension_tiles += extension.tile_count
    workload.extension_cells += extension.cells
    if keep_tile_traces:
        workload.extension_tile_traces.extend(extension.tiles)
    alignment = extension.alignment
    if alignment is not None:
        span = (
            alignment.target_start,
            alignment.target_end,
            alignment.query_start,
            alignment.query_end,
        )
        grid.add_alignment(alignment)
        if span not in seen_spans:
            seen_spans.add(span)
            alignments.append(alignment)
