"""Anchor extension: GACT-X behind the coverage-grid absorption check.

Each anchor's GACT-X extension is independent, but the pipelines
consult a :class:`~repro.core.anchors.CoverageGrid` so anchors already
covered by an earlier (higher filter score) alignment are absorbed
without being extended.  That check is a serial dependency — the only
cross-anchor dependency in the seed-filter-extend graph — so a naive
fan-out would change which anchors are extended.

:func:`extend_anchors` is that dependency written down in its simplest
form: walk the anchors in priority order, skip the absorbed ones,
extend the rest, commit each result before looking at the next anchor.
It always runs in the aligning process.  Parallelism lives above it,
across whole chromosome-pair units
(:func:`~repro.core.pipeline.align_assemblies`), and below it, in the
gapped filter's tile batches — where the paper puts it too.
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
            workload.extension_tiles += extension.tile_count
            workload.extension_cells += extension.cells
            if keep_tile_traces:
                workload.extension_tile_traces.extend(extension.tiles)
            alignment = extension.alignment
            if alignment is None:
                continue
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
        extend_span.inc("extension_tiles", workload.extension_tiles)
        extend_span.inc("extension_cells", workload.extension_cells)
        extend_span.inc("absorbed_anchors", workload.absorbed_anchors)
        extend_span.inc("alignments", len(alignments))
        return alignments
