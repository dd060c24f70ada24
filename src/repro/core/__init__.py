"""Darwin-WGA core: configuration, gapped filter, GACT/GACT-X, pipeline."""

from .anchors import CoverageGrid
from .config import DarwinWGAConfig, ExtensionParams, FilterParams
from .gact import (
    GactExtensionResult,
    GactParams,
    gact_extend,
    tile_size_for_memory,
)
from .gact_x import (
    ExtensionResult,
    TileTrace,
    gact_x_extend,
    score_cigar,
    truncate_cigar,
)
from .gapped_filter import GappedFilterResult, gapped_filter
from .report import (
    alignment_detail,
    chain_table,
    dotplot,
    workload_summary,
)
from .pipeline import (
    DarwinWGA,
    WGAResult,
    Workload,
    align_assemblies,
    aligner_named,
)
from .stream import BoundedQueue, StrandStream, StreamParams

__all__ = [
    "CoverageGrid",
    "DarwinWGAConfig",
    "ExtensionParams",
    "FilterParams",
    "GactExtensionResult",
    "GactParams",
    "gact_extend",
    "tile_size_for_memory",
    "ExtensionResult",
    "TileTrace",
    "gact_x_extend",
    "score_cigar",
    "truncate_cigar",
    "GappedFilterResult",
    "gapped_filter",
    "DarwinWGA",
    "WGAResult",
    "Workload",
    "aligner_named",
    "align_assemblies",
    "BoundedQueue",
    "StrandStream",
    "StreamParams",
    "alignment_detail",
    "chain_table",
    "dotplot",
    "workload_summary",
]
