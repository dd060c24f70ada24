"""Darwin-WGA core: configuration, gapped filter, GACT/GACT-X, pipeline."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "CoverageGrid": "anchors",
        "DarwinWGAConfig": "config",
        "ExtensionParams": "config",
        "FilterParams": "config",
        "GactParams": "gact",
        "gact_extend": "gact",
        "tile_size_for_memory": "gact",
        "ExtensionResult": "gact_x",
        "TileTrace": "gact_x",
        "gact_x_extend": "gact_x",
        "score_cigar": "gact_x",
        "truncate_cigar": "gact_x",
        "GappedFilterResult": "gapped_filter",
        "gapped_filter": "gapped_filter",
        "DarwinWGA": "pipeline",
        "WGAResult": "pipeline",
        "Workload": "pipeline",
        "aligner_named": "pipeline",
        "align_assemblies": "pipeline",
        "alignment_detail": "report",
        "chain_table": "report",
        "dotplot": "report",
        "workload_summary": "report",
    },
)

# Bound now, not through the table.  This export shares its
# submodule's name, and the import system sets the package attribute
# ``gapped_filter`` to the *module* the moment anything imports that
# submodule (DESIGN.md, "Import policy").
from .gapped_filter import gapped_filter  # noqa: E402
