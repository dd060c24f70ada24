"""Output formats: MAF/AXT alignments, UCSC chains, BED intervals."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "axt_string": "axt",
        "read_axt": "axt",
        "write_axt": "axt",
        "bed_string": "bed",
        "read_bed": "bed",
        "write_bed": "bed",
        "chain_triples": "chain_format",
        "chains_string": "chain_format",
        "write_chains": "chain_format",
        "maf_string": "maf",
        "read_maf": "maf",
        "write_assembly_maf": "maf",
        "write_maf": "maf",
    },
)
