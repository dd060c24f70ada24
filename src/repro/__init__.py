"""Darwin-WGA reproduction: sensitive whole genome alignment.

A from-scratch Python implementation of the full Darwin-WGA system
(Turakhia, Goenka, Bejerano & Dally, HPCA 2019): D-SOFT seeding, gapped
filtering with banded Smith-Waterman, GACT-X tiled extension, a
LASTZ-like ungapped-filter baseline, axtChain-style chaining, and
cycle/area/power models of the FPGA and ASIC accelerators.

Quickstart::

    import numpy as np
    from repro import DarwinWGA, make_species_pair, build_chains

    pair = make_species_pair(30_000, 0.9, np.random.default_rng(0),
                             alignable_fraction=0.35)
    result = DarwinWGA().align(pair.target.genome, pair.query.genome)
    chains = build_chains(result.alignments)
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "Alignment": "align",
        "Cigar": "align",
        "ScoringScheme": "align",
        "lastz_default": "align",
        "Chain": "chain",
        "GapCosts": "chain",
        "build_chains": "chain",
        "DarwinWGA": "core",
        "DarwinWGAConfig": "core",
        "ExtensionParams": "core",
        "FilterParams": "core",
        "WGAResult": "core",
        "Sequence": "genome",
        "make_species_pair": "genome",
        "CostModel": "hw",
        "LastzAligner": "lastz",
        "LastzConfig": "lastz",
    },
)
__all__.append("__version__")
