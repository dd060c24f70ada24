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

from .align import Alignment, Cigar, ScoringScheme, lastz_default
from .chain import Chain, GapCosts, build_chains
from .core import (
    DarwinWGA,
    DarwinWGAConfig,
    ExtensionParams,
    FilterParams,
    WGAResult,
)
from .genome import Sequence, make_species_pair
from .hw import CostModel
from .lastz import LastzAligner, LastzConfig

__version__ = "1.0.0"

__all__ = [
    "Alignment",
    "Cigar",
    "ScoringScheme",
    "lastz_default",
    "Chain",
    "GapCosts",
    "build_chains",
    "DarwinWGA",
    "DarwinWGAConfig",
    "ExtensionParams",
    "FilterParams",
    "WGAResult",
    "Sequence",
    "make_species_pair",
    "CostModel",
    "LastzAligner",
    "LastzConfig",
    "__version__",
]
