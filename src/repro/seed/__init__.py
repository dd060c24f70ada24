"""Seeding: spaced seed patterns, target index, and D-SOFT banding."""

from .analysis import (
    compare_patterns,
    expected_random_hits,
    hit_probability,
    monte_carlo_sensitivity,
)
from .dsoft import (
    DsoftParams,
    SeedingResult,
    all_seed_hits,
    dsoft_seed,
)
from .cache import CACHE_VERSION, SeedIndexCache, index_cache_key
from .index import SeedIndex
from .patterns import DEFAULT_PATTERN, SpacedSeed

__all__ = [
    "CACHE_VERSION",
    "SeedIndexCache",
    "index_cache_key",
    "compare_patterns",
    "expected_random_hits",
    "hit_probability",
    "monte_carlo_sensitivity",
    "DsoftParams",
    "SeedingResult",
    "all_seed_hits",
    "dsoft_seed",
    "SeedIndex",
    "DEFAULT_PATTERN",
    "SpacedSeed",
]
