"""Seeding: spaced seed patterns, target index, and D-SOFT banding."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "CACHE_VERSION": "cache",
        "SeedIndexCache": "cache",
        "index_cache_key": "cache",
        "compare_patterns": "analysis",
        "expected_random_hits": "analysis",
        "hit_probability": "analysis",
        "monte_carlo_sensitivity": "analysis",
        "DsoftParams": "dsoft",
        "SeedingResult": "dsoft",
        "all_seed_hits": "dsoft",
        "dsoft_seed": "dsoft",
        "SeedIndex": "index",
        "DEFAULT_PATTERN": "patterns",
        "SpacedSeed": "patterns",
    },
)
