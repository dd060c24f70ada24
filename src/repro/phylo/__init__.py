"""Phylogenetics: distance estimators and neighbour-joining trees."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "SiteCounts": "distance",
        "count_sites": "distance",
        "estimate_distance": "distance",
        "jc69_distance": "distance",
        "k80_distance": "distance",
        "k80_kappa": "distance",
        "TreeNode": "tree",
        "neighbour_joining": "tree",
        "tree_distance": "tree",
    },
)
