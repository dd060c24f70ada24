"""Chaining: axtChain-like chain construction and sensitivity metrics."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "Chain": "chainer",
        "build_chains": "chainer",
        "GapCosts": "gap_costs",
        "LiftOver": "liftover",
        "LiftSegment": "liftover",
        "best_lift": "liftover",
        "Net": "nets",
        "NetEntry": "nets",
        "build_net": "nets",
        "ChainComparison": "metrics",
        "block_length_histogram": "metrics",
        "compare": "metrics",
        "fraction_below": "metrics",
        "mean_top_score": "metrics",
        "top_chain_scores": "metrics",
        "total_matches": "metrics",
        "ungapped_block_lengths": "metrics",
    },
)
