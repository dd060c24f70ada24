"""LASTZ-like baseline: all-hits seeding + ungapped filter + extension."""

from .pipeline import LastzAligner, LastzConfig
from .ungapped_filter import (
    DEFAULT_XDROP,
    UngappedFilterParams,
    UngappedFilterResult,
    ungapped_filter,
)

__all__ = [
    "LastzAligner",
    "LastzConfig",
    "DEFAULT_XDROP",
    "UngappedFilterParams",
    "UngappedFilterResult",
    "ungapped_filter",
]
