"""LASTZ-like baseline: all-hits seeding + ungapped filter + extension."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "LastzAligner": "pipeline",
        "LastzConfig": "pipeline",
        "DEFAULT_XDROP": "ungapped_filter",
        "UngappedFilterParams": "ungapped_filter",
        "UngappedFilterResult": "ungapped_filter",
        "ungapped_filter": "ungapped_filter",
    },
)

# Bound now, not through the table.  This export shares its
# submodule's name, and the import system sets the package attribute
# ``ungapped_filter`` to the *module* the moment anything imports that
# submodule (DESIGN.md, "Import policy").
from .ungapped_filter import ungapped_filter  # noqa: E402
