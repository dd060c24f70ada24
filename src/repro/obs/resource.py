"""Per-process resource sampling: resident set size.

:func:`sample_resources` takes one point-in-time sample.  Worker tasks
call it once per unit and ship the sample over the telemetry bus, so
per-worker memory shows up in the parent's registry (the
``worker_rss_bytes`` histogram of a ``--trace-out`` report) without any
background machinery in the workers.

RSS is read from ``/proc/self/statm`` (Linux, current value) with a
``resource.getrusage`` peak-RSS fallback elsewhere; both degrade to 0
rather than raising, so sampling never takes a pipeline down.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["sample_resources"]

try:
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX platform
    _resource = None

_PAGE_SIZE = (
    _resource.getpagesize() if _resource is not None else 4096
)


def _rss_bytes() -> int:
    """Current resident set size, 0 when unavailable."""
    try:
        with open("/proc/self/statm") as handle:
            return int(handle.read().split()[1]) * _PAGE_SIZE
    except (OSError, ValueError, IndexError):
        pass
    if _resource is not None:
        # ru_maxrss is the peak, in kilobytes on Linux (bytes on macOS,
        # but macOS would have taken the /proc-free path anyway).
        return _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss * 1024
    return 0


def sample_resources() -> Dict[str, int]:
    """One wire-ready sample of this process's resource state."""
    return {"rss_bytes": _rss_bytes()}
