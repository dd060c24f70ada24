"""Per-process resource sampling and the receipt a traced task returns.

:func:`sample_resources` takes one point-in-time sample.  A traced
worker task takes it once, at its end, into its :func:`task_receipt`;
the receipt rides back in the task's return value and the parent
records it with :func:`observe_receipt`, so per-worker memory shows up
in the parent's registry (the ``worker_rss_bytes`` histogram of a
``--trace-out`` report) without any background machinery in the
workers.

RSS is read from ``/proc/self/statm`` (Linux, current value) with a
``resource.getrusage`` peak-RSS fallback elsewhere; both degrade to 0
rather than raising, so sampling never takes a pipeline down.
"""

from __future__ import annotations

import os
from typing import Dict

__all__ = ["observe_receipt", "sample_resources", "task_receipt"]

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


def task_receipt(tracer) -> Dict[str, float]:
    """``{pid, busy, rss_bytes}`` of a traced task that just finished.

    ``pid`` tags the spans the parent grafts, ``busy`` is the wall
    seconds of the task's root spans on its own ``tracer``.
    """
    busy = sum(span.duration for span in tracer.roots)
    return {"pid": os.getpid(), "busy": busy, **sample_resources()}


def observe_receipt(registry, receipt, waited: float) -> None:
    """Record a collected task's receipt in the run's ``registry``.

    ``waited`` is the parent's seconds from dispatch to collection;
    less the task's own busy time it is the dispatch latency.  A None
    registry or receipt (an untraced run) records nothing.
    """
    if registry is None or receipt is None:
        return
    registry.histogram("dispatch_latency_seconds").observe(
        max(0.0, waited - receipt["busy"])
    )
    registry.histogram("worker_rss_bytes").observe(receipt["rss_bytes"])
