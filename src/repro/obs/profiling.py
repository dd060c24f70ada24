"""Opt-in cProfile capture for the parent and for worker processes.

``repro align --profile DIR`` wraps the parent run in
:func:`profile_capture` and installs a per-worker profiler
(:func:`install_worker_profile`) through the execution engine's pool
initializer.  Worker profiles are flushed to
``DIR/profile-worker-<pid>.pstats`` after every task rather than at
process exit, because multiprocessing children terminate via
``os._exit`` and never run ``atexit`` hooks — an exit-time dump would
silently produce nothing.

All files are standard :mod:`pstats` dumps::

    python -m pstats out/profile-worker-1234.pstats
"""

from __future__ import annotations

import cProfile
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Optional, Tuple, Union

__all__ = [
    "flush_worker_profile",
    "install_worker_profile",
    "profile_capture",
    "worker_profile_active",
]

#: The installed per-process profiler and its output directory.
_WORKER_PROFILE: Optional[Tuple[cProfile.Profile, Path]] = None


@contextmanager
def profile_capture(path: Union[str, Path]):
    """Profile the enclosed block and dump pstats to ``path``."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield profiler
    finally:
        profiler.disable()
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        profiler.dump_stats(str(target))


def install_worker_profile(directory: Union[str, Path]) -> None:
    """Start profiling this process; idempotent per process.

    Intended as (part of) a process-pool initializer.  The profiler
    runs for the process's lifetime; call :func:`flush_worker_profile`
    at task boundaries to persist the accumulated stats.
    """
    global _WORKER_PROFILE
    if _WORKER_PROFILE is not None:
        return
    profiler = cProfile.Profile()
    profiler.enable()
    _WORKER_PROFILE = (profiler, Path(directory))


def worker_profile_active() -> bool:
    return _WORKER_PROFILE is not None


def flush_worker_profile() -> Optional[Path]:
    """Dump the accumulated profile; returns the path (None if off).

    Safe to call often: the profiler is paused only for the dump, and
    each flush overwrites the previous snapshot for this pid, so the
    final file always holds the full cumulative profile.
    """
    if _WORKER_PROFILE is None:
        return None
    profiler, directory = _WORKER_PROFILE
    profiler.disable()
    try:
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"profile-worker-{os.getpid()}.pstats"
        profiler.dump_stats(str(path))
    finally:
        profiler.enable()
    return path
