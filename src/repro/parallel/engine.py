"""Multiprocess execution engine with shared-memory sequence transport.

Whole-assembly alignment is embarrassingly parallel across
chromosome pairs.  :class:`ExecutionEngine` wraps a
:class:`concurrent.futures.ProcessPoolExecutor` with the pieces
:func:`repro.core.pipeline.align_assemblies` needs on top of it:

* **shared-memory sequences** — a genome's code array is published once
  into :mod:`multiprocessing.shared_memory` and referenced by a small
  picklable :class:`SequenceHandle`, so dispatching a unit never
  re-pickles megabase arrays;
* **supervised dispatch** — :meth:`dispatch`/:meth:`result` route work
  through a :class:`~repro.parallel.supervise.ResilientDispatcher`
  (retry/timeout/pool-rebuild/serial-fallback per the engine's
  :class:`~repro.resilience.policy.ResilienceOptions`), while
  :meth:`submit` stays the raw, unsupervised path.

Determinism is the callers' contract, not the engine's: result futures
are always consumed in submission order (see
:func:`repro.core.pipeline.align_assemblies`), so the engine itself
only needs to be an ordinary pool.

Crash hygiene: shared-memory blocks are OS-level files (``/dev/shm``)
that outlive a crashed process.  Every live engine registers with an
``atexit`` hook that unlinks its blocks on interpreter shutdown, and
:func:`install_signal_cleanup` chains the same release in front of the
existing SIGTERM/SIGINT handling for runs driven by the CLI.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import signal
import weakref
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from multiprocessing import shared_memory

# The task functions workers run, loaded with the engine: a worker
# forked from this interpreter inherits them instead of importing them.
from ..core import worker as _tasks  # noqa: F401
from ..genome.sequence import Sequence
from ..obs.progress import NO_PROGRESS
from ..obs.session import TelemetryOptions
from ..obs.tracer import NULL_TRACER
from ..resilience.policy import ResilienceOptions
from .supervise import ResilientDispatcher

__all__ = [
    "ExecutionEngine",
    "SequenceHandle",
    "install_signal_cleanup",
]


@dataclass(frozen=True)
class SequenceHandle:
    """A picklable reference to a sequence living in shared memory.

    ``kind`` is ``"shm"`` (``payload`` is the shared-memory block name)
    or ``"bytes"`` (``payload`` carries the raw code bytes inline — the
    fallback used when a platform offers no shared memory).
    """

    kind: str
    payload: object
    length: int
    name: Optional[str]


def _default_context() -> multiprocessing.context.BaseContext:
    """Prefer fork (cheap, inherits the warm interpreter) over spawn."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


#: Engines with possibly-live shared-memory blocks, for emergency
#: cleanup on abnormal exit.  Weak references: a garbage-collected
#: engine has already been closed or leaked past help.
_LIVE_ENGINES: "weakref.WeakSet" = weakref.WeakSet()
_ATEXIT_REGISTERED = False
#: Previously installed handlers for signals we chain in front of.
_CHAINED_SIGNALS: Dict[int, object] = {}


def _release_live_engines() -> None:
    """Unlink every live engine's shared-memory blocks (idempotent)."""
    for engine in list(_LIVE_ENGINES):
        engine.release_blocks()


def _ensure_atexit() -> None:
    global _ATEXIT_REGISTERED
    if not _ATEXIT_REGISTERED:
        atexit.register(_release_live_engines)
        _ATEXIT_REGISTERED = True


def _signal_cleanup(signum, frame) -> None:
    _release_live_engines()
    previous = _CHAINED_SIGNALS.get(signum)
    if callable(previous):
        previous(signum, frame)
    else:
        # SIG_DFL/SIG_IGN: restore and re-raise so the process still
        # dies with the conventional signal exit status.
        signal.signal(signum, signal.SIG_DFL)
        os.kill(os.getpid(), signum)


def install_signal_cleanup(signals=(signal.SIGTERM, signal.SIGINT)) -> None:
    """Release shared-memory blocks before the usual signal handling.

    Chains in front of whatever handler is installed (the default
    ``KeyboardInterrupt`` for SIGINT, process death for SIGTERM), so a
    killed run no longer strands its ``/dev/shm`` blocks.  Installing
    twice is a no-op; intended for process owners (the CLI), not
    library code.
    """
    for signum in signals:
        if signum in _CHAINED_SIGNALS:
            continue
        _CHAINED_SIGNALS[signum] = signal.getsignal(signum)
        signal.signal(signum, _signal_cleanup)


class ExecutionEngine:
    """A process pool plus shared-memory sequence registry.

    ``workers=1`` is a valid configuration: the engine reports itself
    inactive (:attr:`active` is False) and callers fall back to their
    serial code path, so one code path covers ``--workers N`` for all N.

    The engine owns every shared-memory block it publishes; call
    :meth:`close` (or use the engine as a context manager) to release
    the pool and unlink the blocks.  Blocks are additionally unlinked
    by an ``atexit`` hook if the process dies with the engine open.

    ``resilience`` carries the retry policy, optional fault-injection
    plan and recovery counters used by :meth:`dispatch`/:meth:`result`.
    ``telemetry`` (a :class:`~repro.obs.session.TelemetryOptions`)
    carries the progress sink, metric registry, optional heartbeat bus
    and worker-profiling directory; when it holds a bus or a profile
    directory the pool's workers are initialized with the matching
    heartbeat/profiler.  It must be configured before the pool's first
    task (the executor is built lazily, so before the first
    ``submit``/``dispatch``).
    """

    def __init__(
        self,
        workers: int,
        mp_context: Optional[multiprocessing.context.BaseContext] = None,
        resilience: Optional[ResilienceOptions] = None,
        telemetry: Optional[TelemetryOptions] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.workers = workers
        self.resilience = resilience or ResilienceOptions()
        self.telemetry = telemetry
        self._context = mp_context or _default_context()
        self._executor: Optional[ProcessPoolExecutor] = None
        self._dispatcher_obj = None
        #: id(seq) -> (seq, handle).  The strong sequence reference is
        #: deliberate: it pins the object so its id cannot be recycled
        #: by a new Sequence after garbage collection, which would
        #: silently alias a stale shared-memory block.
        self._shared: Dict[int, Tuple[Sequence, SequenceHandle]] = {}
        self._blocks: List[shared_memory.SharedMemory] = []
        self._closed = False
        self._owner_pid = os.getpid()
        _ensure_atexit()
        _LIVE_ENGINES.add(self)

    # -- lifecycle ---------------------------------------------------
    @property
    def active(self) -> bool:
        """Whether work should actually fan out (more than one worker)."""
        return self.workers > 1 and not self._closed

    @property
    def progress(self):
        """The progress sink (never None; defaults to the no-op one)."""
        return (
            self.telemetry.progress
            if self.telemetry is not None
            else NO_PROGRESS
        )

    def adopt_telemetry(self, telemetry: TelemetryOptions) -> bool:
        """Install ``telemetry`` on an engine that has none yet.

        Returns True on success.  Refused (False) once the executor is
        built — its workers were initialized without a heartbeat or
        profiler, so adopting a bundle then would leave them silent —
        or when a different telemetry bundle is already installed.
        """
        if self.telemetry is telemetry:
            return True
        if self.telemetry is not None or self._executor is not None:
            return False
        self.telemetry = telemetry
        return True

    def _worker_initializer(self):
        """(initializer, initargs) wiring telemetry into new workers.

        The heartbeat queue can only cross a process boundary while the
        pool is constructing its workers, which is exactly what the
        ``initializer`` mechanism provides (under fork *and* spawn);
        passing the queue as a task argument would raise.
        """
        telemetry = self.telemetry
        if telemetry is None:
            return None, ()
        endpoint = (
            telemetry.bus.endpoint()
            if telemetry.bus is not None
            else None
        )
        profile_dir = (
            str(telemetry.profile_dir) if telemetry.profile_dir else None
        )
        if endpoint is None and profile_dir is None:
            return None, ()
        from ..obs.bus import worker_init

        heartbeat = getattr(telemetry, "heartbeat_interval", None)
        return worker_init, (endpoint, profile_dir, heartbeat)

    def _pool(self) -> ProcessPoolExecutor:
        if self._closed:
            raise RuntimeError("engine is closed")
        if self._executor is None:
            initializer, initargs = self._worker_initializer()
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=self._context,
                initializer=initializer,
                initargs=initargs,
            )
        return self._executor

    def rebuild(self, terminate: bool = False) -> None:
        """Replace a (typically broken) executor with a fresh pool.

        Shared-memory blocks belong to this process, not the pool, so
        they survive the rebuild; new workers simply re-attach.  The
        next :meth:`submit` lazily constructs the replacement pool.

        ``terminate=True`` force-kills the old pool's worker processes
        first.  Required for *hung* (not crashed) workers: a wedged or
        SIGSTOP'd worker never drains its queue, so without the kill the
        executor's manager thread — and eventually ``close()`` or
        interpreter shutdown — would wait on it forever.  SIGKILL acts
        even on a stopped process.
        """
        if self._closed:
            raise RuntimeError("engine is closed")
        if self._executor is not None:
            if terminate:
                processes = getattr(self._executor, "_processes", None)
                for process in tuple((processes or {}).values()):
                    try:
                        process.kill()
                    except (OSError, ValueError, AttributeError):
                        pass  # pragma: no cover - already gone
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    def release_blocks(self) -> None:
        """Unlink every published shared-memory block (idempotent).

        Only the creating process may unlink; forked children that
        inherited this engine object leave the blocks to their owner.
        """
        if os.getpid() != self._owner_pid:
            return
        for block in self._blocks:
            try:
                block.close()
                block.unlink()
            except OSError:  # pragma: no cover - already gone
                pass
        self._blocks.clear()
        self._shared.clear()

    def close(self) -> None:
        """Shut the pool down and unlink every shared-memory block."""
        if self._closed:
            return
        self._closed = True
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        self.release_blocks()
        _LIVE_ENGINES.discard(self)

    def __enter__(self) -> "ExecutionEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- sequence transport ------------------------------------------
    def share(self, seq: Sequence) -> SequenceHandle:
        """Publish ``seq`` to workers; repeated calls reuse the block.

        Deduplication is by object identity, with the engine holding a
        reference to every shared sequence so an id can never be
        recycled onto a different object while its entry is alive.
        """
        entry = self._shared.get(id(seq))
        if entry is not None:
            return entry[1]
        codes = seq.codes
        try:
            block = shared_memory.SharedMemory(
                create=True, size=max(1, codes.nbytes)
            )
        except (OSError, FileNotFoundError):
            # No usable /dev/shm: fall back to shipping bytes inline.
            handle = SequenceHandle(
                kind="bytes",
                payload=codes.tobytes(),
                length=len(seq),
                name=seq.name,
            )
        else:
            block.buf[: codes.nbytes] = codes.tobytes()
            self._blocks.append(block)
            handle = SequenceHandle(
                kind="shm",
                payload=block.name,
                length=len(seq),
                name=seq.name,
            )
        self._shared[id(seq)] = (seq, handle)
        return handle

    # -- dispatch ----------------------------------------------------
    def submit(self, fn, /, *args, **kwargs) -> Future:
        """Submit one task to the pool (raw, unsupervised)."""
        return self._pool().submit(fn, *args, **kwargs)

    def dispatch(self, fn, /, *args, key: str = ""):
        """Submit one task under supervision; returns a ticket.

        ``key`` names the work unit for deterministic jitter and fault
        schedules; pass it to :meth:`result` to collect the value with
        retry/rebuild/serial-fallback recovery applied.
        """
        return self._dispatcher().submit(fn, *args, key=key)

    def result(self, ticket, tracer=NULL_TRACER):
        """Collect a dispatched ticket's result (see ``dispatch``).

        Recovery actions are recorded as spans on ``tracer``.
        """
        return self._dispatcher().result(ticket, tracer=tracer)

    def _dispatcher(self):
        if self._dispatcher_obj is None:
            self._dispatcher_obj = ResilientDispatcher(
                self, self.resilience
            )
        return self._dispatcher_obj
