"""Worker liveness channel: heartbeats from pool workers to the parent.

A task's own telemetry — its span tree and a receipt of pid, busy time
and RSS — comes home in its return value (:mod:`repro.core.worker`),
so it is recorded for exactly the attempt the supervisor accepted.  The
one thing a return value cannot carry is the pulse of a worker that
will never return; that is all this bus carries.

When the pool initializer is given a heartbeat interval, every worker
starts a daemon thread that puts its pid on a bounded
``multiprocessing.Queue`` every interval.  Publishing uses
``put_nowait``: a full queue drops the beat instead of stalling the
worker.  The parent stamps each beat with *its own* monotonic clock on
receipt (skew-free across processes); :meth:`TelemetryBus.stale_workers`
then answers "which workers have gone silent past the deadline", which
is how a SIGSTOP'd or infinitely-looping worker (threads frozen → beats
stop) is detected even though its process is still technically alive.
:class:`HeartbeatMonitor` packages that check for the resilient
dispatcher; the clock stays inside ``repro.obs`` where it belongs.

The queue travels to pool workers through the executor's
``initializer`` (the only pickling context in which an mp.Queue may
cross a process boundary): :func:`worker_init` installs this process's
publisher and starts its beat thread.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import threading
from time import monotonic
from typing import Callable, Dict, List, Optional

__all__ = [
    "BusEndpoint",
    "BusPublisher",
    "HeartbeatMonitor",
    "TelemetryBus",
    "clear_publisher",
    "install_publisher",
    "start_heartbeat",
    "stop_heartbeat",
    "suspend_heartbeat",
    "worker_init",
]


#: Bound of the beat queue; a full queue drops beats.
_QUEUE_SIZE = 8192


def _bus_context() -> multiprocessing.context.BaseContext:
    """Match the execution engine's start-method preference."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


class BusEndpoint:
    """The worker-side half of the bus: just the queue, picklable only
    while a pool process is being constructed (``initargs``)."""

    __slots__ = ("queue",)

    def __init__(self, events_queue) -> None:
        self.queue = events_queue


class BusPublisher:
    """Per-process beat source."""

    __slots__ = ("queue", "pid")

    def __init__(self, events_queue, pid: Optional[int] = None) -> None:
        self.queue = events_queue
        self.pid = os.getpid() if pid is None else pid

    def emit_beat(self) -> bool:
        """Publish one liveness beat; False when the full queue dropped it."""
        try:
            self.queue.put_nowait(self.pid)
        except queue_module.Full:
            return False
        return True


#: This process's installed publisher (workers only; None in the parent).
_PUBLISHER: Optional[BusPublisher] = None


def install_publisher(endpoint: BusEndpoint) -> BusPublisher:
    global _PUBLISHER
    _PUBLISHER = BusPublisher(endpoint.queue)
    return _PUBLISHER


def clear_publisher() -> None:
    global _PUBLISHER
    _PUBLISHER = None


#: This process's heartbeat thread stop flag (workers only).
_HEARTBEAT_STOP: Optional[threading.Event] = None
_HEARTBEAT_THREAD: Optional[threading.Thread] = None


def start_heartbeat(interval: float) -> bool:
    """Start the liveness beat thread (idempotent; workers only).

    Requires an installed publisher.  The thread is a daemon: a frozen
    process (SIGSTOP) freezes it with everything else, which is exactly
    the signal — beats stopping — the parent's sentinel watches for.
    """
    global _HEARTBEAT_STOP, _HEARTBEAT_THREAD
    publisher = _PUBLISHER
    if publisher is None or interval <= 0 or _HEARTBEAT_THREAD is not None:
        return False
    stop = threading.Event()

    def run() -> None:
        publisher.emit_beat()
        while not stop.wait(interval):
            publisher.emit_beat()

    thread = threading.Thread(
        target=run, name="repro-heartbeat", daemon=True
    )
    _HEARTBEAT_STOP = stop
    _HEARTBEAT_THREAD = thread
    thread.start()
    return True


def suspend_heartbeat() -> None:
    """Silence this process's beats without touching anything else.

    Used by the injected ``hang`` fault: a worker that stops beating
    *and* never returns is indistinguishable from a wedged one, so the
    parent's heartbeat sentinel can be exercised deterministically.
    """
    if _HEARTBEAT_STOP is not None:
        _HEARTBEAT_STOP.set()


def stop_heartbeat() -> None:
    """Stop and forget the beat thread (teardown/tests)."""
    global _HEARTBEAT_STOP, _HEARTBEAT_THREAD
    if _HEARTBEAT_STOP is not None:
        _HEARTBEAT_STOP.set()
    thread = _HEARTBEAT_THREAD
    if thread is not None:
        thread.join(timeout=1.0)
    _HEARTBEAT_STOP = None
    _HEARTBEAT_THREAD = None


def worker_init(
    endpoint: Optional[BusEndpoint],
    profile_dir: Optional[str],
    heartbeat_interval: Optional[float] = None,
) -> None:
    """Process-pool initializer: heartbeat publisher + optional profiler."""
    if endpoint is not None:
        install_publisher(endpoint)
        if heartbeat_interval:
            start_heartbeat(heartbeat_interval)
    if profile_dir:
        from .profiling import install_worker_profile

        install_worker_profile(profile_dir)


class TelemetryBus:
    """Parent-side receiver of worker beats.

    Hand :meth:`endpoint` to the pool initializer; :meth:`stale_workers`
    and :meth:`beat_counts` drain whatever beats are queued before they
    answer, so a beat in transit never reads as silence.
    """

    def __init__(self) -> None:
        self._queue = _bus_context().Queue(_QUEUE_SIZE)
        self._lock = threading.Lock()
        #: pid -> parent-clock receipt time of the latest beat.
        self._beat_at: Dict[int, float] = {}
        self._beat_counts: Dict[int, int] = {}
        self._clock: Callable[[], float] = monotonic
        self._closed = False

    def endpoint(self) -> BusEndpoint:
        return BusEndpoint(self._queue)

    def _drain_nowait(self) -> None:
        while True:
            try:
                pid = self._queue.get_nowait()
            except (queue_module.Empty, OSError, ValueError):
                return
            with self._lock:
                self._beat_at[pid] = self._clock()
                self._beat_counts[pid] = self._beat_counts.get(pid, 0) + 1

    def beat_counts(self) -> Dict[int, int]:
        self._drain_nowait()
        with self._lock:
            return dict(self._beat_counts)

    def stale_workers(self, deadline: float) -> List[int]:
        """Workers whose last beat is older than ``deadline`` seconds.

        Only workers that have beaten at least once are considered:
        absence of any beat means the worker has not finished
        initialising (or beats are off), not that it hung.
        """
        self._drain_nowait()
        now = self._clock()
        with self._lock:
            return sorted(
                pid
                for pid, last in self._beat_at.items()
                if now - last > deadline
            )

    def reset_beats(self) -> None:
        """Forget all beat history (pool rebuilt / escalation re-arm)."""
        with self._lock:
            self._beat_at.clear()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._queue.close()
            self._queue.join_thread()
        except (OSError, ValueError):  # pragma: no cover - teardown race
            pass


class HeartbeatMonitor:
    """Liveness sentinel handed to the resilient dispatcher.

    Wraps a :class:`TelemetryBus` with a staleness deadline: the
    dispatcher waits for results in ``poll_interval`` slices and asks
    :meth:`overdue` between slices; True means some worker has gone
    silent past the deadline and the hang-recovery ladder should run.
    All clock reads stay inside :mod:`repro.obs` — callers only see
    booleans, so pipeline output can never depend on the clock.
    """

    def __init__(
        self,
        bus: TelemetryBus,
        deadline: float,
        poll_interval: Optional[float] = None,
    ) -> None:
        if deadline <= 0:
            raise ValueError("heartbeat deadline must be positive")
        self.bus = bus
        self.deadline = deadline
        self.poll_interval = (
            poll_interval if poll_interval else max(0.01, deadline / 4.0)
        )
        self.detections = 0

    def overdue(self) -> bool:
        """Whether any beating worker has gone silent past the deadline."""
        stale = self.bus.stale_workers(self.deadline)
        if stale:
            self.detections += 1
            return True
        return False

    def escalated(self) -> None:
        """The dispatcher acted on a detection; re-arm for the retry.

        Clears beat history so the next :meth:`overdue` answers about
        the *new* attempt's workers — a still-frozen worker simply goes
        stale again and the ladder escalates one more rung.
        """
        self.bus.reset_beats()
