"""Cross-process telemetry bus: workers stream events, parent merges.

Before this module, worker observability was end-of-run only: a worker
task serialized its span tree and returned it *with the result*, so the
parent learned nothing until the future resolved.  The bus inverts
that: workers publish small events (spans, funnels, resource
readings) onto a bounded ``multiprocessing.Queue`` as they happen, and
the parent-side :class:`TelemetryBus` routes them into the live run —
spans grafted onto the parent tracer, funnels summed globally and per
worker, resource readings observed into a
:class:`~repro.obs.metrics.MetricRegistry`, and per-worker busy time
accumulated for dispatch-latency / idle-tail accounting.

Delivery is **sequence-numbered and loss-counting**, never blocking:

* each :class:`BusPublisher` stamps events ``(pid, seq, kind, payload)``
  with a per-process contiguous sequence number;
* publishing uses ``put_nowait`` — a full queue drops the event and
  increments the publisher's local ``lost`` counter instead of stalling
  the pipeline (telemetry must never add backpressure to alignment);
* every task returns a tiny **ack** ``{pid, sent, lost, busy}``
  alongside its result.  Because a ``multiprocessing.Queue`` flushes
  through a background feeder thread, events can lawfully arrive
  *after* the task's future resolves; :meth:`TelemetryBus.drain` uses
  the acks to wait until every acknowledged event is in, so "zero
  dropped events" is a provable claim, not an absence of evidence.

The queue travels to pool workers through the executor's
``initializer`` (the only pickling context in which an mp.Queue may
cross a process boundary); :func:`worker_init` installs a module-global
publisher that :func:`current_publisher` exposes to task functions.  In
the parent process :func:`current_publisher` returns None, which is
exactly what the serial-fallback path needs: a task re-run in-process
falls back to returning its spans inline.

Liveness: when the pool initializer is given a heartbeat interval,
every worker starts a daemon thread publishing **beat** events.  Beats
are deliberately out-of-band — they carry no sequence number, never
count toward ``sent``/``lost``, and so can never perturb the zero-loss
delivery accounting.  The parent stamps each beat with *its own*
monotonic clock on receipt (skew-free across processes);
:meth:`TelemetryBus.stale_workers` then answers "which workers have
gone silent past the deadline", which is how a SIGSTOP'd or
infinitely-looping worker (threads frozen → beats stop) is detected
even though its process is still technically alive.
:class:`HeartbeatMonitor` packages that check for the resilient
dispatcher; the clock stays inside ``repro.obs`` where it belongs.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import threading
from time import monotonic
from typing import Callable, Dict, List, Optional, Tuple

from .metrics import MetricRegistry

__all__ = [
    "BusEndpoint",
    "BusPublisher",
    "HeartbeatMonitor",
    "TelemetryBus",
    "clear_publisher",
    "current_publisher",
    "install_publisher",
    "start_heartbeat",
    "stop_heartbeat",
    "suspend_heartbeat",
    "worker_init",
]


#: Bound of the event queue; a full queue drops (and counts) events.
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
    """Per-process event source with contiguous sequence numbers.

    ``sent`` counts successfully enqueued events (the next sequence
    number); ``lost`` counts events dropped locally because the queue
    was full.  A dropped event does *not* consume a sequence number, so
    the receiver's per-pid ordering check stays gap-free under loss.
    """

    __slots__ = ("queue", "pid", "sent", "lost")

    def __init__(self, events_queue, pid: Optional[int] = None) -> None:
        self.queue = events_queue
        self.pid = os.getpid() if pid is None else pid
        self.sent = 0
        self.lost = 0

    def emit(self, kind: str, payload) -> bool:
        try:
            self.queue.put_nowait((self.pid, self.sent, kind, payload))
        except queue_module.Full:
            self.lost += 1
            return False
        self.sent += 1
        return True

    # -- typed convenience emitters ----------------------------------
    def emit_spans(self, span_dicts: List[Dict], unit: str = "") -> bool:
        return self.emit("spans", {"unit": unit, "spans": span_dicts})

    def emit_funnel(self, unit: str, counters: Dict[str, float]) -> bool:
        return self.emit("funnel", {"unit": unit, "counters": counters})

    def emit_resource(self, sample: Dict[str, int]) -> bool:
        return self.emit("resource", sample)

    def emit_beat(self) -> bool:
        """Publish an out-of-band liveness beat.

        Beats bypass the sequence/loss accounting entirely (sentinel
        sequence number ``-1``): they are emitted from a separate
        daemon thread, so sharing the ``sent`` counter would race the
        task thread, and a beat dropped by a full queue must not count
        as a lost telemetry event.
        """
        try:
            self.queue.put_nowait((self.pid, -1, "beat", None))
        except queue_module.Full:
            return False
        return True

    def ack(self, busy: float = 0.0) -> Dict[str, float]:
        """Delivery receipt a task returns beside its result."""
        return {
            "pid": self.pid,
            "sent": self.sent,
            "lost": self.lost,
            "busy": busy,
        }


#: This process's installed publisher (workers only; None in the parent).
_PUBLISHER: Optional[BusPublisher] = None


def install_publisher(endpoint: BusEndpoint) -> BusPublisher:
    global _PUBLISHER
    _PUBLISHER = BusPublisher(endpoint.queue)
    return _PUBLISHER


def current_publisher() -> Optional[BusPublisher]:
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
    publisher = current_publisher()
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
    """Process-pool initializer: telemetry publisher + optional profiler."""
    if endpoint is not None:
        install_publisher(endpoint)
        if heartbeat_interval:
            start_heartbeat(heartbeat_interval)
    if profile_dir:
        from .profiling import install_worker_profile

        install_worker_profile(profile_dir)


class TelemetryBus:
    """Parent-side aggregator for worker telemetry events.

    Wire-up: :meth:`attach` a tracer and registry, hand
    :meth:`endpoint` to the pool initializer, and :meth:`register_unit`
    each dispatched unit's parent-timeline base offset.  During the run
    :meth:`poll` (cheap, non-blocking) routes queued events; funnels
    and resource samples merge immediately, while span payloads buffer
    until the poll's graft step so the tracer is only ever touched from
    the thread that owns it.

    Accounting: per-pid received counts are checked against the acked
    ``sent`` totals by :meth:`drain`, yielding an exact
    ``dropped_events`` figure (in transit) next to the workers' own
    ``lost_events`` (publisher-side overflow) in :meth:`summary`.
    """

    def __init__(self) -> None:
        self._queue = _bus_context().Queue(_QUEUE_SIZE)
        self._lock = threading.Lock()
        self._tracer = None
        self._registry: Optional[MetricRegistry] = None
        self.events_received = 0
        self.gap_events = 0
        self._received: Dict[int, int] = {}
        self._next_seq: Dict[int, int] = {}
        self._acked_sent: Dict[int, int] = {}
        self._acked_lost: Dict[int, int] = {}
        self._busy_seconds: Dict[int, float] = {}
        self._last_done: Dict[int, float] = {}
        self._funnel: Dict[str, float] = {}
        self._worker_funnels: Dict[int, Dict[str, float]] = {}
        #: pid -> parent-clock receipt time of the latest beat.
        self._beat_at: Dict[int, float] = {}
        self._beat_counts: Dict[int, int] = {}
        self._clock: Callable[[], float] = monotonic
        self._pending_spans: List[Tuple[int, int, Dict]] = []
        self._unit_base: Dict[str, float] = {}
        self._closed = False

    # -- wiring ------------------------------------------------------
    def endpoint(self) -> BusEndpoint:
        return BusEndpoint(self._queue)

    def attach(
        self,
        tracer=None,
        registry: Optional[MetricRegistry] = None,
    ) -> "TelemetryBus":
        with self._lock:
            if tracer is not None:
                self._tracer = tracer
            if registry is not None:
                self._registry = registry
        return self

    def register_unit(self, unit: str, base: float) -> None:
        """Record a unit's dispatch-time offset on the parent timeline."""
        with self._lock:
            self._unit_base[unit] = base

    # -- event intake ------------------------------------------------
    def _route(self, event) -> None:
        pid, seq, kind, payload = event
        if kind == "beat":
            # Out-of-band: beats carry no sequence number and must not
            # disturb the received/gap/zero-loss accounting.
            with self._lock:
                self._beat_at[pid] = self._clock()
                self._beat_counts[pid] = self._beat_counts.get(pid, 0) + 1
            return
        with self._lock:
            self.events_received += 1
            self._received[pid] = self._received.get(pid, 0) + 1
            if seq != self._next_seq.get(pid, 0):
                self.gap_events += 1
            self._next_seq[pid] = seq + 1
            if kind == "spans":
                self._pending_spans.append((pid, seq, payload))
                return
            registry = self._registry
            if kind == "funnel":
                worker = self._worker_funnels.setdefault(pid, {})
                for name, value in payload.get("counters", {}).items():
                    self._funnel[name] = self._funnel.get(name, 0) + value
                    worker[name] = worker.get(name, 0) + value
            elif kind == "resource" and registry is not None:
                registry.histogram("worker_rss_bytes").observe(
                    payload.get("rss_bytes", 0)
                )

    def _drain_nowait(self) -> int:
        drained = 0
        while True:
            try:
                event = self._queue.get_nowait()
            except (queue_module.Empty, OSError, ValueError):
                return drained
            self._route(event)
            drained += 1

    def _graft_pending(self) -> int:
        """Graft buffered span payloads (owner-thread only)."""
        with self._lock:
            pending, self._pending_spans = self._pending_spans, []
            tracer = self._tracer
            bases = dict(self._unit_base)
        if tracer is None or not pending:
            return 0
        from .export import graft_span_dicts

        pending.sort(key=lambda item: (item[0], item[1]))
        grafted = 0
        for pid, _seq, payload in pending:
            unit = payload.get("unit", "")
            spans = graft_span_dicts(
                tracer, payload.get("spans", []), base=bases.get(unit)
            )
            for root in spans:
                root.attrs.setdefault("unit", unit)
                root.attrs.setdefault("worker", pid)
            grafted += len(spans)
        return grafted

    def poll(self) -> int:
        """Drain queued events and graft spans; returns events routed.

        Call from the thread that owns the attached tracer (grafting
        mutates the span tree under the currently open span).
        """
        drained = self._drain_nowait()
        self._graft_pending()
        return drained

    # -- acks and derived accounting ---------------------------------
    def record_ack(
        self, ack: Optional[Dict], done_at: Optional[float] = None
    ) -> None:
        """Merge a task's delivery receipt (None acks are ignored)."""
        if not ack:
            return
        with self._lock:
            pid = int(ack["pid"])
            self._acked_sent[pid] = max(
                self._acked_sent.get(pid, 0), int(ack["sent"])
            )
            self._acked_lost[pid] = max(
                self._acked_lost.get(pid, 0), int(ack.get("lost", 0))
            )
            busy = float(ack.get("busy", 0.0))
            self._busy_seconds[pid] = (
                self._busy_seconds.get(pid, 0.0) + busy
            )
            if done_at is not None:
                self._last_done[pid] = max(
                    self._last_done.get(pid, 0.0), done_at
                )

    def idle_tail_seconds(self, end: float) -> float:
        """Sum over workers of (phase end − last completed task).

        ``end`` is on the same timeline as the ``done_at`` values passed
        to :meth:`record_ack` (parent ``tracer.now()``).  This is the
        straggler signal: time each worker sat idle after its last unit
        while the slowest worker finished the phase.
        """
        with self._lock:
            return sum(
                max(0.0, end - done) for done in self._last_done.values()
            )

    # -- liveness ----------------------------------------------------
    def beat_counts(self) -> Dict[int, int]:
        with self._lock:
            return dict(self._beat_counts)

    def stale_workers(self, deadline: float) -> List[int]:
        """Workers whose last beat is older than ``deadline`` seconds.

        Drains the queue first so a beat sitting in transit never reads
        as silence.  Only workers that have beaten at least once are
        considered: absence of any beat means the worker has not
        finished initialising (or beats are off), not that it hung.
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

    # -- completion --------------------------------------------------
    def _missing(self) -> int:
        with self._lock:
            return sum(
                max(0, sent - self._received.get(pid, 0))
                for pid, sent in self._acked_sent.items()
            )

    def drain(
        self,
        timeout: float = 5.0,
        clock: Callable[[], float] = monotonic,
    ) -> int:
        """Wait (bounded) until every acked event arrived; graft spans.

        Returns the number of events still missing at the deadline —
        0 is the "zero dropped events" acceptance signal.  Needed
        because the queue's feeder thread may still be flushing when
        the last future resolves.
        """
        deadline = clock() + timeout
        while self._missing() > 0 and clock() < deadline:
            if self._drain_nowait() == 0:
                try:
                    event = self._queue.get(timeout=0.02)
                except (queue_module.Empty, OSError, ValueError):
                    continue
                self._route(event)
        self._drain_nowait()
        self._graft_pending()
        return self._missing()

    def summary(self) -> Dict:
        """JSON-ready delivery and funnel accounting."""
        with self._lock:
            workers = sorted(
                set(self._received) | set(self._acked_sent)
            )
            dropped = sum(
                max(0, sent - self._received.get(pid, 0))
                for pid, sent in self._acked_sent.items()
            )
            return {
                "events": self.events_received,
                "workers": len(workers),
                "dropped_events": dropped,
                "lost_events": sum(self._acked_lost.values()),
                "gap_events": self.gap_events,
                "funnel": dict(self._funnel),
                "worker_funnels": {
                    str(pid): dict(counters)
                    for pid, counters in sorted(
                        self._worker_funnels.items()
                    )
                },
                "busy_seconds": {
                    str(pid): seconds
                    for pid, seconds in sorted(
                        self._busy_seconds.items()
                    )
                },
            }

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
