"""Streaming seed->filter->extend dataflow with bounded queues.

The parallel schedule of the pipeline.  A naive port would run barrier
phases — all seeding, then all filtering, then all extension, per
strand, with a full worker drain between phases — and pay an idle tail
at every drain (measured slower than serial here: EXPERIMENTS.md,
stage overlap).  This module is a cooperative single-threaded stage
graph instead:

* the **producer** stage advances the unit's seed+filter stage to the
  next strand's result and emits its priority-ordered anchors into a
  bounded strand queue (:class:`BoundedQueue`) — at most
  ``STRAND_QUEUE_CAPACITY`` strands' anchors are ever materialized, so
  memory stays flat;
* the **extension frontier** forms small anchor batches in strict
  serial order and dispatches them to the
  :class:`~repro.parallel.engine.ExecutionEngine` as soon as the
  in-flight watermark (``max_in_flight_anchors``) has room — no
  end-of-strand barrier: the next strand's producer step runs while the
  previous strand's last batches are still in flight;
* the **sink** collects results strictly in dispatch order and replays
  the serial commit loop (`grid.absorbs` re-check, dedup, coverage
  update), so the output is byte-identical to serial at any worker
  count — the speculative-dispatch/in-order-replay argument spelled out
  in :mod:`repro.core.extension`, with the speculation window bounded
  by the watermark.

Backpressure is explicit and observable: the producer only runs when
the frontier is starved and the strand queue has room; every refusal is
counted (``backpressure_stalls``) and the whole schedule is integrated
by :class:`repro.obs.occupancy.StreamStats` into per-stage occupancy
and ``idle_tail_seconds``.

Fault injection understands streams: a ``stall`` fault
(:data:`repro.resilience.faults.FAULT_KINDS`) sleeps before a
collection, modelling a slow consumer; crashes/timeouts ride the
normal :class:`~repro.parallel.supervise.ResilientDispatcher` ladder,
and checkpoint/resume journals whole units exactly as before.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from ..align.alignment import Alignment
from ..obs.export import graft_span_dicts
from ..obs.occupancy import StreamStats
from ..obs.resource import observe_receipt
from ..obs.tracer import NULL_TRACER
from .extension import _commit
from .worker import extend_batch_task

if TYPE_CHECKING:  # repro.parallel sits above core in the layer DAG
    from ..parallel.engine import ExecutionEngine

__all__ = [
    "BoundedQueue",
    "StrandStream",
    "StreamParams",
    "stream_extension",
]

#: Injectable sleep used by the ``stall`` fault kind (tests patch it).
_sleep = time.sleep

#: Anchors per dispatched extension task.
ANCHOR_BATCH = 1

#: Strands whose filtered anchors may be materialized at once.
STRAND_QUEUE_CAPACITY = 2

#: How long an injected ``stall`` fault holds a collection back.
STALL_SECONDS = 0.02


class BoundedQueue:
    """A bounded FIFO stage queue with cooperative backpressure.

    Single-threaded by design: stages run interleaved in one
    coordinator loop, so "blocking" is cooperative — :meth:`offer`
    returns ``False`` (and counts a stall) when the queue is full, and
    the caller yields to the consumer instead of growing the buffer.
    Every queue therefore has a hard capacity; an unbounded stage
    buffer is a lint error (PAR003).
    """

    __slots__ = ("name", "capacity", "stalls", "peak", "_items")

    def __init__(self, name: str, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("queue capacity must be at least 1")
        self.name = name
        self.capacity = capacity
        self.stalls = 0
        self.peak = 0
        # Bounded by `capacity` via the offer() guard below.
        self._items: deque = deque()  # repro: allow[PAR003] offer() enforces capacity

    def __len__(self) -> int:
        return len(self._items)

    @property
    def full(self) -> bool:
        return len(self._items) >= self.capacity

    def offer(self, item) -> bool:
        """Enqueue ``item`` unless full; a refusal counts as a stall."""
        if self.full:
            self.stalls += 1
            return False
        self._items.append(item)
        if len(self._items) > self.peak:
            self.peak = len(self._items)
        return True

    def take(self):
        """Dequeue the oldest item (raises IndexError when empty)."""
        return self._items.popleft()

    def head(self):
        """The oldest item without dequeuing it, or None when empty."""
        return self._items[0] if self._items else None


@dataclass(frozen=True)
class StreamParams:
    """Tuning knobs for the streaming dataflow (zero means "derive").

    ``max_in_flight_anchors`` is the speculation watermark: how many
    anchors may be dispatched ahead of the committed coverage grid.
    Smaller windows waste fewer speculative extensions (an anchor
    dispatched against a stale grid may be absorbed at replay and its
    work discarded); larger windows keep more workers fed.  The default
    is one anchor per worker: eager replay refills a freed slot as soon
    as its result settles, so extra slack mostly buys wasted
    speculation.

    ``defer_diagonal_bp`` is a dependence heuristic, not a correctness
    knob: an in-flight anchor's alignment runs along its diagonal
    ``target_pos - query_pos``, so a later anchor within that band is
    the one most likely to be absorbed once the in-flight result
    commits.  Deferring its dispatch until then (never reordering —
    the frontier simply pauses) converts near-certain wasted
    speculation into a short wait; anchors on distant diagonals still
    dispatch freely.  Zero disables deferral.
    """

    max_in_flight_anchors: int = 0  # 0 -> one per worker
    unit_window: int = 0  # 0 -> max(2 * workers, workers + 2)
    defer_diagonal_bp: int = 256

    def in_flight_limit(self, workers: int) -> int:
        if self.max_in_flight_anchors > 0:
            return self.max_in_flight_anchors
        return max(1, workers)

    def unit_window_for(self, workers: int) -> int:
        if self.unit_window > 0:
            return self.unit_window
        return max(2 * workers, workers + 2)


DEFAULT_STREAM = StreamParams()


class StrandStream:
    """One strand's anchors flowing through the extension frontier.

    Built when the unit's seed+filter stage yields this strand's
    anchors — the stage scores all strands as one tile stream and
    yields a strand once its last tile is scored — and sorted by filter
    score (a deliberate ordering barrier: extension priority is a
    determinism invariant).  Then drained anchor by anchor with
    per-strand replay state so commits evolve exactly as the serial
    per-strand loop.
    """

    __slots__ = (
        "query",
        "anchors",
        "grid",
        "workload",
        "position",
        "alignments",
        "seen_spans",
    )

    def __init__(self, query, anchors, grid, workload) -> None:
        self.query = query
        self.anchors = anchors
        self.grid = grid
        self.workload = workload
        self.position = 0
        self.alignments: List[Alignment] = []
        self.seen_spans: set = set()

    @property
    def exhausted(self) -> bool:
        return self.position >= len(self.anchors)


def _stall_if_planned(resilience, key: str) -> None:
    """Sleep before a collection when the fault plan schedules a stall."""
    if resilience is None or resilience.fault_plan is None:
        return
    plan = resilience.fault_plan
    if plan.decide("stall", key):
        resilience.stats.inject("stall")
        _sleep(STALL_SECONDS)


def stream_extension(
    target,
    strand_count: int,
    produce: Callable[[int], StrandStream],
    scoring,
    params,
    engine: "ExecutionEngine",
    tracer=NULL_TRACER,
    stream: Optional[StreamParams] = None,
    keep_tile_traces: bool = True,
    resilience=None,
) -> Tuple[List[StrandStream], StreamStats]:
    """Drive ``strand_count`` strands through the streamed frontier.

    ``produce(i)`` advances the unit's seed+filter stage to strand
    ``i``'s anchors (``next()`` on its per-strand iterator) and returns
    a :class:`StrandStream`; it is called in strand order and lazily,
    under backpressure — only when the extension frontier is starved
    and the bounded strand queue has room — so the filter slabs a later
    strand still needs overlap earlier strands' in-flight extensions
    instead of waiting for a drain.

    Returns the per-strand streams (in serial strand order, each with
    its committed alignments and workload) plus the schedule's
    :class:`StreamStats`.  Byte-identical to running
    :func:`repro.core.extension.extend_anchors` per strand serially,
    and — like it — recorded as one ``extend`` span carrying the
    extension counters (plus this schedule's occupancy figures).
    """
    stream = stream or DEFAULT_STREAM
    limit = stream.in_flight_limit(engine.workers)
    traced = tracer.enabled
    telemetry = engine.telemetry
    registry = telemetry.registry if telemetry is not None else None
    progress = engine.progress
    stats = StreamStats(slots=engine.workers)

    target_handle = engine.share(target)
    strand_queue = BoundedQueue("strand_anchors", STRAND_QUEUE_CAPACITY)
    states: List[StrandStream] = []
    # Oldest-first dispatch ledger; bounded by `limit` anchors via the
    # watermark checks in _try_dispatch.
    in_flight: deque = deque()  # repro: allow[PAR003] bounded by the in-flight anchor watermark
    in_flight_anchors = 0
    head = 0  # index of the state the frontier is currently draining
    batch_number = 0
    produced = 0

    def _produce_next() -> None:
        nonlocal produced
        state = produce(produced)
        produced += 1
        # Capacity was checked by the caller; a refusal here would be a
        # coordinator bug, so let it surface.
        if not strand_queue.offer(state):
            raise RuntimeError("strand queue overflow")
        states.append(state)

    def _deferred(state, anchor, batch) -> bool:
        """Whether to pause speculation on ``anchor`` (scheduling only).

        True when a same-strand anchor already in flight (or in the
        batch being formed) sits within ``defer_diagonal_bp`` of this
        anchor's diagonal — its alignment will likely absorb this one,
        so dispatching now is near-certain waste.  Deferring never
        reorders: the frontier stops forming and resumes after the
        blocking result commits.
        """
        band = stream.defer_diagonal_bp
        if band <= 0:
            return False
        diag = anchor.target_pos - anchor.query_pos
        for pending in batch:
            if abs(pending.target_pos - pending.query_pos - diag) <= band:
                return True
        for other, flying, _ticket, _base, _number in in_flight:
            if other is not state:
                continue
            for pending in flying:
                pd = pending.target_pos - pending.query_pos
                if abs(pd - diag) <= band:
                    return True
        return False

    def _try_dispatch() -> bool:
        """Form and dispatch batches in serial order up to the watermark.

        Returns True when the frontier paused on a diagonal-dependence
        deferral (anchors remain but speculating them now would be
        waste) — the caller may use the pause to run the producer.
        """
        nonlocal head, in_flight_anchors, batch_number
        deferred = False
        while head < len(states) and in_flight_anchors < limit:
            state = states[head]
            batch = []
            while (
                not state.exhausted
                and len(batch) < ANCHOR_BATCH
                and in_flight_anchors + len(batch) < limit
            ):
                anchor = state.anchors[state.position]
                # The grid only grows, so an anchor it already absorbs
                # would also be absorbed at its serial turn: skipping at
                # formation time is always correct.
                if state.grid.absorbs(anchor):
                    state.position += 1
                    state.workload.absorbed_anchors += 1
                    continue
                if _deferred(state, anchor, batch):
                    deferred = True
                    break
                state.position += 1
                batch.append(anchor)
            if batch:
                base = tracer.now()
                ticket = engine.dispatch(
                    extend_batch_task,
                    target_handle,
                    engine.share(state.query),
                    tuple(batch),
                    scoring,
                    params,
                    traced,
                    key=f"extend:{batch_number}",
                )
                in_flight.append(
                    (state, tuple(batch), ticket, base, batch_number)
                )
                in_flight_anchors += len(batch)
                batch_number += 1
                depth = stats.dispatched()
                if registry is not None:
                    registry.histogram("stream_queue_depth").observe(depth)
                continue
            if state.exhausted:
                # Fully dispatched: free this strand's queue slot so the
                # producer may run again.
                strand_queue.take()
                head += 1
                continue
            break  # watermark or deferral reached mid-strand
        progress.set_in_flight(len(in_flight))
        return deferred

    def _starved() -> bool:
        """No produced anchors left to dispatch."""
        return head >= len(states)

    def _collect_one() -> None:
        """Collect the oldest in-flight batch and replay it in order."""
        nonlocal in_flight_anchors
        state, batch, ticket, base, number = in_flight.popleft()
        key = f"extend:{number}"
        _stall_if_planned(resilience, key)
        results, span_dicts, receipt = engine.result(ticket, tracer=tracer)
        in_flight_anchors -= len(batch)
        depth = stats.collected()
        if registry is not None:
            registry.histogram("stream_queue_depth").observe(depth)
        observe_receipt(registry, receipt, tracer.now() - base)
        committed_cells = 0
        for slot, (anchor, extension) in enumerate(zip(batch, results)):
            # Strict in-order replay: re-check absorption against the
            # now-complete grid; drop absorbed results with their spans
            # and counters so accounting matches the serial run exactly.
            if state.grid.absorbs(anchor):
                state.workload.absorbed_anchors += 1
                continue
            if span_dicts is not None:
                graft_span_dicts(
                    tracer,
                    [span_dicts[slot]],
                    base=base,
                    unit=key,
                    worker=receipt["pid"],
                )
            committed_cells += extension.cells
            _commit(
                extension,
                state.grid,
                state.workload,
                state.alignments,
                state.seen_spans,
                keep_tile_traces,
            )
        progress.advance(cells=committed_cells)
        progress.set_in_flight(len(in_flight))

    # The producer's spans nest under this one: the overlap of later
    # strands' seeding with in-flight extensions is real, so the trace
    # reflects it.
    with tracer.span("extend") as extend_span:
        while True:
            # Eager replay: commit every already-settled head batch before
            # forming new speculation.  Costs nothing (poll never blocks),
            # and keeps the coverage grid fresh so fewer dispatched anchors
            # turn out absorbed at replay — the dominant waste term when
            # cores are scarce.  Order is still strictly FIFO.
            while in_flight and engine.poll(in_flight[0][2]):
                _collect_one()
            deferred = _try_dispatch()
            saturated = in_flight_anchors >= limit
            if produced < strand_count and (
                _starved() or saturated or deferred
            ):
                # The frontier is either starved (needs the next strand's
                # anchors) or saturated (the producer can prefetch while
                # workers chew) — run the producer, unless the bounded
                # strand queue refuses: then drain one collection first.
                if not strand_queue.full:
                    _produce_next()
                    continue
                strand_queue.stalls += 1
                stats.stalled()
            if not in_flight:
                if produced < strand_count:
                    continue  # a queue slot freed; produce on the next pass
                break
            if not _starved() and saturated:
                # Watermark holds the frontier back while anchors are
                # pending: producer throttling, counted as backpressure.
                stats.stalled()
            _collect_one()

        stats.close()
        for counter in (
            "extension_tiles", "extension_cells", "absorbed_anchors"
        ):
            extend_span.inc(
                counter, sum(getattr(s.workload, counter) for s in states)
            )
        extend_span.inc(
            "alignments", sum(len(s.alignments) for s in states)
        )
        extend_span.set(
            occupancy=round(stats.occupancy(), 6),
            idle_tail_seconds=round(stats.idle_tail_seconds(), 6),
            backpressure_stalls=stats.backpressure_stalls,
            peak_in_flight=stats.peak_in_flight,
        )
    if registry is not None:
        registry.counter("stream_backpressure_stalls").inc(
            stats.backpressure_stalls
        )
        registry.gauge("stream_occupancy").set(stats.occupancy())
        registry.gauge("stream_idle_tail_seconds").set(
            stats.idle_tail_seconds()
        )
        registry.gauge("stream_peak_in_flight").set(stats.peak_in_flight)
    return states, stats
