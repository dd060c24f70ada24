"""One in-order window under both parallel schedules.

Anchors streamed within one unit and whole (target chromosome, query
chromosome) units across an assembly follow one pattern: dispatch in
serial order, collect in that order.  :class:`OrderedWindow` writes it
once — the bounded FIFO, the ``stall`` fault (a sleep before a
collection, modelling a slow consumer), the supervised ``result``, the
receipt and span graft, and the :class:`repro.obs.occupancy.StreamStats`
both schedules report under the same ``stream_*`` names.  Only the
bound differs: units have no data dependence, so an assembly's window
holds every unit, while anchors are bounded by :func:`anchor_window`.

The anchor schedule (:func:`stream_extension`) is a cooperative
single-threaded stage graph on top of it, instead of barrier phases
that drain the workers between seeding, filtering and extension (slower
than serial here: EXPERIMENTS.md, stage overlap):

* the **producer** advances the unit's seed+filter stage to the next
  strand and queues its priority-ordered anchors in a bounded strand
  queue (:class:`BoundedQueue`), so memory stays flat;
* the **extension frontier** dispatches one anchor per task, in strict
  serial order, while the window has room — the next strand's producer
  step runs while the previous strand's last anchors are in flight;
* the **sink** collects in dispatch order and replays the serial commit
  loop (``grid.absorbs`` re-check, dedup, coverage update), so output
  is byte-identical to serial at any worker count — the
  speculative-dispatch/in-order-replay argument of
  :mod:`repro.core.extension`, bounded by the window.

Every refusal of a full queue or window is counted
(``backpressure_stalls``).
"""

from __future__ import annotations

import time
from collections import deque
from itertools import count
from typing import TYPE_CHECKING, Callable, List, Tuple

from ..align.alignment import Alignment
from ..obs.export import graft_span_dicts
from ..obs.occupancy import StreamStats
from ..obs.resource import observe_receipt
from ..obs.tracer import NULL_TRACER
from .extension import _commit
from .worker import extend_anchor_task

if TYPE_CHECKING:  # repro.parallel sits above core in the layer DAG
    from ..parallel.engine import ExecutionEngine

__all__ = [
    "BoundedQueue",
    "OrderedWindow",
    "StrandStream",
    "stream_extension",
]

#: Injectable sleep used by the ``stall`` fault kind (tests patch it).
_sleep = time.sleep

#: Strands whose filtered anchors may be materialized at once.
STRAND_QUEUE_CAPACITY = 2

#: How long an injected ``stall`` fault holds a collection back.
STALL_SECONDS = 0.02

#: Diagonal-dependence band (bp).  An in-flight anchor's alignment runs
#: along its diagonal ``target_pos - query_pos``, so a later same-strand
#: anchor within this band is the one most likely to be absorbed once
#: the in-flight result commits.  Its dispatch waits for that commit
#: (never reordering — the frontier simply pauses), which turns
#: near-certain wasted speculation into a short wait; anchors on
#: distant diagonals still dispatch freely.  Scheduling only: any value
#: gives the same output.  Zero disables deferral.
DEFER_DIAGONAL_BP = 256


def anchor_window(workers: int) -> int:
    """Anchors in flight at once: one per worker.

    An anchor dispatched against a stale coverage grid may be absorbed
    at replay and its work discarded.  Eager replay refills a freed slot
    as soon as its result settles, so slack beyond one per worker mostly
    buys wasted speculation.
    """
    return max(1, workers)


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
        # maxlen never drops an item: offer() refuses at capacity first.
        self._items: deque = deque(maxlen=capacity)

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


def _stall_if_planned(resilience, key: str) -> None:
    """Sleep before a collection when the fault plan schedules a stall."""
    plan = resilience.fault_plan
    if plan is not None and plan.decide("stall", key):
        resilience.stats.inject("stall")
        _sleep(STALL_SECONDS)


class OrderedWindow:
    """Dispatch in serial order; collect in that order.

    A bounded FIFO of ``(key, tag, ticket, base)`` entries.  ``ticket``
    is the engine's supervised-dispatch ticket and ``base`` the parent
    clock at dispatch, where the task's spans are grafted.  A *settled*
    entry has no ticket and carries its value in ``base``'s place: a
    unit replayed from a journal keeps its place in the order without
    occupying a worker.  ``tag`` is the caller's context for the entry
    (the key unless given).

    The window never buffers past ``capacity``: callers check
    :attr:`full` and collect before adding more, and count that refusal
    with ``stats.stalled()``.  Every dispatch and every collection is
    recorded in :attr:`stats` and the ``stream_queue_depth`` histogram;
    :meth:`close` writes the schedule's summary on a span and under the
    same ``stream_*`` registry names for every schedule.
    """

    def __init__(
        self,
        engine: "ExecutionEngine",
        capacity: int,
        tracer=NULL_TRACER,
    ) -> None:
        if capacity < 1:
            raise ValueError("window capacity must be at least 1")
        self.engine = engine
        self.capacity = capacity
        self.tracer = tracer
        telemetry = engine.telemetry
        self.registry = telemetry.registry if telemetry is not None else None
        self.progress = engine.progress
        self.stats = StreamStats(slots=engine.workers)
        self._entries: deque = deque(maxlen=capacity)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    @property
    def oldest(self):
        """The oldest entry's tag."""
        return self._entries[0][1]

    def tags(self):
        """Every entry's tag, oldest first."""
        return (entry[1] for entry in self._entries)

    def _append(self, entry) -> None:
        if self.full:
            raise RuntimeError("ordered window overflow")
        self._entries.append(entry)

    def _depth(self, depth: int) -> None:
        if self.registry is not None:
            self.registry.histogram("stream_queue_depth").observe(depth)
        self.progress.set_in_flight(depth)

    def dispatch(self, fn, /, *args, key: str, tag=None) -> None:
        """Dispatch ``fn(*args)`` behind every entry already queued."""
        base = self.tracer.now()
        ticket = self.engine.dispatch(fn, *args, key=key)
        self._append((key, key if tag is None else tag, ticket, base))
        self._depth(self.stats.dispatched())

    def settle(self, key: str, value, tag=None) -> None:
        """Queue an already-known ``value`` behind every queued entry."""
        self._append((key, key if tag is None else tag, None, value))

    def ready(self) -> bool:
        """Whether the oldest entry can be collected without blocking."""
        ticket = self._entries[0][2]
        return ticket is None or self.engine.poll(ticket)

    def collect(self, graft: bool = True):
        """Collect the oldest entry as ``(key, value, fresh)``.

        ``fresh`` is False for a settled entry, which is returned as
        queued.  A dispatched result passes the ``stall`` fault, the
        supervised ``result`` (recovery spans land on the tracer) and
        the receipt histograms; its worker spans are grafted tagged
        ``unit`` = key and ``worker`` = pid, unless ``graft`` is False
        (a result the caller discards leaves no spans).
        """
        key, _tag, ticket, base = self._entries.popleft()
        if ticket is None:
            return key, base, False
        _stall_if_planned(self.engine.resilience, key)
        value, span_dicts, receipt = self.engine.result(
            ticket, tracer=self.tracer
        )
        self._depth(self.stats.collected())
        observe_receipt(self.registry, receipt, self.tracer.now() - base)
        if graft and span_dicts is not None:
            graft_span_dicts(
                self.tracer,
                span_dicts,
                base=base,
                unit=key,
                worker=receipt["pid"],
            )
        return key, value, True

    def close(self, span) -> StreamStats:
        """End the schedule: its summary on ``span`` and in the registry."""
        stats = self.stats
        stats.close()
        span.set(
            occupancy=round(stats.occupancy(), 6),
            idle_tail_seconds=round(stats.idle_tail_seconds(), 6),
            backpressure_stalls=stats.backpressure_stalls,
            peak_in_flight=stats.peak_in_flight,
        )
        if self.registry is not None:
            self.registry.counter("stream_backpressure_stalls").inc(
                stats.backpressure_stalls
            )
            self.registry.gauge("stream_occupancy").set(stats.occupancy())
            self.registry.gauge("stream_idle_tail_seconds").set(
                stats.idle_tail_seconds()
            )
            self.registry.gauge("stream_peak_in_flight").set(
                stats.peak_in_flight
            )
        return stats


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
        "query", "anchors", "grid", "workload", "position", "alignments",
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


def stream_extension(
    target,
    strand_count: int,
    produce: Callable[[int], StrandStream],
    scoring,
    params,
    engine: "ExecutionEngine",
    tracer=NULL_TRACER,
    keep_tile_traces: bool = True,
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
    traced = tracer.enabled
    window = OrderedWindow(engine, anchor_window(engine.workers), tracer)
    target_handle = engine.share(target)
    strand_queue = BoundedQueue("strand_anchors", STRAND_QUEUE_CAPACITY)
    states: List[StrandStream] = []
    head = 0  # index of the state the frontier is currently draining
    produced = 0
    numbers = count()

    def _produce_next() -> None:
        nonlocal produced
        state = produce(produced)
        produced += 1
        # Capacity was checked by the caller; a refusal here would be a
        # coordinator bug, so let it surface.
        if not strand_queue.offer(state):
            raise RuntimeError("strand queue overflow")
        states.append(state)

    def _deferred(state, anchor) -> bool:
        """Whether a same-strand anchor in flight sits within
        ``DEFER_DIAGONAL_BP`` of ``anchor``'s diagonal (scheduling only:
        the frontier stops and resumes after the blocking result
        commits)."""
        band = DEFER_DIAGONAL_BP
        if band <= 0:
            return False
        return any(
            other is state and abs(pending.diagonal - anchor.diagonal) <= band
            for other, pending in window.tags()
        )

    def _try_dispatch() -> bool:
        """Dispatch anchors in serial order while the window has room.

        Returns True when the frontier paused on a diagonal-dependence
        deferral (anchors remain but speculating them now would be
        waste) — the caller may use the pause to run the producer.
        """
        nonlocal head
        while head < len(states) and not window.full:
            state = states[head]
            if state.exhausted:
                # Fully dispatched: free this strand's queue slot so the
                # producer may run again.
                strand_queue.take()
                head += 1
                continue
            anchor = state.anchors[state.position]
            # The grid only grows, so an anchor it already absorbs would
            # also be absorbed at its serial turn: skipping at dispatch
            # time is always correct.
            if state.grid.absorbs(anchor):
                state.position += 1
                state.workload.absorbed_anchors += 1
                continue
            if _deferred(state, anchor):
                return True
            state.position += 1
            window.dispatch(
                extend_anchor_task,
                target_handle,
                engine.share(state.query),
                anchor,
                scoring,
                params,
                traced,
                key=f"extend:{next(numbers)}",
                tag=(state, anchor),
            )
        return False

    def _collect_one() -> None:
        """Collect the oldest in-flight anchor and replay it in order."""
        state, anchor = window.oldest
        # Strict in-order replay: re-check absorption against the
        # now-complete grid; an absorbed result is dropped with its
        # spans and counters so accounting matches the serial run.
        if state.grid.absorbs(anchor):
            window.collect(graft=False)
            state.workload.absorbed_anchors += 1
            return
        _, extension, _ = window.collect()
        _commit(
            extension,
            state.grid,
            state.workload,
            state.alignments,
            state.seen_spans,
            keep_tile_traces,
        )
        window.progress.advance(cells=extension.cells)

    # The producer's spans nest under this one: the overlap of later
    # strands' seeding with in-flight extensions is real, so the trace
    # reflects it.
    with tracer.span("extend") as extend_span:
        while True:
            # Eager replay: commit every already-settled head result
            # before forming new speculation.  Costs nothing (poll never
            # blocks), and keeps the coverage grid fresh so fewer
            # dispatched anchors turn out absorbed at replay — the
            # dominant waste term when cores are scarce.  Order is still
            # strictly FIFO.
            while window and window.ready():
                _collect_one()
            deferred = _try_dispatch()
            saturated = window.full
            starved = head >= len(states)  # no produced anchor left
            if produced < strand_count and (starved or saturated or deferred):
                # The frontier is either starved (needs the next strand's
                # anchors) or saturated (the producer can prefetch while
                # workers chew) — run the producer, unless the bounded
                # strand queue refuses: then drain one collection first.
                if not strand_queue.full:
                    _produce_next()
                    continue
                strand_queue.stalls += 1
                window.stats.stalled()
            if not window:
                if produced < strand_count:
                    continue  # a queue slot freed; produce on the next pass
                break
            if not starved and saturated:
                # The window holds the frontier back while anchors are
                # pending: producer throttling, counted as backpressure.
                window.stats.stalled()
            _collect_one()

        stats = window.close(extend_span)
        for counter in (
            "extension_tiles", "extension_cells", "absorbed_anchors"
        ):
            extend_span.inc(
                counter, sum(getattr(s.workload, counter) for s in states)
            )
        extend_span.inc(
            "alignments", sum(len(s.alignments) for s in states)
        )
    return states, stats
