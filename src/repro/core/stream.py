"""The in-order window an assembly's parallel units run through.

Whole (target chromosome, query chromosome) units are the one parallel
schedule: a single pair always aligns in-process, because coverage-grid
absorption orders its anchors and leaves extension nothing to overlap
(EXPERIMENTS.md, "One parallel schedule").  Units have no data
dependence, so :class:`OrderedWindow` dispatches them in serial order
and collects them in that order.  It writes the pattern once — the
``stall`` fault (a sleep before a collection, modelling a slow
consumer), the supervised ``result``, the receipt and span graft, and
the :class:`repro.obs.occupancy.StreamStats` reported under the
``stream_*`` registry names.
"""

from __future__ import annotations

import time
from collections import deque
from typing import TYPE_CHECKING

from ..obs.export import graft_span_dicts
from ..obs.occupancy import StreamStats
from ..obs.resource import observe_receipt
from ..obs.tracer import NULL_TRACER

if TYPE_CHECKING:  # repro.parallel sits above core in the layer DAG
    from ..parallel.engine import ExecutionEngine

__all__ = ["OrderedWindow"]

#: Injectable sleep used by the ``stall`` fault kind (tests patch it).
_sleep = time.sleep

#: How long an injected ``stall`` fault holds a collection back.
STALL_SECONDS = 0.02


def _stall_if_planned(resilience, key: str) -> None:
    """Sleep before a collection when the fault plan schedules a stall."""
    plan = resilience.fault_plan
    if plan is not None and plan.decide("stall", key):
        resilience.stats.inject("stall")
        _sleep(STALL_SECONDS)


class OrderedWindow:
    """Dispatch in serial order; collect in that order.

    A bounded FIFO of ``(key, ticket, base)`` entries.  ``ticket`` is
    the engine's supervised-dispatch ticket and ``base`` the parent
    clock at dispatch, where the task's spans are grafted.  A *settled*
    entry has no ticket and carries its value in ``base``'s place: a
    unit replayed from a journal keeps its place in the order without
    occupying a worker.

    The window never buffers past ``capacity``; adding to a full window
    is a caller bug and raises.  Every dispatch and every collection is
    recorded in :attr:`stats` and the ``stream_queue_depth`` histogram;
    :meth:`close` writes the schedule's summary on a span and under the
    ``stream_*`` registry names.
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

    def _append(self, entry) -> None:
        if self.full:
            raise RuntimeError("ordered window overflow")
        self._entries.append(entry)

    def _depth(self, depth: int) -> None:
        if self.registry is not None:
            self.registry.histogram("stream_queue_depth").observe(depth)
        self.progress.set_in_flight(depth)

    def dispatch(self, fn, /, *args, key: str) -> None:
        """Dispatch ``fn(*args)`` behind every entry already queued."""
        base = self.tracer.now()
        ticket = self.engine.dispatch(fn, *args, key=key)
        self._append((key, ticket, base))
        self._depth(self.stats.dispatched())

    def settle(self, key: str, value) -> None:
        """Queue an already-known ``value`` behind every queued entry."""
        self._append((key, None, value))

    def collect(self):
        """Collect the oldest entry as ``(key, value, fresh)``.

        ``fresh`` is False for a settled entry, which is returned as
        queued.  A dispatched result passes the ``stall`` fault, the
        supervised ``result`` (recovery spans land on the tracer) and
        the receipt histograms; its worker spans are grafted tagged
        ``unit`` = key and ``worker`` = pid.
        """
        key, ticket, base = self._entries.popleft()
        if ticket is None:
            return key, base, False
        _stall_if_planned(self.engine.resilience, key)
        value, span_dicts, receipt = self.engine.result(
            ticket, tracer=self.tracer
        )
        self._depth(self.stats.collected())
        observe_receipt(self.registry, receipt, self.tracer.now() - base)
        if span_dicts is not None:
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
            peak_in_flight=stats.peak_in_flight,
        )
        if self.registry is not None:
            self.registry.gauge("stream_occupancy").set(stats.occupancy())
            self.registry.gauge("stream_idle_tail_seconds").set(
                stats.idle_tail_seconds()
            )
            self.registry.gauge("stream_peak_in_flight").set(
                stats.peak_in_flight
            )
        return stats
