"""Worker-occupancy accounting for the parallel unit schedule.

An assembly's chromosome-pair units run through
:class:`repro.core.stream.OrderedWindow`, which needs a clock to answer
"how busy were the worker slots, and how long did they starve?" — and
wall clocks are confined to :mod:`repro.obs` (DET003), so the tracker
lives here and the window only ever calls its methods.

:class:`StreamStats` integrates ``min(in_flight, slots)`` — the number
of worker slots that *could* have been busy — over the window from the
first dispatch to the last collection, yielding:

* ``occupancy``          — busy slot-seconds / (slots x window): the
  fraction of worker capacity the schedule actually used;
* ``idle_tail_seconds``  — idle slot-seconds *after the last dispatch*,
  up to the schedule's :meth:`close`: the final drain, while the depth
  ramps to zero as the slowest units finish.  Gaps in the middle of a
  schedule, with nothing in flight, are *not* part of the tail — they
  show up in ``occupancy`` instead;
* ``peak_in_flight``     — the most tasks in flight at once.

Depth is counted in *dispatch units* — one task (an assembly unit)
occupies one worker slot, whatever its payload size — so
``min(in_flight, slots)`` compares like with like against the worker
count.  It counts *uncollected* tasks, not *unfinished* ones: a task
that finished behind a slow head still counts as busy, so an in-order
window can read every slot busy while a worker sits idle.

The tracker is single-process and event-driven: every ``dispatched``/
``collected`` call advances the integral to "now" first, so the math is
exact for any interleaving.  Tests may inject a fake clock.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict, Optional

__all__ = ["StreamStats"]


class StreamStats:
    """Occupancy and idle-tail accounting for one schedule."""

    def __init__(
        self,
        slots: int,
        clock: Callable[[], float] = perf_counter,
    ) -> None:
        self.slots = max(1, int(slots))
        self._clock = clock
        self._last = clock()
        self._depth = 0
        self._busy_integral = 0.0
        self._first_dispatch: Optional[float] = None
        self._last_dispatch: Optional[float] = None
        self._tail_busy_base = 0.0
        self._last_collect: Optional[float] = None
        self._closed: Optional[float] = None
        self.peak_in_flight = 0
        self.dispatched_tasks = 0
        self.collected_tasks = 0

    def _advance(self) -> float:
        now = self._clock()
        delta = now - self._last
        if delta > 0.0:
            self._busy_integral += min(self._depth, self.slots) * delta
            self._last = now
        return now

    def dispatched(self, tasks: int = 1) -> int:
        """Record ``tasks`` units entering flight; returns the depth."""
        now = self._advance()
        if self._first_dispatch is None:
            self._first_dispatch = now
        self._last_dispatch = now
        self._tail_busy_base = self._busy_integral
        self._depth += tasks
        self.dispatched_tasks += tasks
        if self._depth > self.peak_in_flight:
            self.peak_in_flight = self._depth
        return self._depth

    def collected(self, tasks: int = 1) -> int:
        """Record ``tasks`` units leaving flight; returns the depth."""
        self._last_collect = self._advance()
        self._depth -= tasks
        self.collected_tasks += tasks
        return self._depth

    def close(self) -> None:
        """Pin the window's end at "now".

        Called when the schedule being observed is *over*, which may be
        after the last collection: a serial stage that runs after the
        last drain leaves the workers idle for all of it, and that idle
        time belongs to the tail.  Without the mark the window would end
        at the last collect and the tail would be invisible.
        """
        self._closed = self._advance()

    def _window_end(self) -> Optional[float]:
        if self._closed is not None:
            return self._closed
        return self._last_collect

    def idle_tail_seconds(self) -> float:
        """Idle slot-seconds between the last dispatch and window end.

        The schedule's drain tail: once nothing new is being
        dispatched, every slot-second not spent finishing in-flight
        work is capacity the schedule wasted at its end.
        """
        end = self._window_end()
        if self._last_dispatch is None or end is None:
            return 0.0
        window = end - self._last_dispatch
        if window <= 0.0:
            return 0.0
        tail_busy = self._busy_integral - self._tail_busy_base
        return max(0.0, self.slots * window - tail_busy)

    def occupancy(self) -> float:
        """Busy fraction of worker capacity inside the dispatch window."""
        end = self._window_end()
        if self._first_dispatch is None or end is None:
            return 0.0
        window = end - self._first_dispatch
        if window <= 0.0:
            return 0.0
        return min(1.0, self._busy_integral / (self.slots * window))

    def summary(self) -> Dict[str, float]:
        """Snapshot of every derived number (JSON-ready)."""
        window = 0.0
        end = self._window_end()
        if self._first_dispatch is not None and end is not None:
            window = max(0.0, end - self._first_dispatch)
        return {
            "slots": self.slots,
            "window_seconds": window,
            "busy_slot_seconds": self._busy_integral,
            "occupancy": self.occupancy(),
            "idle_tail_seconds": self.idle_tail_seconds(),
            "peak_in_flight": self.peak_in_flight,
            "dispatched_tasks": self.dispatched_tasks,
            "collected_tasks": self.collected_tasks,
        }
