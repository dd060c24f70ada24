"""Deterministic weighted-fair job scheduling with bounded admission.

Classic WFQ virtual-time accounting, deliberately clock-free so a
replayed queue always drains in the same order: each priority class
advances a virtual finish time by ``1 / weight`` per job, a job's
finish tag is ``max(global_vtime, class_vtime) + 1/weight`` at offer
time, and :meth:`take` pops the smallest ``(finish_tag, seq)``.  Under
contention an ``interactive`` job (weight 8) therefore receives eight
times the service share of a ``batch`` job (weight 1), while FIFO order
holds within a class and no class ever starves.

Admission is **bounded**: :meth:`offer` refuses beyond ``max_queued``
(the daemon answers HTTP 429 + ``Retry-After``), so a saturating burst
degrades into shed requests instead of unbounded memory growth: no
buffer in the service grows with the offered load.
"""

from __future__ import annotations

import heapq
import threading
from typing import Dict, List, Optional

from .jobs import PRIORITY_WEIGHTS, Job

__all__ = ["WeightedFairScheduler"]


class WeightedFairScheduler:
    """Thread-safe bounded weighted-fair queue of :class:`Job`."""

    def __init__(
        self,
        max_queued: int = 64,
        weights: Optional[Dict[str, float]] = None,
    ) -> None:
        if max_queued < 1:
            raise ValueError("max_queued must be at least 1")
        self.max_queued = max_queued
        self.weights = dict(weights or PRIORITY_WEIGHTS)
        self._heap: List[tuple] = []
        self._lock = threading.Condition()
        self._vtime = 0.0
        self._class_vtime: Dict[str, float] = {}
        self.shed = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._heap)

    def offer(self, job: Job) -> bool:
        """Admit ``job``, or refuse (False) when the queue is full."""
        with self._lock:
            if len(self._heap) >= self.max_queued:
                self.shed += 1
                return False
            weight = self.weights.get(job.priority, 1.0)
            start = max(
                self._vtime, self._class_vtime.get(job.priority, 0.0)
            )
            finish = start + 1.0 / weight
            self._class_vtime[job.priority] = finish
            heapq.heappush(self._heap, (finish, job.seq, job))
            self._lock.notify()
            return True

    def take(self, timeout: Optional[float] = None) -> Optional[Job]:
        """Pop the next job by weighted-fair order (blocking).

        Returns None when the wait times out with an empty queue.
        Cancelled jobs (state changed after admission) are dropped
        silently here — their state transition was already journaled.
        """
        with self._lock:
            while True:
                while self._heap:
                    finish, _seq, job = heapq.heappop(self._heap)
                    self._vtime = max(self._vtime, finish)
                    if job.state == "queued":
                        return job
                if not self._lock.wait(timeout=timeout):
                    return None

    def drain(self) -> List[Job]:
        """Remove and return every queued job (shutdown path)."""
        with self._lock:
            jobs = [job for _f, _s, job in sorted(self._heap)]
            self._heap.clear()
            return jobs

    def depth(self) -> int:
        return len(self)
