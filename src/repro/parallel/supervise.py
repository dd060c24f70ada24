"""Supervised dispatch: retries, deadlines, pool rebuilds, fallback.

:class:`ResilientDispatcher` wraps an
:class:`~repro.parallel.engine.ExecutionEngine` with the recovery
ladder a production run needs:

1. **retry** — a failed or timed-out attempt is re-dispatched with
   bounded exponential backoff (deterministic jitter, see
   :mod:`repro.resilience.policy`);
2. **rebuild** — one rule for a dead pool, wherever it shows.  Every
   interaction with the pool (a submit or a result wait) runs through
   one guard; a worker death it sees — ``BrokenProcessPool``,
   or a hang the liveness sentinel declares — costs one rebuild, after
   which every outstanding ticket is re-dispatched.  Only the ticket
   whose own wait saw the death is charged an attempt;
3. **serial fallback** — a ticket that exhausts its retry budget is
   executed in-process.  The fallback runs the exact task function on
   the exact arguments, so a poisoned batch costs throughput, never
   correctness; a genuinely deterministic task error surfaces from the
   fallback with its original traceback.

Because callers consume results strictly in submission order (the
engine's existing determinism contract), recovery can replace *when*
and *where* a batch runs without ever changing *what* is committed:
output stays byte-identical to the serial run under any fault schedule.

Fault injection (:class:`~repro.resilience.faults.FaultPlan`) hooks in
at exactly two points — task submission (crash/error faults swap in a
sabotage task) and result collection (timeout faults) — so the recovery
paths exercised under injection are the identical code paths real
faults take.
"""

from __future__ import annotations

import time
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from ..obs.tracer import NULL_TRACER
from ..resilience.faults import (
    injected_task_error,
    injected_worker_crash,
    injected_worker_hang,
)
from ..resilience.policy import ResilienceOptions, backoff_delay

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import ExecutionEngine

__all__ = ["ResilientDispatcher", "Ticket"]


class _WorkerHang(Exception):
    """Internal signal: the liveness sentinel declared a worker hung."""


class Ticket:
    """One supervised task: what to run, plus its live attempt state."""

    __slots__ = ("fn", "args", "key", "attempt", "future")

    def __init__(self, fn: Callable, args: Tuple, key: str) -> None:
        self.fn = fn
        self.args = args
        self.key = key
        self.attempt = 0
        self.future = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Ticket(key={self.key!r}, attempt={self.attempt})"


class ResilientDispatcher:
    """Applies a :class:`RetryPolicy` to an execution engine's pool.

    ``sleep`` is injectable so tests can run retry storms without
    real backoff waits.
    """

    def __init__(
        self,
        engine: "ExecutionEngine",
        options: Optional[ResilienceOptions] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self._engine = engine
        self.options = options or ResilienceOptions()
        self._sleep = sleep
        self._outstanding: List[Ticket] = []

    # -- the one pool-death rule -------------------------------------
    def _guard(self, interact: Callable, *args, redispatch: bool = True):
        """Run one pool interaction; the only place a dead pool is handled.

        When ``interact`` finds the pool dead — ``BrokenProcessPool``,
        or a hang the liveness sentinel declared — the pool is rebuilt
        once (its workers killed first only for a hang) and every
        outstanding ticket is re-dispatched; a death during that
        re-dispatch is one more death and goes round the same loop.
        A read of a future passes ``redispatch=False`` and re-dispatches
        through this guard itself: :meth:`result` first charges its own
        ticket the attempt and may take it out for the serial fallback.
        Returns ``(value, cause)``; ``cause`` is None when no
        death was seen, else the first one's, ``"broken_pool"`` or
        ``"hang"``.
        """
        stats = self.options.stats
        cause = None
        while True:
            try:
                return interact(*args), cause
            except (BrokenProcessPool, _WorkerHang) as death:
                hang = isinstance(death, _WorkerHang)
                cause = cause or ("hang" if hang else "broken_pool")
                stats.pool_rebuilds += 1
                self._engine.rebuild(terminate=hang)
                if hang:
                    # Re-arm the sentinel so a *still*-frozen replacement
                    # escalates again on the next attempt.
                    stats.hangs += 1
                    self.options.liveness.escalated()
                if not redispatch:
                    return None, cause
                interact, args = self._redispatch, ()

    def _redispatch(self) -> None:
        """Start every outstanding ticket on a freshly rebuilt pool."""
        for ticket in self._outstanding:
            self._start(ticket)

    # -- submission --------------------------------------------------
    def submit(self, fn: Callable, /, *args, key: str = "") -> Ticket:
        """Dispatch a task under supervision; returns its ticket."""
        ticket = Ticket(fn, args, key)
        self._outstanding.append(ticket)
        self._guard(self._start, ticket)
        return ticket

    def _start(self, ticket: Ticket) -> None:
        """(Re-)dispatch one ticket, applying crash/error injection."""
        plan = self.options.fault_plan
        stats = self.options.stats
        if plan is not None and plan.decide(
            "crash", ticket.key, ticket.attempt
        ):
            stats.inject("crash")
            ticket.future = self._engine.submit(injected_worker_crash)
        elif plan is not None and plan.decide(
            "error", ticket.key, ticket.attempt
        ):
            stats.inject("error")
            ticket.future = self._engine.submit(
                injected_task_error, ticket.key
            )
        elif plan is not None and plan.decide(
            "hang", ticket.key, ticket.attempt
        ):
            stats.inject("hang")
            ticket.future = self._engine.submit(injected_worker_hang)
        else:
            ticket.future = self._engine.submit(ticket.fn, *ticket.args)

    # -- collection --------------------------------------------------
    def _await(self, ticket: Ticket):
        """Wait for the future, watching worker liveness between slices.

        Without a liveness monitor this is a plain ``result(timeout)``.
        With one, the wait proceeds in ``poll_interval`` slices; between
        slices the monitor is asked whether any beating worker has gone
        silent past its deadline, which raises :class:`_WorkerHang` —
        the only way a SIGSTOP'd or infinitely-looping worker (which
        neither errors nor breaks the pool) ever surfaces.
        """
        monitor = self.options.liveness
        timeout = self.options.policy.timeout
        if monitor is None:
            return ticket.future.result(timeout=timeout)
        slice_seconds = monitor.poll_interval
        if timeout is not None:
            slice_seconds = min(slice_seconds, timeout)
        waited = 0.0
        while True:
            try:
                return ticket.future.result(timeout=slice_seconds)
            except FutureTimeout:
                if monitor.overdue():
                    ticket.future.cancel()
                    raise _WorkerHang(ticket.key) from None
                waited += slice_seconds
                if timeout is not None and waited >= timeout:
                    raise

    def result(self, ticket: Ticket, tracer=NULL_TRACER):
        """Block for a ticket's result, driving the recovery ladder."""
        policy = self.options.policy
        plan = self.options.fault_plan
        stats = self.options.stats
        while True:
            if plan is not None and plan.decide(
                "timeout", ticket.key, ticket.attempt
            ):
                # Simulated deadline: don't wait for the (healthy)
                # future — recovery proceeds exactly as for a real one.
                stats.inject("timeout")
                cause = "timeout"
            else:
                try:
                    value, cause = self._guard(
                        self._await, ticket, redispatch=False
                    )
                except FutureTimeout:
                    cause = "timeout"
                except Exception:
                    # Transient task failures retry; a deterministic bug
                    # exhausts the budget and re-raises from the serial
                    # fallback with its original traceback.
                    cause = "task_error"
                else:
                    if cause is None:
                        self._discard(ticket)
                        return value

            ticket.attempt += 1
            if cause == "timeout":
                stats.timeouts += 1
            # After a death every outstanding future died with the pool,
            # not only this one: all of them go onto the fresh pool.
            died = cause in ("broken_pool", "hang")
            progress = self._engine.progress
            if ticket.attempt > policy.max_retries:
                self._discard(ticket)
                if died:
                    self._guard(self._redispatch)
                stats.serial_fallbacks += 1
                progress.fell_back(ticket.key, cause)
                with tracer.span(
                    "recovery",
                    action="serial_fallback",
                    key=ticket.key,
                    cause=cause,
                ):
                    return ticket.fn(*ticket.args)
            stats.retries += 1
            progress.retried(ticket.key, cause, ticket.attempt)
            with tracer.span(
                "recovery",
                action="retry",
                key=ticket.key,
                cause=cause,
                attempt=ticket.attempt,
            ):
                delay = backoff_delay(policy, ticket.attempt, ticket.key)
                if delay > 0:
                    self._sleep(delay)
                if died:
                    self._guard(self._redispatch)
                else:
                    self._guard(self._start, ticket)

    def _discard(self, ticket: Ticket) -> None:
        try:
            self._outstanding.remove(ticket)
        except ValueError:  # pragma: no cover - already collected
            pass
