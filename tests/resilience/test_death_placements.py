"""Every placement of a worker death, against a scripted pool.

Ticket order, not timing, is the supervisor's only real dependency
(Sundram, PAPERS.md), so where a worker dies relative to the pool
interactions can be enumerated instead of sampled.  ``ScriptedPool``
stands in for :class:`~repro.parallel.engine.ExecutionEngine` in
process and models the pool as a generation counter:

* a death fails every pending future of the current generation;
* after a death, ``submit`` raises ``BrokenProcessPool`` until
  ``rebuild()``;
* futures settle lazily, when first read.

A death is placed before or after each of the first ten engine
submits, or just before each of the six calls ``run`` makes (three
submits, three results): 26 placements, so 351 single or paired
schedules per retry budget, each a few milliseconds.
``ScriptedMonitor`` adds hangs: its ``overdue()`` fires at scripted
waits.  The last test pins, in the source, that the supervisor keeps
one place where a pool death is caught.
"""

import ast
import itertools
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from repro.obs.progress import NO_PROGRESS
from repro.parallel import ResilientDispatcher
from repro.resilience import ResilienceOptions, RetryPolicy

SRC = Path(__file__).resolve().parents[2] / "src"

PLACEMENTS = (
    [("before", submit) for submit in range(1, 11)]
    + [("after", submit) for submit in range(1, 11)]
    + [("call", call) for call in range(6)]
)
SCHEDULES = [(placement,) for placement in PLACEMENTS] + list(
    itertools.combinations(PLACEMENTS, 2)
)
#: Scripted hangs: one or two of the first four waits on a live future.
HANGS = [(wait,) for wait in range(1, 5)] + list(
    itertools.combinations(range(1, 5), 2)
)


def double(x):
    return 2 * x


class ScriptedFuture:
    """A future of one pool generation; runs its call when first read."""

    def __init__(self, pool, fn, args):
        self.pool = pool
        self.generation = pool.generation
        self.call = (fn, args)
        self.outcome = None  # ("value", v) or ("error", e) once settled

    def _read(self):
        if self.generation != self.pool.generation:
            self.pool.stale_reads += 1
        if self.outcome is None:
            fn, args = self.call
            self.outcome = ("value", fn(*args))
            self.pool.pending.remove(self)
        return self.outcome

    def done(self):
        self._read()
        return True

    def cancel(self):
        return False

    def result(self, timeout=None):
        if self.outcome is None and self.pool.wait_hangs():
            raise FutureTimeout()
        kind, payload = self._read()
        if kind == "error":
            raise payload
        return payload


class ScriptedPool:
    """The engine surface the dispatcher uses, driven by a script."""

    progress = NO_PROGRESS

    def __init__(self, deaths=(), hung_waits=()):
        self.deaths = set(deaths)
        self.hung_waits = set(hung_waits)
        self.generation = 0
        self.broken = self.wedged = False
        self.pending = []
        self.submits = self.waits = 0
        self.fired = self.hangs = self.stale_reads = 0
        self.rebuilds = []  # the terminate flag of each rebuild

    def at(self, point):
        """Kill the pool if a death is scripted at ``point``."""
        if point in self.deaths and not self.broken:
            self.fired += 1
            self._fail_pending()
            self.broken = True

    def _fail_pending(self):
        for future in self.pending:
            future.outcome = ("error", BrokenProcessPool("worker died"))
        self.pending = []

    def wait_hangs(self):
        """Count a wait on a live future; True while a worker is wedged."""
        self.waits += 1
        if self.waits in self.hung_waits:
            self.hangs += 1
            self.wedged = True
        return self.wedged

    def submit(self, fn, *args):
        self.submits += 1
        self.at(("before", self.submits))
        if self.broken:
            raise BrokenProcessPool("pool is broken")
        future = ScriptedFuture(self, fn, args)
        self.pending.append(future)
        self.at(("after", self.submits))
        return future

    def rebuild(self, terminate=False):
        # The old generation's unsettled futures die with its workers.
        self.rebuilds.append(terminate)
        self._fail_pending()
        self.generation += 1
        self.broken = self.wedged = False


class ScriptedMonitor:
    """Liveness sentinel: overdue exactly while the pool is wedged."""

    poll_interval = 0.01

    def __init__(self, pool):
        self.pool = pool
        self.escalations = 0

    def overdue(self):
        return self.pool.wedged

    def escalated(self):
        self.escalations += 1


def run(deaths, max_retries, hung_waits=()):
    """Three submits, then three results; a death may precede each."""
    pool = ScriptedPool(deaths, hung_waits)
    monitor = ScriptedMonitor(pool) if hung_waits else None
    options = ResilienceOptions(
        policy=RetryPolicy(max_retries=max_retries), liveness=monitor
    )
    dispatcher = ResilientDispatcher(pool, options, sleep=lambda _: None)
    tickets, results = [], []
    for call in range(6):
        pool.at(("call", call))
        if call < 3:
            tickets.append(dispatcher.submit(double, call, key=f"u{call}"))
        else:
            results.append(dispatcher.result(tickets[call - 3]))
    return pool, monitor, dispatcher, tickets, results


def violations(deaths, max_retries, hung_waits=()):
    """What the schedule broke of the supervisor's contract (empty: ok)."""
    try:
        pool, monitor, dispatcher, tickets, results = run(
            deaths, max_retries, hung_waits
        )
    except BrokenProcessPool:
        return ["BrokenProcessPool escaped"]
    stats = dispatcher.options.stats
    broken = []
    if results != [0, 2, 4]:
        broken.append(f"results {results}")
    if dispatcher._outstanding:
        broken.append("tickets left outstanding")
    if pool.stale_reads:
        broken.append(f"{pool.stale_reads} reads of a dead generation")
    if stats.pool_rebuilds != len(pool.rebuilds):
        broken.append("pool_rebuilds miscounted")
    if len(pool.rebuilds) > pool.fired + pool.hangs:
        broken.append(
            f"{len(pool.rebuilds)} rebuilds for "
            f"{pool.fired} deaths + {pool.hangs} hangs"
        )
    if pool.rebuilds.count(True) != pool.hangs:
        broken.append("terminating rebuilds != hangs")
    escalations = monitor.escalations if monitor else 0
    if not stats.hangs == escalations == pool.hangs:
        broken.append("sentinel not re-armed once per hang")
    if any(ticket.attempt > max_retries + 1 for ticket in tickets):
        broken.append("attempt over budget")
    return broken


@pytest.mark.parametrize("max_retries", [0, 2])
def test_every_death_placement_recovers(max_retries):
    assert len(SCHEDULES) == 351
    failed = {}
    for deaths in SCHEDULES:
        broken = violations(deaths, max_retries)
        if broken:
            failed[deaths] = broken
    assert not failed, f"{len(failed)} of {len(SCHEDULES)}: {failed}"


@pytest.mark.parametrize("max_retries", [0, 2])
def test_every_hang_placement_recovers(max_retries):
    failed = {}
    for hung_waits in HANGS:
        for deaths in [()] + [(placement,) for placement in PLACEMENTS]:
            broken = violations(deaths, max_retries, hung_waits)
            if broken:
                failed[(hung_waits, deaths)] = broken
    assert not failed, f"{len(failed)} schedules: {failed}"


def test_single_hang_terminates_once_and_redispatches_the_rest():
    pool, monitor, dispatcher, tickets, results = run((), 2, hung_waits=(2,))
    assert results == [0, 2, 4]
    assert pool.rebuilds == [True]
    assert monitor.escalations == dispatcher.options.stats.hangs == 1
    # The hang was seen waiting on u1: only u1 is charged, and u2 was
    # re-dispatched onto the fresh generation rather than read stale.
    assert [ticket.attempt for ticket in tickets] == [0, 1, 0]
    assert pool.stale_reads == 0


def test_second_death_during_redispatch_does_not_escape():
    # Death observed in result(u1); the first re-dispatch submit (the
    # fourth engine submit) finds the fresh pool dead again.
    pool, _, dispatcher, tickets, results = run(
        (("call", 4), ("before", 4)), max_retries=2
    )
    assert results == [0, 2, 4]
    assert dispatcher.options.stats.pool_rebuilds == pool.fired == 2
    assert [ticket.attempt for ticket in tickets] == [0, 1, 0]


def test_no_retry_budget_rebuilds_once_per_death():
    # One death while waiting on u1: u1 falls back, u2 is re-dispatched.
    pool, _, dispatcher, _, results = run((("call", 4),), max_retries=0)
    stats = dispatcher.options.stats
    assert results == [0, 2, 4]
    assert (stats.pool_rebuilds, stats.serial_fallbacks) == (1, 1)


def test_one_except_clause_names_broken_process_pool():
    """The single pool-death handler is a fact of the source tree."""
    sites = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler) or node.type is None:
                continue
            names = {
                getattr(part, "id", getattr(part, "attr", None))
                for part in ast.walk(node.type)
            }
            if "BrokenProcessPool" in names:
                sites.append(path.relative_to(SRC).as_posix())
    assert sites == ["repro/parallel/supervise.py"]
