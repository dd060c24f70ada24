"""Deterministic fault injection.

A :class:`FaultPlan` is a *seeded schedule* of faults: whether a fault
of a given kind fires for a given work-unit key at a given attempt is a
pure function of ``(seed, kind, key, attempt)``, so a chaos run is
exactly reproducible — the same plan kills the same workers, times out
the same batches and corrupts the same cache entries every time, on
every machine.  Tests and the CI ``chaos-smoke`` job use this to prove
every recovery path while asserting byte-identical output.

Fault kinds:

* ``crash``   — the dispatched batch is replaced by a task that kills
  its worker process (``os._exit``), breaking the pool exactly like an
  OOM-killed or segfaulted worker;
* ``error``   — the batch is replaced by a task raising
  :class:`InjectedFault`;
* ``timeout`` — the supervisor treats the batch's attempt as having
  exceeded its deadline without waiting for it;
* ``corrupt`` — the seed-index cache flips a byte of a freshly stored
  entry, exercising checksum quarantine-and-rebuild on the next load;
* ``stall``   — the unit window sleeps before collecting a
  chromosome-pair unit, modelling a slow consumer so tests can prove
  a late collection changes nothing in the output.
  Never part of :data:`DEFAULT_RATES`: stalls only slow a run down, so
  they fire only when a spec names them explicitly.
* ``hang``    — the dispatched batch is replaced by a task that
  silences its worker's heartbeat and sleeps forever, modelling a
  wedged (SIGSTOP'd, deadlocked) worker that neither crashes nor
  returns.  Only detectable by liveness supervision, which is the
  point: it proves the heartbeat sentinel and its escalation ladder.
  Never part of :data:`DEFAULT_RATES` — without a
  :class:`~repro.obs.bus.HeartbeatMonitor` (or a task timeout) on the
  run, a hang would block collection indefinitely.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from .policy import stable_fraction

__all__ = [
    "DEFAULT_RATES",
    "FAULT_KINDS",
    "FaultPlan",
    "InjectedFault",
    "corrupt_file",
    "injected_task_error",
    "injected_worker_crash",
    "injected_worker_hang",
]

#: Every fault kind a plan may schedule.
FAULT_KINDS = ("crash", "error", "timeout", "corrupt", "stall", "hang")

#: Rates used when a spec names only a seed (``--inject-faults 7``).
DEFAULT_RATES: Dict[str, float] = {
    "crash": 0.2,
    "error": 0.2,
    "timeout": 0.2,
    "corrupt": 0.5,
}


class InjectedFault(RuntimeError):
    """Raised by an injected ``error`` task inside a worker."""


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, rate-based schedule of faults.

    ``rates`` maps fault kind to a probability in ``[0, 1]``; kinds not
    present never fire.  :meth:`decide` is deterministic, so the plan
    can be re-evaluated anywhere (parent, worker, cache) and produce
    one coherent schedule.
    """

    seed: int
    rates: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for kind in self.rates:
            if kind not in FAULT_KINDS:
                raise ValueError(
                    f"unknown fault kind {kind!r} "
                    f"(expected one of {', '.join(FAULT_KINDS)})"
                )

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from a CLI spec.

        ``SEED`` alone uses :data:`DEFAULT_RATES`;
        ``SEED:kind=rate,kind=rate`` sets explicit rates, e.g.
        ``7:crash=0.5,corrupt=1.0``.
        """
        head, sep, tail = spec.partition(":")
        try:
            seed = int(head)
        except ValueError:
            raise ValueError(
                f"fault spec {spec!r}: seed must be an integer"
            ) from None
        if not sep:
            return cls(seed=seed, rates=dict(DEFAULT_RATES))
        rates: Dict[str, float] = {}
        for item in tail.split(","):
            if not item:
                continue
            kind, eq, value = item.partition("=")
            if not eq:
                raise ValueError(
                    f"fault spec {spec!r}: expected kind=rate, got {item!r}"
                )
            rates[kind.strip()] = float(value)
        return cls(seed=seed, rates=rates)

    def decide(self, kind: str, key: str, attempt: int = 0) -> bool:
        """Whether a ``kind`` fault fires for ``key`` at ``attempt``."""
        rate = self.rates.get(kind, 0.0)
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        return stable_fraction(self.seed, kind, key, attempt) < rate


def injected_worker_crash() -> None:
    """Kill the current process abruptly (no cleanup, like a segfault).

    Submitted *in place of* a real batch when the plan schedules a
    ``crash``: the pool breaks, and the supervisor must rebuild it and
    re-dispatch every in-flight batch.
    """
    os._exit(3)


def injected_worker_hang() -> None:
    """Wedge the current worker: stop beating, then sleep forever.

    Submitted *in place of* a real batch when the plan schedules a
    ``hang``.  The heartbeat must be silenced explicitly — the beat
    thread is a separate daemon thread that would otherwise keep
    beating right through this sleep, hiding the hang from the
    sentinel (a real SIGSTOP freezes every thread at once).
    """
    from ..obs.bus import suspend_heartbeat

    suspend_heartbeat()
    while True:  # pragma: no cover - only ever killed from outside
        time.sleep(3600)


def injected_task_error(key: str) -> None:
    """Raise inside the worker, as a buggy or flaky task would."""
    raise InjectedFault(f"injected task error for unit {key!r}")


def corrupt_file(path, seed: int = 0) -> Optional[int]:
    """Flip one byte of ``path`` in place; returns the offset flipped.

    The offset is chosen deterministically from ``seed`` and the file
    size.  Empty files are left alone (returns None).
    """
    path = os.fspath(path)
    size = os.path.getsize(path)
    if size == 0:
        return None
    offset = int(stable_fraction(seed, "corrupt-offset", size) * size)
    with open(path, "r+b") as handle:
        handle.seek(offset)
        original = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([original[0] ^ 0xFF]))
    return offset
