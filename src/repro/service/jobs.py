"""Job model, request validation and journal replay.

A job is a small declarative spec ("align these two FASTAs", "chain
this MAF") plus lifecycle state.  The journal stores *events about*
jobs; :func:`replay_jobs` folds an event list back into the job table,
which is the whole crash-recovery story: after ``kill -9`` the daemon
replays the journal, keeps every ``done`` job's recorded summary, and
re-queues everything that was queued or mid-run — the per-job
:class:`~repro.resilience.checkpoint.RunManifest` checkpoint then makes
the re-run resume instead of recompute, with byte-identical output.

Lifecycle::

    queued -> running -> done | failed
    queued -> expired            (per-job deadline passed while waiting)
    queued -> cancelled          (client asked before the run started)

(shed requests are rejected at admission with HTTP 429 and never become
jobs at all).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = [
    "ALIGNERS",
    "JOB_KINDS",
    "JOB_STATES",
    "PRIORITY_WEIGHTS",
    "Job",
    "JobError",
    "replay_jobs",
]

#: Work the daemon knows how to run.
JOB_KINDS = ("align", "chain")

#: Every lifecycle state a journaled job can be in.
JOB_STATES = (
    "queued",
    "running",
    "done",
    "failed",
    "expired",
    "cancelled",
)

#: Weighted-fair scheduling classes: an ``interactive`` job receives
#: 8x the service share of a ``batch`` job under contention, but a
#: saturated queue still drains every class (no starvation — weights
#: shift finishing order, never membership).
PRIORITY_WEIGHTS: Dict[str, float] = {
    "interactive": 8.0,
    "default": 4.0,
    "batch": 1.0,
}

#: ``--aligner`` names an align job may ask for.
ALIGNERS = ("darwin", "lastz")

_SPEC_FIELDS = {
    "align": ("target", "query"),
    "chain": ("maf", "target", "query"),
}

_OPTIONAL_FIELDS = {
    "align": ("aligner", "plus_only", "out"),
    "chain": ("linear_gap", "out"),
}


class JobError(ValueError):
    """A submitted job spec is invalid (HTTP 400)."""


@dataclass
class Job:
    """One unit of service work plus its live state."""

    id: str
    kind: str
    spec: Dict
    priority: str = "default"
    #: Queue-wait budget in seconds (None = wait forever); enforced at
    #: pick-up time, so an expired job never consumes engine capacity.
    deadline: Optional[float] = None
    seq: int = 0
    state: str = "queued"
    error: Optional[str] = None
    summary: Dict = field(default_factory=dict)
    #: Admission time on the daemon's monotonic clock (not journaled:
    #: a restart re-admits the survivors, restarting their deadlines).
    admitted_at: Optional[float] = None

    @classmethod
    def from_request(cls, payload: Dict, job_id: str, seq: int) -> "Job":
        """Validate one ``POST /jobs`` body into a job (or JobError)."""
        if not isinstance(payload, dict):
            raise JobError("job body must be a JSON object")
        kind = payload.get("kind", "align")
        if kind not in JOB_KINDS:
            raise JobError(
                f"unknown job kind {kind!r} "
                f"(expected one of {', '.join(JOB_KINDS)})"
            )
        priority = payload.get("priority", "default")
        if priority not in PRIORITY_WEIGHTS:
            raise JobError(
                f"unknown priority {priority!r} (expected one of "
                f"{', '.join(sorted(PRIORITY_WEIGHTS))})"
            )
        deadline = payload.get("deadline")
        if deadline is not None:
            try:
                deadline = float(deadline)
            except (TypeError, ValueError):
                raise JobError("deadline must be a number of seconds")
            if deadline <= 0:
                raise JobError("deadline must be positive")
        spec: Dict = {}
        for name in _SPEC_FIELDS[kind]:
            value = payload.get(name)
            if not value or not isinstance(value, str):
                raise JobError(f"{kind} job requires a {name!r} path")
            spec[name] = value
        for name in _OPTIONAL_FIELDS[kind]:
            if name in payload:
                spec[name] = payload[name]
        aligner = spec.get("aligner", "darwin")
        if kind == "align" and aligner not in ALIGNERS:
            raise JobError(f"unknown aligner {aligner!r}")
        return cls(
            id=job_id,
            kind=kind,
            spec=spec,
            priority=priority,
            deadline=deadline,
            seq=seq,
        )

    def submitted_event(self) -> Dict:
        return {
            "event": "submitted",
            "id": self.id,
            "seq": self.seq,
            "kind": self.kind,
            "priority": self.priority,
            "deadline": self.deadline,
            "spec": dict(self.spec),
        }

    def as_dict(self) -> Dict:
        """JSON-ready view served by ``GET /jobs/<id>``."""
        return {
            "id": self.id,
            "kind": self.kind,
            "priority": self.priority,
            "deadline": self.deadline,
            "state": self.state,
            "error": self.error,
            "summary": dict(self.summary),
            "spec": dict(self.spec),
        }


def replay_jobs(events: List[Dict]) -> Dict[str, Job]:
    """Fold journal events into the job table (submission order).

    Jobs left ``running`` by a crash come back ``queued``: their
    ``started`` event proves the run began, their missing ``done``
    proves it never finished, and their checkpoint manifest holds
    whatever units did complete.
    """
    jobs: Dict[str, Job] = {}
    for event in events:
        name = event.get("event")
        job_id = event.get("id")
        if name == "submitted":
            jobs[job_id] = Job(
                id=job_id,
                kind=event.get("kind", "align"),
                spec=dict(event.get("spec", {})),
                priority=event.get("priority", "default"),
                deadline=event.get("deadline"),
                seq=int(event.get("seq", 0)),
            )
            continue
        job = jobs.get(job_id)
        if job is None:
            continue  # event for a submit lost to a torn tail
        if name == "started":
            job.state = "running"
        elif name == "done":
            job.state = "done"
            job.summary = dict(event.get("summary", {}))
        elif name == "failed":
            job.state = "failed"
            job.error = event.get("error", "unknown error")
        elif name == "expired":
            job.state = "expired"
        elif name == "cancelled":
            job.state = "cancelled"
    for job in jobs.values():
        if job.state == "running":
            job.state = "queued"
    return jobs
