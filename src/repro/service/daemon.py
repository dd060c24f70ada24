"""The serving daemon: journal + scheduler + runner + supervisor.

``ServeDaemon`` ties the service pieces into one supervised process:

* **admission** (HTTP loop thread): validate → journal ``submitted`` →
  enqueue, under one lock so capacity checks are exact; a full queue
  answers HTTP 429 + ``Retry-After`` and journals nothing;
* **execution** (runner thread): jobs drain one at a time in
  weighted-fair order through a shared
  :class:`~repro.parallel.engine.ExecutionEngine` pool with warm
  genome/seed-index caches; per-job deadlines are enforced at pick-up
  so an expired job never consumes engine capacity;
* **supervision**: with a heartbeat interval, pool workers publish
  liveness beats over the heartbeat bus (the only thing it carries);
  a :class:`~repro.obs.bus.HeartbeatMonitor` is wired
  into :class:`~repro.resilience.policy.ResilienceOptions` as the
  dispatcher's liveness sentinel, so a hung (not just crashed) worker
  is detected past its deadline, SIGKILLed with its pool, and the
  attempt retried on a fresh pool — escalating to serial fallback
  exactly like any other fault;
* **durability**: every lifecycle transition is an fsync'd journal
  event *before* the client hears about it; ``kill -9`` + restart
  replays the journal, keeps completed results, and re-runs in-flight
  jobs from their checkpoints with byte-identical output;
* **shutdown**: SIGTERM/SIGINT drain — the running job finishes, the
  queue stays journaled for the next start, new submissions get 503.
"""

# repro: allow-file[DET003] admission timestamps, queue-wait deadlines
# and latency metrics; alignment output never depends on these clocks.

from __future__ import annotations

import signal
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional, Union

from ..obs.bus import HeartbeatMonitor
from ..obs.session import TelemetryOptions
from ..parallel.engine import ExecutionEngine
from ..resilience.faults import FaultPlan
from ..resilience.policy import ResilienceOptions, RetryPolicy
from .http import HttpJsonServer
from .jobs import Job, JobError, replay_jobs
from .journal import JobJournal
from .runner import JobRunner
from .scheduler import WeightedFairScheduler

__all__ = ["ServeConfig", "ServeDaemon"]


@dataclass
class ServeConfig:
    """Everything ``repro serve`` can tune."""

    state_dir: Union[str, Path]
    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port (the bound port lands in ``port_file``).
    port: int = 8753
    workers: int = 1
    index_cache: Union[str, Path, None] = None
    #: Bounded admission: queued jobs beyond this are shed with 429.
    max_queued: int = 16
    #: Seconds between worker liveness beats (None = no heartbeats).
    heartbeat_interval: Optional[float] = None
    #: Silence longer than this marks a worker hung; defaults to
    #: ``4 * heartbeat_interval``.
    heartbeat_deadline: Optional[float] = None
    max_retries: int = 2
    task_timeout: Optional[float] = None
    #: ``SEED[:kind=rate,...]`` chaos spec (see repro.resilience).
    inject_faults: Optional[str] = None
    #: Written with the bound port once listening (CI rendezvous).
    port_file: Union[str, Path, None] = None


class ServeDaemon:
    """One alignment service over one state directory."""

    def __init__(
        self,
        config: ServeConfig,
        log: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.config = config
        self.log = log or (lambda message: None)
        self.state_dir = Path(config.state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)

        self.journal = JobJournal.attach(self.state_dir / "journal.jsonl")
        self.jobs: Dict[str, Job] = replay_jobs(self.journal.events)
        self._next_seq = 1 + max(
            (job.seq for job in self.jobs.values()), default=-1
        )

        self.telemetry = TelemetryOptions(
            heartbeat_interval=config.heartbeat_interval
        )
        self.monitor: Optional[HeartbeatMonitor] = None
        plan = (
            FaultPlan.parse(config.inject_faults)
            if config.inject_faults
            else None
        )
        if config.workers > 1 and config.heartbeat_interval:
            # The bus must exist before the pool initializer runs —
            # beats and the hang sentinel both ride it.
            deadline = (
                config.heartbeat_deadline or 4.0 * config.heartbeat_interval
            )
            self.monitor = HeartbeatMonitor(
                self.telemetry.ensure_bus(), deadline=deadline
            )
        self.resilience = ResilienceOptions(
            policy=RetryPolicy(
                max_retries=config.max_retries,
                timeout=config.task_timeout,
            ),
            fault_plan=plan,
            liveness=self.monitor,
        )
        self.engine: Optional[ExecutionEngine] = None
        if config.workers > 1:
            self.engine = ExecutionEngine(
                config.workers,
                resilience=self.resilience,
                telemetry=self.telemetry,
            )
        self.runner = JobRunner(
            self.state_dir,
            engine=self.engine,
            workers=config.workers,
            index_cache=config.index_cache,
            resilience=self.resilience,
            telemetry=self.telemetry,
        )
        self.scheduler = WeightedFairScheduler(max_queued=config.max_queued)
        self.http = HttpJsonServer(self._routes(), log=self.log)

        self.registry = self.telemetry.registry
        self._submit_lock = threading.Lock()
        self._stop = threading.Event()
        self._draining = False
        self._runner_thread: Optional[threading.Thread] = None
        self.port: Optional[int] = None

        requeued = self._requeue_survivors()
        if self.jobs:
            self.log(
                f"serve: journal replayed {len(self.jobs)} jobs "
                f"({requeued} re-queued, "
                f"{self.journal.skipped_records} torn records skipped)"
            )

    # -- startup / shutdown ------------------------------------------
    def _requeue_survivors(self) -> int:
        """Re-admit journaled jobs a crash left unfinished."""
        survivors = sorted(
            (job for job in self.jobs.values() if job.state == "queued"),
            key=lambda job: job.seq,
        )
        for job in survivors:
            # Restart restarts the queue-wait deadline: the journal
            # records no wall-clock, so waiting time cannot carry over.
            job.admitted_at = time.monotonic()
            self.scheduler.offer(job)
        return len(survivors)

    def start(self) -> int:
        """Serve in the background; returns the bound port."""
        self.port = self.http.start(self.config.host, self.config.port)
        self._runner_thread = threading.Thread(
            target=self._run_loop, name="serve-runner", daemon=True
        )
        self._runner_thread.start()
        if self.config.port_file is not None:
            port_file = Path(self.config.port_file)
            port_file.parent.mkdir(parents=True, exist_ok=True)
            port_file.write_text(f"{self.port}\n")
        self.log(
            f"serve: listening on {self.config.host}:{self.port} "
            f"(state {self.state_dir}, workers {self.config.workers}, "
            f"queue {self.config.max_queued})"
        )
        return self.port

    def request_stop(self) -> None:
        """Begin the drain: refuse new jobs, finish the running one."""
        self._draining = True
        self._stop.set()

    def stop(self, timeout: float = 60.0) -> None:
        """Drain and shut every component down."""
        self.request_stop()
        if self._runner_thread is not None:
            self._runner_thread.join(timeout=timeout)
            self._runner_thread = None
        self.http.stop()
        if self.engine is not None:
            self.engine.close()
            self.engine = None
        self.telemetry.close()
        queued = sum(
            1 for job in self.jobs.values() if job.state == "queued"
        )
        self.log(
            f"serve: stopped ({queued} queued jobs left journaled "
            f"for the next start)"
        )

    def serve_forever(self) -> int:
        """Foreground mode for the CLI: serve until SIGTERM/SIGINT."""
        previous = {}
        for signum in (signal.SIGTERM, signal.SIGINT):
            previous[signum] = signal.signal(
                signum, lambda _signum, _frame: self.request_stop()
            )
        try:
            self.start()
            while not self._stop.wait(timeout=0.25):
                pass
            self.log("serve: draining (running job will finish)")
            self.stop()
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
        return 0

    # -- admission (HTTP loop thread) --------------------------------
    def submit(self, payload: Dict) -> tuple:
        if self._draining:
            return 503, {"error": "daemon is draining; resubmit later"}
        with self._submit_lock:
            try:
                job = Job.from_request(
                    payload, f"job-{self._next_seq:06d}", self._next_seq
                )
            except JobError as error:
                return 400, {"error": str(error)}
            if self.scheduler.depth() >= self.scheduler.max_queued:
                self.scheduler.shed += 1
                self.registry.counter("serve_jobs_shed").inc()
                return (
                    429,
                    {"error": "admission queue full; retry later"},
                    {"Retry-After": str(self._retry_after())},
                )
            self._next_seq += 1
            # Durability before acknowledgement: the event hits disk
            # (fsync) before the client hears 202, so an acked job can
            # never vanish in a crash.
            self.journal.append(job.submitted_event())
            self.jobs[job.id] = job
            job.admitted_at = time.monotonic()
            self.scheduler.offer(job)
        self.registry.counter("serve_jobs_submitted").inc()
        self.registry.gauge("serve_queue_depth").set(self.scheduler.depth())
        return 202, {"id": job.id, "state": job.state, "seq": job.seq}

    def _retry_after(self) -> int:
        """Honest 429 backoff hint from observed job service times."""
        run_seconds = self.registry.histogram("serve_job_run_seconds")
        mean = run_seconds.mean if run_seconds.count else 1.0
        return max(1, int(mean * (1 + self.scheduler.depth())))

    def cancel(self, job_id: str) -> tuple:
        with self._submit_lock:
            job = self.jobs.get(job_id)
            if job is None:
                return 404, {"error": f"no such job: {job_id}"}
            if job.state != "queued":
                return 400, {
                    "error": f"job is {job.state}, not cancellable"
                }
            self.journal.append({"event": "cancelled", "id": job.id})
            job.state = "cancelled"
        return 200, {"id": job.id, "state": job.state}

    # -- execution (runner thread) -----------------------------------
    def _run_loop(self) -> None:
        while not self._stop.is_set():
            job = self.scheduler.take(timeout=0.2)
            if job is None:
                continue
            if self._stop.is_set():
                # Drain: the job stays journaled `submitted` with no
                # `started`, so the next start re-queues it.
                break
            self._run_job(job)
        self.registry.gauge("serve_queue_depth").set(self.scheduler.depth())

    def _run_job(self, job: Job) -> None:
        now = time.monotonic()
        waited = now - job.admitted_at if job.admitted_at else 0.0
        # In every branch below the in-memory ``job.state`` assignment
        # comes *last*: it is what the HTTP thread polls, so by the time
        # a client sees a terminal state the journal and the counters
        # already include the job.
        if job.deadline is not None and waited > job.deadline:
            self.journal.append({"event": "expired", "id": job.id})
            self.registry.counter("serve_jobs_expired").inc()
            job.state = "expired"
            self.log(
                f"serve: {job.id} expired after {waited:.1f}s queued "
                f"(deadline {job.deadline:.1f}s)"
            )
            return
        self.journal.append({"event": "started", "id": job.id})
        job.state = "running"
        self.log(f"serve: {job.id} running ({job.kind}, {job.priority})")
        try:
            summary = self.runner.run(job)
        except Exception as error:  # the job fails, the daemon survives
            job.error = f"{type(error).__name__}: {error}"
            self.journal.append(
                {"event": "failed", "id": job.id, "error": job.error}
            )
            self.registry.counter("serve_jobs_failed").inc()
            job.state = "failed"
            self.log(f"serve: {job.id} failed: {job.error}")
        else:
            job.summary = summary
            self.journal.append(
                {"event": "done", "id": job.id, "summary": summary}
            )
            self.registry.counter("serve_jobs_completed").inc()
            self.registry.histogram("serve_job_run_seconds").observe(
                summary.get("run_seconds", 0.0)
            )
            if job.admitted_at is not None:
                self.registry.histogram("serve_job_latency_seconds").observe(
                    time.monotonic() - job.admitted_at
                )
            job.state = "done"
            self.log(f"serve: {job.id} done -> {summary.get('output')}")
        finally:
            self.registry.gauge("serve_queue_depth").set(
                self.scheduler.depth()
            )

    # -- read surface ------------------------------------------------
    def healthz(self) -> Dict:
        return {
            "ok": True,
            "state": "draining" if self._draining else "serving",
            "queue_depth": self.scheduler.depth(),
            "workers": self.config.workers,
        }

    def status(self) -> Dict:
        counts: Dict[str, int] = {}
        for job in self.jobs.values():
            counts[job.state] = counts.get(job.state, 0) + 1
        bus = self.telemetry.bus
        return {
            "health": self.healthz(),
            "jobs": counts,
            "shed": self.scheduler.shed,
            "recovery": self.resilience.stats.as_dict(),
            "hang_detections": (
                self.monitor.detections if self.monitor else 0
            ),
            "heartbeats": bus.beat_counts() if bus is not None else {},
            "metrics": self.registry.as_dict(),
        }

    # -- HTTP glue ---------------------------------------------------
    def _routes(self):
        return [
            ("POST", r"/jobs", lambda match, body: self.submit(body)),
            ("GET", r"/jobs", self._list_jobs),
            ("GET", r"/jobs/([A-Za-z0-9_-]+)", self._get_job),
            (
                "POST",
                r"/jobs/([A-Za-z0-9_-]+)/cancel",
                lambda match, body: self.cancel(match.group(1)),
            ),
            ("GET", r"/healthz", lambda match, body: (200, self.healthz())),
            ("GET", r"/status", lambda match, body: (200, self.status())),
        ]

    def _list_jobs(self, match, body) -> tuple:
        ordered = sorted(self.jobs.values(), key=lambda job: job.seq)
        return 200, {"jobs": [job.as_dict() for job in ordered]}

    def _get_job(self, match, body) -> tuple:
        job = self.jobs.get(match.group(1))
        if job is None:
            return 404, {"error": f"no such job: {match.group(1)}"}
        return 200, job.as_dict()
