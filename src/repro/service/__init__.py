"""Alignment-as-a-service: a supervised daemon over the pipelines.

Darwin-WGA frames alignment as a long-running accelerator service fed
by a host; this package is the software analogue — ``repro serve``
turns the seed-filter-extend pipelines into a traffic-survivable
daemon:

* :mod:`repro.service.http` — a stdlib-only asyncio HTTP+JSON
  front-end (``POST /jobs``, ``GET /jobs/<id>``, ``/healthz``,
  ``/status``);
* :mod:`repro.service.journal` — a crash-safe job journal: fsync'd
  append-only JSONL in the :class:`~repro.resilience.checkpoint.
  RunManifest` record style (checksummed, torn-tail tolerant), so a
  ``kill -9`` of the daemon replays to the exact pre-crash job table;
* :mod:`repro.service.jobs` — job model and journal replay (completed
  jobs are never re-run; in-flight jobs resume from their per-job
  :class:`~repro.resilience.checkpoint.RunManifest` checkpoints with
  byte-identical final output);
* :mod:`repro.service.scheduler` — deterministic per-class
  weighted-fair queueing with a bounded admission queue
  (load-shedding: HTTP 429 + ``Retry-After`` under saturation);
* :mod:`repro.service.runner` — executes jobs over one shared
  :class:`~repro.parallel.engine.ExecutionEngine` pool with warm
  genome and seed-index caches shared across jobs;
* :mod:`repro.service.daemon` — ties it together and supervises:
  workers publish beats over the heartbeat bus, a
  :class:`~repro.obs.bus.HeartbeatMonitor` sentinel detects hung (not
  just crashed) workers past a deadline and escalates through the
  resilience ladder (terminate-and-rebuild → serial fallback);
  SIGTERM drains the running job then stops, leaving queued work
  journaled for the next start;
* :mod:`repro.service.client` — a tiny blocking client for the CLI,
  tests and CI drills.

The package sits at the top of the layer DAG (rank 7, beside the CLI):
it orchestrates every lower layer but is imported by none of them.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "JOB_KINDS": "jobs",
        "JOB_STATES": "jobs",
        "PRIORITY_WEIGHTS": "jobs",
        "Job": "jobs",
        "JobJournal": "journal",
        "JournalError": "journal",
        "ServeClient": "client",
        "ServeConfig": "daemon",
        "ServeDaemon": "daemon",
        "WeightedFairScheduler": "scheduler",
        "replay_jobs": "jobs",
    },
)
