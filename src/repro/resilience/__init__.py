"""Fault tolerance for the parallel pipelines.

Darwin-WGA's throughput argument rests on fanning thousands of
independent work units across processing elements; at production scale
some of those units *will* hit a dying worker, a stalled batch or a
corrupted artifact.  This package holds the policy side of surviving
that without changing a single output byte:

* :class:`RetryPolicy` / :func:`backoff_delay` — bounded retries with
  deterministic (seeded, never wall-clock-driven) exponential backoff;
* :class:`FaultPlan` — a seeded schedule of injected faults (worker
  crashes, timeouts, task errors, cache corruption) so every recovery
  path is provable in tests and CI;
* :class:`AppendJournal` — the one append-only, checksummed, fsync'd
  JSONL primitive (torn-tail repair included) every journal sits on;
* :class:`RunManifest` — an :class:`AppendJournal` of completed
  chromosome-pair units with config/genome digests, powering
  ``--resume``;
* :class:`RecoveryStats` — counters proving which recovery paths
  actually executed during a run.

The mechanism side (the dispatcher that applies the policy to a live
process pool) lives up the DAG in :mod:`repro.parallel.supervise`; this
package stays importable by every layer and imports nothing above
:mod:`repro.obs`.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "AppendJournal": "journal",
        "DEFAULT_RATES": "faults",
        "FAULT_KINDS": "faults",
        "MANIFEST_VERSION": "checkpoint",
        "FaultPlan": "faults",
        "InjectedFault": "faults",
        "JournalError": "journal",
        "ManifestError": "checkpoint",
        "ManifestMismatch": "checkpoint",
        "RecoveryStats": "policy",
        "ResilienceOptions": "policy",
        "RetryPolicy": "policy",
        "RunManifest": "checkpoint",
        "backoff_delay": "policy",
        "config_digest": "checkpoint",
        "corrupt_file": "faults",
        "injected_task_error": "faults",
        "injected_worker_crash": "faults",
        "injected_worker_hang": "faults",
        "sequences_digest": "checkpoint",
        "stable_fraction": "policy",
    },
)
