"""Crash-safe job journal: fsync'd append-only JSONL events.

The serving daemon must survive ``kill -9`` without losing or
double-running work, which is the same durability problem
:class:`~repro.resilience.checkpoint.RunManifest` already solves for
chromosome-pair units — so both sit on one primitive,
:class:`repro.resilience.journal.AppendJournal`, whose record
discipline this journal inherits:

* one JSON object per line, header first, appended with
  ``flush`` + ``fsync`` so a crash loses at most the line in flight;
* every event record carries a SHA-256 over its (base64) payload —
  a torn tail (the crash interrupted the final write) or a corrupted
  line is *skipped*, never trusted;
* events are append-only facts (``submitted`` / ``started`` /
  ``done`` / ``failed`` / ``expired`` / ``cancelled``); the current
  job table is a pure fold over them
  (:func:`repro.service.jobs.replay_jobs`), so replay after a crash
  reconstructs exactly the pre-crash state: completed jobs keep their
  recorded results, in-flight jobs go back to the queue and resume
  from their per-job checkpoints.

Appends may come from the HTTP loop thread (admission) and the runner
thread (execution) concurrently; the journal serialises them under a
lock.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Union

from ..resilience.journal import AppendJournal, JournalError

__all__ = ["JOURNAL_VERSION", "JobJournal", "JournalError"]

#: Bump when the journal format changes; old journals are refused.
JOURNAL_VERSION = 1


class JobJournal(AppendJournal):
    """Append-only event log for one serving state directory."""

    record_kind = "event"
    version = JOURNAL_VERSION

    def __init__(self, path: Union[str, Path], header: Dict) -> None:
        super().__init__(path, header)
        self.events: List[Dict] = []

    def _accept(self, record: Dict, payload: bytes) -> None:
        # A skipped (torn or corrupt) event never durably happened: for
        # `submitted` the client saw no ack (the journal is written
        # before the HTTP response); for `done` the job simply re-runs
        # from its checkpoint.
        self.events.append(json.loads(payload.decode("utf-8")))

    @classmethod
    def attach(cls, path: Union[str, Path]) -> "JobJournal":
        """Open for serving: load when present, else start fresh."""
        journal = cls.reopen(path)
        return journal if journal is not None else cls.create(path)

    def append(self, event: Dict) -> Dict:
        """Durably append one event (flushed + fsynced) and return it."""
        self._append(json.dumps(event, sort_keys=True).encode("utf-8"))
        return event

    def __len__(self) -> int:
        return len(self.events)
