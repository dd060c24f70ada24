"""The append-only fsync'd JSONL primitive under every journal.

Run checkpoints (:class:`~repro.resilience.checkpoint.RunManifest`) and
the serving daemon's job log (:class:`repro.service.journal.JobJournal`)
solve the same durability problem — survive ``kill -9`` without losing
or double-counting acknowledged work — so they share one record
discipline, implemented here exactly once:

* one JSON object per line, header first;
* every record carries a SHA-256 over its payload bytes, so a corrupted
  line is *skipped* on load, never trusted;
* appends are serialised under a lock and ``flush`` + ``fsync``\\ ed, so
  a crash loses at most the line in flight;
* a torn tail (the crash interrupted the final write mid-line) is
  chopped on load: the bytes can never parse, and leaving them would
  make the next append continue the partial line — merging a good
  record into garbage that a second crash-and-reload would skip;
* a file torn down to zero bytes (the crash hit :meth:`create` before
  the header fsync) acknowledged nothing durable, so :meth:`reopen`
  reports "start fresh" instead of failing forever.

Consumers subclass :class:`AppendJournal`, set the class attributes
that name their format, and keep only what is theirs: how a verified
payload folds into their state (:meth:`_accept`) and what they append.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import threading
from pathlib import Path
from typing import Dict, Optional, Union

__all__ = ["AppendJournal", "JournalError"]


class JournalError(RuntimeError):
    """The journal file is unusable (bad header, wrong version)."""


class AppendJournal:
    """A header line plus checksummed records, appended durably."""

    #: What error messages call the file.
    noun = "journal"
    #: The ``kind`` of every non-header record.
    record_kind = "record"
    #: Bump when the format changes; other versions are refused.
    version = 1
    #: Raised for an unusable file.
    error = JournalError

    def __init__(self, path: Union[str, Path], header: Dict) -> None:
        self.path = Path(path)
        self.header = header
        self.skipped_records = 0
        self._lock = threading.Lock()

    def _accept(self, record: Dict, payload: bytes) -> None:
        """Fold one verified record into the consumer's state.

        Raising ``ValueError``/``KeyError``/``TypeError`` rejects the
        record: it is counted in :attr:`skipped_records` like any other
        corrupt line (as is a line that parses to a non-object).
        """
        raise NotImplementedError

    def _write(self, mode: str, line: str) -> None:
        with open(self.path, mode) as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    @classmethod
    def create(cls, path: Union[str, Path], **fields) -> "AppendJournal":
        """Start a fresh journal at ``path`` (truncating any old one)."""
        header = {"kind": "header", "version": cls.version, **fields}
        journal = cls(path, header)
        journal.path.parent.mkdir(parents=True, exist_ok=True)
        journal._write("w", json.dumps(header, sort_keys=True))
        return journal

    @classmethod
    def load(cls, path: Union[str, Path]) -> "AppendJournal":
        """Parse an existing journal, skipping torn/corrupt records."""
        path = Path(path)
        raw = path.read_bytes()
        torn_tail = 0
        if raw and not raw.endswith(b"\n"):
            keep = raw.rfind(b"\n") + 1
            with open(path, "r+b") as handle:
                handle.truncate(keep)
                handle.flush()
                os.fsync(handle.fileno())
            raw = raw[:keep]
            torn_tail = 1
        lines = raw.decode("utf-8").splitlines()
        if not lines:
            raise cls.error(f"{path}: empty {cls.noun}")
        try:
            header = json.loads(lines[0])
        except ValueError:
            raise cls.error(f"{path}: unreadable {cls.noun} header")
        if header.get("kind") != "header":
            raise cls.error(f"{path}: first record is not a header")
        if header.get("version") != cls.version:
            raise cls.error(
                f"{path}: unsupported {cls.noun} version "
                f"{header.get('version')!r}"
            )
        journal = cls(path, header)
        journal.skipped_records = torn_tail
        for line in lines[1:]:
            try:
                record = json.loads(line)
                if record.get("kind") != cls.record_kind:
                    raise ValueError(f"not a {cls.record_kind} record")
                payload = base64.b64decode(record["payload"])
                if hashlib.sha256(payload).hexdigest() != record["sha256"]:
                    raise ValueError("checksum mismatch")
                journal._accept(record, payload)
            except (ValueError, KeyError, TypeError, AttributeError):
                # The record never durably happened: whoever wrote it
                # saw no acknowledgement, so the work is simply redone.
                journal.skipped_records += 1
        return journal

    @classmethod
    def reopen(cls, path: Union[str, Path]) -> Optional["AppendJournal"]:
        """Load ``path`` to keep appending, or None to start fresh.

        None means no file, or one :meth:`load` chopped to zero bytes.
        Any other unusable file still raises :attr:`error`.
        """
        path = Path(path)
        if not path.exists():
            return None
        try:
            return cls.load(path)
        except cls.error:
            if path.stat().st_size == 0:
                return None
            raise

    def _append(self, payload: bytes, **fields) -> None:
        """Durably append one checksummed record, then fold it in.

        Appends may come from several threads; the lock keeps the
        in-memory fold in file order.
        """
        record = {
            "kind": self.record_kind,
            "sha256": hashlib.sha256(payload).hexdigest(),
            "payload": base64.b64encode(payload).decode("ascii"),
            **fields,
        }
        with self._lock:
            self._write("a", json.dumps(record, sort_keys=True))
            self._accept(record, payload)
