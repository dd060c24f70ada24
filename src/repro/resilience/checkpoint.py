"""Append-only run manifests: checkpoint/resume for long alignments.

A whole-assembly alignment decomposes into independent (target
chromosome, query chromosome) units — the explicit dataflow that makes
seed-filter-extend pipelines restartable.  :class:`RunManifest`
journals each completed unit to a JSON-lines file as it finishes
(flushed and fsynced, so a crash loses at most the unit in flight), and
``--resume`` replays the journal instead of recomputing.

Safety properties:

* the header pins digests of the aligner, its configuration and both
  input assemblies; :meth:`verify` refuses to resume against different
  inputs or parameters;
* every unit record carries a SHA-256 over its payload — torn or
  corrupted lines (including a partially written final line from the
  crash itself) are skipped, never trusted;
* records are pure values keyed by unit, so resuming interleaves
  journaled and freshly computed units in the original serial order and
  the final output is byte-identical to an uninterrupted run.
"""

from __future__ import annotations

import hashlib
import pickle
from pathlib import Path
from typing import Dict, Union

from .journal import AppendJournal

__all__ = [
    "MANIFEST_VERSION",
    "ManifestError",
    "ManifestMismatch",
    "RunManifest",
    "config_digest",
    "sequences_digest",
]

#: Bump when the journal format changes; old manifests are refused.
MANIFEST_VERSION = 1


class ManifestError(RuntimeError):
    """The manifest file is unusable (bad header, wrong version)."""


class ManifestMismatch(ManifestError):
    """The manifest was written by a different run configuration."""


def config_digest(config) -> str:
    """Digest of an aligner configuration object.

    Configurations are (nested) frozen dataclasses; their pickled form
    is stable for identical parameter values within a Python version,
    and a spurious mismatch merely refuses to resume — the safe
    direction.
    """
    return hashlib.sha256(
        pickle.dumps(config, protocol=4)
    ).hexdigest()


def sequences_digest(sequences) -> str:
    """Digest of an ordered collection of named sequences.

    Works on any iterable of objects with ``name`` and ``codes``
    (an :class:`~repro.genome.assembly.Assembly`, a list of
    :class:`~repro.genome.sequence.Sequence`), hashing names and code
    arrays in order.
    """
    digest = hashlib.sha256()
    for seq in sequences:
        digest.update((seq.name or "").encode())
        digest.update(b"\0")
        digest.update(seq.codes.tobytes())
        digest.update(b"\0")
    return digest.hexdigest()


class RunManifest(AppendJournal):
    """Journal of completed work units for one configured run.

    Construction goes through :meth:`create` (start a fresh journal) or
    :meth:`load` (parse an existing one); :meth:`attach` picks between
    them for the resume workflow.  The file discipline (header,
    checksums, fsync'd appends, torn-tail repair) is
    :class:`~repro.resilience.journal.AppendJournal`'s.
    """

    noun = "manifest"
    record_kind = "unit"
    version = MANIFEST_VERSION
    error = ManifestError

    def __init__(self, path: Union[str, Path], header: Dict) -> None:
        super().__init__(path, header)
        self._units: Dict[str, bytes] = {}

    def _accept(self, record: Dict, payload: bytes) -> None:
        self._units[record["unit"]] = payload

    # -- construction ------------------------------------------------
    @classmethod
    def create(
        cls,
        path: Union[str, Path],
        *,
        aligner: str,
        config: str,
        target: str,
        query: str,
    ) -> "RunManifest":
        """Start a fresh journal at ``path`` (truncating any old one)."""
        return super().create(
            path, aligner=aligner, config=config, target=target, query=query
        )

    @classmethod
    def attach(
        cls,
        path: Union[str, Path],
        *,
        aligner: str,
        config: str,
        target: str,
        query: str,
        resume: bool,
    ) -> "RunManifest":
        """Open for a run: load-and-verify when resuming, else create.

        Resuming against a missing manifest — or one a crash inside
        :meth:`create` left without a durable header — starts a fresh
        journal (the first attempt of a run that plans to be resumable
        later).
        """
        run = dict(aligner=aligner, config=config, target=target, query=query)
        manifest = cls.reopen(path) if resume else None
        if manifest is None:
            return cls.create(path, **run)
        manifest.verify(**run)
        return manifest

    # -- integrity ---------------------------------------------------
    def verify(
        self, *, aligner: str, config: str, target: str, query: str
    ) -> None:
        """Refuse to resume a journal from a different run setup."""
        expected = {
            "aligner": aligner,
            "config": config,
            "target": target,
            "query": query,
        }
        for field_name, value in expected.items():
            recorded = self.header.get(field_name)
            if recorded != value:
                raise ManifestMismatch(
                    f"{self.path}: manifest {field_name} digest "
                    f"{recorded!r} does not match this run ({value!r}) — "
                    "inputs or configuration changed; refusing to resume"
                )

    # -- journal access ----------------------------------------------
    def __contains__(self, unit: str) -> bool:
        return unit in self._units

    def __len__(self) -> int:
        return len(self._units)

    @property
    def units(self):
        """Completed unit keys, in journal order."""
        return list(self._units)

    def result_for(self, unit: str):
        """Unpickle the journaled result of a completed unit."""
        return pickle.loads(self._units[unit])

    def record(self, unit: str, result) -> None:
        """Append one completed unit (flushed + fsynced)."""
        self._append(pickle.dumps(result, protocol=4), unit=unit)
