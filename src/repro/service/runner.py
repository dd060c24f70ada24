"""Job execution: one shared engine, warm caches, atomic outputs.

Every job runs through the same machinery the one-shot CLI uses —
:func:`repro.core.pipeline.align_assemblies` with a per-job
:class:`~repro.resilience.checkpoint.RunManifest` checkpoint — so a
daemon-served result is byte-identical to a single-shot run of the
same spec, and a job interrupted by ``kill -9`` resumes mid-assembly
from its last journaled chromosome-pair unit.

Shared warmth across jobs:

* one :class:`~repro.parallel.engine.ExecutionEngine` process pool is
  reused for the daemon's whole lifetime (no per-job pool spin-up);
* parsed genomes are cached content-addressed (path + SHA-256 of the
  file bytes), so N jobs over the same assemblies parse them once —
  and a file silently replaced between jobs misses the cache instead
  of serving stale sequences;
* the persistent seed-index cache directory is shared, so a target's
  index is built once across all jobs that align against it.

Outputs are written to a temp file and ``os.replace``\\ d into place:
a crash mid-write can never leave a torn MAF where a final output
should be.
"""

from __future__ import annotations

import hashlib
import os
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..chain.chainer import build_chains
from ..chain.gap_costs import GapCosts
from ..chain.metrics import total_matches
from ..core.pipeline import align_assemblies, aligner_named
from ..genome.fasta import read_fasta
from ..io.chain_format import write_chains
from ..io.maf import read_maf, write_assembly_maf
from .jobs import ALIGNERS, Job

__all__ = ["JobRunner"]


def _file_digest(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class JobRunner:
    """Executes jobs serially over the daemon's shared engine.

    Jobs run one at a time: engine workers parallelise *within* a job
    (chromosome-pair fan-out), which keeps every job's dispatch/replay
    order — and therefore its bytes — identical to a single-shot run.
    Cross-job concurrency comes from the queue, not from interleaving
    two alignments over one pool.
    """

    def __init__(
        self,
        state_dir: Path,
        engine=None,
        workers: int = 1,
        index_cache: Optional[Path] = None,
        resilience=None,
        telemetry=None,
    ) -> None:
        self.state_dir = Path(state_dir)
        self.engine = engine
        self.workers = workers
        self.index_cache = index_cache
        self.resilience = resilience
        self.telemetry = telemetry
        self._genomes: Dict[Tuple[str, str], List] = {}
        # Resolved while the daemon starts, so the first job that names
        # an aligner (and every forked worker) finds it imported.
        self._aligners = {label: aligner_named(label) for label in ALIGNERS}

    # -- caches ------------------------------------------------------
    def records(self, path_text: str) -> List:
        """Parsed FASTA records, warm across jobs, content-addressed."""
        path = Path(path_text)
        key = (str(path), _file_digest(path))
        cached = self._genomes.get(key)
        if cached is None:
            cached = read_fasta(path)
            if not cached:
                raise ValueError(f"{path}: no FASTA records")
            self._genomes[key] = cached
        return cached

    def job_dir(self, job: Job) -> Path:
        directory = self.state_dir / "jobs" / job.id
        directory.mkdir(parents=True, exist_ok=True)
        return directory

    def output_path(self, job: Job) -> Path:
        out = job.spec.get("out")
        if out:
            return Path(out)
        suffix = "maf" if job.kind == "align" else "chain"
        return self.job_dir(job) / f"out.{suffix}"

    # -- execution ---------------------------------------------------
    def run(self, job: Job) -> Dict:
        """Execute one job to completion; returns its summary dict."""
        started = time.monotonic()
        if job.kind == "align":
            summary = self._run_align(job)
        else:
            summary = self._run_chain(job)
        summary["run_seconds"] = time.monotonic() - started
        return summary

    def _run_align(self, job: Job) -> Dict:
        spec = job.spec
        targets = self.records(spec["target"])
        queries = self.records(spec["query"])
        aligner_class = self._aligners[spec.get("aligner", "darwin")]
        config = aligner_class.config_class(
            both_strands=not spec.get("plus_only")
        )
        checkpoint = self.job_dir(job) / "checkpoint.jsonl"
        result = align_assemblies(
            targets,
            queries,
            config=config,
            aligner_class=aligner_class,
            workers=self.workers,
            engine=self.engine,
            index_cache=self.index_cache,
            checkpoint=checkpoint,
            resume=True,
            resilience=self.resilience,
            telemetry=self.telemetry,
        )
        out = self.output_path(job)
        self._atomic_write(
            out, lambda handle: write_assembly_maf(
                result.alignments, targets, queries, handle
            )
        )
        workload = result.workload
        return {
            "alignments": len(result.alignments),
            "matched_bp": result.total_matches,
            "seed_hits": workload.seed_hits,
            "extension_tiles": workload.extension_tiles,
            "output": str(out),
            "output_sha256": _file_digest(out),
        }

    def _run_chain(self, job: Job) -> Dict:
        spec = job.spec
        alignments = read_maf(Path(spec["maf"]))
        targets = self.records(spec["target"])
        queries = self.records(spec["query"])
        gap_costs = (
            GapCosts.medium()
            if spec.get("linear_gap") == "medium"
            else GapCosts.loose()
        )
        chains = build_chains(alignments, gap_costs)
        out = self.output_path(job)
        target, query = targets[0], queries[0]
        self._atomic_write(
            out, lambda handle: write_chains(
                chains,
                target.name or "target",
                len(target),
                query.name or "query",
                len(query),
                handle,
            )
        )
        return {
            "chains": len(chains),
            "matched_bp": total_matches(chains),
            "output": str(out),
            "output_sha256": _file_digest(out),
        }

    @staticmethod
    def _atomic_write(path: Path, write) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "w") as handle:
            write(handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
