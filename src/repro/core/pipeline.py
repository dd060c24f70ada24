"""The Darwin-WGA pipeline: D-SOFT seeding -> gapped filter -> GACT-X.

This is the paper's primary contribution assembled end to end (Figure 4
and Figure 6): software seeding with diagonal-band D-SOFT, hardware-style
banded-Smith-Waterman gapped filtering, and GACT-X tiled extension with
anchor absorption.  Per-stage workload counters (seeds, filter tiles,
extension tiles — the paper's Table V columns) are collected on every run
and consumed by the performance models in :mod:`repro.hw`.

The dataflow is one graph — seed -> filter -> extend, with coverage-grid
absorption as the only cross-anchor dependency — and lives once, in
:class:`SeedFilterExtendAligner`.  :class:`DarwinWGA` and the LASTZ
baseline (:class:`repro.lastz.pipeline.LastzAligner`) differ only in
the filter stage they plug into it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, List, Optional, Tuple, Union

from ..align.alignment import Alignment, AnchorHit
from ..genome.sequence import Sequence
from ..obs.progress import NO_PROGRESS
from ..obs.session import TelemetryOptions
from ..obs.tracer import NULL_TRACER
from ..resilience.checkpoint import (
    RunManifest,
    config_digest,
    sequences_digest,
)
from ..resilience.policy import ResilienceOptions
from ..seed.cache import SeedIndexCache
from ..seed.dsoft import dsoft_seed
from ..seed.index import SeedIndex
from .anchors import CoverageGrid
from .config import DarwinWGAConfig
from .extension import extend_anchors
from .gact_x import TileTrace
from .gapped_filter import gapped_filter_stream

if TYPE_CHECKING:  # repro.parallel sits above core in the layer DAG
    from ..parallel.engine import ExecutionEngine


def _resolve_cache(
    index_cache: Union[SeedIndexCache, str, Path, None],
    resilience: Optional[ResilienceOptions] = None,
) -> Optional[SeedIndexCache]:
    if index_cache is None:
        return None
    if isinstance(index_cache, SeedIndexCache):
        if resilience is not None and index_cache.resilience is None:
            index_cache.resilience = resilience
        return index_cache
    return SeedIndexCache(index_cache, resilience=resilience)


@dataclass
class Workload:
    """Per-stage work counters (the paper's Table V workload columns)."""

    seed_hits: int = 0
    filter_tiles: int = 0
    filter_cells: int = 0
    extension_tiles: int = 0
    extension_cells: int = 0
    anchors: int = 0
    absorbed_anchors: int = 0
    extension_tile_traces: List[TileTrace] = field(default_factory=list)

    def merge(self, other: "Workload") -> None:
        self.seed_hits += other.seed_hits
        self.filter_tiles += other.filter_tiles
        self.filter_cells += other.filter_cells
        self.extension_tiles += other.extension_tiles
        self.extension_cells += other.extension_cells
        self.anchors += other.anchors
        self.absorbed_anchors += other.absorbed_anchors
        self.extension_tile_traces.extend(other.extension_tile_traces)


@dataclass
class WGAResult:
    """Alignments plus the workload that produced them."""

    alignments: List[Alignment]
    workload: Workload

    @property
    def total_matches(self) -> int:
        return sum(a.matches for a in self.alignments)


class SeedFilterExtendAligner:
    """The one seed -> filter -> extend dataflow both aligners run.

    Everything here is shared: engine lifecycle, index construction,
    the strand loop, workload bookkeeping and GACT-X extension with
    anchor absorption.  A concrete aligner supplies only the swappable
    stage — the class attributes below and :meth:`_seed_filter`.

    Pass a :class:`repro.obs.Tracer` to record per-stage spans (seed /
    filter / per-anchor extension); the default :data:`NULL_TRACER` makes
    instrumentation free.

    :meth:`align` always runs in this process.  ``workers > 1`` (or an
    externally owned :class:`~repro.parallel.engine.ExecutionEngine`,
    to share one pool across aligners) is the pool
    :func:`align_assemblies` fans whole chromosome-pair units out over;
    a single pair never touches it.  ``index_cache`` (a directory path or
    :class:`~repro.seed.cache.SeedIndexCache`) persists seed indexes
    across runs.  ``telemetry`` (a
    :class:`~repro.obs.session.TelemetryOptions`) adds live progress
    and metric collection.  Aligners that own their engine should be
    closed (:meth:`close` or a ``with`` block) when ``workers > 1``.
    """

    #: Configuration dataclass; ``config_class()`` is the default config.
    config_class: type
    #: The ``--aligner`` name, recorded on the ``align`` span.
    label: str
    #: Whether results accumulate per-tile traces (the :mod:`repro.hw`
    #: models replay them; runs that never feed the models skip the cost).
    keep_tile_traces: bool

    def __init__(
        self,
        config=None,
        tracer=None,
        workers: int = 1,
        engine: Optional[ExecutionEngine] = None,
        index_cache: Union[SeedIndexCache, str, Path, None] = None,
        resilience: Optional[ResilienceOptions] = None,
        telemetry: Optional[TelemetryOptions] = None,
    ) -> None:
        self.config = config or self.config_class()
        #: Always None: :meth:`align` runs no parallel schedule.  Kept
        #: for callers that read a schedule summary off the aligner.
        self.last_stream = None
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.workers = engine.workers if engine is not None else workers
        if resilience is None and engine is not None:
            resilience = engine.resilience
        self.resilience = resilience
        self.index_cache = _resolve_cache(index_cache, resilience)
        if engine is not None and telemetry is not None:
            engine.adopt_telemetry(telemetry)
        self.telemetry = telemetry
        self._engine = engine
        self._owns_engine = engine is None

    @property
    def engine(self) -> Optional[ExecutionEngine]:
        """The execution engine, created lazily when ``workers > 1``.

        Deferred import: ``repro.parallel`` is a higher layer than
        ``core``, so the pipelines only reach up at call time, when the
        caller actually asked for workers (``tests/test_layers.py``
        holds module-level imports to the layer DAG).
        """
        if self._engine is None and self.workers > 1:
            from ..parallel.engine import ExecutionEngine

            self._engine = ExecutionEngine(
                self.workers,
                resilience=self.resilience,
                telemetry=self.telemetry,
            )
        return self._engine

    def close(self) -> None:
        """Release the engine if this aligner created it."""
        if self._owns_engine and self._engine is not None:
            self._engine.close()
            self._engine = None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def _build_index(self, target: Sequence) -> SeedIndex:
        """Build (or load from the cache) the target's seed index."""
        if self.index_cache is not None:
            return self.index_cache.get_or_build(
                target, self.config.seed, tracer=self.tracer
            )
        with self.tracer.span("build_index", target=target.name or "target"):
            return SeedIndex.build(target, self.config.seed)

    def _seed_filter(
        self,
        target: Sequence,
        queries: List[Sequence],
        index: SeedIndex,
        strands: Tuple[int, ...],
    ) -> Iterator[Tuple[int, int, int, List[AnchorHit]]]:
        """The swappable stage: seed and filter every strand of a unit.

        ``queries[i]`` is the query oriented to ``strands[i]``.  Yields
        ``(seed_hits, filter_tiles, filter_cells, anchors)`` once per
        strand, lazily and in strand order: each ``next()`` does only
        the work that strand's result still needs, so a strand's
        filter work is recorded under its own ``strand`` span.
        """
        raise NotImplementedError

    def align(
        self,
        target: Sequence,
        query: Sequence,
        index: Optional[SeedIndex] = None,
    ) -> WGAResult:
        """Align ``query`` against ``target`` on both strands.

        ``index`` is an optional prebuilt :class:`SeedIndex` of
        ``target`` (with this config's seed pattern); passing one lets
        callers aligning many queries against the same target — e.g.
        :func:`align_assemblies` — amortise index construction.
        """
        config = self.config
        tracer = self.tracer
        with tracer.span(
            "align",
            aligner=self.label,
            target=target.name or "target",
            query=query.name or "query",
            target_bp=len(target),
            query_bp=len(query),
        ) as span:
            if index is None:
                index = self._build_index(target)
            strands = (1, -1) if config.both_strands else (1,)
            queries = [
                query if strand == 1 else query.reverse_complement()
                for strand in strands
            ]
            stage = self._seed_filter(target, queries, index, strands)
            alignments: List[Alignment] = []
            workload = Workload()
            for strand, oriented in zip(strands, queries):
                with tracer.span(
                    "strand", strand="+" if strand == 1 else "-"
                ):
                    hits, tiles, cells, anchors = next(stage)
                    strand_workload = Workload(
                        seed_hits=hits,
                        filter_tiles=tiles,
                        filter_cells=cells,
                        anchors=len(anchors),
                    )
                    # The sort by filter score is a deliberate
                    # per-strand ordering barrier: extension priority
                    # determines absorption (best-filter-score first
                    # keeps the anchors most likely to seed the
                    # strongest alignments), so it is part of the
                    # byte-identical-output contract.
                    alignments.extend(
                        extend_anchors(
                            target,
                            oriented,
                            sorted(anchors, key=lambda a: -a.filter_score),
                            config.scoring,
                            config.extension,
                            CoverageGrid(config.absorb_granularity),
                            strand_workload,
                            tracer=tracer,
                            keep_tile_traces=self.keep_tile_traces,
                        )
                    )
                workload.merge(strand_workload)
            alignments.sort(key=lambda a: -a.score)
            span.inc("seed_hits", workload.seed_hits)
            span.inc("filter_tiles", workload.filter_tiles)
            span.inc("filter_cells", workload.filter_cells)
            span.inc("extension_tiles", workload.extension_tiles)
            span.inc("extension_cells", workload.extension_cells)
            span.inc("anchors", workload.anchors)
            span.inc("absorbed_anchors", workload.absorbed_anchors)
            span.inc("alignments", len(alignments))
            return WGAResult(alignments=alignments, workload=workload)


class DarwinWGA(SeedFilterExtendAligner):
    """Whole genome aligner with gapped filtering and GACT-X extension.

    >>> from repro.genome import make_species_pair
    >>> import numpy as np
    >>> pair = make_species_pair(3000, 0.2, np.random.default_rng(0))
    >>> aligner = DarwinWGA()
    >>> result = aligner.align(pair.target.genome, pair.query.genome)

    The paper's pipeline: D-SOFT diagonal-band seeding, then the banded
    Smith-Waterman gapped filter.  Constructor options and tracing are
    :class:`SeedFilterExtendAligner`'s.
    """

    config_class = DarwinWGAConfig
    label = "darwin"
    keep_tile_traces = True

    def _seed_filter(self, target, queries, index, strands):
        """Seed every strand, then filter all their candidates as one
        tile stream (:func:`.gapped_filter.gapped_filter_stream`).

        A strand's anchors are yielded once its last slab is scored; a
        strand with few candidates shares a slab with its neighbour
        instead of paying a whole BSW sweep of its own.
        """
        config = self.config
        seedings = [
            dsoft_seed(index, query, config.dsoft, tracer=self.tracer)
            for query in queries
        ]
        candidates = [
            (query, seeding.target_positions, seeding.query_positions, strand)
            for query, seeding, strand in zip(queries, seedings, strands)
        ]
        filtered = gapped_filter_stream(
            target,
            candidates,
            config.scoring,
            config.filtering,
            tracer=self.tracer,
        )
        for seeding, result in zip(seedings, filtered):
            yield (
                seeding.raw_hit_count,
                result.tiles,
                result.cells,
                result.anchors,
            )


def aligner_named(label: str) -> type:
    """The aligner class behind an ``--aligner`` name."""
    if label == DarwinWGA.label:
        return DarwinWGA
    # Deferred: repro.lastz is a sibling layer that imports this module
    # at module level, so the reverse import must wait for call time —
    # and for a caller that names the baseline.
    from ..lastz.pipeline import LastzAligner

    return {LastzAligner.label: LastzAligner}[label]


def _unit_key(ti: int, target: Sequence, qi: int, query: Sequence) -> str:
    """Stable identity of one (target, query) chromosome-pair unit."""
    return f"{ti}:{target.name or 'target'}|{qi}:{query.name or 'query'}"


def align_assemblies(
    target_assembly,
    query_assembly,
    config=None,
    aligner_class=DarwinWGA,
    tracer=None,
    workers: int = 1,
    engine: Optional[ExecutionEngine] = None,
    index_cache: Union[SeedIndexCache, str, Path, None] = None,
    checkpoint: Union[str, Path, None] = None,
    resume: bool = False,
    resilience: Optional[ResilienceOptions] = None,
    telemetry: Optional[TelemetryOptions] = None,
) -> WGAResult:
    """Whole-assembly WGA: every target chromosome vs every query
    chromosome (the paper's actual task — its species have multiple
    nuclear chromosomes).

    Each chromosome pair is aligned independently; alignments keep their
    chromosome names so chains partition correctly per
    (target chromosome, query chromosome, strand).  The target seed
    index is built once per target chromosome and shared across all
    query chromosomes (and both strands), so index construction cost is
    O(target) rather than O(target x queries).

    ``workers > 1`` (or an external ``engine``) distributes whole
    (target chromosome, query chromosome) units across worker processes:
    all are dispatched up front and gathered in submission order, and
    the final sort is stable, so the result is byte-identical to the
    serial run.
    With an ``index_cache`` the parent warms each target's seed index
    once and workers load it from disk instead of rebuilding per unit.

    ``checkpoint`` journals every completed unit to a
    :class:`~repro.resilience.checkpoint.RunManifest`; ``resume=True``
    replays journaled units from an existing manifest (after verifying
    it was written by this exact aligner/config/input combination)
    instead of recomputing them.  Because journaled results are merged
    back at their original positions, a resumed run's output is
    byte-identical to an uninterrupted one.  ``resilience`` supplies the
    retry policy, fault-injection plan and recovery counters for
    supervised parallel dispatch.

    ``telemetry`` adds live progress reporting and metric collection;
    on traced parallel runs each unit's span tree and receipt come back
    with its result and are recorded where the result is collected.
    None of it changes the result: telemetry rides alongside the
    dispatch/gather order, never in it.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    config = config if config is not None else aligner_class.config_class()
    manifest = None
    if checkpoint is not None:
        manifest = RunManifest.attach(
            checkpoint,
            aligner=aligner_class.__name__,
            config=config_digest(config),
            target=sequences_digest(target_assembly),
            query=sequences_digest(query_assembly),
            resume=resume,
        )
    progress = telemetry.progress if telemetry is not None else NO_PROGRESS
    alignments: List[Alignment] = []
    workload = Workload()
    with aligner_class(
        config,
        tracer=tracer,
        workers=workers,
        engine=engine,
        index_cache=index_cache,
        resilience=resilience,
        telemetry=telemetry,
    ) as aligner, tracer.span("align_assemblies") as span:
        recovery = aligner.resilience
        stats = recovery.stats if recovery is not None else None
        pool = aligner.engine
        if pool is not None and pool.active:
            units = _windowed_units(
                aligner, pool, target_assembly, query_assembly, manifest
            )
        else:
            units = _serial_units(
                aligner, target_assembly, query_assembly, manifest
            )
        for key, result, fresh in units:
            if not fresh:
                span.inc("resumed_units")
                if stats is not None:
                    stats.resumed_units += 1
            elif manifest is not None:
                manifest.record(key, result)
                if stats is not None:
                    stats.journaled_units += 1
            alignments.extend(result.alignments)
            workload.merge(result.workload)
            span.inc("chromosome_pairs")
            progress.advance(
                units=1,
                cells=result.workload.filter_cells
                + result.workload.extension_cells,
            )
    alignments.sort(key=lambda a: -a.score)
    return WGAResult(alignments=alignments, workload=workload)


def _serial_units(aligner, target_assembly, query_assembly, manifest):
    """``(key, result, fresh)`` per unit in serial order, fresh units
    aligned in this process."""
    for ti, target in enumerate(target_assembly):
        # Built on first non-journaled unit: a fully resumed target
        # never pays for index construction.
        index = None
        for qi, query in enumerate(query_assembly):
            key = _unit_key(ti, target, qi, query)
            if manifest is not None and key in manifest:
                yield key, manifest.result_for(key), False
                continue
            if index is None:
                index = aligner._build_index(target)
            yield key, aligner.align(target, query, index=index), True


#: Injectable sleep used by the ``stall`` fault kind (tests patch it).
_sleep = time.sleep

#: How long an injected ``stall`` fault holds a collection back.
STALL_SECONDS = 0.02


def _stall_if_planned(resilience, key: str) -> None:
    """Sleep before a collection when the fault plan schedules a stall
    (a slow consumer)."""
    plan = resilience.fault_plan
    if plan is not None and plan.decide("stall", key):
        resilience.stats.inject("stall")
        _sleep(STALL_SECONDS)


def _windowed_units(
    aligner, engine, target_assembly, query_assembly, manifest
):
    """``(key, result, fresh)`` per unit in serial order, fresh units
    run as worker tasks.

    Every fresh unit is dispatched before the first collection, so a
    slow unit delays only its own collection, never a worker's next
    unit; a bound would save no memory, as results are kept to the end
    anyway.  Each unit is internally serial, so values never depend on
    where a unit ran — including under supervised recovery (retries,
    pool rebuilds and serial fallbacks) and under resume: a journaled
    unit is a settled entry that keeps its place in the order without
    occupying a worker.  A collected unit's receipt is recorded and its
    worker spans are grafted where it was dispatched, tagged ``unit`` =
    key and ``worker`` = pid.

    Deferred imports: a serial run never loads the task functions.
    """
    from ..obs.export import graft_span_dicts
    from ..obs.resource import observe_receipt
    from .worker import align_unit_task

    tracer = aligner.tracer
    telemetry = engine.telemetry
    registry = telemetry.registry if telemetry is not None else None
    cache = aligner.index_cache
    cache_dir = str(cache.directory) if cache is not None else None
    # (key, ticket, base): the engine's ticket and the parent clock at
    # dispatch; a settled entry has no ticket and its value as ``base``.
    entries = []
    for ti, target in enumerate(target_assembly):
        target_handle = None
        for qi, query in enumerate(query_assembly):
            key = _unit_key(ti, target, qi, query)
            if manifest is not None and key in manifest:
                entries.append((key, None, manifest.result_for(key)))
                continue
            if target_handle is None:
                if cache is not None:
                    # Warm the on-disk index once per target so every
                    # worker unit loads it as a cache hit.
                    cache.get_or_build(
                        target, aligner.config.seed, tracer=tracer
                    )
                target_handle = engine.share(target)
            base = tracer.now()
            ticket = engine.dispatch(
                align_unit_task,
                type(aligner),
                aligner.config,
                target_handle,
                engine.share(query),
                cache_dir,
                tracer.enabled,
                key=key,
            )
            entries.append((key, ticket, base))
    for key, ticket, base in entries:
        if ticket is None:
            yield key, base, False
            continue
        _stall_if_planned(engine.resilience, key)
        value, span_dicts, receipt = engine.result(ticket, tracer=tracer)
        observe_receipt(registry, receipt, tracer.now() - base)
        if span_dicts is not None:
            graft_span_dicts(
                tracer, span_dicts, base=base, unit=key, worker=receipt["pid"]
            )
        yield key, value, True
