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

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional, Tuple, Union

from ..align.alignment import Alignment, AnchorHit
from ..genome.sequence import Sequence
from ..obs.export import graft_span_dicts
from ..obs.progress import NO_PROGRESS
from ..obs.session import TelemetryOptions
from ..obs.tracer import NULL_TRACER
from ..resilience.checkpoint import (
    RunManifest,
    config_digest,
    sequences_digest,
)
from ..obs.occupancy import StreamStats
from ..resilience.policy import ResilienceOptions
from ..seed.cache import SeedIndexCache
from ..seed.dsoft import dsoft_seed
from ..seed.index import SeedIndex
from .anchors import CoverageGrid
from .config import DarwinWGAConfig
from .extension import extend_anchors
from .gact_x import TileTrace
from .gapped_filter import gapped_filter
from .stream import (
    BoundedQueue,
    StrandStream,
    StreamParams,
    _stall_if_planned,
    stream_extension,
)
from .worker import align_unit_task

if TYPE_CHECKING:  # repro.parallel sits above core in the layer DAG
    from ..parallel.engine import ExecutionEngine


def _make_engine(
    workers: int,
    resilience: Optional[ResilienceOptions] = None,
    telemetry: Optional[TelemetryOptions] = None,
) -> "ExecutionEngine":
    """Construct the multiprocess engine.

    Deferred import: ``repro.parallel`` is a higher layer than
    ``core``, so the pipelines only reach up at call time, when the
    caller actually asked for workers (``tests/test_layers.py`` holds
    module-level imports to the layer DAG).
    """
    from ..parallel.engine import ExecutionEngine

    return ExecutionEngine(
        workers, resilience=resilience, telemetry=telemetry
    )


def _bind_telemetry(
    telemetry: Optional[TelemetryOptions], tracer
) -> None:
    """Stand the telemetry bus up for a traced run and attach it.

    Must happen before the engine's pool runs its first task — the bus
    queue only reaches workers through the pool initializer.  Untraced
    runs skip the bus entirely (workers would have no spans to stream),
    so NullTracer benchmarks pay nothing.
    """
    if telemetry is None:
        return
    if tracer.enabled:
        telemetry.ensure_bus()
    telemetry.attach(tracer)


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
    the strand loop, workload bookkeeping, GACT-X extension with anchor
    absorption, and the two schedules (serial, and the streamed
    dataflow of :mod:`repro.core.stream` when workers are available).
    A concrete aligner supplies only the swappable stage — the class
    attributes below and :meth:`_seed_filter`.

    Pass a :class:`repro.obs.Tracer` to record per-stage spans (seed /
    filter / per-anchor extension); the default :data:`NULL_TRACER` makes
    instrumentation free.

    ``workers > 1`` fans the extension stage out over a process pool
    (deterministically — output is byte-identical to ``workers=1``);
    an externally owned :class:`~repro.parallel.engine.ExecutionEngine`
    may be passed instead to share one pool across aligners.  Parallel
    runs use the streamed dataflow: seeding/filtering of later strands
    overlaps in-flight extensions under a bounded in-flight watermark
    (tunable through ``stream_params``).
    ``index_cache`` (a directory path or
    :class:`~repro.seed.cache.SeedIndexCache`) persists seed indexes
    across runs.  ``telemetry`` (a
    :class:`~repro.obs.session.TelemetryOptions`) adds live progress,
    metric collection and — for traced parallel runs — the
    cross-process telemetry bus.  Aligners that own their engine should
    be closed (:meth:`close` or a ``with`` block) when ``workers > 1``.
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
        stream_params: Optional[StreamParams] = None,
    ) -> None:
        self.config = config or self.config_class()
        self.stream_params = stream_params
        #: Occupancy/backpressure summary of the last parallel align()
        #: (a :meth:`repro.obs.occupancy.StreamStats.summary` dict), or
        #: None for serial runs.
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
        self._owns_engine = False

    @property
    def engine(self) -> Optional[ExecutionEngine]:
        """The execution engine, created lazily when ``workers > 1``."""
        if self._engine is None and self.workers > 1:
            _bind_telemetry(self.telemetry, self.tracer)
            self._engine = _make_engine(
                self.workers, self.resilience, self.telemetry
            )
            self._owns_engine = True
        return self._engine

    def close(self) -> None:
        """Release the engine if this aligner created it."""
        if self._owns_engine and self._engine is not None:
            self._engine.close()
            self._engine = None
            self._owns_engine = False

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
        self, target: Sequence, query: Sequence, index: SeedIndex, strand: int
    ) -> Tuple[int, int, int, List[AnchorHit]]:
        """The swappable stage: seed one strand and filter its hits.

        Returns ``(seed_hits, filter_tiles, filter_cells, anchors)``.
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
            engine = self.engine
            streamed = engine is not None and engine.active

            def strand_stage(i: int) -> StrandStream:
                """Strand ``i``: seed, filter, order anchors — and, on
                the serial schedule, extend them inside the same span.

                The sort by filter score is a deliberate per-strand
                ordering barrier: extension priority determines
                absorption (best-filter-score first keeps the anchors
                most likely to seed the strongest alignments), so it is
                part of the byte-identical-output contract.
                """
                strand = strands[i]
                oriented = query if strand == 1 else query.reverse_complement()
                with tracer.span(
                    "strand", strand="+" if strand == 1 else "-"
                ):
                    hits, tiles, cells, anchors = self._seed_filter(
                        target, oriented, index, strand
                    )
                    state = StrandStream(
                        oriented,
                        sorted(anchors, key=lambda a: -a.filter_score),
                        CoverageGrid(config.absorb_granularity),
                        Workload(
                            seed_hits=hits,
                            filter_tiles=tiles,
                            filter_cells=cells,
                            anchors=len(anchors),
                        ),
                    )
                    if not streamed:
                        state.alignments = extend_anchors(
                            target,
                            oriented,
                            state.anchors,
                            config.scoring,
                            config.extension,
                            state.grid,
                            state.workload,
                            tracer=tracer,
                            keep_tile_traces=self.keep_tile_traces,
                        )
                return state

            if streamed:
                states, stats = stream_extension(
                    target,
                    len(strands),
                    strand_stage,
                    config.scoring,
                    config.extension,
                    engine,
                    tracer=tracer,
                    stream=self.stream_params,
                    keep_tile_traces=self.keep_tile_traces,
                    resilience=self.resilience,
                )
                self.last_stream = stats.summary()
            else:
                states = [strand_stage(i) for i in range(len(strands))]
                self.last_stream = None
            alignments = [a for state in states for a in state.alignments]
            workload = states[0].workload
            for state in states[1:]:
                workload.merge(state.workload)
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
    Smith-Waterman gapped filter.  Constructor options, tracing and the
    parallel schedule are :class:`SeedFilterExtendAligner`'s.
    """

    config_class = DarwinWGAConfig
    label = "darwin"
    keep_tile_traces = True

    def _seed_filter(self, target, query, index, strand):
        config = self.config
        seeding = dsoft_seed(index, query, config.dsoft, tracer=self.tracer)
        result = gapped_filter(
            target,
            query,
            seeding.target_positions,
            seeding.query_positions,
            config.scoring,
            config.filtering,
            strand=strand,
            tracer=self.tracer,
        )
        return (
            seeding.raw_hit_count, result.tiles, result.cells, result.anchors
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
    stream: Optional[StreamParams] = None,
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
    (target chromosome, query chromosome) units across worker processes
    — units are gathered in submission order and the final sort is
    stable, so the result is byte-identical to the serial run.  With an
    ``index_cache`` the parent warms each target's seed index once and
    workers load it from disk instead of rebuilding per unit.

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
    for traced parallel runs it also stands up the cross-process
    telemetry bus, over which workers stream their span trees, funnel
    counters and resource samples as each unit completes.  None of it
    changes the result: telemetry rides alongside the dispatch/gather
    order, never in it.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    cache = _resolve_cache(index_cache, resilience)
    resolved_config = (
        config if config is not None else aligner_class.config_class()
    )
    manifest = None
    if checkpoint is not None:
        manifest = RunManifest.attach(
            checkpoint,
            aligner=aligner_class.__name__,
            config=config_digest(resolved_config),
            target=sequences_digest(target_assembly),
            query=sequences_digest(query_assembly),
            resume=resume,
        )
    stats = resilience.stats if resilience is not None else None
    progress = telemetry.progress if telemetry is not None else NO_PROGRESS
    pool = engine
    owns_engine = False
    if pool is None and workers > 1:
        _bind_telemetry(telemetry, tracer)
        pool = _make_engine(workers, resilience, telemetry)
        owns_engine = True
    elif pool is not None and telemetry is not None:
        # An externally owned engine adopts the telemetry bundle only
        # while its pool is still unbuilt (the bus must ride the pool
        # initializer); otherwise progress still works parent-side.
        if pool.adopt_telemetry(telemetry):
            _bind_telemetry(telemetry, tracer)
    try:
        if pool is not None and pool.active:
            return _align_assemblies_parallel(
                target_assembly,
                query_assembly,
                resolved_config,
                aligner_class,
                tracer,
                pool,
                cache,
                manifest,
                stats,
                resilience,
                stream,
            )
        aligner = aligner_class(
            resolved_config,
            tracer=tracer,
            index_cache=cache,
            resilience=resilience,
        )
        alignments: List[Alignment] = []
        workload = Workload()
        with tracer.span("align_assemblies") as span:
            for ti, target in enumerate(target_assembly):
                # Built on first non-journaled unit: a fully resumed
                # target never pays for index construction.
                index = None
                for qi, query in enumerate(query_assembly):
                    key = _unit_key(ti, target, qi, query)
                    if manifest is not None and key in manifest:
                        result = manifest.result_for(key)
                        span.inc("resumed_units")
                        if stats is not None:
                            stats.resumed_units += 1
                    else:
                        if index is None:
                            index = aligner._build_index(target)
                        result = aligner.align(target, query, index=index)
                        if manifest is not None:
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
    finally:
        if owns_engine:
            pool.close()


def _assembly_units(target_assembly, query_assembly):
    """Lazy serial-order unit stream (the producer stage)."""
    for ti, target in enumerate(target_assembly):
        for qi, query in enumerate(query_assembly):
            yield ti, target, qi, query


def _align_assemblies_parallel(
    target_assembly,
    query_assembly,
    resolved_config,
    aligner_class,
    tracer,
    engine: ExecutionEngine,
    cache: Optional[SeedIndexCache],
    manifest: Optional[RunManifest],
    stats,
    resilience: Optional[ResilienceOptions] = None,
    stream: Optional[StreamParams] = None,
) -> WGAResult:
    """Stream (target chromosome, query chromosome) units over the engine.

    Units flow through a bounded in-flight window (a
    :class:`~repro.core.stream.BoundedQueue` of ``unit_window`` slots)
    instead of being dispatched wholesale up front: the producer shares
    sequences and dispatches lazily, throttled whenever the window is
    full, so pending pickled results stay bounded and memory flat at
    any assembly size.  Submission and result gathering both follow the
    serial iteration order, and each unit is internally serial, so
    alignments, workload counters and the final stable sort reproduce
    the serial run exactly — including under supervised recovery
    (retries, pool rebuilds and serial fallbacks change where a unit
    runs, never its value or its position in the gather order) and
    under resume (journaled units are replayed at their original
    positions, passing through the window without occupying a slot).
    """
    traced = tracer.enabled
    cache_dir = str(cache.directory) if cache is not None else None
    telemetry = engine.telemetry
    registry = telemetry.registry if telemetry is not None else None
    bus = engine.bus
    progress = engine.progress
    stream = stream or StreamParams()
    window = stream.unit_window_for(engine.workers)
    occupancy = StreamStats(slots=engine.workers)
    alignments: List[Alignment] = []
    workload = Workload()
    with tracer.span("align_assemblies") as span:
        units = _assembly_units(target_assembly, query_assembly)
        queue = BoundedQueue("assembly_units", capacity=window)
        target_handles: dict = {}
        outstanding = 0
        exhausted = False

        def _dispatch_next() -> bool:
            """Produce + dispatch one unit; False when none remain."""
            nonlocal exhausted, outstanding
            entry = next(units, None)
            if entry is None:
                exhausted = True
                return False
            ti, target, qi, query = entry
            key = _unit_key(ti, target, qi, query)
            if manifest is not None and key in manifest:
                # Journaled units cost no worker: they ride the queue
                # as markers so they merge at their original position.
                queue.offer((key, None, None))
                return True
            if ti not in target_handles:
                if cache is not None:
                    # Warm the on-disk index once per target so every
                    # worker unit loads it as a cache hit.
                    cache.get_or_build(
                        target, resolved_config.seed, tracer=tracer
                    )
                target_handles[ti] = engine.share(target)
            base = tracer.now()
            if bus is not None:
                # Workers stream this unit's spans with relative
                # timestamps; the bus grafts them onto the parent
                # timeline at the unit's dispatch offset.
                bus.register_unit(key, base)
            ticket = engine.dispatch(
                align_unit_task,
                aligner_class,
                resolved_config,
                target_handles[ti],
                engine.share(query),
                cache_dir,
                traced,
                key,
                key=key,
            )
            queue.offer((key, ticket, base))
            outstanding += 1
            occupancy.dispatched()
            progress.set_in_flight(outstanding)
            return True

        while True:
            # Fill the window; stop at capacity (backpressure) or when
            # the producer runs dry.
            while not exhausted and outstanding < window and not queue.full:
                _dispatch_next()
            if not exhausted and outstanding >= window:
                occupancy.stalled()
            if not len(queue):
                break
            key, ticket, base = queue.take()
            if ticket is None:
                result = manifest.result_for(key)
                span.inc("resumed_units")
                if stats is not None:
                    stats.resumed_units += 1
            else:
                _stall_if_planned(resilience, key)
                result, span_dicts, ack = engine.result(
                    ticket, tracer=tracer
                )
                outstanding -= 1
                occupancy.collected()
                collected = tracer.now()
                if registry is not None:
                    registry.histogram("queue_depth").observe(outstanding)
                    if ack is not None:
                        latency = collected - base - ack.get("busy", 0.0)
                        registry.histogram(
                            "dispatch_latency_seconds"
                        ).observe(max(0.0, latency))
                if bus is not None and ack is not None:
                    bus.record_ack(ack, done_at=collected)
                if traced and span_dicts is not None:
                    # Bus-less engine: spans came back inline; tag them
                    # the way the bus would so trace consumers see one
                    # shape.
                    for grafted in graft_span_dicts(
                        tracer, span_dicts, base=base
                    ):
                        grafted.attrs.setdefault("unit", key)
                if manifest is not None:
                    manifest.record(key, result)
                    if stats is not None:
                        stats.journaled_units += 1
                progress.set_in_flight(outstanding)
            alignments.extend(result.alignments)
            workload.merge(result.workload)
            span.inc("chromosome_pairs")
            progress.advance(
                units=1,
                cells=result.workload.filter_cells
                + result.workload.extension_cells,
            )
        occupancy.close()
        span.set(
            occupancy=round(occupancy.occupancy(), 6),
            backpressure_stalls=occupancy.backpressure_stalls,
            peak_in_flight=occupancy.peak_in_flight,
        )
        if registry is not None:
            registry.counter("stream_backpressure_stalls").inc(
                occupancy.backpressure_stalls
            )
            registry.gauge("stream_occupancy").set(occupancy.occupancy())
            registry.gauge("stream_peak_in_flight").set(
                occupancy.peak_in_flight
            )
        if bus is not None:
            missing = bus.drain()
            idle_tail = bus.idle_tail_seconds(tracer.now())
            span.set(
                idle_tail_seconds=round(idle_tail, 6),
                undelivered_events=missing,
            )
            if registry is not None:
                registry.gauge("idle_tail_seconds").set(idle_tail)
    alignments.sort(key=lambda a: -a.score)
    return WGAResult(alignments=alignments, workload=workload)
