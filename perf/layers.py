"""The traced run: where a workload's time goes, layer by layer.

Two kinds of number, both taken from the benchmark's side of each
layer's public functions (nothing in ``src/`` is edited or patched):

* **the workload's own path, replayed stage by stage** in this process:
  ``read_fasta`` -> ``SeedIndex.build`` -> per strand seeding -> gapped |
  ungapped filter -> ``extend_anchors`` -> ``build_chains`` -> MAF write
  and read-back, each inside a :class:`perf.trace.Recorder` span.  Every
  layer's span is opened on every workload so the traces line up; the
  span of a layer the workload does not enter times an empty body
  (about a microsecond) and its counts are 0.  The replay's alignments
  must equal ``align()`` on the same records and the CLI's MAF, or the
  numbers would describe different work and the run fails.
* **probes** of layers that sit beside that path (kernels against their
  oracles, seed-index cache, process pool, journals, daemon, hardware
  model), run on the workload's own inputs.

One-shot probes run first; then the round [untraced ``align()``, staged
replay, ``align()`` under ``repro.obs.Tracer``] repeats until
``--seconds`` are used up (at least once) and medians are reported.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.align import _reference as oracle
from repro.align import bsw_batch, ungapped_extend_batch, xdrop_extend
from repro.align.banded_sw import band_cells
from repro.chain import build_chains
from repro.core import DarwinWGA, DarwinWGAConfig, align_assemblies
from repro.core import Workload as Counters
from repro.core.anchors import CoverageGrid
from repro.core.extension import extend_anchors
from repro.core.gapped_filter import gapped_filter
from repro.genome import alphabet, make_species_pair, read_fasta
from repro.hw import FpgaPlatform, scale_workload, simulate
from repro.io import read_maf, write_assembly_maf
from repro.lastz import LastzAligner, LastzConfig
from repro.lastz.ungapped_filter import ungapped_filter
from repro.obs import Tracer
from repro.parallel import ExecutionEngine
from repro.resilience.checkpoint import (
    RunManifest,
    config_digest,
    sequences_digest,
)
from repro.seed.cache import SeedIndexCache
from repro.seed.dsoft import all_seed_hits, dsoft_seed
from repro.seed.index import SeedIndex
from repro.service import ServeClient
from repro.service.journal import JobJournal

from . import measure
from .trace import Recorder

#: genome-length factor the hardware model extrapolates the counters by
#: (tens of kbp here -> tens of Mbp, the paper's genome sizes).
HW_SCALE = 1000
#: stages of ``align()`` itself; their sum against align() is the glue.
ALIGN_STAGES = ("seed.index_build", "seed.dsoft", "core.filter",
                "lastz.filter", "core.extend")
#: stages a ``repro align`` invocation runs besides ``align()``.
CLI_STAGES = ALIGN_STAGES + ("io.read_fasta", "io.write_maf")
ROUND_SPANS = CLI_STAGES + ("io.read_maf", "chain.build", "core.align",
                            "lastz.align", "replay.align", "obs.traced_align")
_COUNTER_FIELDS = ("seed_hits", "filter_tiles", "filter_cells",
                   "extension_tiles", "extension_cells", "anchors",
                   "absorbed_anchors")


def _is_darwin(workload) -> bool:
    return workload.aligner == "darwin"


def _config(workload):
    return DarwinWGAConfig() if _is_darwin(workload) else LastzConfig()


def _assembly_mode(workload, targets, queries) -> bool:
    """Whether the entry point goes through ``align_assemblies``."""
    return (
        workload.serve
        or workload.checkpoint
        or len(targets) > 1
        or len(queries) > 1
    )


def _aligner(workload, tracer=None, engine=None):
    aligner_class = DarwinWGA if _is_darwin(workload) else LastzAligner
    return aligner_class(_config(workload), tracer=tracer, engine=engine)


def align_input(workload, records, tracer=None, engine=None):
    """What the entry point calls for one input, in this process."""
    targets, queries = records
    if _assembly_mode(workload, targets, queries):
        return align_assemblies(
            targets, queries, config=_config(workload),
            aligner_class=DarwinWGA if _is_darwin(workload) else LastzAligner,
            tracer=tracer, engine=engine,
        )
    return _aligner(workload, tracer, engine).align(targets[0], queries[0])


class Tally:
    """Counts read off the return values at the replay's boundaries."""

    def __init__(self) -> None:
        self.candidates = 0
        self.chains = 0
        self.chain_blocks = 0
        self.maf_bytes = 0
        #: + strand seeding of the first unit, for the kernel probes.
        self.first_hits = None


def replay_unit(rec, workload, config, target, query, index, tally):
    """``DarwinWGA.align`` / ``LastzAligner.align`` for one unit, staged."""
    darwin = _is_darwin(workload)
    alignments = []
    counters = Counters()
    for strand in (1, -1):
        oriented = query if strand == 1 else query.reverse_complement()
        with rec.span("seed.dsoft"):
            if darwin:
                seeding = dsoft_seed(index, oriented, config.dsoft)
            else:
                seeding = all_seed_hits(
                    index, oriented, seed_limit=config.seed_limit
                )
        hits = (seeding.target_positions, seeding.query_positions)
        if tally.first_hits is None:
            tally.first_hits = hits
        tally.candidates += seeding.candidate_count
        with rec.span("core.filter"):
            if darwin:
                passed = gapped_filter(
                    target, oriented, *hits, config.scoring,
                    config.filtering, strand=strand,
                )
                tiles = passed.tiles
        with rec.span("lastz.filter"):
            if not darwin:
                passed = ungapped_filter(
                    target, oriented, *hits, config.scoring,
                    config.filtering, strand=strand,
                )
                tiles = passed.hits
        unit = Counters(
            seed_hits=seeding.raw_hit_count,
            filter_tiles=tiles,
            filter_cells=passed.cells,
            anchors=len(passed.anchors),
        )
        ordered = sorted(passed.anchors, key=lambda a: -a.filter_score)
        with rec.span("core.extend"):
            alignments.extend(
                extend_anchors(
                    target, oriented, ordered, config.scoring,
                    config.extension,
                    CoverageGrid(config.absorb_granularity), unit,
                    keep_tile_traces=darwin,
                )
            )
        counters.merge(unit)
    alignments.sort(key=lambda a: -a.score)
    return alignments, counters


def replay_input(rec, workload, records, tally):
    """Every (target, query) unit of one input, index built per target."""
    config = _config(workload)
    targets, queries = records
    alignments = []
    counters = Counters()
    for target in targets:
        with rec.span("seed.index_build"):
            index = SeedIndex.build(target, config.seed)
        for query in queries:
            unit_alignments, unit_counters = replay_unit(
                rec, workload, config, target, query, index, tally
            )
            alignments.extend(unit_alignments)
            counters.merge(unit_counters)
    alignments.sort(key=lambda a: -a.score)
    return alignments, counters


@dataclass
class Round:
    """One pass over every input: align(), staged replay, traced align()."""

    totals: dict
    #: per input, the (targets, queries) records as read from the FASTA
    records: list
    aligned: list
    replayed: list
    traced: list
    read_back: list
    tally: Tally


def one_round(rec, workload, pairs, out_dir: Path) -> Round:
    darwin = _is_darwin(workload)
    mark = rec.mark()
    tally = Tally()
    records = []
    for pair in pairs:
        with rec.span("io.read_fasta"):
            records.append(
                (read_fasta(pair.target_path), read_fasta(pair.query_path))
            )
    with rec.span("core.align"):
        if darwin:
            aligned = [align_input(workload, r) for r in records]
    with rec.span("lastz.align"):
        if not darwin:
            aligned = [align_input(workload, r) for r in records]
    replayed = []
    read_back = []
    for number, (targets, queries) in enumerate(records):
        with rec.span("replay.align"):
            alignments, counters = replay_input(
                rec, workload, (targets, queries), tally
            )
        replayed.append((alignments, counters))
        with rec.span("chain.build"):
            chains = build_chains(alignments)
        tally.chains += len(chains)
        tally.chain_blocks += sum(len(chain) for chain in chains)
        out = out_dir / f"replay-{number}.maf"
        with rec.span("io.write_maf"):
            write_assembly_maf(alignments, targets, queries, out)
        tally.maf_bytes += out.stat().st_size
        with rec.span("io.read_maf"):
            read_back.append(read_maf(out))
    with rec.span("obs.traced_align"):
        traced = [align_input(workload, r, tracer=Tracer()) for r in records]
    totals = {name: rec.total(name, mark) for name in ROUND_SPANS}
    return Round(totals, records, aligned, replayed, traced, read_back, tally)


def _same_counters(left, right) -> bool:
    return all(
        getattr(left, name) == getattr(right, name)
        for name in _COUNTER_FIELDS
    )


def check_round(checks, round_: Round, cli_ops) -> None:
    """The replay did the work ``align()`` and the CLI did."""
    for number, result in enumerate(round_.aligned):
        alignments, counters = round_.replayed[number]
        checks.ok(
            alignments == result.alignments
            and _same_counters(counters, result.workload),
            f"input {number}: staged replay differs from align()",
        )
        checks.ok(
            round_.traced[number].alignments == result.alignments,
            f"input {number}: align() under obs.Tracer differs",
        )
        cli = cli_ops[number]
        matched = sum(a.matches for a in alignments)
        checks.ok(
            (len(alignments), matched) == (len(cli.alignments), cli.matched_bp)
            and round_.read_back[number] == cli.alignments,
            f"input {number}: staged replay differs from the CLI's MAF",
        )


def _timings(function, repeats: int) -> list:
    seconds = []
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        seconds.append(time.perf_counter() - start)
    return seconds


def _interleaved(kernel, reference, repeats: int = 3):
    """Median seconds of kernel and oracle, timed turn and turn about."""
    kernel_s, reference_s = [], []
    for _ in range(repeats):
        kernel_s += _timings(kernel, 1)
        reference_s += _timings(reference, 1)
    return statistics.median(kernel_s), statistics.median(reference_s)


def _tiles(seq, centres, size: int):
    """Fixed-shape windows centred on ``centres``, N-padded at the ends."""
    index = centres[:, None] + (np.arange(size) - size // 2)[None, :]
    inside = (index >= 0) & (index < len(seq))
    tiles = np.full(index.shape, alphabet.N, dtype=np.uint8)
    tiles[inside] = seq.codes[index[inside]]
    return tiles


def kernel_probe(metrics, checks, target, query, hits, alignments) -> None:
    """Kernels against their ``_reference`` oracles on workload tiles.

    Tiles are cut from the first unit's sequences at the replay's seed
    candidates and best alignment.  ``*_vs_ref`` is kernel cells/s over
    oracle cells/s, so the base (oracle cells/s) is
    ``*_cells_per_s / *_vs_ref``.
    """
    config = DarwinWGAConfig()
    scoring = config.scoring
    if len(hits[0]) == 0:  # a scaled-down input too small to seed
        hits = tuple(np.array([len(s) // 2]) for s in (target, query))
    t_hits, q_hits = (positions[:512] for positions in hits)

    size, band = config.filtering.tile_size, config.filtering.band
    t_tiles, q_tiles = _tiles(target, t_hits, size), _tiles(query, q_hits, size)

    def bsw(function):
        return function(t_tiles, q_tiles, scoring, band)

    checks.ok(
        all(
            np.array_equal(ours, theirs)
            for ours, theirs in zip(
                bsw(bsw_batch), bsw(oracle.bsw_batch_reference)
            )
        ),
        "bsw_batch differs from its oracle",
    )
    kernel_s, reference_s = _interleaved(
        lambda: bsw(bsw_batch), lambda: bsw(oracle.bsw_batch_reference)
    )
    metrics["align.bsw_batch_cells_per_s"] = (
        len(t_hits) * band_cells(size, size, band) / kernel_s
    )
    metrics["align.bsw_batch_vs_ref"] = reference_s / kernel_s

    # One extension tile, cut where the best alignment starts.
    t_start, q_start, oriented = int(t_hits[0]), int(q_hits[0]), query
    if alignments:
        best = alignments[0]
        t_start, q_start = best.target_start, best.query_start
        if best.strand == -1:
            oriented = query.reverse_complement()
    edge = config.extension.tile_size
    t_tile = target.slice(t_start, min(len(target), t_start + edge))
    q_tile = oriented.slice(q_start, min(len(oriented), q_start + edge))

    def xdrop(function):
        return function(t_tile, q_tile, scoring, config.extension.ydrop)

    ours, theirs = xdrop(xdrop_extend), xdrop(oracle.xdrop_extend_reference)
    checks.ok(
        (ours.score, ours.max_i, ours.max_j, ours.cigar, ours.cells)
        == (theirs.score, theirs.max_i, theirs.max_j, theirs.cigar,
            theirs.cells),
        "xdrop_extend differs from its oracle",
    )
    kernel_s, reference_s = _interleaved(
        lambda: xdrop(xdrop_extend),
        lambda: xdrop(oracle.xdrop_extend_reference),
    )
    metrics["align.xdrop_cells_per_s"] = ours.cells / kernel_s
    metrics["align.xdrop_vs_ref"] = reference_s / kernel_s

    lastz = LastzConfig().filtering
    t_all, q_all = (positions[:4096] for positions in hits)

    def ungapped():
        return ungapped_extend_batch(
            target, query, t_all, q_all, scoring, lastz.xdrop,
            max_length=lastz.max_extension,
        )

    _, left, right = ungapped()
    metrics["align.ungapped_cells_per_s"] = (
        int(left.sum() + right.sum()) + 2 * len(t_all)
    ) / statistics.median(_timings(ungapped, 3))


def cache_probe(metrics, target, directory: Path) -> None:
    """``SeedIndexCache.get_or_build`` cold (build + store), then warm."""
    seed = DarwinWGAConfig().seed
    cold, warm = (
        _timings(
            lambda: SeedIndexCache(directory).get_or_build(target, seed), 1
        )[0]
        for _ in range(2)
    )
    metrics["seed.cache_store_s"] = cold
    metrics["seed.cache_load_s"] = warm


def parallel_probe(metrics, checks, workload, records, serial: Round) -> None:
    """Pool start, shm transport, dispatch round trip, 2-worker run.

    ``parallel.speedup_w2`` is the serial round's ``align()`` seconds
    (its base) over the same calls on a 2-worker engine.
    """
    def trivial():
        return engine.result(engine.dispatch(abs, -1, key="probe"))

    start = time.perf_counter()
    engine = ExecutionEngine(2)
    try:
        trivial()
        metrics["parallel.pool_start_s"] = time.perf_counter() - start
        metrics["parallel.dispatch_rtt_ms"] = 1000 * statistics.median(
            _timings(trivial, 20)
        )
        sequences = [s for r in records for side in r for s in side]
        metrics["parallel.share_s"] = _timings(
            lambda: [engine.share(s) for s in sequences], 1
        )[0]
        metrics["parallel.share_bytes"] = sum(len(s) for s in sequences)

        # One aligner so that its last_stream (the streamed schedule's own
        # telemetry) is read off the timed run where there is one; through
        # align_assemblies there is none, and the first unit is run again.
        aligner = _aligner(workload, engine=engine)
        assembly = _assembly_mode(workload, *records[0])
        start = time.perf_counter()
        if assembly:
            results = [
                align_input(workload, r, engine=engine) for r in records
            ]
        else:
            results = [aligner.align(t[0], q[0]) for t, q in records]
        seconds = time.perf_counter() - start
        checks.ok(
            all(
                mine.alignments == theirs.alignments
                for mine, theirs in zip(results, serial.aligned)
            ),
            "2-worker align() differs from serial",
        )
        metrics["parallel.speedup_w2"] = (
            serial.totals["core.align"] + serial.totals["lastz.align"]
        ) / seconds
        if assembly:
            aligner.align(records[0][0][0], records[0][1][0])
        stream = aligner.last_stream or {}
        metrics["parallel.stream_occupancy"] = stream.get("occupancy", 0.0)
        metrics["parallel.stream_idle_tail_s"] = stream.get(
            "idle_tail_seconds", 0.0
        )
    finally:
        engine.close()


def manifest_probe(metrics, workload, records, result, path, cli_ops) -> None:
    """Median fsync'd ``RunManifest.record`` of this input's result."""
    targets, queries = records
    manifest = RunManifest.create(
        path,
        aligner=workload.aligner,
        config=config_digest(_config(workload)),
        target=sequences_digest(targets),
        query=sequences_digest(queries),
    )
    header = path.stat().st_size
    keys = iter(range(9))
    metrics["resilience.manifest_append_ms"] = 1000 * statistics.median(
        _timings(lambda: manifest.record(f"unit-{next(keys)}", result), 9)
    )
    # What the workload's own --checkpoint wrote, else one unit's worth.
    metrics["resilience.manifest_bytes"] = sum(
        op.manifest_bytes for op in cli_ops
    ) or header + (path.stat().st_size - header) // 9


def journal_probe(metrics, workload, pair, path: Path) -> None:
    journal = JobJournal.create(path)
    event = dict(measure.job_spec(workload, pair), event="submitted", id="job")
    metrics["service.journal_append_ms"] = 1000 * statistics.median(
        _timings(lambda: journal.append(event), 30)
    )


def service_probe(
    metrics, checks, rec, workload, pairs, daemon, run_dir, env, seconds,
    references,
) -> None:
    """What a job costs around its alignment.

    On the serve workload this is the workload itself (closed loop for
    ``seconds``) with every client round trip timed; elsewhere one job
    per input through a daemon started here.  Either way the daemon is
    stopped before this returns.
    """
    if daemon is None:
        daemon = measure.Daemon(run_dir / "probe-state", env)
        with rec.span("service.start"):
            daemon.start()
    try:
        client = ServeClient(port=daemon.port)
        jobs = [
            measure.run_job(client, measure.job_spec(workload, p), n, True)
            for n, p in enumerate(pairs)
        ]
        samples = jobs
        if workload.serve:
            samples = measure.closed_loop(
                daemon.port, workload, pairs, seconds, instrument=True
            )
            jobs = jobs + samples
        metrics["service.shed"] = client.status()["shed"]
        with rec.span("service.stop"):
            stopped = daemon.stop()
    finally:
        daemon.kill()
    checks.ok(stopped.returncode == 0, "repro serve did not exit 0")
    metrics["service.journal_bytes_per_job"] = (
        (daemon.state_dir / "journal.jsonl").stat().st_size / len(jobs)
    )
    measure.check_jobs(jobs, references, checks)
    good = [s for s in samples if s.problem is None]
    if not good:
        return
    latencies = sorted(s.latency for s in good)
    runs = [s.record["summary"]["run_seconds"] for s in good]
    metrics["service.submit_rtt_ms"] = 1000 * statistics.median(
        s.submit_rtt for s in good
    )
    metrics["service.poll_rtt_ms"] = 1000 * statistics.median(
        rtt for s in good for rtt in s.poll_rtts
    )
    metrics["service.run_s_p50"] = statistics.median(runs)
    metrics["service.wait_s_p50"] = statistics.median(
        s.latency - run - s.submit_rtt for s, run in zip(good, runs)
    )
    metrics["service.latency_p90_s"] = latencies[int(0.9 * len(latencies))]
    metrics["service.jobs_per_s"] = len(good) / measure.loop_seconds(samples)


def hardware_probe(metrics, counters) -> None:
    start = time.perf_counter()
    report = simulate(scale_workload(counters, HW_SCALE), FpgaPlatform())
    metrics["hw.sim_host_s"] = time.perf_counter() - start
    metrics["hw.sim_filter_s"] = report.filter.makespan_seconds
    metrics["hw.sim_extend_s"] = report.extension.makespan_seconds


def import_probe(metrics, run_dir: Path, env) -> None:
    """``import repro.cli`` over a bare interpreter, interleaved."""
    bare, loaded = [], []
    for _ in range(3):
        for seconds, code in ((bare, "pass"), (loaded, "import repro.cli")):
            seconds.append(
                measure.run_process(
                    [sys.executable, "-c", code], env,
                    run_dir / "import.log", 60.0,
                ).wall
            )
    metrics["cli.import_s"] = (
        statistics.median(loaded) - statistics.median(bare)
    )


def _shm_entries() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def _ratio(top, bottom) -> float:
    return top / bottom if bottom else 0.0


def count_metrics(metrics, round_: Round, darwin: bool, med: dict):
    """Counts and ratios read off one round's replay boundaries.

    Returns the merged workload counters (the hardware model's input).
    """
    counters = Counters()
    for _, unit_counters in round_.replayed:
        counters.merge(unit_counters)
    tally = round_.tally
    metrics["io.maf_bytes"] = tally.maf_bytes
    metrics["seed.hits"] = counters.seed_hits
    metrics["seed.candidates"] = tally.candidates
    metrics["seed.candidate_ratio"] = _ratio(
        tally.candidates, counters.seed_hits
    )
    for layer, count, entered in (
        ("core", "tiles", darwin), ("lastz", "hits", not darwin)
    ):
        metrics[f"{layer}.filter_{count}"] = (
            counters.filter_tiles if entered else 0
        )
        metrics[f"{layer}.filter_cells"] = (
            counters.filter_cells if entered else 0
        )
        metrics[f"{layer}.filter_pass_ratio"] = (
            _ratio(counters.anchors, counters.filter_tiles) if entered else 0.0
        )
    metrics["core.filter_cells_per_s"] = _ratio(
        metrics["core.filter_cells"], med["core.filter"]
    )
    metrics["core.extend_tiles"] = counters.extension_tiles
    metrics["core.extend_cells"] = counters.extension_cells
    metrics["core.extend_cells_per_s"] = _ratio(
        counters.extension_cells, med["core.extend"]
    )
    metrics["core.absorbed_ratio"] = _ratio(
        counters.absorbed_anchors, counters.anchors
    )
    metrics["core.alignments"] = sum(len(a) for a, _ in round_.replayed)
    metrics["chain.blocks"] = tally.chain_blocks
    metrics["chain.chains"] = tally.chains
    return counters


#: what each pair workload was chosen for: (stage, least share of align()).
SHARES = {"wga-near": ("core.extend", 0.5), "wga-far": ("core.filter", 0.6)}


def traced_run(
    workload, seed, scale, seconds, run_dir, env, trace_path, checks, speed
):
    """Every per-layer metric of one workload, or None if a run failed.

    Seconds are as measured here; only set-up looks at ``speed``.
    """
    began = time.perf_counter()
    shm_before = _shm_entries()
    rec = Recorder(workload.name)
    metrics = {}
    daemon = None
    try:
        pairs, daemon, _ = measure.set_up(
            workload, seed, scale, run_dir, env, speed, rec
        )
        import_probe(metrics, run_dir, env)
        # The serial CLI: what the stages are attributed against.
        cli_ops = measure.reference_runs(
            workload, pairs, run_dir, env, checks
        )
        if cli_ops is None:
            return None
        # Warm this process, as every later call in it will be.
        tiny = make_species_pair(1500, 0.2, np.random.default_rng(0))
        align_input(workload, ([tiny.target.genome], [tiny.query.genome]))

        first = one_round(rec, workload, pairs, run_dir)
        check_round(checks, first, cli_ops)
        records = first.records
        target, query = records[0][0][0], records[0][1][0]
        kernel_probe(
            metrics, checks, target, query, first.tally.first_hits,
            first.replayed[0][0],
        )
        cache_probe(metrics, target, run_dir / "index-cache")
        parallel_probe(metrics, checks, workload, records, first)
        manifest_probe(
            metrics, workload, records[0], first.aligned[0],
            run_dir / "probe.manifest", cli_ops,
        )
        journal_probe(metrics, workload, pairs[0], run_dir / "probe.journal")
        probed, daemon = daemon, None
        # The closed loop gets what is left of --seconds, at least a third.
        left = max(seconds / 3, seconds - (time.perf_counter() - began))
        service_probe(
            metrics, checks, rec, workload, pairs, probed, run_dir, env,
            left, cli_ops,
        )
        rounds = [first.totals]
        while time.perf_counter() - began < seconds:
            rounds.append(one_round(rec, workload, pairs, run_dir).totals)
    finally:
        if daemon is not None:
            daemon.kill()
        rec.write_chrome(trace_path)

    for name in ("genome.make_pair", "genome.write_fasta", "service.start",
                 "service.stop"):
        count = sum(1 for s in rec.spans if s["name"] == name)
        metrics[f"{name}_s"] = rec.total(name) / count
    med = {
        name: statistics.median(r[name] for r in rounds)
        for name in ROUND_SPANS
    }
    for name in CLI_STAGES + ("io.read_maf", "chain.build", "core.align",
                              "lastz.align"):
        metrics[f"{name}_s"] = med[name]
    align_s = med["core.align"] + med["lastz.align"]
    metrics["core.glue_s"] = align_s - sum(med[n] for n in ALIGN_STAGES)
    metrics["trace.overhead_frac"] = (med["replay.align"] - align_s) / align_s
    metrics["obs.tracer_overhead_frac"] = (
        med["obs.traced_align"] - align_s
    ) / align_s
    metrics["cli.unattributed_s"] = (
        sum(op.finished.wall for op in cli_ops)
        - len(cli_ops) * metrics["cli.import_s"]
        - sum(med[n] for n in CLI_STAGES)
    )

    counters = count_metrics(metrics, first, _is_darwin(workload), med)
    hardware_probe(metrics, counters)
    metrics["parallel.shm_leaked"] = len(_shm_entries() - shm_before)
    checks.ok(metrics["parallel.shm_leaked"] == 0, "/dev/shm entries leaked")

    # The workload does what it was chosen for (full-size inputs only).
    if scale >= 1.0 and workload.name in SHARES:
        stage, least = SHARES[workload.name]
        # Stage over the replay it is part of: both from one stretch of
        # time, so the machine's drift between legs cancels.
        share = statistics.median(r[stage] / r["replay.align"] for r in rounds)
        checks.ok(
            share >= least,
            f"{stage} is {share:.0%} of the replayed align(), under the "
            f"{least:.0%} {workload.name} was chosen for",
        )
    if not _is_darwin(workload):
        checks.ok(
            metrics["core.filter_tiles"] == 0,
            "the lastz path entered the gapped filter",
        )
    return metrics
