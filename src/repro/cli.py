"""Command-line interface for the Darwin-WGA reproduction.

Subcommands mirror a typical WGA workflow::

    repro generate --length 30000 --distance 0.8 --out-dir genomes/
    repro align genomes/target.fa genomes/query.fa --out alignments.maf
    repro align --aligner lastz genomes/target.fa genomes/query.fa
    repro chain alignments.maf genomes/target.fa genomes/query.fa
    repro model --filter-tiles 14585000000 --extension-tiles 4400000

``repro model`` runs the hardware cost model directly on a workload
description and prints the Table V-style numbers.

Observability: ``align`` and ``chain`` accept ``--trace-out PATH`` to
record per-stage spans into a structured JSON run report, and ``repro
trace PATH`` renders a saved report (``--chrome OUT`` converts it to a
Chrome ``trace_event`` file for chrome://tracing or Perfetto).  Both
commands render a live status line on a TTY (``--progress`` /
``--no-progress`` override the auto-detection); ``align --profile DIR``
captures cProfile data for the parent and every worker.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from pathlib import Path

# Nothing else is imported here: ``build_parser`` needs only argparse,
# and each ``_cmd_*`` imports what it runs, from the module that
# defines it, so an invocation loads (and, with no bytecode cache,
# compiles) one command's modules (DESIGN.md, "Import policy").


def _add_generate(subparsers) -> None:
    parser = subparsers.add_parser(
        "generate", help="generate a synthetic species pair"
    )
    parser.add_argument("--length", type=int, default=30_000)
    parser.add_argument(
        "--distance",
        type=float,
        default=0.6,
        help="substitutions/site separating the two species",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--exons", type=int, default=10)
    parser.add_argument(
        "--alignable-fraction",
        type=float,
        default=0.35,
        help="fraction of the genome in conserved islands",
    )
    parser.add_argument(
        "--chromosomes",
        type=int,
        default=1,
        help="chromosomes per species (--length is per chromosome); "
        "values > 1 write multi-record FASTAs for assembly alignment",
    )
    parser.add_argument("--out-dir", type=Path, default=Path("."))
    parser.set_defaults(func=_cmd_generate)


def _cmd_generate(args) -> int:
    import numpy as np

    from .genome.evolution import make_species_pair
    from .genome.fasta import write_fasta

    if args.chromosomes < 1:
        raise SystemExit("--chromosomes must be at least 1")
    rng = np.random.default_rng(args.seed)
    targets = []
    queries = []
    exon_records = []
    for number in range(1, args.chromosomes + 1):
        single = args.chromosomes == 1
        pair = make_species_pair(
            args.length,
            args.distance,
            rng,
            exon_count=args.exons,
            alignable_fraction=args.alignable_fraction,
            target_name="target" if single else f"target_chr{number}",
            query_name="query" if single else f"query_chr{number}",
        )
        targets.append(pair.target.genome)
        queries.append(pair.query.genome)
        for exon in pair.target.exons:
            exon_records.append((pair.target.genome.name, exon))
    args.out_dir.mkdir(parents=True, exist_ok=True)
    target_path = args.out_dir / "target.fa"
    query_path = args.out_dir / "query.fa"
    write_fasta(targets, target_path)
    write_fasta(queries, query_path)
    target_bp = sum(len(seq) for seq in targets)
    query_bp = sum(len(seq) for seq in queries)
    print(f"wrote {target_path} ({target_bp:,} bp, {len(targets)} records)")
    print(f"wrote {query_path} ({query_bp:,} bp, {len(queries)} records)")
    if exon_records:
        bed = args.out_dir / "target_exons.bed"
        with open(bed, "w") as handle:
            for name, exon in exon_records:
                handle.write(
                    f"{name}\t{exon.start}\t{exon.end}\t{exon.name}\n"
                )
        print(f"wrote {bed} ({len(exon_records)} exons)")
    return 0


def _add_align(subparsers) -> None:
    parser = subparsers.add_parser(
        "align", help="whole genome alignment of two FASTA files"
    )
    parser.add_argument("target", type=Path)
    parser.add_argument("query", type=Path)
    parser.add_argument(
        "--aligner",
        choices=("darwin", "lastz"),
        default="darwin",
        help="gapped (Darwin-WGA) or ungapped (LASTZ-like) filtering",
    )
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--plus-only", action="store_true")
    parser.add_argument(
        "--trace-out",
        type=Path,
        default=None,
        help="write a structured JSON trace of the run (see `repro trace`)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for chromosome-pair units; a single "
        "pair runs in-process",
    )
    parser.add_argument(
        "--index-cache",
        type=Path,
        default=None,
        help="directory for the persistent seed-index cache",
    )
    parser.add_argument(
        "--checkpoint",
        type=Path,
        default=None,
        help="journal completed chromosome-pair units to this manifest",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="skip units already journaled in --checkpoint (after "
        "verifying it matches this run's inputs and configuration)",
    )
    parser.add_argument(
        "--inject-faults",
        metavar="SEED[:kind=rate,...]",
        default=None,
        help="deterministic chaos testing: seeded schedule of worker "
        "crashes / task errors / timeouts / cache corruption "
        "(output stays byte-identical; see repro.resilience)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="re-dispatches per work unit before serial in-process "
        "fallback",
    )
    parser.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        help="per-attempt deadline in seconds for dispatched work units",
    )
    _add_progress_flags(parser)
    parser.add_argument(
        "--profile",
        type=Path,
        default=None,
        metavar="DIR",
        help="write cProfile captures (parent + every worker) into DIR",
    )
    parser.set_defaults(func=_cmd_align)


def _add_progress_flags(parser) -> None:
    parser.add_argument(
        "--progress",
        dest="progress",
        action="store_true",
        default=None,
        help="force the live status line on (default: on when stderr "
        "is a terminal)",
    )
    parser.add_argument(
        "--no-progress",
        dest="progress",
        action="store_false",
        help="disable the live status line",
    )


def _progress_from_args(args):
    """Resolve the --progress tri-state to a progress sink."""
    from .obs.progress import NO_PROGRESS, ProgressRenderer

    if args.progress is False:
        return NO_PROGRESS
    renderer = ProgressRenderer(enabled=args.progress)
    return renderer if renderer.enabled else NO_PROGRESS


def _parsed(path: Path, reader):
    """``reader(path)``; a missing, unreadable or malformed file exits
    with ``PATH: message``."""
    try:
        return reader(path)
    except OSError as error:
        raise SystemExit(f"{path}: {error.strerror}")
    except ValueError as error:
        raise SystemExit(f"{path}: {error}")


def _load_records(path: Path):
    from .genome.fasta import read_fasta

    records = _parsed(path, read_fasta)
    if not records:
        raise SystemExit(f"{path}: no FASTA records")
    return records


def _load_single(path: Path):
    records = _load_records(path)
    if len(records) > 1:
        print(
            f"warning: {path} has {len(records)} records; using the first",
            file=sys.stderr,
        )
    return records[0]


def _check_resilience_flags(args) -> None:
    """One-line exits for resilience flags no run could honour.

    Shared by ``align`` and ``serve``; flags a command lacks are skipped.
    A zero or negative deadline would time out every dispatch, and a
    non-positive heartbeat would kill the daemon with a traceback.
    """
    if args.max_retries < 0:
        raise SystemExit("--max-retries must be >= 0")
    for flag in ("task_timeout", "heartbeat_interval", "heartbeat_deadline"):
        value = getattr(args, flag, None)
        if value is not None and value <= 0:
            raise SystemExit(f"--{flag.replace('_', '-')} must be positive")


def _resilience_from_args(args):
    from .resilience.faults import FaultPlan
    from .resilience.policy import ResilienceOptions, RetryPolicy

    plan = None
    if args.inject_faults is not None:
        try:
            plan = FaultPlan.parse(args.inject_faults)
        except ValueError as error:
            raise SystemExit(str(error))
    return ResilienceOptions(
        policy=RetryPolicy(
            max_retries=args.max_retries, timeout=args.task_timeout
        ),
        fault_plan=plan,
    )


def _print_recovery(stats) -> None:
    if not stats.recovered and not stats.injected_faults:
        return
    injected = (
        ", ".join(
            f"{kind}={count}"
            for kind, count in sorted(stats.injected_faults.items())
        )
        or "none"
    )
    print(
        f"recovery: {stats.retries} retries, "
        f"{stats.timeouts} timeouts, "
        f"{stats.pool_rebuilds} pool rebuilds, "
        f"{stats.serial_fallbacks} serial fallbacks, "
        f"{stats.quarantined_entries} quarantined cache entries, "
        f"{stats.resumed_units} resumed / "
        f"{stats.journaled_units} journaled units; "
        f"injected: {injected}"
    )


def _cmd_align(args) -> int:
    from .core.pipeline import align_assemblies, aligner_named
    from .io.maf import write_assembly_maf, write_maf
    from .obs.export import write_run_report
    from .obs.profiling import profile_capture
    from .obs.session import TelemetryOptions
    from .obs.tracer import NULL_TRACER, Tracer
    from .resilience.checkpoint import ManifestError

    if args.workers < 1:
        raise SystemExit("--workers must be at least 1")
    _check_resilience_flags(args)
    if args.resume and args.checkpoint is None:
        raise SystemExit("--resume requires --checkpoint")
    targets = _load_records(args.target)
    queries = _load_records(args.query)
    tracer = Tracer() if args.trace_out is not None else NULL_TRACER
    resilience = _resilience_from_args(args)
    progress = _progress_from_args(args)
    telemetry = TelemetryOptions(progress=progress, profile_dir=args.profile)
    if args.workers > 1:
        from .parallel.engine import install_signal_cleanup

        install_signal_cleanup()
    aligner_class = aligner_named(args.aligner)
    config = aligner_class.config_class(both_strands=not args.plus_only)
    assembly_mode = (
        len(targets) > 1 or len(queries) > 1 or args.checkpoint is not None
    )
    if args.profile is not None:
        args.profile.mkdir(parents=True, exist_ok=True)
        capture = profile_capture(args.profile / "profile-main.pstats")
    else:
        capture = nullcontext()
    with capture:
        if assembly_mode:
            progress.begin("align", total=len(targets) * len(queries))
            try:
                result = align_assemblies(
                    targets,
                    queries,
                    config=config,
                    aligner_class=aligner_class,
                    tracer=tracer,
                    workers=args.workers,
                    index_cache=args.index_cache,
                    checkpoint=args.checkpoint,
                    resume=args.resume,
                    resilience=resilience,
                    telemetry=telemetry,
                )
            except (ManifestError, ValueError) as error:
                # Raised before any unit runs: a chromosome name used
                # twice in one assembly, --resume against a manifest
                # from other inputs/config, or an unusable one.
                progress.close()
                raise SystemExit(str(error))
        else:
            progress.begin("align", total=1)
            aligner = aligner_class(
                config,
                tracer=tracer,
                workers=args.workers,
                index_cache=args.index_cache,
                resilience=resilience,
                telemetry=telemetry,
            )
            with aligner:
                result = aligner.align(targets[0], queries[0])
            progress.advance(units=1)
    progress.close()
    workload = result.workload
    print(
        f"{len(result.alignments)} alignments "
        f"({result.total_matches:,} matched bp); "
        f"workload: {workload.seed_hits:,} seed hits, "
        f"{workload.filter_tiles:,} filter tiles, "
        f"{workload.extension_tiles:,} extension tiles"
    )
    _print_recovery(resilience.stats)
    if args.profile is not None:
        print(f"wrote profiles to {args.profile}")
    if args.out is not None:
        if assembly_mode:
            write_assembly_maf(result.alignments, targets, queries, args.out)
        else:
            write_maf(result.alignments, targets[0], queries[0], args.out)
        print(f"wrote {args.out}")
    if args.trace_out is not None:
        write_run_report(
            args.trace_out,
            tracer,
            result=result,
            meta={
                "command": "align",
                "aligner": args.aligner,
                "target": str(args.target),
                "query": str(args.query),
                "resilience": resilience.stats.as_dict(),
            },
            telemetry=telemetry.summary(),
        )
        print(f"wrote trace {args.trace_out}")
    return 0


def _add_chain(subparsers) -> None:
    parser = subparsers.add_parser(
        "chain", help="chain a MAF into UCSC chains (axtChain-like)"
    )
    parser.add_argument("maf", type=Path)
    parser.add_argument("target", type=Path)
    parser.add_argument("query", type=Path)
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument(
        "--linear-gap", choices=("loose", "medium"), default="loose"
    )
    parser.add_argument(
        "--trace-out",
        type=Path,
        default=None,
        help="write a structured JSON trace of the run (see `repro trace`)",
    )
    _add_progress_flags(parser)
    parser.set_defaults(func=_cmd_chain)


def _cmd_chain(args) -> int:
    from .chain.chainer import build_chains
    from .chain.gap_costs import GapCosts
    from .chain.metrics import top_chain_scores, total_matches
    from .io.chain_format import write_chains
    from .io.maf import read_maf
    from .obs.export import write_run_report
    from .obs.tracer import NULL_TRACER, Tracer

    alignments = _parsed(args.maf, read_maf)
    target = _load_single(args.target)
    query = _load_single(args.query)
    gap_costs = (
        GapCosts.loose() if args.linear_gap == "loose" else GapCosts.medium()
    )
    tracer = Tracer() if args.trace_out is not None else NULL_TRACER
    progress = _progress_from_args(args)
    progress.begin("chain")
    chains = build_chains(
        alignments, gap_costs, tracer=tracer, progress=progress
    )
    progress.close()
    if args.trace_out is not None:
        write_run_report(
            args.trace_out,
            tracer,
            meta={
                "command": "chain",
                "maf": str(args.maf),
                "linear_gap": args.linear_gap,
            },
        )
        print(f"wrote trace {args.trace_out}")
    print(
        f"{len(chains)} chains, {total_matches(chains):,} matched bp; "
        f"top-10 scores: "
        f"{[round(s) for s in top_chain_scores(chains, 10)]}"
    )
    if args.out is not None:
        write_chains(
            chains,
            target.name or "target",
            len(target),
            query.name or "query",
            len(query),
            args.out,
        )
        print(f"wrote {args.out}")
    return 0


def _add_model(subparsers) -> None:
    parser = subparsers.add_parser(
        "model", help="run the hardware cost model on a workload"
    )
    parser.add_argument("--seed-hits", type=int, default=1_362_000_000)
    parser.add_argument(
        "--filter-tiles", type=int, default=14_585_000_000
    )
    parser.add_argument("--extension-tiles", type=int, default=4_400_000)
    parser.add_argument(
        "--asic-table", action="store_true", help="print Table IV"
    )
    parser.set_defaults(func=_cmd_model)


def _cmd_model(args) -> int:
    from .core.pipeline import Workload
    from .hw.cost import CostModel
    from .hw.power import asic_estimate

    workload = Workload(
        seed_hits=args.seed_hits,
        filter_tiles=args.filter_tiles,
        filter_cells=args.filter_tiles * 320 * 65,
        extension_tiles=args.extension_tiles,
    )
    model = CostModel.default()
    iso = model.iso_software_runtime(workload)
    fpga = model.fpga_runtime(workload)
    asic = model.asic_runtime(workload)
    print(f"iso-sensitive software : {iso:,.0f} s")
    print(
        f"Darwin-WGA FPGA        : {fpga.total:,.0f} s "
        f"(seed {fpga.seeding:,.0f} / filter {fpga.filtering:,.0f} / "
        f"extend {fpga.extension:,.0f})"
    )
    print(f"Darwin-WGA ASIC        : {asic.total:,.0f} s")
    print(
        f"FPGA performance/$     : "
        f"{model.fpga_perf_per_dollar_improvement(workload):.1f}x"
    )
    print(
        f"ASIC performance/W     : "
        f"{model.asic_perf_per_watt_improvement(workload):.0f}x"
    )
    if args.asic_table:
        print()
        print(asic_estimate().table())
    return 0


def _add_mask(subparsers) -> None:
    parser = subparsers.add_parser(
        "mask", help="soft-mask repeats/low-complexity in a FASTA"
    )
    parser.add_argument("fasta", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument(
        "--method", choices=("entropy", "frequency"), default="frequency"
    )
    parser.add_argument("--word-length", type=int, default=12)
    parser.add_argument("--threshold-multiple", type=float, default=50.0)
    parser.set_defaults(func=_cmd_mask)


def _cmd_mask(args) -> int:
    from .genome.fasta import write_fasta
    from .genome.masking import (
        apply_soft_mask,
        entropy_mask,
        frequency_mask,
        mask_stats,
    )

    masked = []
    for record in _load_records(args.fasta):
        if args.method == "entropy":
            mask = entropy_mask(record)
        else:
            try:
                mask = frequency_mask(
                    record,
                    word_length=args.word_length,
                    threshold_multiple=args.threshold_multiple,
                )
            except ValueError as error:
                raise SystemExit(f"--word-length: {error}")
        stats = mask_stats(mask)
        print(
            f"{record.name}: {stats.fraction:.2%} masked "
            f"({len(stats.intervals)} intervals)"
        )
        masked.append(apply_soft_mask(record, mask))
    write_fasta(masked, args.out)
    print(f"wrote {args.out}")
    return 0


def _add_net(subparsers) -> None:
    parser = subparsers.add_parser(
        "net", help="net chains over the target (chainNet-like)"
    )
    parser.add_argument("maf", type=Path)
    parser.add_argument("target", type=Path)
    parser.add_argument("query", type=Path)
    parser.add_argument("--min-span", type=int, default=25)
    parser.set_defaults(func=_cmd_net)


def _cmd_net(args) -> int:
    from .chain.chainer import build_chains
    from .chain.nets import build_net
    from .io.maf import read_maf

    alignments = _parsed(args.maf, read_maf)
    target = _load_single(args.target)
    chains = build_chains(alignments)
    net = build_net(chains, len(target), min_span=args.min_span)
    print(
        f"{len(net.entries)} top-level entries, "
        f"{len(net.all_entries())} total, "
        f"fill {net.fill_fraction():.1%} of target"
    )
    for entry in net.all_entries():
        indent = "  " * (entry.level - 1)
        print(
            f"{indent}level {entry.level}: "
            f"[{entry.target_start:,}, {entry.target_end:,}) "
            f"score={entry.chain.score:,.0f}"
        )
    return 0


def _add_tblastx(subparsers) -> None:
    parser = subparsers.add_parser(
        "tblastx",
        help="translated homology search between two FASTA files",
    )
    parser.add_argument("target", type=Path)
    parser.add_argument("query", type=Path)
    parser.add_argument("--threshold", type=int, default=60)
    parser.add_argument("--max-hits", type=int, default=20)
    parser.set_defaults(func=_cmd_tblastx)


def _cmd_tblastx(args) -> int:
    from .annotate.tblastx import TblastxParams
    from .annotate.translated_search import translated_search

    if args.max_hits < 1:
        raise SystemExit("--max-hits must be at least 1")
    target = _load_single(args.target)
    query = _load_single(args.query)
    hits = translated_search(
        target,
        query,
        TblastxParams(threshold=args.threshold),
        max_hits=args.max_hits,
    )
    print(f"{len(hits)} translated hits (threshold {args.threshold})")
    for hit in hits:
        print(
            f"  score={hit.score:>5} "
            f"target[{hit.target_start:,}, {hit.target_end:,}) "
            f"frame {hit.target_frame} <-> "
            f"query[{hit.query_start:,}, {hit.query_end:,}) "
            f"frame {hit.query_frame}"
        )
    return 0


def _add_trace(subparsers) -> None:
    parser = subparsers.add_parser(
        "trace",
        help="inspect or convert a JSON run trace (from --trace-out)",
    )
    parser.add_argument("report", type=Path)
    parser.add_argument(
        "--chrome",
        type=Path,
        default=None,
        help="also write a Chrome trace_event file "
        "(open in chrome://tracing or https://ui.perfetto.dev)",
    )
    parser.add_argument(
        "--max-spans",
        type=int,
        default=200,
        help="span-tree lines to print before truncating",
    )
    parser.set_defaults(func=_cmd_trace)


def _cmd_trace(args) -> int:
    from .obs.export import load_run_report, render_run, write_chrome_trace

    try:
        report = load_run_report(args.report)
    except OSError as error:
        raise SystemExit(f"{args.report}: {error.strerror}")
    except ValueError as error:
        raise SystemExit(str(error))
    meta = report.get("meta", {})
    if meta:
        print(
            "meta: "
            + "  ".join(f"{k}={v}" for k, v in sorted(meta.items()))
        )
        print()
    print(render_run(report, max_spans=args.max_spans))
    if args.chrome is not None:
        write_chrome_trace(args.chrome, report)
        print(f"\nwrote Chrome trace {args.chrome}")
    return 0


def _add_serve(subparsers) -> None:
    parser = subparsers.add_parser(
        "serve",
        help="run the alignment service daemon (crash-safe job queue)",
    )
    parser.add_argument(
        "state_dir",
        type=Path,
        help="service state directory (job journal, per-job "
        "checkpoints and outputs); restart with the same directory "
        "to resume journaled work",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port",
        type=int,
        default=8753,
        help="listen port (0 binds an ephemeral port; see --port-file)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes shared by every job "
        "(output is byte-identical for any value)",
    )
    parser.add_argument(
        "--index-cache",
        type=Path,
        default=None,
        help="persistent seed-index cache directory shared across jobs",
    )
    parser.add_argument(
        "--max-queued",
        type=int,
        default=16,
        help="bounded admission: jobs beyond this are shed with "
        "HTTP 429 + Retry-After",
    )
    parser.add_argument(
        "--heartbeat-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="workers publish liveness beats at this interval; the "
        "sentinel escalates workers silent past the deadline",
    )
    parser.add_argument(
        "--heartbeat-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="silence that marks a worker hung "
        "(default: 4x the heartbeat interval)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="re-dispatches per work unit before serial fallback",
    )
    parser.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        help="per-attempt deadline in seconds for dispatched work units",
    )
    parser.add_argument(
        "--inject-faults",
        metavar="SEED[:kind=rate,...]",
        default=None,
        help="deterministic chaos testing, including kind `hang` "
        "(see repro.resilience)",
    )
    parser.add_argument(
        "--port-file",
        type=Path,
        default=None,
        help="write the bound port here once listening (CI rendezvous)",
    )
    parser.set_defaults(func=_cmd_serve)


def _cmd_serve(args) -> int:
    from .resilience.faults import FaultPlan
    from .service.daemon import ServeConfig, ServeDaemon

    if args.workers < 1:
        raise SystemExit("--workers must be at least 1")
    if args.max_queued < 1:
        raise SystemExit("--max-queued must be at least 1")
    _check_resilience_flags(args)
    if args.inject_faults is not None:
        try:
            FaultPlan.parse(args.inject_faults)
        except ValueError as error:
            raise SystemExit(str(error))
    config = ServeConfig(
        state_dir=args.state_dir,
        host=args.host,
        port=args.port,
        workers=args.workers,
        index_cache=args.index_cache,
        max_queued=args.max_queued,
        heartbeat_interval=args.heartbeat_interval,
        heartbeat_deadline=args.heartbeat_deadline,
        max_retries=args.max_retries,
        task_timeout=args.task_timeout,
        inject_faults=args.inject_faults,
        port_file=args.port_file,
    )
    daemon = ServeDaemon(config, log=print)
    return daemon.serve_forever()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Darwin-WGA reproduction command-line interface",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_generate(subparsers)
    _add_align(subparsers)
    _add_chain(subparsers)
    _add_model(subparsers)
    _add_mask(subparsers)
    _add_net(subparsers)
    _add_tblastx(subparsers)
    _add_trace(subparsers)
    _add_serve(subparsers)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
