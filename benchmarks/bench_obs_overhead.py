"""Telemetry overhead of the repro.obs v2 instrumentation.

Measures what observability costs, merged into ``BENCH_PIPELINE.json``
under ``obs_overhead`` and gated by ``repro bench check``:

* **telemetry off** (target ≤1%) — a ``TelemetryOptions`` bundle
  attached to an untraced run adds only parent-side bookkeeping per
  gathered unit: two histogram observations, a few no-op progress
  calls and is-there-a-bus checks.  That cost is microseconds per unit
  against seconds of alignment, far below the end-to-end timing noise
  floor of a shared 1-core container (measured ~±4% here — see the
  ``noise`` block of the artifact), so it is measured directly: the
  exact per-unit bookkeeping sequence is timed in a tight loop and
  normalized by the end-to-end CPU time of the baseline run, with a
  generous ops-per-unit overestimate.  A sub-noise cost measured at
  its call site is a *more* accurate number than an end-to-end A/B
  that cannot resolve it; the signed end-to-end delta is still
  recorded for transparency.
* **telemetry on** (target ≤5%) — full ``Tracer`` plus the
  cross-process bus: workers serialize and stream span trees, funnel
  counters and resource samples as each unit completes.  This cost is
  large enough to resolve end-to-end: CPU time (parent + reaped
  workers via ``os.times``; wall clock is meaningless when 2 workers
  share 1 core) over interleaved rounds, each round on a fresh
  pre-warmed pool (a pool forked onto busy cores stays slow for its
  lifetime, so pool reuse bakes placement luck into a configuration),
  minimum per configuration compared.

Hard assertions: output identity across all configurations and zero
dropped/lost bus events.  Overheads are recorded signed; the gate
fails only slowdowns beyond target.
"""

import json
import os
import time

import numpy as np
import pytest

from repro.core.pipeline import align_assemblies
from repro.genome import Assembly, Sequence, make_species_pair
from repro.obs import NO_PROGRESS, TelemetryOptions, Tracer
from repro.obs.tracer import NULL_TRACER
from repro.parallel import ExecutionEngine

from .conftest import (
    BENCH_PIPELINE_PATH,
    EXON_COUNT,
    PAIR_MODEL,
    PAIR_SPECS,
    print_table,
)
from .conftest import GENOME_LENGTH as FULL_GENOME_LENGTH

WORKERS = 2
TARGETS = {"telemetry_off": 0.01, "telemetry_on": 0.05}
#: Interleaved timed rounds per configuration; the minimum CPU time is
#: compared (the minimum estimates the contention-free run).
ROUNDS = 5
#: Smaller than the main pair runs: many short rounds beat one long
#: one on a noisy shared machine.
GENOME_LENGTH = FULL_GENOME_LENGTH // 2
#: Iterations of the off-path bookkeeping microbenchmark.
MICRO_ITERATIONS = 20_000
#: Deliberate overestimate of bookkeeping sequences per gathered unit
#: (one per unit plus one per extension batch; real runs see far
#: fewer) so the derived off-overhead is an upper bound.
OPS_PER_UNIT = 100


def _split_assembly(genome, prefix):
    half = len(genome.codes) // 2
    return Assembly(
        name=prefix,
        chromosomes=[
            Sequence(genome.codes[:half], name=f"{prefix}1"),
            Sequence(genome.codes[half:], name=f"{prefix}2"),
        ],
    )


def _alignment_key(result):
    """Byte-identity proxy: every alignment's full coordinate tuple."""
    return [
        (
            a.target_name,
            a.query_name,
            a.strand,
            a.target_start,
            a.target_end,
            a.query_start,
            a.query_end,
            a.score,
        )
        for a in result.alignments
    ]


def _cpu_now():
    """CPU seconds of this process plus every reaped child."""
    stamp = os.times()
    return (
        stamp.user + stamp.system + stamp.children_user + stamp.children_system
    )


def _bookkeeping_cost_per_op():
    """Seconds per off-path bookkeeping sequence, measured directly.

    This is the exact extra work ``_align_assemblies_parallel`` and
    ``stream_extension`` do per gathered unit when a telemetry bundle
    is attached to an untraced run (no bus, no tracer): two histogram
    observations into the registry, the no-op progress calls, and the
    bus-is-None checks.
    """
    telemetry = TelemetryOptions(progress=NO_PROGRESS)
    registry = telemetry.registry
    start = time.perf_counter()
    for index in range(MICRO_ITERATIONS):
        bus = telemetry.bus
        if bus is not None:  # pragma: no cover - off path has no bus
            raise AssertionError
        registry.histogram("queue_depth").observe(index % 7)
        registry.histogram("dispatch_latency_seconds").observe(1e-4)
        NO_PROGRESS.set_in_flight(index % 7)
        NO_PROGRESS.advance(units=1, cells=1000.0)
    return (time.perf_counter() - start) / MICRO_ITERATIONS


def _record(entry):
    try:
        artifact = json.loads(BENCH_PIPELINE_PATH.read_text())
    except (OSError, ValueError):
        artifact = {"version": 1}
    artifact["obs_overhead"] = entry
    BENCH_PIPELINE_PATH.write_text(
        json.dumps(artifact, indent=2, sort_keys=True)
    )


@pytest.mark.benchmark(group="obs_overhead")
def test_telemetry_overhead(benchmark):
    name, distance, seed = PAIR_SPECS[-1]
    pair = make_species_pair(
        GENOME_LENGTH,
        distance,
        np.random.default_rng(seed),
        exon_count=EXON_COUNT,
        **PAIR_MODEL,
    )
    target = _split_assembly(pair.target.genome, "t")
    query = _split_assembly(pair.query.genome, "q")
    unit_count = 4  # 2 target x 2 query chromosomes

    off_telemetry = TelemetryOptions()
    on_telemetry = TelemetryOptions()
    # The on-config bus must exist before its pools build (the queue
    # rides the pool initializer); align_assemblies would do this
    # lazily, but here engines are built up front.
    on_telemetry.ensure_bus()

    configs = {
        "baseline": (None, lambda: NULL_TRACER),
        "telemetry_off": (off_telemetry, lambda: NULL_TRACER),
        "telemetry_on": (on_telemetry, Tracer),
    }

    def sweep():
        best = {}
        try:
            for _ in range(ROUNDS):
                for label, (telemetry, make_tracer) in configs.items():
                    with ExecutionEngine(
                        WORKERS, telemetry=telemetry
                    ) as engine:
                        # Warm the fresh pool with a full untimed run.
                        align_assemblies(target, query, engine=engine)
                        tracer = make_tracer()
                        cpu_start = _cpu_now()
                        wall_start = time.perf_counter()
                        result = align_assemblies(
                            target,
                            query,
                            engine=engine,
                            tracer=tracer,
                            telemetry=telemetry,
                        )
                        wall = time.perf_counter() - wall_start
                    # Engine closed: workers reaped, their CPU visible.
                    cpu = _cpu_now() - cpu_start
                    if label not in best or cpu < best[label][1]:
                        best[label] = (result, cpu, wall)
            on_summary = on_telemetry.finish()
        finally:
            on_telemetry.close()
        per_op = _bookkeeping_cost_per_op()

        baseline, base_cpu, base_wall = best["baseline"]
        off_result, off_cpu, _ = best["telemetry_off"]
        on_result, on_cpu, _ = best["telemetry_on"]
        assert off_telemetry.bus is None  # untraced runs never pay a bus
        assert _alignment_key(off_result) == _alignment_key(baseline)
        assert _alignment_key(on_result) == _alignment_key(baseline)
        bus = on_summary["bus"]
        assert bus is not None and bus["workers"] >= 1
        return {
            "cpu": {
                "baseline": base_cpu,
                "telemetry_off": off_cpu,
                "telemetry_on": on_cpu,
            },
            "base_wall": base_wall,
            "per_op": per_op,
            "bus": bus,
        }

    measured = benchmark.pedantic(sweep, rounds=1, iterations=1)
    cpu = measured["cpu"]
    bus = measured["bus"]
    # Off: derived upper bound (call-site cost x generous op count,
    # normalized by baseline CPU) — see module docstring for why the
    # end-to-end delta cannot resolve this and is recorded as noise.
    off_derived = (
        measured["per_op"] * OPS_PER_UNIT * unit_count / cpu["baseline"]
    )
    off_signed = cpu["telemetry_off"] / cpu["baseline"] - 1.0
    on_overhead = cpu["telemetry_on"] / cpu["baseline"] - 1.0
    overhead = {
        "telemetry_off": off_derived,
        "telemetry_on": on_overhead,
    }
    dropped = bus["dropped_events"] + bus["lost_events"]
    _record(
        {
            "pair": name,
            "genome_length": GENOME_LENGTH,
            "workers": WORKERS,
            "rounds": ROUNDS,
            "cpu_seconds": cpu,
            "overhead": overhead,
            "targets": dict(TARGETS),
            "method": {
                "telemetry_off": (
                    "per-unit bookkeeping microbenchmark x "
                    f"{OPS_PER_UNIT} ops/unit upper bound, normalized "
                    "by baseline CPU (end-to-end A/B cannot resolve "
                    "a sub-noise cost; see EXPERIMENTS.md)"
                ),
                "telemetry_on": (
                    "end-to-end CPU A/B, min of interleaved rounds on "
                    "fresh pre-warmed pools"
                ),
            },
            "noise": {
                "telemetry_off_end_to_end_signed": off_signed,
                "bookkeeping_seconds_per_op": measured["per_op"],
            },
            "events": bus["events"],
            "dropped_events": dropped,
            "identical_output": True,
        }
    )

    assert dropped == 0
    assert off_derived < TARGETS["telemetry_off"]
    print_table(
        f"Telemetry overhead ({name}, {GENOME_LENGTH:,} bp, "
        f"{WORKERS} workers, min CPU of {ROUNDS} rounds)",
        ("configuration", "cpu s", "overhead", "target"),
        [
            ("baseline (null tracer)", f"{cpu['baseline']:.2f}", "-", "-"),
            (
                "telemetry off (derived)",
                f"{cpu['telemetry_off']:.2f}",
                f"{off_derived * 100:+.4f}%",
                f"<{TARGETS['telemetry_off']:.0%}",
            ),
            (
                "telemetry on (bus)",
                f"{cpu['telemetry_on']:.2f}",
                f"{on_overhead * 100:+.1f}%",
                f"<{TARGETS['telemetry_on']:.0%}",
            ),
        ],
    )
