"""Serial vs streamed scheduling of the extension stage.

Runs the most distant (most extension-heavy) species pair end-to-end
serially and under the streamed bounded-queue dataflow at several
worker counts, asserting every run is byte-identical to serial, and
records the study into ``BENCH_PIPELINE.json`` under
``parallel_scaling``:

* per-worker-count wall-clock (best of ``ROUNDS`` to damp scheduler
  noise) next to the serial wall-clock,
* ``streamed_speedup`` — serial wall / streamed wall,
* ``idle_tail_seconds`` / ``occupancy`` / dispatch counts from the
  schedule's :class:`repro.obs.occupancy.StreamStats`,
* the target ``repro bench check`` gates against: the streamed schedule
  at workers=2 must reach at least 0.7x the serial run.

The target is a floor, not a speedup claim: the reference container has
one or two shared cores, where a process pool barely beats serial and
everything the schedule adds (pool start, dispatch round trips, speculative extensions
discarded at replay) shows up as loss.  Eager replay and diagonal
deferral keep dispatched work near the serial minimum, which is what
holds the ratio near 1.0 here; on multicore boxes the overlap term
takes it above.  (The barrier schedule this study used to compare
against measured 0.63x serial on the same pair and was removed for it —
see EXPERIMENTS.md.)
"""

import json
import time

import numpy as np
import pytest

from repro.core import DarwinWGA
from repro.genome import make_species_pair

from .conftest import (
    BENCH_PIPELINE_PATH,
    EXON_COUNT,
    GENOME_LENGTH,
    PAIR_MODEL,
    PAIR_SPECS,
    print_table,
)

WORKER_COUNTS = (1, 2, 4)

#: Repeats per worker count; best wall-clock is recorded.
ROUNDS = 2

#: Gated by ``repro bench check`` against the current artifact.
TARGETS = {
    "streamed_speedup": 0.7,
    "at_workers": "2",
}


def _run(target, query, workers):
    """Best-of-ROUNDS wall clock; returns the stream stats of the
    fastest round alongside the result."""
    best = None
    for _ in range(ROUNDS):
        start = time.perf_counter()
        with DarwinWGA(workers=workers) as aligner:
            result = aligner.align(target, query)
        wall = time.perf_counter() - start
        if best is None or wall < best[0]:
            best = (wall, result, aligner.last_stream)
    return best


def _record_scaling(pair_name, study):
    """Merge the serial-vs-streamed study into the aggregate artifact."""
    try:
        artifact = json.loads(BENCH_PIPELINE_PATH.read_text())
    except (OSError, ValueError):
        artifact = {"version": 1}
    artifact["parallel_scaling"] = dict(
        study,
        pair=pair_name,
        genome_length=GENOME_LENGTH,
        targets=TARGETS,
    )
    BENCH_PIPELINE_PATH.write_text(
        json.dumps(artifact, indent=2, sort_keys=True)
    )


@pytest.mark.benchmark(group="parallel_scaling")
def test_parallel_scaling(benchmark):
    name, distance, seed = PAIR_SPECS[-1]
    pair = make_species_pair(
        GENOME_LENGTH,
        distance,
        np.random.default_rng(seed),
        exon_count=EXON_COUNT,
        **PAIR_MODEL,
    )
    target, query = pair.target.genome, pair.query.genome

    def sweep():
        serial_wall, serial, _ = _run(target, query, 1)
        streamed = {}
        identical = True
        for workers in WORKER_COUNTS[1:]:
            wall, result, stream = _run(target, query, workers)
            identical = identical and (
                result.alignments == serial.alignments
            )
            streamed[str(workers)] = {
                "wall_seconds": wall,
                "idle_tail_seconds": stream["idle_tail_seconds"],
                "occupancy": stream["occupancy"],
                "peak_in_flight": stream["peak_in_flight"],
                "backpressure_stalls": stream["backpressure_stalls"],
                "dispatched_tasks": stream["dispatched_tasks"],
            }
        return serial_wall, streamed, identical

    serial_wall, streamed, identical = benchmark.pedantic(
        sweep, rounds=1, iterations=1
    )
    assert identical, "the streamed schedule changed the output"

    study = {
        "serial_seconds": serial_wall,
        "streamed": streamed,
        "identical_output": identical,
        "streamed_speedup": {
            w: serial_wall / streamed[w]["wall_seconds"] for w in streamed
        },
    }
    _record_scaling(name, study)

    print_table(
        f"Serial vs streamed ({name}, {GENOME_LENGTH:,} bp, "
        f"serial {serial_wall:.2f}s)",
        ("workers", "streamed s", "speedup", "idle tail", "occupancy"),
        [
            (
                w,
                f"{streamed[w]['wall_seconds']:.2f}",
                f"{study['streamed_speedup'][w]:.2f}x",
                f"{streamed[w]['idle_tail_seconds']:.3f}",
                f"{streamed[w]['occupancy']:.2f}",
            )
            for w in sorted(streamed)
        ],
    )
