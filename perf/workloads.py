"""The five workloads: what each one is for and how its inputs are made.

Inputs are a function of ``(workload, seed, scale)`` only; the program
under test sees nothing but the FASTA files written from them.

Every workload fixes the *structure* of its genomes (lengths, number and
size of alignable islands) and lets the seed choose only the bases and
the mutations.  With the structure left to the seed as well
(``alignable_fraction`` islands of exponential length, long indels that
make GACT-X re-extend a diagonal it has drifted off) one seed's run does
1.5-2x the extension work of the next, and no timing could be compared
between two seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Tuple

import numpy as np

from repro.genome import make_species_pair, markov_genome, write_fasta
from repro.genome.synthesis import concatenate


@dataclass
class Pair:
    """One target assembly and one query assembly (lists of records)."""

    targets: list
    queries: list
    target_path: Path = None
    query_path: Path = None

    def write(self, directory: Path, stem: str) -> None:
        self.target_path = directory / f"{stem}.target.fa"
        self.query_path = directory / f"{stem}.query.fa"
        write_fasta(self.targets, self.target_path)
        write_fasta(self.queries, self.query_path)


def _related(length: int, distance: float, rng, suffix: str = "") -> Pair:
    """A fully alignable pair; short indels only (see module docstring)."""
    pair = make_species_pair(
        max(300, length),
        distance,
        rng,
        long_indel_prob=0.0,
        target_name=f"target{suffix}",
        query_name=f"query{suffix}",
    )
    return Pair([pair.target.genome], [pair.query.genome])


#: a conserved element in the middle of a pair.  The anchor with the best
#: filter score is extended first, in both directions in lockstep, and
#: absorbs the rest; where it lies decides for how long two full
#: extension tiles are held at once, i.e. the peak RSS (96-133 MB over ten
#: seeds on a uniform 14 kbp pair).  The core puts it in the middle.
CORE_BP = 640
CORE_DISTANCE = 0.02


def _anchored(length: int, distance: float, rng, scale: float) -> Pair:
    """A fully alignable pair whose best anchor lies in the middle."""
    core = int(CORE_BP * scale)
    arm = (int(length * scale) - core) // 2
    parts = [
        _related(arm, distance, rng),
        _related(core, CORE_DISTANCE, rng),
        _related(arm, distance, rng),
    ]
    return Pair(
        [concatenate([p.targets[0] for p in parts], "target")],
        [concatenate([p.queries[0] for p in parts], "query")],
    )


def _near(rng, scale: float) -> List[Pair]:
    return [_anchored(14_000, 0.11, rng, scale)]


#: wga-far / lastz-far: FAR_ISLANDS alignable islands in unrelated
#: background.  At this divergence both filters still find every island,
#: so matched_bp does not jump by a quarter from one seed to the next.
FAR_ISLANDS = 4
FAR_ISLAND_BP = 700
FAR_SPACER_BP = 9_500
FAR_ISLAND_DISTANCE = 0.35


def _far(rng, scale: float) -> List[Pair]:
    spacer = int(FAR_SPACER_BP * scale)
    targets, queries = [], []
    for _ in range(FAR_ISLANDS):
        targets.append(markov_genome(spacer, rng))
        queries.append(markov_genome(spacer, rng))
        island = _related(
            int(FAR_ISLAND_BP * scale), FAR_ISLAND_DISTANCE, rng
        )
        targets.append(island.targets[0])
        queries.append(island.queries[0])
    targets.append(markov_genome(spacer, rng))
    queries.append(markov_genome(spacer, rng))
    return [
        Pair(
            [concatenate(targets, "target")],
            [concatenate(queries, "query")],
        )
    ]


def _assembly(rng, scale: float) -> List[Pair]:
    chromosomes = [
        _related(int(8_000 * scale), 0.3, rng, suffix=f"_chr{number}")
        for number in (1, 2, 3)
    ]
    return [
        Pair(
            [c.targets[0] for c in chromosomes],
            [c.queries[0] for c in chromosomes],
        )
    ]


def _serve(rng, scale: float) -> List[Pair]:
    # Under one 1920 bp extension tile: at 2 kbp some seeds need a second
    # tile and the daemon's peak RSS jumps by a quarter with the seed.
    return [_anchored(1_500, 0.3, rng, scale) for _ in range(4)]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make: Callable[[np.random.Generator, float], List[Pair]]
    aligner: str = "darwin"
    #: extra ``repro align`` arguments of the measured invocation.
    args: Tuple[str, ...] = ()
    #: jobs go through a ``repro serve`` daemon instead of the CLI.
    serve: bool = False
    #: one op journals to a fresh ``--checkpoint`` (assembly mode).
    checkpoint: bool = False

    def inputs(self, seed: int, scale: float) -> List[Pair]:
        return self.make(np.random.default_rng(seed), scale)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "wga-near",
            "closely related, fully alignable pair: GACT-X extension is "
            "the largest stage of align(), the gapped filter a small one",
            _near,
        ),
        Workload(
            "wga-far",
            "distant pair, 5 % alignable: noise seed hits make the BSW "
            "gapped filter most of align(); where a filter change shows",
            _far,
        ),
        Workload(
            "lastz-far",
            "same FASTA files as wga-far through --aligner lastz: the "
            "gapped filter is never called, so a filter change must not show",
            _far,
            aligner="lastz",
        ),
        Workload(
            "assembly-par",
            "3x3 chromosome pairs with --workers 2 --checkpoint: same "
            "kernels through the process pool, shm transport and journal",
            _assembly,
            args=("--workers", "2"),
            checkpoint=True,
        ),
        Workload(
            "serve-closed",
            "closed loop, 2 clients over 4 small pairs against repro serve: "
            "HTTP, scheduler and fsync'd journal are a large share of latency",
            _serve,
            serve=True,
        ),
    )
}
