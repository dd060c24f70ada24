"""Shared infrastructure for the paper-reproduction benchmarks.

Every table and figure of the paper's evaluation section has a benchmark
module here.  The species pairs are synthetic (see DESIGN.md): four pairs
at increasing phylogenetic distance stand in for dm6-droSim1, dm6-droYak2,
dm6-dp4 and ce11-cb4.  Both aligners run once per pair (session-scoped
cache); the individual benchmarks derive their tables from those runs.

Scale knob: set ``REPRO_BENCH_SCALE`` (default 1.0) to grow/shrink the
synthetic genomes; shapes are stable across scales, absolute numbers grow
with genome size.

These benchmarks reproduce the paper's tables and figures; they write
no file.  How fast the code runs is measured by ``perf/run.py`` (see
``perf/README.md``), the repository's one performance reference.
"""

import os
from dataclasses import dataclass

import numpy as np
import pytest

from repro.chain import build_chains
from repro.core import DarwinWGA
from repro.genome import make_species_pair
from repro.lastz import LastzAligner

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

#: Synthetic stand-ins for the paper's four species pairs, ordered from
#: closest to most distant (Figure 8 distances in substitutions/site).
PAIR_SPECS = (
    ("dm6-droSim1", 0.11, 42),
    ("dm6-droYak2", 0.23, 43),
    ("dm6-dp4", 0.55, 44),
    ("ce11-cb4", 1.32, 45),
)

GENOME_LENGTH = int(30000 * SCALE)
EXON_COUNT = max(4, int(14 * SCALE))


@dataclass
class PairRun:
    """Everything the benchmarks need about one species pair."""

    name: str
    distance: float
    pair: object
    darwin: object
    lastz: object
    darwin_chains: list
    lastz_chains: list


#: Mosaic-model parameters (see DESIGN.md): ~35% of the genome alignable
#: in ~300 bp islands, indel density ~1 event/7 substitutions (saturating
#: with distance), plus codon-aligned indels inside exons.
PAIR_MODEL = dict(
    alignable_fraction=0.35,
    island_mean_length=300,
    island_distance_cap=0.4,
    indel_per_substitution=0.14,
    exon_indel_per_substitution=0.05,
)


def _chain_order(alignments):
    """Sort alignments so ``build_chains(..., presorted=True)`` is exact.

    A stable global sort on (partition key, target_start, query_start)
    reproduces, within each (target, query, strand) partition, precisely
    the order the chainer's own per-partition re-sort would produce.
    """
    return sorted(
        alignments,
        key=lambda a: (
            a.target_name,
            a.query_name,
            a.strand,
            a.target_start,
            a.query_start,
        ),
    )


def _run_pair(name, distance, seed):
    pair = make_species_pair(
        GENOME_LENGTH,
        distance,
        np.random.default_rng(seed),
        exon_count=EXON_COUNT,
        **PAIR_MODEL,
    )
    target, query = pair.target.genome, pair.query.genome
    darwin = DarwinWGA().align(target, query)
    lastz = LastzAligner().align(target, query)
    return PairRun(
        name=name,
        distance=distance,
        pair=pair,
        darwin=darwin,
        lastz=lastz,
        darwin_chains=build_chains(
            _chain_order(darwin.alignments), presorted=True
        ),
        lastz_chains=build_chains(
            _chain_order(lastz.alignments), presorted=True
        ),
    )


@pytest.fixture(scope="session")
def pair_runs():
    """Both aligners on all four species pairs (cached per session)."""
    return [_run_pair(*spec) for spec in PAIR_SPECS]


@pytest.fixture(scope="session")
def distant_run(pair_runs):
    """The most distant pair (the ce11-cb4 stand-in)."""
    return pair_runs[-1]


@pytest.fixture(scope="session")
def close_run(pair_runs):
    return pair_runs[0]


def print_table(title, headers, rows):
    """Render a paper-style table to stdout (captured with ``-s``)."""
    widths = [
        max(len(str(headers[i])), max((len(str(r[i])) for r in rows), default=0))
        for i in range(len(headers))
    ]
    line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    print(f"\n=== {title} ===")
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
