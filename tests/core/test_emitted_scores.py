"""Every emitted score is the score of its own CIGAR.

Byte-identity across schedules is self-consistency; this is a check
against the sequences themselves.  For each aligner and each schedule —
one pair serial and at ``workers=2``, an assembly at ``workers=1`` and
``workers=2`` — every alignment's ``score`` equals
``reference.cigar_score`` of its CIGAR against its target and (on
strand -1, reverse-complemented) query, and its CIGAR walks the
sequences as :meth:`~repro.align.alignment.Alignment.verify` requires.
The pair carries inversions, so both strands are covered.
"""

import numpy as np
import pytest

from repro.core import DarwinWGA, align_assemblies
from repro.genome import Assembly, Sequence, make_species_pair
from repro.lastz import LastzAligner

from .. import reference


@pytest.fixture(scope="module")
def genomes():
    pair = make_species_pair(
        6000,
        0.3,
        np.random.default_rng(1),
        alignable_fraction=0.6,
        inversion_count=2,
    )
    return pair.target.genome, pair.query.genome


def split(genome, prefix):
    half = len(genome) // 2
    return Assembly(
        name=prefix,
        chromosomes=[
            Sequence(genome.codes[:half], name=f"{prefix}1"),
            Sequence(genome.codes[half:], name=f"{prefix}2"),
        ],
    )


def run(aligner_class, schedule, target, query):
    """``(alignments, {name: target}, {name: query})`` of one schedule."""
    mode, workers = schedule
    if mode == "pair":
        with aligner_class(workers=workers) as aligner:
            result = aligner.align(target, query)
        return result.alignments, {None: target}, {None: query}
    targets, queries = split(target, "t"), split(query, "q")
    result = align_assemblies(
        targets, queries, aligner_class=aligner_class, workers=workers
    )
    return (
        result.alignments,
        {seq.name: seq for seq in targets.chromosomes},
        {seq.name: seq for seq in queries.chromosomes},
    )


@pytest.mark.parametrize("aligner_class", [DarwinWGA, LastzAligner])
@pytest.mark.parametrize(
    "schedule", [("pair", 1), ("pair", 2), ("assembly", 1), ("assembly", 2)]
)
def test_scores_equal_their_cigars(genomes, aligner_class, schedule):
    alignments, targets, queries = run(aligner_class, schedule, *genomes)
    assert {a.strand for a in alignments} == {1, -1}
    scoring = aligner_class.config_class().scoring
    single = schedule[0] == "pair"
    for alignment in alignments:
        target = targets[None if single else alignment.target_name]
        # A reverse-strand alignment names the reverse-complemented query.
        name = alignment.query_name.removesuffix("(-)")
        query = queries[None if single else name]
        alignment.verify(target, query)
        oriented = (
            query.reverse_complement() if alignment.strand == -1 else query
        )
        assert alignment.score == reference.cigar_score(
            alignment.cigar,
            target,
            oriented,
            scoring,
            alignment.target_start,
            alignment.query_start,
        )
